"""The downlink PRS and the uplink SRS take one receive path: the
received-RE kernel `receive_groups` and the despread `despread_groups`
are each named in exactly one place in src/nrpos, `Simulator._receive`.
A second receive path, such as a copy of the chain for one side, fails
here. The walk goes over the AST: a call, or any other load of the name
or of an attribute of that name, is a use; the def and imports are not."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nrpos"
KERNELS = ("receive_groups", "despread_groups")


class _Uses(ast.NodeVisitor):
    """module.Class.function of every use of one name in a module."""

    def __init__(self, module: str, name: str):
        self.name = name
        self.scope = [module]
        self.sites: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        if node.id == self.name:
            self.sites.append(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def use_sites(package: Path, name: str) -> list[str]:
    """Where the package's modules use name, one entry per use."""
    sites = []
    for path in sorted(package.glob("*.py")):
        uses = _Uses(path.stem, name)
        uses.visit(ast.parse(path.read_text()))
        sites += uses.sites
    return sites


def test_each_kernel_has_one_caller():
    for name in KERNELS:
        assert use_sites(PACKAGE, name) == ["simulate.Simulator._receive"], name


def test_guard_sees_a_second_path(tmp_path):
    (tmp_path / "kernels.py").write_text(
        "def receive_groups(groups): ...\n"
    )
    (tmp_path / "paths.py").write_text(
        "from . import kernels\n"
        "from .kernels import receive_groups\n"
        "class Sim:\n"
        "    def downlink(self):\n"
        "        return receive_groups([])\n"
        "    def uplink(self):\n"
        "        def inner():\n"
        "            return kernels.receive_groups([])\n"
        "        return inner()\n"
        "KERNEL = receive_groups\n"
    )
    assert use_sites(tmp_path, "receive_groups") == [
        "paths.Sim.downlink", "paths.Sim.uplink.inner", "paths"]
