"""The downlink PRS and the uplink SRS take one receive path: its
kernels, the signal sums `set_signals`, the per-set noise draw
(`set_factors`, `draw_statistics` and `complete_set`) and the despread
`despread_groups`, are each named in exactly one place in src/nrpos,
`Simulator._receive`, but `set_factors`, which the DL-AoD beam sweep's
`Simulator._sweep_factors` shares: every RE set is factored one way. A
second receive path, such as a copy of the chain for one side, or a
second noise path or factorization, fails here. The walk goes over the
AST: a call, or any other load of the name or of an attribute of that
name, is a use; the def and imports are not."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nrpos"
KERNELS = ("set_signals", "set_factors", "draw_statistics", "complete_set", "despread_groups")


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
        sites = ["simulate.Simulator._receive"]
        if name == "set_factors":
            sites.append("simulate.Simulator._sweep_factors")
        assert sorted(use_sites(PACKAGE, name)) == sorted(sites), name


def test_one_factorization():
    """No QR anywhere; the one Cholesky factorization is `set_factors`'."""
    assert use_sites(PACKAGE, "qr") == []
    assert use_sites(PACKAGE, "cholesky") == ["simulate.set_factors"]


def test_guard_sees_a_second_path(tmp_path):
    (tmp_path / "kernels.py").write_text(
        "def complete_set(groups): ...\n"
    )
    (tmp_path / "paths.py").write_text(
        "from . import kernels\n"
        "from .kernels import complete_set\n"
        "class Sim:\n"
        "    def downlink(self):\n"
        "        return complete_set([])\n"
        "    def uplink(self):\n"
        "        def inner():\n"
        "            return kernels.complete_set([])\n"
        "        return inner()\n"
        "KERNEL = complete_set\n"
    )
    assert use_sites(tmp_path, "complete_set") == [
        "paths.Sim.downlink", "paths.Sim.uplink.inner", "paths"]
