"""The downlink PRS and the uplink SRS take one receive path: its
kernels, the signal sums `set_signals`, the per-set noise draw
(`set_factors`, `draw_statistics` and `complete_set`) and the despread
`despread_groups`, are each named in exactly one place in src/nrpos,
`Simulator._receive`, but `set_factors`, which the DL-AoD beam sweep's
`Simulator._sweep_factors` shares: every RE set is factored one way. A
second receive path, such as a copy of the chain for one side, or a
second noise path or factorization, fails here. The walk goes over the
AST: a call, or any other load of the name or of an attribute of that
name, is a use; the def and imports are not.

The RE-set kernels call LAPACK's gufuncs directly, without the
np.linalg wrappers: `set_factors` zpotrf's `cholesky_lo` and
`complete_set` zgesv's `solve1`, each in that one place.

Detection tapers once: the delay window builds the taper into its chirp
and its polish weights, and the receive path hands it the despread stack
as it is. Its polish takes its exponentials from the channel's blocked
ramps, `phase_ramps`, the one blocked subcarrier exponential, whose block
width only `channel` defines."""

import ast
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from nrpos.config import preset_config
from nrpos.measurements import DelayWindow
from nrpos.simulate import Simulator

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


LINALG_MODULES = ("numpy.linalg", "numpy.linalg._umath_linalg")


def linalg_uses(package: Path, name: str) -> list[str]:
    """The modules of the package that take name from numpy.linalg or its
    gufunc module: as an attribute of `linalg` or `_umath_linalg`
    (np.linalg.solve), or by an import from either; one entry per use."""
    modules = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == name:
                owner = getattr(node.value, "attr", getattr(node.value, "id", None))
                if owner in ("linalg", "_umath_linalg"):
                    modules.append(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module in LINALG_MODULES:
                modules += [path.stem for alias in node.names if alias.name == name]
    return modules


def test_each_kernel_has_one_caller():
    for name in KERNELS:
        sites = ["simulate.Simulator._receive"]
        if name == "set_factors":
            sites.append("simulate.Simulator._sweep_factors")
        assert sorted(use_sites(PACKAGE, name)) == sorted(sites), name


def test_one_taper():
    """The taper is built in one place, the delay window's constructor: a
    taper pass in the receive path, on every call, fails here. The
    simulator's detection state is that window alone."""
    assert use_sites(PACKAGE, "taper_vector") == ["measurements.DelayWindow.__init__"]
    assert type(Simulator(preset_config("ioo-fr1", n_drops=1))._detection) is DelayWindow


def test_one_blocked_exponential():
    """The channel matrix and the polish take their subcarrier ramps from
    `phase_ramps`: the polish makes no exponential of its own, and no
    module but `channel` names a block width, as a constant or as the
    literal 64."""
    assert sorted(use_sites(PACKAGE, "phase_ramps")) == [
        "measurements._polish_peak", "simulate.Simulator.__init__",
        "simulate.Simulator._channel_matrix"]
    assert "measurements._polish_peak" not in use_sites(PACKAGE, "exp")
    widths = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        widths += [(path.stem, target.id) for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets
                   if isinstance(target, ast.Name) and "BLOCK" in target.id]
        widths += [(path.stem, 64) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and type(node.value) is int
                   and node.value == 64]
    assert widths == [("channel", "RAMP_BLOCK"), ("channel", 64)]


CHOLESKY = ("cholesky", "cholesky_lo", "cholesky_up")


def test_one_factorization():
    """No QR anywhere; the one Cholesky factorization is `set_factors`',
    through np.linalg.cholesky or either of the zpotrf gufuncs it wraps."""
    assert use_sites(PACKAGE, "qr") == []
    assert [site for name in CHOLESKY for site in use_sites(PACKAGE, name)] == [
        "simulate.set_factors"]


def test_one_solve_kernel():
    """The receive path's two q x q triangular solves are LAPACK's zgesv
    gufunc for one right-hand side, `solve1`, called in `complete_set`
    alone; nothing takes np.linalg.solve, np.linalg.cholesky or the gesv
    gufunc for stacked right-hand sides."""
    assert use_sites(PACKAGE, "solve1") == ["simulate.complete_set"] * 2
    for name in ("solve", "cholesky"):
        assert linalg_uses(PACKAGE, name) == [], name


def test_numpy_has_the_kernels():
    for name, loop in (("solve1", "DD->D"), ("cholesky_lo", "D->D")):
        kernel = getattr(_umath_linalg, name, None)
        assert kernel is not None, (
            f"numpy {np.__version__} has no numpy.linalg._umath_linalg.{name}, "
            "a LAPACK gufunc that the receive path calls")
        assert loop in kernel.types, (
            f"numpy {np.__version__}'s {name} gufunc has no {loop!r} loop: {kernel.types}")


def test_guard_sees_a_wrapped_solve(tmp_path):
    (tmp_path / "noise.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import cholesky\n"
        "from numpy.linalg._umath_linalg import solve\n"
        "def complete(r, b):\n"
        "    return np.linalg.solve(r, b), solve(r, b[:, None])\n"
        "def factor(g):\n"
        "    return cholesky(g)\n"
    )
    assert linalg_uses(tmp_path, "solve") == ["noise", "noise"]
    assert linalg_uses(tmp_path, "cholesky") == ["noise"]


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
