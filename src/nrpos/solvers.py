"""Position estimation from quantized measurements: one damped
Gauss-Newton solve from measurement rows, plus geometric dilution
diagnostics.

A row is one measurement (`Row`): a residual kind, the anchor row it is
taken from, its measured value and, for a range difference, the anchor
row it is taken against. The kinds are range and range difference in
metres, azimuth and zenith in degrees. Every positioning method's reports
become rows (`simulate.METHOD_TABLE`), and `solve_rows` solves them: the
rows become one residual problem (`_Problem`), with one residual per row
chosen by its kind, and `_problem` puts them in canonical order, by kind
and then anchor row, so that the order of the reports does not move the
fix. The fix is checked to be determined, and `solve_rows` alone
picks its starts, from the rows: every solve starts from the plain
centroid of the distinct anchor rows its rows use, a range difference's
reference included, in anchor-row order, and the kinds present add their
own.

- Range differences always add the minima of a coarse objective scan as
  starts, which picks between their hyperbola branches.
- Ranges start from the linear least-squares solution of the
  squared-range equations; the scan backs up a start that fails.
- Azimuths, with or without zeniths, start from the closed-form
  least-squares intersection of the bearing lines.

`gdop` builds its problem from rows too: a fix keeps the canonical rows
it was solved from (`PositionFix.rows`), in residual order, and a drop's
GDOP is theirs at the truth. It calls LAPACK's SVD and inverse gufuncs,
which `np.linalg.cond` and `np.linalg.inv` wrap, bit for bit the
wrappers' results.

Gauss-Newton accepts a step only when it lowers the residual RMS
strictly, halving it up to 25 times to find one; a run whose halvings
all fail ends unconverged. On a flat RMS (a hyperbola asymptote, a
bearing fan) equal-RMS steps would walk the point off to the iteration
cap, so the only equal RMS accepted is at the minimum, where the full
step is already shorter than the tolerance and the run converges.

Gauss-Newton runs on Python floats: the problem's residuals and
Jacobian rows are per-row `math` arithmetic, with one branch on the kind
per block of rows of one kind. Every least-squares solve, the
Gauss-Newton step and both closed-form starts, is one kernel, `_lstsq`:
LAPACK's dgelsd, called through the gufunc that `np.linalg.lstsq` wraps,
bit for bit the wrapper's solution. numpy also remains for the dot
products that `np.linalg.norm` takes (see `_gauss_newton`). The
arithmetic is pinned: every operation and reduction is the one of the
plain whole-array loop in `tests/gauss_newton_oracle.py`, and a test
checks every field of the fixes of captured runs against it bit for bit.

`beam_bearings` turns DL-AoD beam sweeps into bearings, the bearings of
all of a drop's sweeps in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import inv as _inv
from numpy.linalg._umath_linalg import lstsq as _dgelsd
from numpy.linalg._umath_linalg import svd as _singular_values


class SolverError(ValueError):
    pass


@dataclass(frozen=True, kw_only=True)
class SolverOptions:
    """A run's solve: its geometry, which every solve needs, by keyword.
    area (x0, y0, x1, y1) is the deployment area: the coarse scan covers
    it, and the range and bearing solves check their starts and fixes
    against it. fix_height is the terminal height of a 2-D solve, None
    solving in 3-D."""

    area: tuple[float, float, float, float]
    fix_height: float | None
    max_iterations: int = 50
    tolerance_m: float = 1e-4

    def __post_init__(self):
        if self.tolerance_m <= 0:
            raise SolverError("tolerance must be positive")
        try:
            x0, y0, x1, y1 = map(float, self.area)
        except (TypeError, ValueError):
            x0 = x1 = y0 = y1 = math.nan
        if not (-math.inf < x0 < x1 < math.inf and -math.inf < y0 < y1 < math.inf):
            raise SolverError("area must be four finite numbers, x0 < x1 and y0 < y1")


@dataclass
class PositionFix:
    position: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    objective: float = 0.0
    # the canonical rows `solve_rows` solved, in residual order; empty on a
    # bare Gauss-Newton run
    rows: tuple[Row, ...] = ()


# residual kinds: metres to an anchor, metres to an anchor less metres to
# the reference anchor, and degrees of the bearing from an anchor
RANGE = "range"
RANGE_DIFFERENCE = "range difference"
AZIMUTH = "azimuth"
ZENITH = "zenith"


class Row(NamedTuple):
    """One measurement: its residual kind, the anchor row it is taken from,
    the measured value (metres or degrees) and, for a range difference,
    the anchor row it is taken against."""

    kind: str
    anchor: int
    value: float
    ref: int | None = None


def wrap_deg(angle):
    """Wrap to (-180, 180]."""
    wrapped = np.mod(np.asarray(angle, dtype=float) + 180.0, 360.0) - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


def init_guess(anchors, fix_height: float | None = None) -> np.ndarray:
    """Plain centroid of the anchors, at fix_height, or 1.5 m below the
    anchors' mean height when the height is free."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if len(anchors) == 0:
        raise SolverError("need at least one anchor")
    w = np.full(len(anchors), 1.0 / len(anchors))
    guess = (anchors * w[:, None]).sum(axis=0)
    if fix_height is not None:
        guess[2] = fix_height
    else:
        guess[2] = anchors[:, 2].mean() - 1.5
    return guess


# degrees per radian, as np.degrees applies it
_DEG = 180.0 / np.pi
# float64 machine epsilon, the unit of np.linalg.lstsq's default cut-off
_EPS = float(np.finfo(float).eps)


def _lstsq(a, b) -> np.ndarray:
    """The least-squares solution of a x = b, for an (m, n) float system a
    and an m-vector b: np.linalg.lstsq(a, b, rcond=None)[0] to the bit,
    without its wrapper. It calls the gufunc that np.linalg.lstsq wraps,
    LAPACK's dgelsd, with the wrapper's singular-value cut-off rcond =
    eps * max(m, n), and so the same rank handling. Where the SVD does not
    converge the wrapper raises LinAlgError; here the solution is NaN and
    the invalid flag is set, so a caller runs it under np.errstate and
    tests the solution for finiteness."""
    a = np.array(a, dtype=float)
    m, n = a.shape
    return _dgelsd(a, np.array(b, dtype=float)[:, None], _EPS * max(m, n),
                   signature="ddd->ddid")[0][:, 0]


def _sum_squares(r) -> float:
    """Sum of the squares of the floats r in np.add.reduce's order, to the
    bit: in sequence below 8 values; from 8 to 128, eight running sums over
    blocks of 8 combined pairwise, then the tail in sequence; above 128,
    halves split at a multiple of 8."""
    n = len(r)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_squares(r[:half]) + _sum_squares(r[half:])
    sq = [v * v for v in r]
    tail = n - n % 8
    total = 0.0
    if tail:
        acc = sq[:8]
        for i in range(8, tail, 8):
            acc = [a + v for a, v in zip(acc, sq[i:i + 8])]
        a0, a1, a2, a3, a4, a5, a6, a7 = acc
        total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    for v in sq[tail:]:
        total += v
    return total


class _Problem:
    """Residuals and Jacobians of measurement rows: one residual and one
    Jacobian row per row, in the order of `rows`, each chosen by its kind.

    `rows` index `anchors`, the (anchor row, xyz) array; the problem keeps
    `kinds`, the anchor coordinates of each row (`anchors`) and its value
    (`measured`) as arrays, and `ref`, the range differences' one reference
    anchor (None without range differences). `_residuals(x)` takes a point
    as three Python floats and returns the residuals as a list of floats,
    and `_jacobian(x, k)` the Jacobian's first k columns as rows of floats.
    Both are per-row `math` arithmetic, so a Gauss-Newton iteration makes
    no numpy call to evaluate, and both branch on the kind once per block
    of consecutive rows of one kind (`_problem`'s canonical order makes
    one block per kind). A zero distance in the Jacobian raises
    ZeroDivisionError where numpy gave a NaN row.

    - A range is a range difference against a reference at distance 0.0,
      which subtracts exactly: both are the distance to the anchor, (dx² +
      dy²) + dz², the order of np.add.reduce over three values and so
      np.linalg.norm's to the bit, less the reference distance. That one
      np.linalg.norm takes as a dot product, which need not sum in a
      sequential sum's order, so it stays one.
    - Azimuths and zeniths are in degrees, from `math.atan2`, which can
      differ from numpy's vectorised arctan2 in the last bit.
    """

    def __init__(self, rows, anchors, fix_height):
        self.rows = tuple(rows)
        self.fix_height = fix_height
        self.kinds = np.array([r.kind for r in self.rows])
        self.anchors = anchors[[r.anchor for r in self.rows]]
        self.measured = np.array([r.value for r in self.rows], dtype=float)
        refs = {r.ref for r in self.rows if r.kind == RANGE_DIFFERENCE}
        if len(refs) > 1 or None in refs:
            raise SolverError("all range differences must share one reference anchor")
        self.ref = anchors[refs.pop()] if refs else None
        # (kind, [(anchor x, y, z, value) of each row]) of each block
        values = np.column_stack([self.anchors, self.measured]).tolist()
        self._blocks = [(kind, [v for _, v in block]) for kind, block
                        in groupby(zip(self.kinds.tolist(), values), key=itemgetter(0))]

    def _ref_distance(self, x):
        """x less the reference anchor, and its norm; 0.0 without one."""
        if self.ref is None:
            return None, 0.0
        diff_ref = np.subtract(x, self.ref)
        return diff_ref, math.sqrt(diff_ref.dot(diff_ref))

    def _residuals(self, x):
        x0, x1, x2 = x
        d_ref = self._ref_distance(x)[1]
        r = []
        for kind, block in self._blocks:
            if kind == AZIMUTH:
                for a0, a1, _, m in block:
                    # wrap_deg(np.degrees(np.arctan2(dy, dx)) - az)
                    w = (math.atan2(x1 - a1, x0 - a0) * _DEG - m + 180.0) % 360.0 - 180.0
                    r.append(180.0 if w == -180.0 else w)
            elif kind == ZENITH:
                for a0, a1, a2, m in block:
                    dx = x0 - a0
                    dy = x1 - a1
                    r.append(math.atan2(math.sqrt(dx * dx + dy * dy), x2 - a2) * _DEG - m)
            else:
                to_ref = d_ref if kind == RANGE_DIFFERENCE else 0.0
                for a0, a1, a2, m in block:
                    dx = x0 - a0
                    dy = x1 - a1
                    dz = x2 - a2
                    r.append(math.sqrt(dx * dx + dy * dy + dz * dz) - to_ref - m)
        return r

    def _jacobian(self, x, k):
        # -dy / rho2 * deg is dy / rho2 * -deg to the bit: negation is exact
        x0, x1, x2 = x
        diff_ref, d_ref = self._ref_distance(x)
        g = (0.0, 0.0, 0.0) if diff_ref is None else [c / d_ref for c in diff_ref.tolist()]
        rows = []
        for kind, block in self._blocks:
            if kind == AZIMUTH:
                for a0, a1, _, _ in block:
                    dx = x0 - a0
                    dy = x1 - a1
                    rho2 = dx * dx + dy * dy
                    row = (dy / rho2 * -_DEG, dx / rho2 * _DEG)
                    rows.append(row if k == 2 else row + (0.0,))
            elif kind == ZENITH:
                for a0, a1, a2, _ in block:
                    dx = x0 - a0
                    dy = x1 - a1
                    dz = x2 - a2
                    rho2 = dx * dx + dy * dy
                    rho = math.sqrt(rho2)
                    d2 = rho2 + dz * dz
                    d2_rho = d2 * rho
                    row = (dz * dx / d2_rho * _DEG, dz * dy / d2_rho * _DEG)
                    rows.append(row if k == 2 else row + (-rho / d2 * _DEG,))
            else:
                # unit vector from the anchor to x, less the reference's
                g0, g1, g2 = g if kind == RANGE_DIFFERENCE else (0.0, 0.0, 0.0)
                for a0, a1, a2, _ in block:
                    dx = x0 - a0
                    dy = x1 - a1
                    dz = x2 - a2
                    d = math.sqrt(dx * dx + dy * dy + dz * dz)
                    rows.append((dx / d - g0, dy / d - g1) if k == 2 else
                                (dx / d - g0, dy / d - g1, dz / d - g2))
        return rows

    def jacobian(self, x):
        """The Jacobian's free columns at x; all NaN when a distance is zero."""
        x = np.asarray(x, dtype=float).tolist()
        k = 3 if self.fix_height is None else 2
        try:
            return np.array(self._jacobian(x, k))
        except ZeroDivisionError:
            return np.full((len(self.rows), k), np.nan)

    def objective_grid(self, pts, z):
        """The sum of squared residuals at each (x, y) of pts at height z, for
        range and range-difference rows."""
        p3 = np.column_stack([pts, np.full(len(pts), z)])
        d = np.linalg.norm(p3[:, None, :] - self.anchors[None, :, :], axis=2)
        if self.ref is not None:
            d_ref = np.linalg.norm(p3 - self.ref[None, :], axis=1)
            d = d - np.where(self.kinds == RANGE_DIFFERENCE, d_ref[:, None], 0.0)
        res = d - self.measured[None, :]
        return (res**2).sum(axis=1)


def _gauss_newton(problem: _Problem, x0: np.ndarray, options: SolverOptions) -> PositionFix:
    """Damped Gauss-Newton: halve the step until the residual RMS falls.

    A candidate is accepted when its RMS is strictly lower than the
    current one. When the full step is shorter than options.tolerance_m
    the run is at its minimum, and a candidate whose RMS is not higher is
    accepted too. A step taken shorter than the tolerance converges the
    run; 25 halvings without an accepted candidate end it unconverged. So
    does, short of the minimum, a candidate that rounds to the current
    point: every shorter step rounds to it as well, and none of them can
    lower the RMS, so the search ends there without evaluating them.

    The loop runs on the free coordinates as Python floats: residuals,
    Jacobian rows, the RMS, the line search and the convergence test make
    no numpy call. Per iteration numpy does three things: the step is
    `_lstsq` of the Jacobian's free columns (dgelsd, with
    `np.linalg.lstsq`'s rank handling), the step's norm is its dot
    product, and a time-difference evaluation takes its reference
    distance as a dot product, as `np.linalg.norm` does. Residuals are
    evaluated once per point: the line search's residuals at the accepted
    candidate drive the next step and the returned fix. Every operation
    and reduction is the one of the plain whole-array loop in
    `tests/gauss_newton_oracle.py`, which this one matches bit for bit,
    angles from `math.atan2` included. The run ends where the oracle's
    `np.linalg.lstsq` fails: at a zero distance in the Jacobian, which
    divides by zero here where the oracle holds a NaN row, and at an SVD
    that does not converge, whose step is NaN here where the oracle's
    raises LinAlgError. One np.errstate for the run silences the flag that
    a failed SVD sets.
    """
    fixed = [] if options.fix_height is None else [float(options.fix_height)]
    n_free = 3 - len(fixed)
    var = np.asarray(x0, dtype=float).tolist()[:n_free]

    def evaluate(v):
        r = problem._residuals(v + fixed)
        return math.sqrt(_sum_squares(r) / len(r)), r

    rms, r = evaluate(var)
    converged = False
    iterations = 0
    with np.errstate(all="ignore"):  # a step whose SVD fails is NaN
        for iterations in range(1, options.max_iterations + 1):
            try:
                step = _lstsq(problem._jacobian(var + fixed, n_free), r)
            except ZeroDivisionError:
                break
            s = step.tolist()
            if not all(map(math.isfinite, s)):
                break
            # np.linalg.norm(step); scale is a power of two, so scale * step_norm
            # is the norm of the step taken, to the bit
            step_norm = math.sqrt(step.dot(step))
            at_minimum = step_norm < options.tolerance_m
            scale = 1.0
            for _ in range(25):
                cand = [vi - scale * si for vi, si in zip(var, s)]
                if cand == var and not at_minimum:
                    break  # every shorter step rounds to var too: none is accepted
                cand_rms, cand_r = evaluate(cand)
                if cand_rms < rms or (at_minimum and cand_rms <= rms):
                    var, rms, r = cand, cand_rms, cand_r
                    break
                scale *= 0.5
            if var is not cand:
                break
            if scale * step_norm < options.tolerance_m:
                converged = True
                break

    return PositionFix(
        position=np.array(var + fixed),
        residual_rms=rms,
        iterations=iterations,
        converged=converged,
        objective=_sum_squares(r),
    )


_GRID_POINTS = 32
# well-separated scan minima zoomed into starts
_SCAN_STARTS = 3


def _scan_points(problem, lo, hi, z, n):
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts, problem.objective_grid(pts, z)


def _coarse_starts(problem: _Problem, options: SolverOptions) -> list[np.ndarray]:
    """Candidate starts from a coarse objective scan of options.area with
    local zoom. The best few well-separated cells are zoomed twice so each
    start sits deep inside its basin and the refinement cannot jump out."""
    lo, hi = np.reshape(np.asarray(options.area, dtype=float), (2, 2))
    z = options.fix_height
    if z is None:
        z = float(problem.anchors[:, 2].mean()) - 1.5
    pts, vals = _scan_points(problem, lo, hi, z, _GRID_POINTS)
    cell = (hi - lo) / (_GRID_POINTS - 1)
    min_sep = 2.0 * float(np.linalg.norm(cell))

    seeds: list[np.ndarray] = []
    for idx in np.argsort(vals):
        p = pts[idx]
        if all(np.linalg.norm(p - s) > min_sep for s in seeds):
            seeds.append(p)
        if len(seeds) == _SCAN_STARTS:
            break

    starts = []
    for seed in seeds:
        best, c = seed, cell
        for _ in range(2):
            zpts, zvals = _scan_points(problem, best - 1.5 * c, best + 1.5 * c, z, 9)
            best = zpts[int(np.argmin(zvals))]
            c = c / 2.5
        starts.append(np.array([best[0], best[1], z]))
    return starts


def _solve_multistart(problem: _Problem, x0, options: SolverOptions) -> PositionFix:
    """Damped Gauss-Newton from the caller's start and from the zoomed
    minima of a coarse objective scan; the lowest-objective fix wins.

    Time differences always use this: their objective has several basins
    (the hyperbola branches), and the scan finds the better-fitting one.
    Ranges reach it only when their closed-form start fails; bearings start
    in closed form alone.
    """
    best = _gauss_newton(problem, x0, options)
    for start in _coarse_starts(problem, options):
        if np.linalg.norm(start[:2] - best.position[:2]) <= max(options.tolerance_m, 1e-6):
            continue
        alt = _gauss_newton(problem, start, options)
        if alt.objective < best.objective:
            best = alt
    return best


def _bearing_start(problem: _Problem) -> np.ndarray:
    """Least-squares intersection of the bearing lines of the azimuth rows
    (Stansfield, J. IEE 1947): each line gives sin(az) x - cos(az) y =
    sin(az) xi - cos(az) yi."""
    rows = problem.kinds == AZIMUTH
    az = np.radians(problem.measured[rows])
    s, c = np.sin(az), np.cos(az)
    rhs = s * problem.anchors[rows, 0] - c * problem.anchors[rows, 1]
    with np.errstate(all="ignore"):
        return _lstsq(np.column_stack([s, -c]), rhs)


def in_area(p, area) -> bool:
    """Whether p's (x, y) lies in area (x0, y0, x1, y1), its edges included."""
    return area[0] <= p[0] <= area[2] and area[1] <= p[1] <= area[3]


def _solve_bearings(problem: _Problem, x0, options: SolverOptions) -> PositionFix:
    """Damped Gauss-Newton from the bearing-line intersection. When that
    start is not finite or lies off the area, or its run does not converge
    in the area, a second run starts from x0; the lower objective wins, a
    tie going to the intersection."""
    start = np.array(x0, dtype=float)
    start[:2] = _bearing_start(problem)
    best = _gauss_newton(problem, start, options) if np.all(np.isfinite(start)) else None
    if best is None or not (in_area(start, options.area) and best.converged
                            and in_area(best.position, options.area)):
        alt = _gauss_newton(problem, x0, options)
        if best is None or alt.objective < best.objective:
            best = alt
    return best


def _range_start(problem: _Problem) -> np.ndarray:
    """Linear least squares on the squared-range equations. With known
    height h each range gives [-2xi, -2yi, 1] . [x, y, x^2 + y^2] =
    ri^2 - (h - zi)^2 - xi^2 - yi^2; in 3-D, [-2xi, -2yi, -2zi, 1] .
    [x, y, z, |p|^2] = ri^2 - |ai|^2."""
    a, h = problem.anchors, problem.fix_height
    rhs = problem.measured**2 - (a * a).sum(axis=1)
    if h is None:
        cols = a
    else:
        cols = a[:, :2]
        rhs += a[:, 2] ** 2 - (h - a[:, 2]) ** 2
    with np.errstate(all="ignore"):
        sol = _lstsq(np.column_stack([-2.0 * cols, np.ones(len(a))]), rhs)
    return sol[:-1] if h is None else np.array([sol[0], sol[1], h])


def _solve_ranges(problem: _Problem, x0, options: SolverOptions) -> PositionFix:
    """Damped Gauss-Newton from x0 and from the closed-form start; the lower
    objective wins, a tie going to x0. The coarse scan runs instead when the
    start is not finite or lies off the area, or neither run converges in
    the area. The x0 run is needed: on noisy ranges the linear start can
    lie in a higher-objective basin than the one x0 reaches."""
    start = _range_start(problem)
    if np.all(np.isfinite(start)) and in_area(start, options.area):
        runs = (_gauss_newton(problem, x0, options), _gauss_newton(problem, start, options))
        if any(f.converged and in_area(f.position, options.area) for f in runs):
            return min(runs, key=lambda f: f.objective)
    return _solve_multistart(problem, x0, options)


def _problem(rows, anchors, fix_height) -> _Problem:
    """The `_Problem` of rows on the (anchor row, xyz) array: range
    differences, all against one reference; ranges; or azimuths, with no
    zenith rows or one per azimuth row at the same anchor. Only a range
    difference names a reference anchor. The problem takes the rows in
    canonical order, by kind and then anchor row, which is its residual
    order, so the order they come in does not move a fix."""
    if not rows:
        raise SolverError("no measurements")
    rows = sorted(rows, key=lambda r: (r.kind, r.anchor))
    kinds = {r.kind for r in rows}
    if kinds not in ({RANGE_DIFFERENCE}, {RANGE}, {AZIMUTH}, {AZIMUTH, ZENITH}):
        raise SolverError(f"no solve from rows of kinds {sorted(kinds)}")
    if any(r.ref is not None for r in rows if r.kind != RANGE_DIFFERENCE):
        raise SolverError("only a range difference is taken against a reference anchor")
    zen = [r.anchor for r in rows if r.kind == ZENITH]
    if zen and zen != [r.anchor for r in rows if r.kind == AZIMUTH]:
        raise SolverError("zenith rows must pair with the azimuth rows, anchor by anchor")
    return _Problem(rows, anchors, fix_height)


# per first kind of a problem's rows: its name in messages, the fewest rows
# of that kind for a fix at a known height, one more when the height is
# free, and its solve from a start
_SOLVES = {
    RANGE_DIFFERENCE: ("tdoa", 3, _solve_multistart),
    RANGE: ("rtt", 3, _solve_ranges),
    AZIMUTH: ("aoa", 2, _solve_bearings),
}


def solve_rows(rows, anchors, options: SolverOptions, x0=None) -> PositionFix:
    """Position fix from rows on anchors, an (anchor row, xyz) array.

    The rows become one `_Problem` (see `_problem` for the row sets it
    takes), whose first kind picks the start: the coarse scan for range
    differences (`_solve_multistart`), the linear range start for ranges
    (`_solve_ranges`), the bearing intersection for azimuths
    (`_solve_bearings`). Before it runs, every row's value must be finite
    and the fix must be determined: enough rows, anchors that span the
    plane for ranges and range differences (reference included), bearings
    that are not all parallel, and a height that some row constrains when
    options.fix_height is None. x0 defaults to the plain centroid
    (`init_guess`) of the distinct anchor rows the rows use, a range
    difference's reference included, in anchor-row order; a caller passes
    x0 only to force a start. The fix keeps the problem's rows, in
    canonical order, as `rows`: row i gave residual i.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    problem = _problem(rows, anchors, options.fix_height)
    if not np.all(np.isfinite(problem.measured)):
        raise SolverError("a measurement is not finite")
    first = problem.kinds == problem.kinds[0]
    name, least, solve = _SOLVES[problem.kinds[0]]
    need = least + (1 if options.fix_height is None else 0)
    if (n := np.count_nonzero(first)) < need:
        raise SolverError(f"{name} needs >= {need} measurements, got {n}")
    if problem.kinds[0] == AZIMUTH:
        # collinear anchors are fine for bearings; parallel bearings are not
        az = problem.measured[first]
        if np.all(np.abs(wrap_deg((az - az[0]) * 2.0)) < 1e-9):
            raise SolverError("parallel bearings have no unique intersection")
        if options.fix_height is None and ZENITH not in problem.kinds:
            raise SolverError("azimuths alone do not measure the height; fix it or add zeniths")
    else:
        used = problem.anchors[:, :2]
        if problem.ref is not None:
            used = np.vstack([used, problem.ref[:2]])
        if np.linalg.matrix_rank(used - used.mean(axis=0), tol=1e-9) < 2:
            raise SolverError("anchors are collinear (degenerate geometry)")
    if x0 is None:
        rows_used = sorted({r.anchor for r in problem.rows}
                           | {r.ref for r in problem.rows if r.ref is not None})
        x0 = init_guess(anchors[rows_used], fix_height=options.fix_height)
    fix = solve(problem, x0, options)
    fix.rows = problem.rows
    return fix


BEARING_TOP_BEAMS = 3


def beam_bearings(sweeps) -> list[tuple[float, bool]]:
    """Departure bearings from per-beam powers, one per sweep.

    A sweep is a list of (azimuth_deg, rsrp_dbm) in beam order. Its bearing
    is the power-weighted circular mean of its BEARING_TOP_BEAMS strongest
    beams, equal powers in sweep order. Returns (azimuth, low_confidence)
    per sweep; confidence drops for a single beam, or when the top beams
    are indistinguishable, which carries no direction information.

    The means of all sweeps are one pass over a (sweep, top beam) array. A
    sweep of fewer beams is padded with beams of power -0.0, the exact
    additive identity, so every sum is that of its own beams to the bit.
    """
    if not all(sweeps):
        raise SolverError("no beams")
    if not sweeps:
        return []
    tops = [sorted(sweep, key=itemgetter(1), reverse=True)[:BEARING_TOP_BEAMS]
            for sweep in sweeps]
    powers = [[10.0 ** (dbm / 10.0) for _, dbm in top] for top in tops]
    pad = [[-0.0] * (BEARING_TOP_BEAMS - len(top)) for top in tops]
    power = np.array([p + z for p, z in zip(powers, pad)])
    az = np.deg2rad([[a for a, _ in top] + [0.0] * len(z) for top, z in zip(tops, pad)])
    w = power / power.sum(axis=1)[:, None]
    east = (w * np.cos(az)).sum(axis=1).tolist()
    north = (w * np.sin(az)).sum(axis=1).tolist()
    # the top powers fall, so p[0] is their maximum and p[-1] their
    # minimum; the spread of all-zero powers is numpy's 0 / 0, NaN, not low
    return [(math.degrees(math.atan2(y, x)),
             len(sweep) < 2 or (p[0] > 0.0 and (p[0] - p[-1]) / p[0] < 1e-3))
            for sweep, p, x, y in zip(sweeps, powers, east, north)]


def gdop(rows, anchors, position, fix_height: float | None) -> float:
    """sqrt(trace((J^T J)^-1)) at position of the rows' problem on anchors,
    an (anchor row, xyz) array; the rows' values do not enter.

    Returns +inf for singular geometry: a condition number above 1e12,
    taken as np.linalg.cond takes it, the ratio of the extreme singular
    values with NaN read as inf, or an inverse that LAPACK refuses. A
    Jacobian with NaN entries raises LinAlgError, as np.linalg.cond does.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    j = _problem(rows, anchors, fix_height).jacobian(position)
    jtj = j.T @ j
    with np.errstate(all="ignore"):
        s = _singular_values(jtj, signature="d->d")
        cond = s[0] / s[-1]
    if not cond <= 1e12:
        if math.isnan(cond) and np.isnan(jtj).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return math.inf
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            inv = _inv(jtj, signature="d->d")
        except FloatingPointError:  # a zero pivot
            return math.inf
    return float(np.sqrt(np.trace(inv)))
