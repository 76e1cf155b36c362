"""Damped Gauss-Newton and the residuals and Jacobians of measurement rows,
kept as they were before one iteration shrank to a few numpy calls:
whole-array expressions on the 3-vector point, one per row kind, a
Jacobian rebuilt from scratch after every accepted step, `np.linalg.norm`
for every norm. Used to pin `solvers._gauss_newton` bit for bit, and to
expose the residual RMS after each accepted step, which the package does not
keep.

The problems are the package's own `_Problem`s; only their `kinds`,
`anchors`, `measured`, `ref` and `fix_height` are read. Each kind's rows
are computed together, as one array over the rows of that kind, and land
in the problem's row order.
"""

import math

import numpy as np

from nrpos.solvers import AZIMUTH, RANGE, RANGE_DIFFERENCE, ZENITH, PositionFix, wrap_deg


def _expand(x2, fix_height):
    if fix_height is None:
        return np.asarray(x2, dtype=float)
    return np.array([x2[0], x2[1], fix_height])


def residuals(problem, x):
    kinds, r = problem.kinds, np.empty(len(problem.kinds))
    for kind in (RANGE, RANGE_DIFFERENCE):
        rows = kinds == kind
        d = np.linalg.norm(problem.anchors[rows] - x, axis=1)
        if kind == RANGE_DIFFERENCE and rows.any():
            d = d - np.linalg.norm(problem.ref - x)
        r[rows] = d - problem.measured[rows]
    az, zen = kinds == AZIMUTH, kinds == ZENITH
    diff = x - problem.anchors
    angles = np.degrees([math.atan2(dy, dx) for dx, dy in diff[az, :2].tolist()])
    r[az] = wrap_deg(angles - problem.measured[az])
    rho = np.linalg.norm(diff[zen, :2], axis=1)
    angles = np.degrees([math.atan2(p, dz) for p, dz in zip(rho.tolist(), diff[zen, 2].tolist())])
    r[zen] = angles - problem.measured[zen]
    return r


def jacobian(problem, x):
    kinds, j = problem.kinds, np.zeros((len(problem.kinds), 3))
    diff = x - problem.anchors
    for kind in (RANGE, RANGE_DIFFERENCE):
        rows = kinds == kind
        j[rows] = diff[rows] / np.linalg.norm(diff[rows], axis=1, keepdims=True)
        if kind == RANGE_DIFFERENCE and rows.any():
            diff_ref = x - problem.ref
            j[rows] -= diff_ref / np.linalg.norm(diff_ref)
    deg = 180.0 / np.pi
    az, zen = kinds == AZIMUTH, kinds == ZENITH
    rho2 = diff[az, 0] ** 2 + diff[az, 1] ** 2
    j[az, 0] = -diff[az, 1] / rho2 * deg
    j[az, 1] = diff[az, 0] / rho2 * deg
    dzen = diff[zen]
    rho2 = dzen[:, 0] ** 2 + dzen[:, 1] ** 2
    rho = np.sqrt(rho2)
    d2 = rho2 + dzen[:, 2] ** 2
    j[zen, 0] = dzen[:, 2] * dzen[:, 0] / (d2 * rho) * deg
    j[zen, 1] = dzen[:, 2] * dzen[:, 1] / (d2 * rho) * deg
    j[zen, 2] = -rho / d2 * deg
    return j if problem.fix_height is None else j[:, :2]


def gauss_newton(problem, x0, options,
                 accept_equal=False) -> tuple[PositionFix, tuple[float, ...]]:
    """The fix, and the residual RMS at x0 and after every accepted step.

    A line-search candidate is accepted when its RMS is strictly lower, or
    not higher when the full step is under the tolerance. accept_equal
    accepts an RMS that is not higher at every step, the rule that strict
    decrease replaced: on a flat RMS it walks on to the iteration cap.
    """
    fix_h = options.fix_height
    x = np.asarray(x0, dtype=float).copy()
    if fix_h is not None:
        x[2] = fix_h
    var = x[:2].copy() if fix_h is not None else x.copy()

    def evaluate(v):
        r = residuals(problem, _expand(v, fix_h))
        return float(np.sqrt(np.add.reduce(r * r) / len(r))), r

    rms, r = evaluate(var)
    history = [rms]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        j = jacobian(problem, _expand(var, fix_h))
        try:
            step, *_ = np.linalg.lstsq(j, r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        step_norm = float(np.linalg.norm(step))
        equal_ok = accept_equal or step_norm < options.tolerance_m
        scale = 1.0
        accepted = None
        for _ in range(25):
            cand = var - scale * step
            cand_rms, cand_r = evaluate(cand)
            if cand_rms < rms or (equal_ok and cand_rms <= rms):
                accepted = (cand, cand_rms, cand_r, scale)
                break
            scale *= 0.5
        if accepted is None:
            break
        var, rms, r, scale = accepted
        history.append(rms)
        if scale * step_norm < options.tolerance_m:
            converged = True
            break

    fix = PositionFix(
        position=_expand(var, fix_h),
        residual_rms=rms,
        iterations=iterations,
        converged=converged,
        objective=float(np.add.reduce(r * r)),
    )
    return fix, tuple(history)
