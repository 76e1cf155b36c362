"""Damped Gauss-Newton and the residuals and Jacobians of the time-difference,
range and angle problems, kept as they were before one iteration shrank to
a few numpy calls: whole-array expressions on the 3-vector point, a
Jacobian rebuilt from scratch after every accepted step, `np.linalg.norm`
for every norm. Used to pin `solvers._gauss_newton` bit for bit, and to
expose the residual RMS after each accepted step, which the package does not
keep.

The problems are the package's own; only their `anchors`, `fix_height` and
measurement attributes are read.
"""

import math

import numpy as np

from nrpos.solvers import PositionFix, _RangeProblem, _TdoaProblem, wrap_deg


def _expand(x2, fix_height):
    if fix_height is None:
        return np.asarray(x2, dtype=float)
    return np.array([x2[0], x2[1], fix_height])


def residuals(problem, x):
    if isinstance(problem, _TdoaProblem):
        d = np.linalg.norm(problem.anchors - x, axis=1)
        d_ref = np.linalg.norm(problem.ref - x)
        return (d - d_ref) - problem.measured
    if isinstance(problem, _RangeProblem):
        return np.linalg.norm(problem.anchors - x, axis=1) - problem.measured
    diff = x - problem.anchors
    az = np.degrees([math.atan2(dy, dx) for dx, dy in diff[:, :2].tolist()])
    res = [wrap_deg(az - problem.az)]
    if problem.zen is not None:
        rho = np.linalg.norm(diff[:, :2], axis=1)
        zen = np.degrees([math.atan2(p, dz) for p, dz in zip(rho.tolist(), diff[:, 2].tolist())])
        res.append(zen - problem.zen)
    return np.concatenate(res)


def jacobian(problem, x):
    if isinstance(problem, _TdoaProblem):
        diff = x - problem.anchors
        d = np.linalg.norm(diff, axis=1, keepdims=True)
        diff_ref = x - problem.ref
        d_ref = np.linalg.norm(diff_ref)
        rows = diff / d - diff_ref / d_ref
        return rows if problem.fix_height is None else rows[:, :2]
    if isinstance(problem, _RangeProblem):
        diff = x - problem.anchors
        d = np.linalg.norm(diff, axis=1, keepdims=True)
        rows = diff / d
        return rows if problem.fix_height is None else rows[:, :2]
    diff = x - problem.anchors
    rho2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    rho = np.sqrt(rho2)
    deg = 180.0 / np.pi
    j_az = np.zeros((len(problem.anchors), 3))
    j_az[:, 0] = -diff[:, 1] / rho2 * deg
    j_az[:, 1] = diff[:, 0] / rho2 * deg
    rows = [j_az]
    if problem.zen is not None:
        d2 = rho2 + diff[:, 2] ** 2
        j_zen = np.zeros((len(problem.anchors), 3))
        j_zen[:, 0] = diff[:, 2] * diff[:, 0] / (d2 * rho) * deg
        j_zen[:, 1] = diff[:, 2] * diff[:, 1] / (d2 * rho) * deg
        j_zen[:, 2] = -rho / d2 * deg
        rows.append(j_zen)
    j = np.vstack(rows)
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
