"""The receive path's RE-set kernels as they were before each shrank to
its draws and BLAS passes: `set_signals` summing every member into a
zeroed row, `set_factors` through `np.linalg.cholesky`, `draw_statistics`
gathering each rank's normals through a cumulative-sum index, and
`complete_set` drawing a fresh array of normals and solving through
`np.linalg.solve`. Used to pin `simulate.set_signals`, `set_factors`,
`draw_statistics` and `complete_set` bit for bit, results and the stream
each leaves.

Only the statistic draw loop (`simulate._draw_statistic`) and the grouping
of sets by rank (`simulate._by_length`) are the package's own.
"""

import math

import numpy as np

from nrpos.simulate import _by_length, _draw_statistic


def set_signals(groups, amps, lines, refs) -> np.ndarray:
    c = np.zeros((len(groups),) + refs[groups[0].members[0]].shape, dtype=complex)
    for row, g in zip(c, groups):
        for i in g.members:
            x = lines[i, g.residues]
            x *= refs[i]
            x *= amps[i]
            row += x
    return c


def set_factors(signals) -> list[np.ndarray]:
    factors = [None] * len(signals)
    for q, pos in _by_length(signals).items():
        grams = np.array([np.vdot(a, b) for e in pos for a in signals[e] for b in signals[e]])
        upper = np.linalg.cholesky(grams.reshape(len(pos), q, q)).conj().transpose(0, 2, 1)
        for e, r in zip(pos, upper):
            factors[e] = r
    return factors


def draw_statistics(rng, factors, std: float, n_re: int):
    start = np.cumsum([0] + [2 * len(r) for r in factors]).tolist()
    normals, rest = np.empty(start[-1]), np.empty(len(factors))
    _draw_statistic(rng, [len(r) for r in factors], n_re, normals, rest)
    normals *= std
    rest *= std**2
    z, power = [None] * len(factors), [None] * len(factors)
    for q, pos in _by_length(factors).items():
        parts = normals[[start[e] + j for e in pos for j in range(2 * q)]].reshape(len(pos), 2, q)
        zs = parts[:, 0] + 1j * parts[:, 1]
        y = zs[:, :, None] + np.array([factors[e] for e in pos])
        powers = ((y.real**2 + y.imag**2).sum(axis=1) + rest[pos, None]) / n_re
        for e, z_e, p in zip(pos, zs, powers.tolist()):
            z[e], power[e] = z_e, p
    return z, rest.tolist(), power


def complete_set(c: np.ndarray, r: np.ndarray, z: np.ndarray, rest: float, rng) -> np.ndarray:
    flat = c.reshape(len(c), -1)
    w = rng.standard_normal(2 * flat.shape[1]).view(complex)
    y = np.linalg.solve(r.conj().T, flat.conj() @ w)
    s = math.sqrt(rest / (np.vdot(w, w).real - np.vdot(y, y).real))
    noise = np.dot(np.linalg.solve(r, z - s * y), flat)
    noise += s * w
    return c + noise.reshape(c.shape[1:])
