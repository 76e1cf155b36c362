"""Evaluation deployments: urban macro / urban micro hexagonal grids and the
indoor open-office hall, UE drops and the anchor convex hull.

A deployment is geometry only: its TRPs' places, sectors and powers, and
its area rectangle (x0, y0, x1, y1), which the drops and the solver's
area read. The signal each TRP sends, its antenna array and the carrier
belong to the simulation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

UE_HEIGHT_M = 1.5

# Per-scenario defaults: isd_m, tx_power_dbm and the area rectangle
# (x0, y0, x1, y1) in m: 1600 m and 500 m squares centred on the hex
# layouts' origin, and the 120 m x 50 m hall from its corner. The layout
# functions fix the TRP count and TRP_HEIGHTS the TRP heights.
SCENARIO_DEFAULTS = {
    "uma": dict(isd=500.0, tx_power_dbm=49.0, area=(-800.0, -800.0, 800.0, 800.0)),
    "umi": dict(isd=200.0, tx_power_dbm=42.0, area=(-250.0, -250.0, 250.0, 250.0)),
    "ioo": dict(isd=20.0, tx_power_dbm=23.0, area=(0.0, 0.0, 120.0, 50.0)),
}

TRP_HEIGHTS = {"uma": (20.0, 50.0), "umi": (10.0, 10.0), "ioo": (3.0, 3.0)}

SECTOR_AZIMUTHS_DEG = (0.0, 120.0, 240.0)

HULL_EDGE_TOL = 1e-9


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class AntennaArray:
    """Uniform rectangular array in the horizontal plane."""

    rows: int = 1
    cols: int = 1
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise GeometryError("array needs rows, cols >= 1")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Trp:
    """One transmission/reception point."""

    trp_id: int
    position: tuple[float, float, float]
    sector_azimuth_deg: float = 0.0
    tx_power_dbm: float = 23.0


@dataclass(frozen=True)
class Deployment:
    scenario: str
    trps: tuple[Trp, ...]
    area: tuple[float, float, float, float]  # (x0, y0, x1, y1), m
    isd: float

    def trp_positions(self) -> np.ndarray:
        return np.array([t.position for t in self.trps])


def hex_site_centers(isd: float) -> np.ndarray:
    """Center site plus the six first-ring neighbors at distance isd."""
    centers = [(0.0, 0.0)]
    for i in range(6):
        ang = math.radians(60.0 * i)
        centers.append((isd * math.cos(ang), isd * math.sin(ang)))
    return np.array(centers)


def hex_layout(
    isd: float,
    tx_power_dbm: float = 49.0,
    height_range: tuple[float, float] = (25.0, 25.0),
    seed: int = 0,
) -> list[Trp]:
    """Seven-site hexagonal deployment with one co-located TRP per sector.

    Site heights are drawn uniformly from height_range, one draw per site
    shared by its sectors.
    """
    if isd <= 0:
        raise GeometryError("isd must be positive")
    rng = substream(seed, "deploy")
    trps = []
    for site_idx, (x, y) in enumerate(hex_site_centers(isd)):
        h = float(rng.uniform(*height_range)) if height_range[0] < height_range[1] else height_range[0]
        for s, azimuth in enumerate(SECTOR_AZIMUTHS_DEG):
            trps.append(
                Trp(
                    trp_id=site_idx * len(SECTOR_AZIMUTHS_DEG) + s,
                    position=(float(x), float(y), h),
                    sector_azimuth_deg=azimuth,
                    tx_power_dbm=tx_power_dbm,
                )
            )
    return trps


def ioo_layout(tx_power_dbm: float = 23.0) -> list[Trp]:
    """Twelve ceiling anchors on a 6x2 grid in the 120 m x 50 m hall."""
    trps = []
    xs = [10.0, 30.0, 50.0, 70.0, 90.0, 110.0]
    ys = [15.0, 35.0]
    trp_id = 0
    for y in ys:
        for x in xs:
            trps.append(
                Trp(trp_id=trp_id, position=(x, y, 3.0), tx_power_dbm=tx_power_dbm)
            )
            trp_id += 1
    return trps


def build_deployment(scenario: str, seed: int = 0) -> Deployment:
    """Deployment with the agreed per-scenario constants.

    TRPs are numbered 0..n-1 in row order: a TRP's id is its row in
    `Deployment.trps`, which the simulator relies on to index its per-TRP
    lists by id.
    """
    scenario = scenario.lower()
    if scenario not in SCENARIO_DEFAULTS:
        raise GeometryError(f"unknown scenario {scenario!r}")
    defaults = SCENARIO_DEFAULTS[scenario]
    power = defaults["tx_power_dbm"]
    if scenario == "ioo":
        trps = ioo_layout(tx_power_dbm=power)
    else:
        trps = hex_layout(
            defaults["isd"],
            tx_power_dbm=power,
            height_range=TRP_HEIGHTS[scenario],
            seed=seed,
        )
    return Deployment(scenario=scenario, trps=tuple(trps), area=defaults["area"],
                      isd=defaults["isd"])


def in_coverage(points, deployment: Deployment) -> np.ndarray:
    """One bool per row of points, an (n, >=2) array: True where the row's
    (x, y) lies in the hexagonal coverage of a hex layout's sites. The
    indoor hall has no hexagons: `drop_ues` draws its whole rectangle."""
    p = np.asarray(points, dtype=float)[:, :2]
    sites = np.unique(np.round(deployment.trp_positions()[:, :2], 6), axis=0)
    # flat-top regular hexagons of circumradius isd / sqrt(3) about the sites,
    # vertices at (+-isd / sqrt(3), 0). The sites' own cells are pointy-top
    # (neighbours at 0, 60, ... degrees), so the two disagree: the three-cell
    # junction (isd / 2, isd / (2 sqrt(3))) lies in no hexagon here.
    q = np.abs(p[:, None, :] - sites[None, :, :]) / (deployment.isd / math.sqrt(3))
    inside = (q[..., 1] <= math.sqrt(3) / 2) & (q[..., 1] <= math.sqrt(3) * (1 - q[..., 0]))
    return inside.any(axis=1)


def drop_ues(
    n: int, deployment: Deployment, rng_seed: int, full_area: bool = False
) -> np.ndarray:
    """n uniform UE positions at 1.5 m height, deterministic in the seed.

    Hex scenarios sample inside the hexagonal coverage by default to avoid
    edge artifacts; full_area=True samples the whole stated rectangle.
    The indoor hall always uses its full rectangle.
    """
    if n < 1:
        raise GeometryError("need n >= 1")
    rng = substream(rng_seed, "drop")
    lo, hi = np.reshape(deployment.area, (2, 2))
    if full_area or deployment.scenario == "ioo":
        xy = rng.uniform(lo, hi, size=(n, 2))
    else:
        # each batch's covered candidates, in draw order, until n
        xy = np.empty((0, 2))
        while len(xy) < n:
            cand = rng.uniform(lo, hi, size=(4 * (n - len(xy)), 2))
            xy = np.concatenate([xy, cand[in_coverage(cand, deployment)]])[:n]
    return np.column_stack([xy, np.full(n, UE_HEIGHT_M)])


def convex_hull(points) -> np.ndarray:
    """Planar convex hull by the monotone chain, counter-clockwise."""
    pts = np.unique(np.asarray(points, dtype=float)[:, :2], axis=0)
    if len(pts) < 3:
        raise GeometryError("hull needs >= 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise GeometryError("degenerate (collinear) input")
    return hull


def point_in_hull(p, hull: np.ndarray) -> bool:
    """True for interior and boundary points of a CCW hull polygon, up to
    HULL_EDGE_TOL in the edge cross product."""
    p = np.asarray(p, dtype=float)[:2]
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -HULL_EDGE_TOL:
            return False
    return True

