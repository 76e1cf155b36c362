import hashlib
import itertools

import numpy as np
import pytest
from pydantic import ValidationError

from nrpos.config import preset_config
from nrpos.scenario import (
    GeometryError,
    build_deployment,
    convex_hull,
    drop_ues,
    hex_layout,
    in_coverage,
    ioo_layout,
    point_in_hull,
)
from nrpos.simulate import Simulator


class TestHexLayout:
    def test_21_trps(self):
        trps = hex_layout(500.0)
        assert len(trps) == 21

    def test_site_ring_radius(self):
        trps = hex_layout(500.0)
        sites = {t.position[:2] for t in trps}
        radii = sorted(np.hypot(x, y) for x, y in sites)
        assert radii[0] == 0.0
        assert all(abs(r - 500.0) < 1e-9 for r in radii[1:])

    @pytest.mark.parametrize("isd", [500.0, 200.0])
    def test_adjacent_site_distance(self, isd):
        sites = np.array(sorted({t.position[:2] for t in hex_layout(isd)}))
        dists = [
            np.linalg.norm(a - b) for a, b in itertools.combinations(sites, 2)
        ]
        nearest = min(dists)
        assert nearest == pytest.approx(isd, rel=1e-9)

    def test_sector_azimuths(self):
        trps = hex_layout(500.0)
        per_site = {}
        for t in trps:
            per_site.setdefault(t.position[:2], []).append(t.sector_azimuth_deg)
        for azs in per_site.values():
            assert sorted(azs) == [0.0, 120.0, 240.0]

    def test_rejects_bad_isd(self):
        with pytest.raises(GeometryError):
            hex_layout(0.0)


class TestIooLayout:
    def test_count_and_grid(self):
        trps = ioo_layout()
        assert len(trps) == 12
        xs = sorted({t.position[0] for t in trps})
        ys = sorted({t.position[1] for t in trps})
        assert xs == [10.0, 30.0, 50.0, 70.0, 90.0, 110.0]
        assert ys == [15.0, 35.0]
        assert all(t.position[2] == 3.0 for t in trps)

    def test_same_row_spacing(self):
        trps = [t for t in ioo_layout() if t.position[1] == 15.0]
        xs = sorted(t.position[0] for t in trps)
        assert all(b - a == 20.0 for a, b in zip(xs, xs[1:]))

    def test_centroid(self):
        pos = np.array([t.position[:2] for t in ioo_layout()])
        assert np.allclose(pos.mean(axis=0), [60.0, 25.0])


class TestDeploymentDefaults:
    @pytest.mark.parametrize(
        "name,isd,n,power,area",
        [
            ("uma", 500.0, 21, 49.0, (-800.0, -800.0, 800.0, 800.0)),
            ("umi", 200.0, 21, 42.0, (-250.0, -250.0, 250.0, 250.0)),
            ("ioo", 20.0, 12, 23.0, (0.0, 0.0, 120.0, 50.0)),
        ],
    )
    def test_paper_constants(self, name, isd, n, power, area):
        d = build_deployment(name)
        assert d.isd == isd
        assert len(d.trps) == n
        assert all(t.tx_power_dbm == power for t in d.trps)
        assert d.area == area

    def test_heights(self):
        uma = build_deployment("uma", seed=3)
        assert all(20.0 <= t.position[2] <= 50.0 for t in uma.trps)
        umi = build_deployment("umi")
        assert all(t.position[2] == 10.0 for t in umi.trps)
        ioo = build_deployment("ioo")
        assert all(t.position[2] == 3.0 for t in ioo.trps)

    def test_uma_height_shared_per_site(self):
        uma = build_deployment("uma", seed=1)
        per_site = {}
        for t in uma.trps:
            per_site.setdefault(t.position[:2], set()).add(t.position[2])
        assert all(len(hs) == 1 for hs in per_site.values())

    def test_unknown_scenario(self):
        with pytest.raises(GeometryError):
            build_deployment("rural")

    @pytest.mark.parametrize("name", ["uma", "umi", "ioo"])
    def test_trp_id_is_its_row(self, name):
        """The simulator indexes its per-TRP lists by trp_id, and its
        anchors keep the deployment's rows."""
        d = build_deployment(name, seed=1)
        assert [t.trp_id for t in d.trps] == list(range(len(d.trps)))
        sim = Simulator(preset_config("ioo-fr1" if name == "ioo" else name, n_drops=1))
        assert list(sim.anchors) == [t.trp_id for t in d.trps]
        assert sim.anchor_xyz.tobytes() == d.trp_positions().tobytes()

    @pytest.mark.parametrize("preset,area", [
        ("uma", (-800.0, -800.0, 800.0, 800.0)),
        ("umi", (-250.0, -250.0, 250.0, 250.0)),
        ("ioo-fr1", (0.0, 0.0, 120.0, 50.0)),
    ])
    def test_solver_area_is_the_deployment_area(self, preset, area):
        """Pinned before the rectangle had one owner: the solver's area is
        the deployment's, the same floats."""
        sim = Simulator(preset_config(preset, n_drops=1))
        assert sim.options.area == area
        assert sim.options.area == build_deployment(preset[:3]).area


# sha256 of drop_ues(200, build_deployment(scenario, seed=1), 1) bytes,
# pinned before the area rectangle had one owner: every draw keeps its bits
DROPS_SHA256 = {
    ("uma", False): "0fefc892bc6fc031842cba506ded7a426b189b2819122d6c8ab4f88c71b84b46",
    ("umi", False): "0f7f3f6c2d160ad2acae2a9a264edb641ae16a5e83f3a53e3f93957f37897faf",
    ("ioo", False): "502fe43344195b112521f9f0511f56d47387152b28c19d5629c79a65c9414d56",
    ("uma", True): "382affa6dacfd3dd4fb1539b2a0128a65e9e4339758891a60ad0b952061892e4",
}


class TestDrops:
    @pytest.mark.parametrize("scenario,full_area", sorted(DROPS_SHA256))
    def test_drops_pinned(self, scenario, full_area):
        drops = drop_ues(200, build_deployment(scenario, seed=1), 1, full_area=full_area)
        assert hashlib.sha256(drops.tobytes()).hexdigest() == DROPS_SHA256[scenario, full_area]

    def test_deterministic(self):
        d = build_deployment("ioo")
        a = drop_ues(50, d, rng_seed=7)
        b = drop_ues(50, d, rng_seed=7)
        assert np.array_equal(a, b)
        c = drop_ues(50, d, rng_seed=8)
        assert not np.array_equal(a, c)

    def test_all_inside_area(self):
        d = build_deployment("ioo")
        drops = drop_ues(500, d, rng_seed=1)
        assert np.all(drops[:, 0] >= 0) and np.all(drops[:, 0] <= 120)
        assert np.all(drops[:, 1] >= 0) and np.all(drops[:, 1] <= 50)
        assert np.all(drops[:, 2] == 1.5)

    def test_ioo_mean_near_center(self):
        d = build_deployment("ioo")
        drops = drop_ues(10000, d, rng_seed=2)
        assert np.linalg.norm(drops[:, :2].mean(axis=0) - [60.0, 25.0]) < 1.0

    def test_hex_drops_in_coverage(self):
        d = build_deployment("umi")
        drops = drop_ues(200, d, rng_seed=3)
        assert in_coverage(drops, d).all()

    def test_full_area_flag(self):
        d = build_deployment("umi")
        drops = drop_ues(2000, d, rng_seed=3, full_area=True)
        # corners of the square stay outside hex coverage
        assert not in_coverage(drops, d).all()
        assert np.all(np.abs(drops[:, 0]) <= 250.0)

    def test_rejects_zero(self):
        with pytest.raises(GeometryError):
            drop_ues(0, build_deployment("ioo"), 1)


class TestConvexHull:
    def test_ioo_hull_is_anchor_rectangle(self):
        d = build_deployment("ioo")
        hull = convex_hull(d.trp_positions())
        corners = {(10.0, 15.0), (110.0, 15.0), (110.0, 35.0), (10.0, 35.0)}
        assert {tuple(v) for v in hull} == corners

    def test_boundary_counts_as_inside(self):
        hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert point_in_hull((0, 0), hull)
        assert point_in_hull((2, 0), hull)
        assert point_in_hull((2, 2), hull)

    def test_outside(self):
        d = build_deployment("ioo")
        hull = convex_hull(d.trp_positions())
        assert not point_in_hull((0.0, 0.0), hull)
        assert not point_in_hull((60.0, 40.0), hull)

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            convex_hull([(0, 0), (1, 1)])

    def test_simulator_builds_the_hull_only_for_the_split(self):
        assert Simulator(preset_config("ioo-fr1", n_drops=1)).hull is None
        hull = Simulator(preset_config("ioo-fr1", n_drops=1, hull_split=True)).hull
        assert hull.tobytes() == convex_hull(build_deployment("ioo").trp_positions()).tobytes()


class TestCombAssignment:
    """Each TRP's downlink comb offset, as `Simulator.dl_resources` sets it
    on comb-12."""

    @staticmethod
    def offsets(preset):
        sim = Simulator(preset_config(preset, n_drops=1, dl_comb_size=12))
        return sim, [sim.dl_resources[t.trp_id].re_offset for t in sim.trps]

    def test_ioo_all_distinct(self):
        _, offs = self.offsets("ioo-fr1")
        assert sorted(offs) == list(range(12))

    def test_uma_shares_offsets(self):
        sim, offs = self.offsets("uma")
        shared = [o for o in set(offs) if offs.count(o) == 2]
        assert len(shared) == 9
        # the RE sets are the TRPs of one offset
        assert sorted(g.members for g in sim._dl_sets) == \
            sorted(tuple(t for t, o in enumerate(offs) if o == off) for off in set(offs))

    def test_mod_arithmetic(self):
        _, offs = self.offsets("uma")
        assert offs[13] == 1

    def test_bad_comb_size(self):
        # comb 5 never reaches the offset assignment: the config refuses it
        with pytest.raises(ValidationError, match="dl_comb_size"):
            preset_config("ioo-fr1", n_drops=1, dl_comb_size=5)


class TestTranslationInvariance:
    def test_layout_shift_moves_all_trps(self):
        a = hex_layout(500.0, seed=5)
        b = hex_layout(500.0, seed=5)
        shift = np.array([100.0, -40.0, 0.0])
        moved = [np.asarray(t.position) + shift for t in a]
        for m, t in zip(moved, b):
            assert np.allclose(m - shift, t.position)
