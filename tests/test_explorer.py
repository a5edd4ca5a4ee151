"""Organization search: enumeration, PPA evaluation, Pareto front, selection."""

import itertools
import random
import time

import pytest

from smemsynth.baplus import Library, TechParams, default_library, generate_variant
from smemsynth.explorer import (ConfigError, MemoryConfig, PPAEstimate,
                                UserSpec, enumerate_configs, evaluate_ppa,
                                gops_per_watt, pareto_front, select_best,
                                traditional_baseline_ppa, write_report_csv)


def brute_force_configs(spec, lib, limit=None):
    """Reference enumeration: try every power-of-two 4-tuple up to `words`."""
    limit = limit or spec.words
    pows = [1 << i for i in range((limit).bit_length())]
    out = []
    for macro in lib:
        for r, c, k, m in itertools.product(pows, repeat=4):
            if r * k * macro.B * m != spec.words:
                continue
            if (c * macro.W) % m or c * macro.W // m != spec.bits:
                continue
            out.append(MemoryConfig(macro.name, r, c, k, m))
    return sorted(out, key=MemoryConfig.key)


def test_fixture_enumeration_frozen():
    lib = Library([generate_variant(32, 8)], TechParams())
    spec = UserSpec(256, 8)
    cfgs = enumerate_configs(spec, lib)
    assert len(cfgs) == 10
    assert cfgs == brute_force_configs(spec, lib)
    # frozen: the (R, C, K, M) splits of 256 words x 8 bits over one 32x8 leaf
    quads = {(c.R, c.C, c.K, c.M) for c in cfgs}
    assert quads == {(1, 1, 8, 1), (1, 2, 4, 2), (1, 4, 2, 4), (1, 8, 1, 8),
                     (2, 1, 4, 1), (2, 2, 2, 2), (2, 4, 1, 4), (4, 1, 2, 1),
                     (4, 2, 1, 2), (8, 1, 1, 1)}


def test_enumeration_matches_brute_force_random():
    rng = random.Random(7)
    lib = default_library(TechParams())
    for _ in range(20):
        spec = UserSpec(1 << rng.randint(5, 12), 1 << rng.randint(3, 6))
        assert enumerate_configs(spec, lib) == brute_force_configs(spec, lib)


def test_enumeration_bounds():
    lib = Library([generate_variant(32, 8)], TechParams())
    cfgs = enumerate_configs(UserSpec(256, 8), lib, bounds={"M": 1})
    assert all(c.M == 1 for c in cfgs)
    assert len(cfgs) == 4


def test_config_validate():
    lib = Library([generate_variant(32, 8)], TechParams())
    MemoryConfig("ba_32x8", 2, 2, 2, 2).validate(lib)
    with pytest.raises(ConfigError):
        MemoryConfig("ba_32x8", 3, 1, 1, 1).validate(lib)   # not a power of two
    with pytest.raises(ConfigError):
        MemoryConfig("nope", 1, 1, 1, 1).validate(lib)
    words, bits = MemoryConfig("ba_32x8", 2, 2, 2, 2).dims(lib)
    assert (words, bits) == (256, 8)


def test_ppa_single_macro_frozen():
    # degenerate organization: no global bitline sharing, no column mux
    lib = Library([generate_variant(32, 8)], TechParams())
    est = evaluate_ppa(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    assert est.t_cycle_ps == pytest.approx(50 + 12 * 5 + 192.0)    # 302.0
    # e_dec + C*e_read + wire over the estimated semiperimeter
    semi_um = (1632 + 3200) / 1000.0
    assert est.e_op_fj == pytest.approx(2.0 + 0.8 * 5 + 14.9 + 0.18 * semi_um)
    assert est.p_leak_nw == pytest.approx(2.56 + 50)
    assert est.gops_per_watt == pytest.approx(
        gops_per_watt(est.e_op_fj, est.p_leak_nw, est.t_cycle_ps))


def test_ppa_terms_enabled_by_structure():
    lib = Library([generate_variant(32, 8)], TechParams())
    base = evaluate_ppa(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    shared = evaluate_ppa(MemoryConfig("ba_32x8", 1, 1, 2, 1), lib)
    muxed = evaluate_ppa(MemoryConfig("ba_32x8", 1, 2, 1, 2), lib)
    # K=2 adds the global-bitline arbitration term and one decode bit
    assert shared.t_cycle_ps == pytest.approx(base.t_cycle_ps + 12 + 15 + 5 * 2)
    # M=2 adds the mux term; same depth so the decode width is one bit up
    assert muxed.t_cycle_ps == pytest.approx(base.t_cycle_ps + 12 + 20 + 10 * 1)
    # two active columns burn roughly double the array read energy
    assert muxed.e_op_fj > base.e_op_fj + 14.0


def test_gops_per_watt_definition():
    # 1 fJ/op at zero leak and any speed is 10^6 GOPS/W
    assert gops_per_watt(1.0, 0.0, 100.0) == pytest.approx(1e6)
    # leakage charged per cycle: 1 uW over a 1 ns cycle adds 1 fJ per op
    assert gops_per_watt(1.0, 1000.0, 1000.0) == pytest.approx(5e5)


def naive_front(points):
    keep = []
    for i, (_, a) in enumerate(points):
        dominated = False
        for j, (_, b) in enumerate(points):
            if i == j:
                continue
            if (b.area_um2 <= a.area_um2 and b.t_cycle_ps <= a.t_cycle_ps
                    and b.e_op_fj <= a.e_op_fj
                    and (b.area_um2 < a.area_um2 or b.t_cycle_ps < a.t_cycle_ps
                         or b.e_op_fj < a.e_op_fj)):
                dominated = True
                break
        if not dominated:
            keep.append(points[i])
    return keep


def _cloud(rng, n=200):
    pts = []
    for i in range(n):
        e = rng.uniform(1, 100)
        p = rng.uniform(1, 500)
        t = rng.uniform(100, 2000)
        est = PPAEstimate(rng.uniform(1, 400), t, e, p)
        pts.append((MemoryConfig("ba_8x8", 1, 1, 1 << (i % 3), 1), est))
    return pts


def test_pareto_matches_naive_filter():
    rng = random.Random(11)
    for _ in range(25):
        pts = _cloud(rng)
        got = pareto_front(pts)
        want = naive_front(pts)
        assert {id(p) for _, p in got} == {id(p) for _, p in want}


def _tied_cloud(rng, coarse, n=150):
    """A cloud whose `coarse` axes (0 area, 1 t, 2 e) take a few values
    each, so points tie there, plus exact copies of earlier triples."""
    pts = []
    for i in range(n):
        if pts and rng.random() < 0.1:
            tri = pts[rng.randrange(len(pts))][1].triple()
        else:
            tri = tuple(float(rng.randint(1, 6)) if axis in coarse
                        else rng.uniform(1, 100) for axis in range(3))
        est = PPAEstimate(*tri, rng.uniform(1, 500))
        pts.append((MemoryConfig("ba_8x8", 1, 1, 1 << (i % 3), 1), est))
    return pts


def test_pareto_ties_match_naive_filter_in_order():
    rng = random.Random(15)
    clouds = [_tied_cloud(rng, coarse)
              for coarse in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                             (0, 1, 2))
              for _ in range(6)]
    lib = default_library(TechParams())
    for spec in (UserSpec(1024, 16), UserSpec(2048, 64), UserSpec(4096, 32),
                 UserSpec(16384, 16, aspect_ratio_target=1.0,
                          aspect_ratio_tol=0.5)):
        clouds.append([(c, evaluate_ppa(c, lib))
                       for c in enumerate_configs(spec, lib)])
    for pts in clouds:
        got = pareto_front(pts)
        assert [id(p) for p in got] == [id(p) for p in naive_front(pts)]


def test_pareto_front_scales_on_antichain():
    # a + t + e is the same for every point and no two areas are equal,
    # so no point dominates another and all n are on the front
    n = 4000
    perm = list(range(n))
    rng = random.Random(4000)
    rng.shuffle(perm)
    pts = [(MemoryConfig("ba_8x8", 1, 1, 1, 1),
            PPAEstimate(float(i), float(perm[i]), float(2 * n - i - perm[i]), 1.0))
           for i in range(n)]
    rng.shuffle(pts)
    t0 = time.perf_counter()
    got = pareto_front(pts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"pareto_front of {n} points took {elapsed:.2f}s"
    assert [id(p) for p in got] == [id(p) for p in pts]


def test_pareto_keeps_duplicates_consistent():
    est = PPAEstimate(1.0, 1.0, 1.0, 1.0)
    pts = [(MemoryConfig("ba_8x8", 1, 1, 1, 1), est),
           (MemoryConfig("ba_8x8", 1, 1, 1, 1), est)]
    assert len(pareto_front(pts)) == 2  # equal points do not dominate each other


def test_select_best_feasible_and_not():
    lib = Library([generate_variant(32, 8)], TechParams())
    spec = UserSpec(256, 8)
    cfgs = enumerate_configs(spec, lib)
    pts = [(c, evaluate_ppa(c, lib)) for c in cfgs]

    sel = select_best(pts, spec)
    assert sel.feasible and sel.violation == 0.0
    assert sel.estimate.area_um2 == min(e.area_um2 for _, e in pts)

    tight = UserSpec(256, 8, t_max_ps=380.0)
    sel2 = select_best(pts, tight)
    assert sel2.feasible
    assert sel2.estimate.t_cycle_ps <= 380.0

    impossible = UserSpec(256, 8, t_max_ps=1.0)
    sel3 = select_best(pts, impossible)
    assert not sel3.feasible
    assert sel3.violation == pytest.approx(
        min(e.t_cycle_ps for _, e in pts) / 1.0 - 1.0)


def two_search_select(points, spec):
    """(config, estimate, violation) of select_best as two searches: the
    least area among the feasible points, else the least violation; ties
    by t_cycle, then config."""
    def violation(est):
        v = 0.0
        if spec.t_max_ps is not None:
            v = max(v, est.t_cycle_ps / spec.t_max_ps - 1.0)
        if spec.e_max_fj is not None:
            v = max(v, est.e_op_fj / spec.e_max_fj - 1.0)
        return v

    feasible = [(c, e) for c, e in points if violation(e) <= 0.0]
    if feasible:
        c, e = min(feasible, key=lambda p: (p[1].area_um2, p[1].t_cycle_ps, p[0].key()))
        return c, e, 0.0
    c, e = min(points, key=lambda p: (violation(p[1]), p[1].area_um2,
                                      p[1].t_cycle_ps, p[0].key()))
    return c, e, violation(e)


@pytest.mark.parametrize("cloud, t_max, e_max", [
    ("all_feasible", 400.0, 40.0), ("all_feasible", None, None),
    ("none_feasible", 50.0, 5.0), ("mixed", 250.0, 25.0), ("mixed", 250.0, None),
    ("tied", 250.0, 25.0),
])
def test_select_best_matches_two_searches(cloud, t_max, e_max):
    """One search keyed by violation first picks what a search of the
    feasible points, then of all points, picks.  Figures come from small
    sets, so areas, cycle times and violations tie often; "tied" clouds
    share one (area, t_cycle, e_op) triple and only the config decides."""
    rng = random.Random(cloud)
    spec = UserSpec(256, 8, t_max_ps=t_max, e_max_fj=e_max)
    pows = (1, 2, 4, 8)
    for _ in range(300):
        keys = {("ba_8x8", *(rng.choice(pows) for _ in range(4)))
                for _ in range(rng.randint(1, 12))}
        configs = [MemoryConfig(*k) for k in keys]
        rng.shuffle(configs)

        def draw():
            return (rng.choice((1.0, 2.0, 3.0)), rng.choice((100.0, 200.0, 300.0)),
                    rng.choice((10.0, 20.0, 30.0)))
        shared = draw()
        points = [(c, PPAEstimate(*(shared if cloud == "tied" else draw()), 1.0))
                  for c in configs]
        sel = select_best(points, spec)
        assert (sel.config, sel.estimate, sel.violation) == two_search_select(points, spec)
        if cloud.endswith("feasible"):
            assert sel.feasible == (cloud == "all_feasible")


def test_traditional_baseline_padding():
    lib = default_library(TechParams())
    spec = UserSpec(256, 16)
    cfg, padded = traditional_baseline_ppa(spec, lib)
    assert (cfg.R, cfg.M) == (1, 1)
    plain = evaluate_ppa(cfg, lib)
    assert padded.t_cycle_ps == pytest.approx(plain.t_cycle_ps * 1.5)
    assert padded.e_op_fj == pytest.approx(plain.e_op_fj * 1.15)
    assert padded.gops_per_watt < plain.gops_per_watt


def test_report_csv(tmp_path):
    lib = Library([generate_variant(32, 8)], TechParams())
    spec = UserSpec(256, 8)
    pts = [(c, evaluate_ppa(c, lib)) for c in enumerate_configs(spec, lib)]
    front = pareto_front(pts)
    path = tmp_path / "report.csv"
    write_report_csv(path, pts, front)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("variant,R,C,K,M,area_um2")
    assert len(lines) == 1 + len(pts)
    assert all(ln.endswith(",1") or ln.endswith(",0") for ln in lines[1:])


def test_user_spec_validation():
    with pytest.raises(ConfigError):
        UserSpec(0, 8).validate()
    with pytest.raises(ConfigError):
        UserSpec(64, 8, aspect_ratio_target=-1.0).validate()
    with pytest.raises(ConfigError):
        UserSpec(64, 8, t_max_ps=0.0).validate()
