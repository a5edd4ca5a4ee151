"""Floorplan geometry: placement legality, estimator fidelity, export."""

import random
import time

import pytest

from smemsynth.baplus import TechParams, default_library
from smemsynth.explorer import MemoryConfig, UserSpec, enumerate_configs
from smemsynth.floorplan import (Floorplan, Rect, check, estimate_dimensions,
                                 export_text, realize)


def bounding_box(fp):
    """(x, y) of the far corner of the placements, (0, 0) for none."""
    if not fp.placements:
        return 0, 0
    return max(r.x2 for r in fp.placements), max(r.y2 for r in fp.placements)


def random_configs(seed, count):
    rng = random.Random(seed)
    lib = default_library(TechParams())
    out = []
    while len(out) < count:
        spec = UserSpec(1 << rng.randint(5, 12), 1 << rng.randint(3, 6))
        cfgs = enumerate_configs(spec, lib)
        if cfgs:
            out.append(rng.choice(cfgs))
    return lib, out


def overlap_naive(a, b):
    return a.x < b.x2 and b.x < a.x2 and a.y < b.y2 and b.y < a.y2


def check_pairwise(fp):
    """The original quadratic checker, kept as an independent oracle."""
    violations = []
    for r in fp.placements:
        if r.w <= 0 or r.h <= 0:
            violations.append(f"{r.name}: non-positive extent")
        if r.x < 0 or r.y < 0 or r.x2 > fp.die_w or r.y2 > fp.die_h:
            violations.append(f"{r.name}: outside die")
    solid = [r for r in fp.placements if r.kind in ("macro", "periph_region")]
    solid.sort(key=lambda r: (r.x, r.y))
    for i, a in enumerate(solid):
        for b in solid[i + 1:]:
            if b.x >= a.x2:
                break
            if overlap_naive(a, b):
                violations.append(f"overlap: {a.name} / {b.name}")
    return violations


def random_rects(rng, n, side):
    """Rects on a coarse grid, so shared coordinates are common, mixed with
    strips, duplicates, nested and edge-sharing rects and bad extents."""
    rects = []
    for i in range(n):
        kind = rng.choice(("macro", "macro", "periph_region", "pin", "power_rail"))
        x, y = rng.randint(-1, side), rng.randint(-1, side)
        w, h = rng.randint(1, side // 2), rng.randint(1, side // 2)
        shape = rng.randrange(7) if rects else 0
        if shape == 1:                                   # full-height strip
            y, h = 0, side
        elif shape == 2:                                 # duplicate
            o = rng.choice(rects)
            x, y, w, h = o.x, o.y, o.w, o.h
        elif shape == 3:                                 # nested or nesting
            o = rng.choice(rects)
            if o.w > 0 and o.h > 0:
                x, y = rng.randint(o.x, o.x2 - 1), rng.randint(o.y, o.y2 - 1)
                w, h = rng.randint(1, o.x2 - x), rng.randint(1, o.y2 - y)
                if rng.random() < 0.5:
                    x, y, w, h = x - 1, y - 1, w + 2, h + 2
        elif shape == 4:                                 # shares an edge
            o = rng.choice(rects)
            if rng.random() < 0.5:
                x, y = o.x2, o.y + rng.randint(-1, 1)
            else:
                x, y = o.x + rng.randint(-1, 1), o.y2
        elif shape == 5:                                 # non-positive extent
            if rng.random() < 0.5:
                w = rng.randint(-2, 0)
            else:
                h = rng.randint(-2, 0)
        rects.append(Rect(f"r{i}", kind, x, y, w, h))
    return rects


def oracle_cost(cfg):
    """Rect comparisons the pairwise oracle makes: each solid is compared
    with the rest of its bank column, or of its row when transposed."""
    return cfg.R * cfg.C * (cfg.K + 1) * max(cfg.R * (cfg.K + 1), cfg.C)


def test_estimate_equals_realized_bbox():
    lib, cfgs = random_configs(3, 20)
    for cfg in cfgs:
        fp = realize(cfg, lib)
        assert (fp.die_w, fp.die_h) == estimate_dimensions(cfg, lib)
        assert bounding_box(fp) == (fp.die_w, fp.die_h)


def test_placements_legal():
    lib, cfgs = random_configs(4, 20)
    for cfg in cfgs:
        fp = realize(cfg, lib)
        assert check(fp) == []
        solids = [r for r in fp.placements if r.kind in ("macro", "periph_region")]
        # containment, integer coordinates, and pairwise non-overlap
        for r in fp.placements:
            assert all(isinstance(v, int) for v in (r.x, r.y, r.w, r.h))
            assert 0 <= r.x and 0 <= r.y
            assert r.x2 <= fp.die_w and r.y2 <= fp.die_h
        for i, a in enumerate(solids):
            for b in solids[i + 1:]:
                assert not overlap_naive(a, b), (cfg, a, b)


def test_macro_count_and_kinds():
    lib, _ = random_configs(0, 1)
    cfg = MemoryConfig("ba_32x8", 2, 2, 2, 2)
    fp = realize(cfg, lib)
    kinds = {}
    for r in fp.placements:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    assert kinds["macro"] == 8
    assert kinds["periph_region"] >= 2          # decode strip + io strip
    assert kinds.get("pin", 0) >= 1
    # power rails run the full die width on a fixed track pitch
    rails = [r for r in fp.placements if r.kind == "power_rail"]
    pitch_nm, rail_h = 20 * 64, 32
    assert rails and all(r.w == fp.die_w for r in rails)
    assert all(r.y % pitch_nm == 0 for r in rails)
    assert len(rails) == (fp.die_h - rail_h) // pitch_nm + 1


def test_pins_on_left_edge():
    lib, cfgs = random_configs(5, 5)
    for cfg in cfgs:
        fp = realize(cfg, lib)
        pins = [r for r in fp.placements if r.kind == "pin"]
        assert pins and all(p.x == 0 for p in pins)


def test_logic_area_grows_io_strip():
    lib, _ = random_configs(0, 1)
    cfg = MemoryConfig("ba_32x8", 1, 2, 2, 2)
    base = realize(cfg, lib)
    grown = realize(cfg, lib, logic_area_um2=10.0)
    assert grown.die_w == base.die_w
    assert grown.die_h > base.die_h
    # the added height is exactly ceil(area / utilization / die width)
    extra_nm2 = round(10.0 * 1e6 / 0.7)
    want = -(-extra_nm2 // base.die_w)
    assert grown.die_h - base.die_h == want
    assert check(grown) == []


def test_transpose_swaps_die():
    lib, _ = random_configs(0, 1)
    cfg = MemoryConfig("ba_32x8", 2, 1, 2, 1)
    a = realize(cfg, lib)
    b = realize(cfg, lib, transpose=True)
    assert (b.die_w, b.die_h) == (a.die_h, a.die_w)
    assert check(b) == []


def test_ar_miss_flag():
    lib, _ = random_configs(0, 1)
    cfg = MemoryConfig("ba_32x8", 1, 1, 1, 1)
    fp = realize(cfg, lib, ar_target=2.0, ar_tol=0.5)
    miss = realize(cfg, lib, ar_target=10.0, ar_tol=0.01)
    assert not fp.ar_miss
    assert miss.ar_miss          # flagged, not raised


def test_checker_catches_problems():
    bad = Floorplan(100, 100, [
        Rect("a", "macro", 0, 0, 60, 60),
        Rect("b", "macro", 50, 50, 40, 40),      # overlaps a
        Rect("c", "macro", 90, 90, 20, 20),      # leaves the die
    ], ar_miss=False)
    problems = check(bad)
    assert any("overlap" in p for p in problems)
    assert any("outside" in p or "die" in p for p in problems)


def test_export_text(tmp_path):
    lib, _ = random_configs(0, 1)
    cfg = MemoryConfig("ba_32x8", 1, 2, 1, 2)
    fp = realize(cfg, lib)
    path = tmp_path / "plan.fp"
    export_text(fp, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"die {fp.die_w} {fp.die_h} ar ")
    assert len(lines) == 1 + len(fp.placements)
    assert all(ln.split()[0] == "rect" for ln in lines[1:])


def test_check_matches_pairwise_oracle_on_random_rects():
    rng = random.Random(11)
    overlaps = 0
    for _ in range(600):
        side = rng.choice((4, 12, 40))
        fp = Floorplan(side, side, random_rects(rng, rng.randint(0, 40), side))
        want = check_pairwise(fp)
        assert check(fp) == want, fp.placements
        overlaps += sum(v.startswith("overlap") for v in want)
    assert overlaps > 1000          # the sets really do overlap


def test_check_matches_pairwise_oracle_on_realized_plans():
    # wider than criterion 6: words 2^5..2^16, bits 2^3..2^9.  Configs whose
    # columns the quadratic oracle cannot scan in a few seconds are redrawn;
    # test_check_scales covers a tall column on its own.
    rng = random.Random(12)
    lib = default_library(TechParams())
    tried = 0
    while tried < 40:
        spec = UserSpec(1 << rng.randint(5, 16), 1 << rng.randint(3, 9))
        cfgs = [c for c in enumerate_configs(spec, lib)
                if oracle_cost(c) <= 1_000_000]
        if not cfgs:
            continue
        cfg = rng.choice(cfgs)
        for transpose in (False, True):
            fp = realize(cfg, lib, transpose=transpose)
            assert check(fp) == check_pairwise(fp) == [], (cfg, transpose)
        tried += 1


def test_check_reports_overlaps_in_pairwise_order():
    lib = default_library(TechParams())
    fp = realize(MemoryConfig("ba_16x8", 2, 2, 4, 1), lib)
    # shift every other macro half a macro up, into its neighbour
    moved = [Rect(r.name, r.kind, r.x, r.y + r.h // 2 * (i % 2), r.w, r.h)
             if r.kind == "macro" else r for i, r in enumerate(fp.placements)]
    bad = Floorplan(fp.die_w, fp.die_h, moved)
    want = check_pairwise(bad)
    assert len(want) > 8
    assert check(bad) == want


def test_check_scales():
    lib = default_library(TechParams())
    fp = realize(MemoryConfig("ba_8x8", 1, 8, 8192, 1), lib)
    assert len(fp.placements) > 70_000
    start = time.perf_counter()
    assert check(fp) == []
    # the sweep takes well under a second; the pairwise scan takes minutes
    assert time.perf_counter() - start < 10.0
