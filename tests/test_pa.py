"""Pixel-array mapping: bank math, access plans, netlists, PPA comparison."""

import itertools
import random

import pytest

from smemsynth.netlist import check_wellformed, emit_netlist, parse_netlist
from smemsynth.pa import (PAError, PAWindowSpec, bank_addr, bank_index,
                          check_plans, compare_pa_ppa, emit_hdl_pa,
                          generate_pa, map_pixel, window_planner)


def test_spec_validation():
    PAWindowSpec(5, 5, 1, 1).validate()
    PAWindowSpec(3, 3, 0, 0).validate()
    with pytest.raises(PAError):
        PAWindowSpec(2, 5, 3, 1).validate()     # window larger than image side
    with pytest.raises(PAError):
        PAWindowSpec(5, 5, 1, 1, boundary="mirror").validate()
    s = PAWindowSpec(5, 4, 2, 1)
    assert (s.banks_x, s.banks_y, s.lanes) == (4, 2, 8)
    assert (s.image_w, s.image_h) == (32, 16)
    assert s.bank_words == (32 // 4) * (16 // 2)


def test_pixel_mapping_is_a_bijection():
    for m, n, a, b in [(4, 4, 1, 1), (5, 4, 2, 1), (3, 3, 0, 2), (4, 3, 0, 0)]:
        spec = PAWindowSpec(m, n, a, b)
        seen = set()
        for x in range(spec.image_w):
            for y in range(spec.image_h):
                (bx, by), (row, col) = map_pixel(spec, x, y)
                assert 0 <= bx < spec.banks_x and 0 <= by < spec.banks_y
                assert 0 <= row < spec.rows and 0 <= col < spec.cols
                key = (bank_index(spec, bx, by), bank_addr(spec, row, col))
                assert key not in seen
                seen.add(key)
        assert len(seen) == spec.image_w * spec.image_h


def test_window_plan_covers_window_exactly():
    rng = random.Random(1)
    for m, n, a, b in [(5, 5, 1, 1), (5, 4, 2, 1), (4, 4, 2, 2), (3, 5, 1, 0)]:
        spec = PAWindowSpec(m, n, a, b)
        plan = window_planner(spec)
        for _ in range(50):
            x = rng.randrange(spec.image_w)
            y = rng.randrange(spec.image_h)
            (x0, rx, rows), (y0, ry, cols) = plan(x, y)
            assert (x0, y0) == (x, y)
            # every bank is told one address; together they fetch the window
            got = {}
            for p in range(spec.banks_x):
                for q in range(spec.banks_y):
                    addr = bank_addr(spec, rows[p], cols[q])
                    row, col = addr >> (n - b), addr & (spec.cols - 1)
                    # invert the distribution to find the pixel this bank holds
                    px = (row << a) | p
                    py = (col << b) | q
                    dx = (px - x) % spec.image_w
                    dy = (py - y) % spec.image_h
                    assert ((rx + dx) % (1 << a), (ry + dy) % (1 << b)) == (p, q)
                    got[(dx, dy)] = (px, py)
            want = {(dx, dy): ((x + dx) % spec.image_w, (y + dy) % spec.image_h)
                    for dx in range(1 << a) for dy in range(1 << b)}
            assert got == want, (m, n, a, b, x, y)


def test_check_plans_conflict_free_sweep():
    for m, n in itertools.product((3, 4, 5), repeat=2):
        for a, b in itertools.product((0, 1, 2), repeat=2):
            for boundary in ("wrap", "clamp"):
                spec = PAWindowSpec(m, n, a, b, boundary=boundary)
                rep = check_plans(spec)
                assert rep["mismatches"] == 0, spec
                assert rep["conflicts"] == 0, spec
                assert rep["origins"] == spec.image_w * spec.image_h


def test_netlist_shapes_frozen():
    spec = PAWindowSpec(5, 5, 1, 1)
    sm = generate_pa(spec, "sm")
    tm = generate_pa(spec, "tm")
    assert check_wellformed(sm) == []
    assert check_wellformed(tm) == []
    assert len(sm.cells) == 24
    assert len(tm.cells) == 22
    # shared decode: exactly two decoder trees however many banks there are
    assert len(sm.cells_of_kind("decoder")) == 2
    # per-bank translation: one grafted decoder tree per bank
    assert len(tm.cells_of_kind("decoder")) == spec.lanes
    assert len(sm.cells_of_kind("baplus_instance")) == spec.lanes
    assert len(tm.cells_of_kind("baplus_instance")) == spec.lanes
    for ir in (sm, tm):
        ports = {name: (d, w) for name, d, w in ir.ports}
        assert ports["rdata"] == ("out", spec.lanes * 8)
        assert ports["x"] == ("in", 5) and ports["y"] == ("in", 5)


def test_netlists_wellformed_across_sweep():
    for m, n, a, b in [(3, 3, 0, 0), (3, 4, 1, 2), (6, 6, 2, 2), (4, 5, 2, 0)]:
        spec = PAWindowSpec(m, n, a, b)
        for mode in ("sm", "tm"):
            ir = generate_pa(spec, mode)
            assert check_wellformed(ir) == [], (spec, mode)
            assert len(ir.cells_of_kind("baplus_instance")) == spec.lanes


def test_pa_netlist_text_roundtrip(tmp_path):
    spec = PAWindowSpec(4, 4, 1, 2, boundary="clamp")
    for mode in ("sm", "tm"):
        ir = generate_pa(spec, mode)
        p1, p2 = tmp_path / f"{mode}1.nl", tmp_path / f"{mode}2.nl"
        emit_netlist(ir, p1)
        back = parse_netlist(p1)
        emit_netlist(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.meta["boundary"] == "clamp"


def test_ppa_comparison_bracket():
    cmp = compare_pa_ppa(PAWindowSpec(5, 5, 1, 1))
    ratio = cmp.area_ratio
    assert 0.60 <= ratio <= 0.85
    assert ratio == pytest.approx(0.7295, abs=5e-4)   # frozen default-model value
    assert cmp.sm.gops_per_watt > cmp.tm.gops_per_watt
    # shared decode also wins the cycle-time race at this size
    assert cmp.sm.t_cycle_ps < cmp.tm.t_cycle_ps


def test_comparison_scales_with_lanes():
    small = compare_pa_ppa(PAWindowSpec(5, 5, 1, 1))
    big = compare_pa_ppa(PAWindowSpec(5, 5, 2, 2))
    assert big.sm.area_um2 > small.sm.area_um2
    # the shared-decoder advantage widens as bank count grows
    assert big.area_ratio < small.area_ratio


def test_hdl_emission():
    wrap = generate_pa(PAWindowSpec(4, 4, 1, 1), "sm")
    clamp = generate_pa(PAWindowSpec(4, 4, 1, 1, boundary="clamp"), "sm")
    t_wrap = emit_hdl_pa(wrap)
    t_clamp = emit_hdl_pa(clamp)
    assert t_wrap == emit_hdl_pa(wrap)          # deterministic
    assert t_wrap != t_clamp                    # boundary handling is real logic
    for text in (t_wrap, t_clamp):
        assert text.count("endmodule") >= 2
        assert "module" in text
    tm_text = emit_hdl_pa(generate_pa(PAWindowSpec(4, 4, 1, 1), "tm"))
    assert tm_text != t_wrap


def test_generate_pa_rejects_unknown_mode():
    with pytest.raises(PAError):
        generate_pa(PAWindowSpec(4, 4, 1, 1), "hybrid")
