"""Pixel-array mapping: bank math, access plans, netlists, PPA comparison."""

import itertools
import random
import re
import time

import pytest

from smemsynth import pa
from smemsynth.netlist import check_wellformed, emit_hdl, emit_netlist, parse_netlist
from smemsynth.pa import (PAError, PAWindowSpec, axis_plans, check_plans,
                          compare_pa_ppa, emit_hdl_pa, generate_pa,
                          window_planner)


def cells_of_kind(ir, kind):
    return [c for c in ir.cells.values() if c.kind == kind]


def map_pixel(spec, x, y):
    """((bank_x, bank_y), (row, col)) storage location of pixel (x, y):
    the low a (b) bits of x (y) pick the bank, the rest the row (column)."""
    return ((x & (spec.banks_x - 1), y & (spec.banks_y - 1)),
            (x >> spec.a, y >> spec.b))


def bank_index(spec, bx, by):
    return (bx << spec.b) | by


def bank_addr(spec, row, col):
    return (row << (spec.n - spec.b)) | col


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


@pytest.mark.parametrize("m, n, a, b", [
    (4, 4, 1, 1), (5, 4, 2, 1), (3, 5, 0, 2), (5, 3, 2, 0), (3, 3, 0, 0),
    (3, 4, 3, 1), (2, 3, 2, 3), (1, 1, 1, 0), (6, 2, 3, 2),
])
def test_storage_map_matches_the_oracle(m, n, a, b):
    """pa.storage_map places every pixel where map_pixel, bank_index and
    bank_addr do, a = 0, b = 0 and a = m included."""
    spec = PAWindowSpec(m, n, a, b)
    xs, ys, bank, row_addr = pa.storage_map(spec)
    assert (len(xs), len(ys)) == (spec.image_w, spec.image_h)
    assert [len(banks) for banks in bank] == [spec.banks_y] * spec.banks_x
    assert len(row_addr) == spec.rows
    for x in range(spec.image_w):
        for y in range(spec.image_h):
            (bx, by), (row, col) = map_pixel(spec, x, y)
            (p, prow), (q, pcol) = xs[x], ys[y]
            assert ((p, q), (prow, pcol)) == ((bx, by), (row, col)), (x, y)
            assert bank[p][q] == bank_index(spec, bx, by)
            assert row_addr[prow] + pcol == bank_addr(spec, row, col)


@pytest.mark.parametrize("boundary", ["wrap", "clamp"])
@pytest.mark.parametrize("m, n, a, b", [
    (4, 4, 1, 1), (5, 4, 2, 1), (3, 5, 0, 2), (3, 3, 0, 0), (2, 3, 2, 3),
])
def test_window_tables_follow_the_plans_and_the_map(m, n, a, b, boundary):
    """pa.window_tables packs word w of every bank into word w of one
    list: bank k's pixel at bits k * P and its unwritten flag at bit
    L * P + k, for L lanes.  In every window, the lane of bank bank_index(p, q) is
    read once, from the bank_addr its axis plans send bank (p, q), and
    lands in the slot dx * 2^b + dy of the pixel it holds (map_pixel
    inverted).  Every pixel is written at the bank and address map_pixel
    stores it in."""
    for P in (1, 8):
        spec = PAWindowSpec(m, n, a, b, pixel_bits=P, boundary=boundary)
        W, H, L = spec.image_w, spec.image_h, spec.lanes
        pixel = (1 << P) - 1
        xs, ys, reads, wxs, wys, lanes, blank = pa.window_tables(spec)
        assert blank == (1 << L * (P + 1)) - 1
        xplans, yplans = axis_plans(spec)
        assert [e[0] for e in xs] == [e[0] for e in xplans]
        assert [e[0] for e in ys] == [e[0] for e in yplans]
        for (x0, gx, rws), (_, _, rows) in zip(xs, xplans, strict=True):
            for (y0, gy, cws), (_, _, cols) in zip(ys, yplans, strict=True):
                bias, groups = reads[gx + gy]
                # the groups' pixels and flags tile the word once
                assert sum(mask for _, _, mask, _, _ in groups) == (1 << L * P) - 1
                assert sum(flags for _, _, _, flags, _ in groups) == blank >> L * P << L * P
                for p in range(spec.banks_x):
                    for q in range(spec.banks_y):
                        k = bank_index(spec, p, q)
                        (i, j, mask, _, up), = [g for g in groups if g[3] >> L * P + k & 1]
                        assert mask >> k * P & pixel == pixel
                        assert rws[i] + cws[j] == bank_addr(spec, rows[p], cols[q])
                        px, py = (rows[p] << a) | p, (cols[q] << b) | q
                        slot = (px - x0) % W * spec.banks_y + (py - y0) % H
                        assert k * P + up - bias == slot * P, (x0, y0, p, q)
        for x, (kx, i) in enumerate(wxs):
            for y, (ky, j) in enumerate(wys):
                (bx, by), (row, col) = map_pixel(spec, x, y)
                assert (kx + ky, i + j) == (bank_index(spec, bx, by),
                                            bank_addr(spec, row, col))
        assert lanes == [(k * P, blank ^ pixel << k * P ^ 1 << L * P + k, 1 << L * P + k)
                         for k in range(L)]


@pytest.mark.parametrize("axis", [0, 1])
def test_window_tables_refuse_a_third_address(monkeypatch, axis):
    """An increment gives its bank the base address or the next, so a plan
    that sends one window's banks three is refused, naming its axis and
    corner."""
    plans = pa.axis_plans

    def three_addresses(spec):
        tables = [list(t) for t in plans(spec)]
        c0, r, _ = tables[axis][5]
        tables[axis][5] = (c0, r, (0, 1, 2, 2))
        return tables
    monkeypatch.setattr(pa, "axis_plans", three_addresses)
    spec = PAWindowSpec(4, 4, 2, 2)
    with pytest.raises(PAError) as exc:
        pa.window_tables(spec)
    assert str(exc.value) == (f"the {'xy'[axis]} plan of corner 5 sends its "
                              "banks 3 addresses; an increment gives two")


def test_window_tables_check_a_rotation_at_once():
    """1,024 lanes: each rotation's shifts are checked against one shift
    per address pair and side of the rotation in a few int operations,
    0.18 s with lane_shifts on a 2-core host, where grouping them a bank
    at a time took 1.2 s."""
    spec = PAWindowSpec(5, 5, 5, 5, pixel_bits=1)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reads = pa.window_tables(spec)[2]
        best = min(best, time.perf_counter() - start)
    assert len(reads) == spec.lanes and max(len(g) for _, g in reads) == 4
    assert best < 0.6, best


def test_window_plan_covers_window_exactly():
    rng = random.Random(1)
    for m, n, a, b in [(5, 5, 1, 1), (5, 4, 2, 1), (4, 4, 2, 2), (3, 5, 1, 0)]:
        spec = PAWindowSpec(m, n, a, b)
        plan = window_planner(spec, *axis_plans(spec))
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


@pytest.mark.parametrize("boundary", ["wrap", "clamp"])
@pytest.mark.parametrize("axis, wrong, per_corner", [
    (0, lambda e: (e[0] ^ 1, e[1], e[2]), 1),
    (1, lambda e: (e[0], e[1] ^ 1, e[2]), 1),
    (1, lambda e: (e[0], e[1], tuple(c ^ 1 for c in e[2])), 2),
], ids=["corner", "rotation", "both-column-addresses"])
def test_check_plans_counts_wrong_plans(monkeypatch, boundary, axis, wrong,
                                        per_corner):
    def wrong_plans(spec):
        tables = list(axis_plans(spec))
        tables[axis] = [wrong(e) for e in tables[axis]]
        return tables
    monkeypatch.setattr(pa, "axis_plans", wrong_plans)
    rep = check_plans(PAWindowSpec(4, 3, 1, 1, boundary=boundary))
    assert rep["mismatches"] == per_corner * rep["origins"] == per_corner * 128
    assert rep["conflicts"] == 0


def corner_by_corner_mismatches(spec):
    """The plan check one corner at a time, from map_pixel: at every corner
    on the surface, window_planner's plan against the window it covers."""
    plan = window_planner(spec, *pa.axis_plans(spec))
    W, H = spec.image_w, spec.image_h
    clamp = spec.boundary == "clamp"
    count = 0
    for x in range(W):
        for y in range(H):
            (x0, rx, rows), (y0, ry, cols) = plan(x, y)
            ex = min(x, W - spec.banks_x) if clamp else x
            ey = min(y, H - spec.banks_y) if clamp else y
            (ebx, eby), _ = map_pixel(spec, ex, ey)
            count += (x0, rx, y0, ry) != (ex, ebx, ey, eby)
            for dx in range(spec.banks_x):
                (p, _), (row, _) = map_pixel(spec, (ex + dx) % W, 0)
                count += rows[p] != row
            for dy in range(spec.banks_y):
                (_, q), (_, col) = map_pixel(spec, 0, (ey + dy) % H)
                count += cols[q] != col
    return count


def scrambled(rng, table):
    """`table` with a few entries made wrong: the first moves its corner or
    its rotation, the rest also change an address or drop the carry."""
    table = list(table)
    for k in range(rng.randint(1, 4)):
        i = rng.randrange(len(table))
        c0, r, addrs = table[i]
        how = rng.choice(("corner", "rotation") if k == 0 else
                         ("corner", "rotation", "address", "carry"))
        if how == "corner":
            c0 ^= 1
        elif how == "rotation":
            r ^= 1
        elif how == "address":
            j = rng.randrange(len(addrs))
            addrs = addrs[:j] + (addrs[j] ^ 1,) + addrs[j + 1:]
        else:
            addrs = (addrs[r],) * len(addrs)
        table[i] = (c0, r, addrs)
    return table


@pytest.mark.parametrize("boundary", ["wrap", "clamp"])
@pytest.mark.parametrize("m, n, a, b", [
    (4, 3, 1, 1), (5, 4, 2, 1), (3, 5, 0, 2), (4, 4, 2, 2), (2, 3, 1, 0),
])
def test_check_plans_counts_as_corner_by_corner(monkeypatch, m, n, a, b,
                                                boundary):
    """Both axes wrong at once, so corners where both start wrong are each
    one mismatch: the per-axis count agrees with a check of every corner."""
    spec = PAWindowSpec(m, n, a, b, boundary=boundary)
    good = axis_plans(spec)
    rng = random.Random(f"{spec}")
    for _ in range(6):
        tables = [scrambled(rng, t) for t in good]
        monkeypatch.setattr(pa, "axis_plans", lambda spec: tables)
        want = corner_by_corner_mismatches(spec)
        assert want > 0
        assert check_plans(spec)["mismatches"] == want


@pytest.mark.parametrize("boundary, paired", [("wrap", 8), ("clamp", 9)])
def test_check_plans_counts_conflicts_per_corner(monkeypatch, boundary, paired):
    """A storage map that gives pixels 2k and 2k + 1 along x one bank: the
    window at each corner whose effective x is even has a conflict."""
    spec = PAWindowSpec(4, 3, 1, 1, boundary=boundary)
    storage_map = pa.storage_map

    def pairs_share_a_bank(spec):
        xs, *rest = storage_map(spec)
        return ([(x // 2 % spec.banks_x, row) for x, (_, row) in enumerate(xs)],
                *rest)
    monkeypatch.setattr(pa, "storage_map", pairs_share_a_bank)
    clamp = boundary == "clamp"
    want = sum((min(x, 14) if clamp else x) % 2 == 0
               for x in range(16) for _y in range(8))
    assert want == paired * 8
    assert check_plans(spec)["conflicts"] == want


def test_check_plans_rejects_a_table_missing_a_corner(monkeypatch):
    plans = pa.axis_plans
    monkeypatch.setattr(pa, "axis_plans", lambda spec: (plans(spec)[0][:-1],
                                                        plans(spec)[1]))
    with pytest.raises(ValueError):
        check_plans(PAWindowSpec(4, 3, 1, 1))


def test_check_plans_is_per_axis():
    """2^18 corners, checked in O(W + H): 0.008 s on a 2-core host, where a
    check of every corner took 0.45-0.70 s."""
    spec = PAWindowSpec(9, 9, 2, 2, boundary="clamp")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rep = check_plans(spec)
        best = min(best, time.perf_counter() - start)
    assert (rep["origins"], rep["mismatches"], rep["conflicts"]) == (262144, 0, 0)
    assert best < 0.1, best


def test_netlist_shapes_frozen():
    spec = PAWindowSpec(5, 5, 1, 1)
    sm = generate_pa(spec, "sm")
    tm = generate_pa(spec, "tm")
    assert check_wellformed(sm) == []
    assert check_wellformed(tm) == []
    assert len(sm.cells) == 24
    assert len(tm.cells) == 22
    # shared decode: exactly two decoder trees however many banks there are
    assert len(cells_of_kind(sm, "decoder")) == 2
    # per-bank translation: one grafted decoder tree per bank
    assert len(cells_of_kind(tm, "decoder")) == spec.lanes
    assert len(cells_of_kind(sm, "baplus_instance")) == spec.lanes
    assert len(cells_of_kind(tm, "baplus_instance")) == spec.lanes
    for ir in (sm, tm):
        ports = {name: (d, ir.nets[name].width) for name, d in ir.ports.items()}
        assert ports["rdata"] == ("out", spec.lanes * 8)
        assert ports["x"] == ("in", 5) and ports["y"] == ("in", 5)


def test_netlists_wellformed_across_sweep():
    for m, n, a, b in [(3, 3, 0, 0), (3, 4, 1, 2), (6, 6, 2, 2), (4, 5, 2, 0)]:
        spec = PAWindowSpec(m, n, a, b)
        for mode in ("sm", "tm"):
            ir = generate_pa(spec, mode)
            assert check_wellformed(ir) == [], (spec, mode)
            assert len(cells_of_kind(ir, "baplus_instance")) == spec.lanes


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


@pytest.mark.parametrize("boundary", ["wrap", "clamp"])
@pytest.mark.parametrize("mode", ["sm", "tm"])
def test_hdl_structure(mode, boundary):
    spec = PAWindowSpec(4, 3, 2, 1, pixel_bits=4, boundary=boundary)
    ir = generate_pa(spec, mode)
    text = emit_hdl_pa(ir)
    bank_mod = f"{ir.name}_bank"
    assert re.findall(r"^module (\S+) \(", text, re.M) == \
        [ir.name, bank_mod, f"ba_{spec.bank_words}x4"]
    assert text.count("endmodule") == 3
    insts = re.findall(r"^  (\S+) #\(\.P_SEL\((\d+)\), \.Q_SEL\((\d+)\)\) "
                       r"u_bank_(\d+)_(\d+) \(", text, re.M)
    assert len(insts) == spec.lanes
    assert {(mod, p, q) for mod, p, q, p2, q2 in insts if (p, q) == (p2, q2)} == \
        {(bank_mod, str(p), str(q)) for p in range(4) for q in range(2)}
    clamped = boundary == "clamp"
    assert ("wire [3:0] xe = (x > 4'd12) ? 4'd12 : x;" in text) == clamped
    assert ("wire [2:0] ye = (y > 3'd6) ? 3'd6 : y;" in text) == clamped
    assert ("wire [3:0] xe = x;" in text) == (not clamped)
    assert ("wire [2:0] ye = y;" in text) == (not clamped)
    assert ("xbase_oh" in text) == (mode == "sm")
    assert ("taddr" in text) == (mode == "tm")


def verilog_index(expr, rot):
    """The value of an aligner index: integers, rot_q and its slices
    rot_q[h:l] with rot_q holding `rot`, +, &, * and parentheses, which
    Verilog and Python rank alike."""
    assert re.fullmatch(r"(rot_q(\[\d+:\d+\])?|\d+|[()+&* ])+", expr), expr
    py = re.sub(r"rot_q\[(\d+):(\d+)\]", lambda f: f"((rot >> {f[2]}) & "
                f"{(1 << (int(f[1]) - int(f[2]) + 1)) - 1})", expr)
    return eval(py.replace("rot_q", "rot"), {"__builtins__": {}}, {"rot": rot})


@pytest.mark.parametrize("m, n, a, b", [
    (3, 3, 0, 2), (3, 3, 2, 0), (3, 3, 0, 0), (2, 3, 1, 1), (4, 3, 2, 1),
])
@pytest.mark.parametrize("mode", ["sm", "tm"])
def test_hdl_aligner_follows_the_lane_order(tmp_path, mode, m, n, a, b):
    """Written by netlist.emit_hdl, rot_q loads the corner's bank fields,
    x's above y's, and under every rotation each rdata slot takes the lane
    that pa.lane_shifts sends there."""
    spec = PAWindowSpec(m, n, a, b, pixel_bits=4)
    path = tmp_path / "pa.v"
    emit_hdl(generate_pa(spec, mode), path)
    text = path.read_text()
    fields = [f"{axis}e[{k - 1}:0]" for axis, k in (("x", a), ("y", b)) if k]
    if fields:
        loads = fields[0] if len(fields) == 1 else "{" + ", ".join(fields) + "}"
        assert f"  always @(posedge clk) if (re) rot_q <= {loads};" in text
    else:
        assert "rot_q" not in text
    bus = re.search(r"lane_bus = \{(.*)\};", text)[1].split(", ")[::-1]
    assigns = re.findall(r"assign rdata\[(\d+):(\d+)\] = "
                         r"lane_bus >> \((.*) \* 4\);", text)
    assert sorted(int(lo) for _, lo, _ in assigns) == \
        [4 * s for s in range(spec.lanes)]
    shifts = pa.lane_shifts(spec)
    for rx in range(spec.banks_x):
        for ry in range(spec.banks_y):
            for hi, lo, idx in assigns:
                assert int(hi) == int(lo) + 3
                lane = bus[verilog_index(idx, (rx << b) | ry)]
                p, q = map(int, re.fullmatch(r"lane_(\d+)_(\d+)", lane).groups())
                assert shifts[rx][ry][bank_index(spec, p, q)] == int(lo), (rx, ry, lane)


def test_generate_pa_rejects_unknown_mode():
    with pytest.raises(PAError):
        generate_pa(PAWindowSpec(4, 4, 1, 1), "hybrid")
