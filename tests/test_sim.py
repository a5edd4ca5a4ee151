"""Cycle-level simulation: functional oracles, energy accounting, PA sweep."""

import itertools
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from smemsynth import cli, netlist, pa, sim
from smemsynth.baplus import Library, TechParams, default_library, generate_variant
from smemsynth.cli import main
from smemsynth.explorer import MemoryConfig, UserSpec, enumerate_configs, evaluate_ppa
from smemsynth.netlist import CELL_KINDS, emit_netlist, generate_sram, parse_netlist
from smemsynth.pa import (PAWindowSpec, check_plans, compare_pa_ppa, generate_pa,
                          window_cover)
from smemsynth.sim import (SimError, SimTrace, TraceError, TraceFile, Warnings,
                           energy_report, leak_fj, simulate, verify_pa)

from test_netlist import join_address


def small_lib():
    return Library([generate_variant(32, 8)], TechParams())


def flat_reference(words, bits, trace):
    """Dead-simple behavioral model: one flat array, reads see old data."""
    mem = [None] * words
    outputs = []
    poison = (1 << bits) - 1
    for cycle, kind, a, b in sorted(trace.ops, key=lambda t: (t[0], t[1] == "W")):
        if kind == "R":
            v = mem[a]
            outputs.append((cycle + 1, poison if v is None else v))
        elif kind == "W":
            mem[a] = b
    return outputs


def test_store_then_load_frozen():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    tr = SimTrace().write(0, 0xAB).idle().read(0)
    res = simulate(ir, tr)
    assert res.outputs == [(3, 0xAB)]
    assert res.cycles == 3
    assert res.warnings == []

    tr2 = SimTrace().write(0, 0xAB).read(0)
    assert simulate(ir, tr2).outputs == [(2, 0xAB)]


def test_read_during_write_returns_old_data():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    tr = SimTrace().write(7, 0x11)
    tr.read(7, cycle=1)
    tr.write(7, 0x99, cycle=1)       # same-cycle 1R+1W on the same address
    tr.read(7, cycle=2)
    res = simulate(ir, tr)
    assert res.outputs == [(2, 0x11), (3, 0x99)]


def test_insertion_order_within_cycle_is_irrelevant():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 2, 1), lib)
    a = SimTrace().write(3, 0x42)
    a.read(3, cycle=1)
    a.write(3, 0x43, cycle=1)
    b = SimTrace().write(3, 0x42)
    b.write(3, 0x43, cycle=1)
    b.read(3, cycle=1)
    assert simulate(ir, a).outputs == simulate(ir, b).outputs


def test_uninitialized_read_poisons():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    res = simulate(ir, SimTrace().read(13))
    assert res.outputs == [(1, 0xFF)]
    assert len(res.warnings) == 1


def test_random_traces_match_flat_reference():
    rng = random.Random(23)
    lib = default_library(TechParams())
    done = 0
    while done < 6:
        spec = UserSpec(1 << rng.randint(5, 10), 1 << rng.randint(3, 5))
        cfgs = enumerate_configs(spec, lib)
        if not cfgs:
            continue
        cfg = rng.choice(cfgs)
        ir = generate_sram(cfg, lib)
        words, bits = spec.words, spec.bits
        tr = SimTrace()
        for cycle in range(2000):
            if rng.random() < 0.5:
                tr.write(rng.randrange(words), rng.getrandbits(bits), cycle)
            if rng.random() < 0.5:
                tr.read(rng.randrange(words), cycle)
        res = simulate(ir, tr)
        assert res.outputs == flat_reference(words, bits, tr), cfg
        done += 1


def test_out_of_range_ops_rejected():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    with pytest.raises(SimError):
        simulate(ir, SimTrace().read(32))
    with pytest.raises(SimError):
        simulate(ir, SimTrace().write(0, 0x100))


def test_pa_writes_checked():
    """A pixel write off the surface, or wider than pixel_bits, is refused."""
    ir = generate_pa(PAWindowSpec(3, 3, 1, 1), "sm")
    for addr, pixel in ((8 << 3, "(8,0)"), (-1, "(-1,7)")):
        with pytest.raises(SimError) as exc:
            simulate(ir, SimTrace().write(addr, 1))
        assert str(exc.value) == f"cycle 0: pixel write {pixel} off-surface"
    with pytest.raises(SimError, match="^cycle 1: write data wider than 8 bits$"):
        simulate(ir, SimTrace().write(63, 0xFF).write(0, 0x100))


@pytest.mark.parametrize("design", ["sram", "sm", "tm"])
def test_op_for_the_other_design_rejected(design):
    """A window read on an SRAM, and a single-address read on a window
    memory, are refused by the engine."""
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), small_lib())
        tr, want = SimTrace().window(0, 0), "window reads apply to parallel-access"
    else:
        ir = generate_pa(PAWindowSpec(3, 3, 1, 1), design)
        tr, want = SimTrace().read(0), "single-address reads apply to 1R-1W"
    with pytest.raises(SimError, match=want):
        simulate(ir, tr)


def test_trace_api_guards():
    tr = SimTrace()
    tr.read(0, cycle=5)
    with pytest.raises(TraceError):
        tr.read(1, cycle=5)              # second read-port op in a cycle
    with pytest.raises(TraceError):
        tr.write(0, 1, cycle=2)          # stamps must not decrease
    with pytest.raises(TraceError):
        SimTrace().write(0, -1)
    with pytest.raises(TraceError, match="negative cycle"):
        SimTrace().read(0, cycle=-1)


def test_trace_ports_per_cycle():
    tr = SimTrace().idle(cycle=3).read(1, cycle=3).write(2, 7, cycle=3)
    assert len(tr) == 3                  # 1R + 1W (+ IDLE) share cycle 3
    with pytest.raises(TraceError):
        tr.read(4, cycle=3)
    with pytest.raises(TraceError):
        tr.window(0, 0, cycle=3)         # a window read takes the read port
    with pytest.raises(TraceError):
        tr.write(5, 1, cycle=3)
    assert len(tr) == 3                  # rejected ops are not recorded
    tr.write(6, 2, cycle=4).read(6, cycle=4)
    tr.window(1, 1, cycle=9).write(0, 0, cycle=9)
    assert [op[0] for op in tr.ops] == [3, 3, 3, 4, 4, 9, 9]
    with pytest.raises(TraceError):
        tr.read(0, cycle=9)


def test_trace_file_roundtrip(tmp_path):
    tr = SimTrace().write(4, 0xDE).idle().window(2, 3).read(4)
    path = tmp_path / "ops.tr"
    tr.to_file(path)
    text = path.read_text().splitlines()
    assert text == ["W 4 de", "IDLE", "WIN 2 3", "R 4"]
    back = SimTrace.from_file(path)
    assert back.ops == tr.ops

    both = SimTrace()
    both.read(0, cycle=0)
    both.write(0, 1, cycle=0)
    with pytest.raises(TraceError):
        both.to_file(tmp_path / "nope.tr")   # file format is one op per line


def test_all_idle_trace_is_leakage_only():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 1, 2, 1), lib)
    tr = SimTrace()
    for _ in range(50):
        tr.idle()
    res = simulate(ir, tr)
    want = ir.meta["p_leak_nw"] * ir.meta["t_cycle_ps"] * 50 * 1e-6
    assert res.outputs == []
    assert res.e_total_fj == pytest.approx(want)


def test_single_read_energy_decomposition():
    # degenerate organization: total = decode + one array read + wire + leak
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    tr = SimTrace().write(0, 1).read(0)
    res = simulate(ir, tr)
    leak = ir.meta["p_leak_nw"] * ir.meta["t_cycle_ps"] * res.cycles * 1e-6
    e_dec = 2.0 + 0.8 * 5
    wire = ir.meta["e_wire_op_fj"]
    read_part = e_dec + 14.9 + wire
    write_part = e_dec + 15.8 + wire
    assert res.e_total_fj == pytest.approx(read_part + write_part + leak)


def test_sram_activity_lands_on_addressed_macros():
    # R != K, so a bank row and a macro index swapped lands elsewhere
    lib = small_lib()
    R, C, K = 2, 2, 4
    ir = generate_sram(MemoryConfig("ba_32x8", R, C, K, 2), lib)
    fields = (1, 2, 5, 1)       # lR, lK, lB, lM
    tr = SimTrace()
    want = {}
    for r in range(R):
        for k in range(K):
            # a distinct count per (r, k) and per event, over varied rows
            n_read, n_write = 1 + r * K + k, R * K - r * K - k
            for i in range(n_write):
                tr.write(join_address(r, k, (3 * i) % 32, i % 2, *fields), i)
            for i in range(n_read):
                tr.read(join_address(r, k, (7 * i + 1) % 32, (i + 1) % 2, *fields))
            for c in range(C):
                want[f"bank_{r}_{c}/ba_{k}:read"] = n_read
                want[f"bank_{r}_{c}/ba_{k}:write"] = n_write
    act = simulate(ir, tr).activity
    assert {key: n for key, n in act.items() if "/ba_" in key} == want


def test_energy_tracks_analytic_model():
    lib = small_lib()
    for quad in [(1, 1, 1, 1), (2, 2, 2, 2), (1, 4, 2, 4), (8, 1, 1, 1)]:
        cfg = MemoryConfig("ba_32x8", *quad)
        ir = generate_sram(cfg, lib)
        words = ir.meta["words"]
        rng = random.Random(hash(quad) & 0xFFFF)
        tr = SimTrace()
        for cycle in range(500):    # saturate: one op every cycle
            if cycle % 2:
                tr.read(rng.randrange(words), cycle)
            else:
                tr.write(rng.randrange(words), rng.getrandbits(8), cycle)
        res = simulate(ir, tr)
        est = evaluate_ppa(cfg, lib)
        per_op = res.e_total_fj / len(tr)
        assert abs(per_op - est.e_op_fj) / est.e_op_fj < 0.10, cfg


def test_energy_report_agrees_with_simulation():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    rng = random.Random(3)
    tr = SimTrace()
    for cycle in range(200):
        tr.write(rng.randrange(256), rng.getrandbits(8), cycle)
        tr.read(rng.randrange(256), cycle)
    res = simulate(ir, tr)
    assert energy_report(res, lib) == pytest.approx(res.e_total_fj)
    assert energy_report(res) == res.e_total_fj


def closed_form_energy(ir, trace):
    """The fJ that `trace` costs on `ir`, from op counts and the figures
    of one macro and one decoder or increment, not from any activity.

    An SRAM op decodes once and crosses the wires once; a read or write
    fires one macro in each of the C bank columns.  A window read fires
    every lane's macro, a pixel write one lane's.  sm decodes each op
    once per axis and steps both increments of every lane on a read.
    tm translates every op in every lane; its private trees decode in
    every lane on a read but in the written lane only on a write."""
    meta, cells = ir.meta, ir.cells
    reads = sum(kind in ("R", "WIN") for _, kind, _, _ in trace.ops)
    writes = sum(kind == "W" for _, kind, _, _ in trace.ops)
    ops = reads + writes
    leak = meta["p_leak_nw"] * meta["t_cycle_ps"] * trace.n_cycles * 1e-6
    wire = ops * meta["e_wire_op_fj"]

    def event(name):
        return cells[name].params["e_event_fj"]
    if meta["design"] == "sram_1r1w":
        ba, C = cells["bank_0_0/ba_0"].params, meta["C"]
        return (ops * event("dec") + reads * C * ba["e_read_fj"]
                + writes * C * ba["e_write_fj"] + wire + leak)
    lanes = 1 << (meta["a"] + meta["b"])
    if meta["design"] == "pa_sm":
        ba = cells["bank_0_0/ba"].params
        inc = sum(c.params["e_event_fj"] for c in cells.values()
                  if c.kind == "pa_increment")
        return (ops * (event("xdec") + event("ydec")) + reads * inc
                + reads * lanes * ba["e_read_fj"] + writes * ba["e_write_fj"]
                + wire + leak)
    ba = cells["bank_0_0/sram/bank_0_0/ba_0"].params
    dec, inc = event("bank_0_0/sram/dec"), event("bank_0_0/translate")
    return (reads * lanes * dec + writes * dec + ops * lanes * inc
            + reads * lanes * ba["e_read_fj"] + writes * ba["e_write_fj"]
            + wire + leak)


@pytest.mark.parametrize("design, shape", [
    ("sram", (1, 1, 1, 1)), ("sram", (2, 2, 2, 2)), ("sram", (1, 4, 2, 4)),
    ("sram", (8, 1, 1, 1)), ("sram", (4, 2, 4, 1)),
    ("sm", "wrap"), ("sm", "clamp"), ("tm", "wrap"), ("tm", "clamp")])
def test_energy_matches_the_closed_form(design, shape):
    """e_total is the closed form on random mixed traces, idle cycles
    included, and energy_report without a library is exactly e_total."""
    rng = random.Random(f"closed-form:{design}:{shape}")
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", *shape), small_lib())
        addrs, bits = ir.meta["words"], ir.meta["bits"]
    else:
        spec = PAWindowSpec(4, 3, 2, 1, boundary=shape)
        ir = generate_pa(spec, design)
        addrs, bits = spec.image_w * spec.image_h, spec.pixel_bits
    tr = SimTrace()
    for cycle in range(600):
        if rng.random() < 0.6:
            if design == "sram":
                tr.read(rng.randrange(addrs), cycle)
            else:
                tr.window(rng.randrange(-4, 20), rng.randrange(-4, 12), cycle)
        if rng.random() < 0.6:
            tr.write(rng.randrange(addrs), rng.getrandbits(bits), cycle)
    res = simulate(ir, tr)
    assert res.e_total_fj == pytest.approx(closed_form_energy(ir, tr), rel=1e-12)
    assert energy_report(res) == res.e_total_fj


def _run_under(design, tech):
    """simulate() of a seeded trace on a small `design` built under `tech`."""
    rng = random.Random(5)
    tr = SimTrace()
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2),
                           Library([generate_variant(32, 8, tech)], tech))
        for cycle in range(100):
            tr.write(rng.randrange(256), rng.getrandbits(8), cycle)
            tr.read(rng.randrange(256), cycle)
    else:
        ir = generate_pa(PAWindowSpec(4, 4, 1, 1), design, tech)
        for cycle in range(100):
            tr.write(rng.randrange(256), rng.getrandbits(8), 2 * cycle)
            tr.window(rng.randrange(16), rng.randrange(16), 2 * cycle + 1)
    return simulate(ir, tr)


@pytest.mark.parametrize("design", ["sram", "sm", "tm"])
def test_energy_report_without_library_reads_the_cells(design):
    """Without a library, energy_report prices every cell by the figures
    the netlist carries, so it agrees with e_total for a netlist built
    under a technology other than the default one."""
    tech = TechParams(e_dec0_fj=9.0) if design == "sram" \
        else TechParams(e_inc_fj=3.0, e_dec0_fj=9.0)
    res = _run_under(design, tech)
    assert energy_report(res) == res.e_total_fj
    assert energy_report(res, Library([], tech)) == pytest.approx(res.e_total_fj)


@pytest.mark.parametrize("design", ["sram", "sm", "tm"])
def test_energy_report_prices_by_the_library_tech(design):
    """With a library, energy_report prices decoders and increments by the
    library's technology, not by the figures the netlist was built with:
    a netlist built under the default technology, priced under another,
    costs what the same run of a netlist built under the other does."""
    other = TechParams(e_inc_fj=3.0, e_dec0_fj=9.0, e_dec1_fj=2.5)
    res, want = _run_under(design, TechParams()), _run_under(design, other)
    assert want.e_total_fj != pytest.approx(res.e_total_fj)
    lib = Library([generate_variant(32, 8, other)], other)
    assert energy_report(res, lib) == pytest.approx(want.e_total_fj)


@pytest.mark.parametrize("mode", ["sm", "tm"])
def test_window_reads_cost_the_analytic_energy(mode):
    """A window read costs what compare_pa_ppa's model says, once leakage
    is taken out: the cells' stamped prices sum to the model's."""
    spec = PAWindowSpec(4, 4, 1, 1)
    tech = TechParams(e_inc_fj=3.0, e_dec0_fj=9.0, e_dec1_fj=2.5)
    ir = generate_pa(spec, mode, tech)
    tr = SimTrace()
    for i in range(50):
        tr.window(i % 16, (3 * i) % 16)
    res = simulate(ir, tr)
    per_read = (res.e_total_fj - leak_fj(ir.meta, res.cycles)) / 50
    assert per_read == pytest.approx(getattr(compare_pa_ppa(spec, tech), mode).e_op_fj,
                                     rel=1e-6)


def test_parsed_netlist_simulates(tmp_path):
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
    path = tmp_path / "m.nl"
    emit_netlist(ir, path)
    back = parse_netlist(path)
    tr = SimTrace().write(200, 0x5A).read(200)
    assert simulate(back, tr).outputs == simulate(ir, tr).outputs


# -- pixel-array designs -------------------------------------------------------

def pa_reference(spec, image, x, y):
    """Toroidal (or clamped) window gather, lanes packed row-major."""
    if spec.boundary == "clamp":
        x = min(max(x, 0), spec.image_w - spec.banks_x)
        y = min(max(y, 0), spec.image_h - spec.banks_y)
    out = 0
    for dx in range(spec.banks_x):
        for dy in range(spec.banks_y):
            px = (x + dx) % spec.image_w
            py = (y + dy) % spec.image_h
            slot = dx * spec.banks_y + dy
            out |= image[px][py] << (slot * spec.pixel_bits)
    return out


def test_pa_window_read_frozen():
    spec = PAWindowSpec(3, 3, 1, 1)
    for mode in ("sm", "tm"):
        ir = generate_pa(spec, mode)
        tr = SimTrace()
        vals = {(0, 0): 0x11, (1, 0): 0x22, (0, 1): 0x33, (1, 1): 0x44}
        cycle = 0
        for (px, py), v in sorted(vals.items()):
            tr.write((px << 3) | py, v, cycle)
            cycle += 1
        tr.window(0, 0, cycle)
        res = simulate(ir, tr)
        # slots are window row-major: (dx, dy) -> dx*2 + dy
        want = 0x11 | (0x33 << 8) | (0x22 << 16) | (0x44 << 24)
        assert res.outputs == [(cycle + 1, want)], mode


def test_pa_write_then_window_matches_reference():
    rng = random.Random(17)
    for m, n, a, b in [(4, 4, 1, 1), (4, 5, 2, 1), (3, 3, 0, 2)]:
        for boundary in ("wrap", "clamp"):
            spec = PAWindowSpec(m, n, a, b, boundary=boundary)
            image = [[rng.getrandbits(8) for _ in range(spec.image_h)]
                     for _ in range(spec.image_w)]
            for mode in ("sm", "tm"):
                ir = generate_pa(spec, mode)
                tr = SimTrace()
                cycle = 0
                for px in range(spec.image_w):
                    for py in range(spec.image_h):
                        tr.write((px << n) | py, image[px][py], cycle)
                        cycle += 1
                origins = [(0, 0), (spec.image_w - 1, spec.image_h - 1),
                           (3, 2), (1, spec.image_h - 1), (-1, -2),
                           (spec.image_w + 3, 2 * spec.image_h + 1)]
                for ox, oy in origins:
                    tr.window(ox, oy, cycle)
                    cycle += 1
                res = simulate(ir, tr)
                base = spec.image_w * spec.image_h
                want = [(base + i + 1, pa_reference(spec, image, ox, oy))
                        for i, (ox, oy) in enumerate(origins)]
                assert res.outputs == want, (spec, mode)


def test_sm_tm_equivalence_random_ops():
    rng = random.Random(99)
    for boundary in ("wrap", "clamp"):
        spec = PAWindowSpec(4, 5, 2, 1, boundary=boundary)
        sm = generate_pa(spec, "sm")
        tm = generate_pa(spec, "tm")
        tr = SimTrace()
        pix = [(px, py) for px in range(spec.image_w)
               for py in range(spec.image_h)]
        for cycle in range(3000):
            if rng.random() < 0.5:
                px, py = rng.choice(pix)
                tr.write((px << 5) | py, rng.getrandbits(8), cycle)
            if rng.random() < 0.5:
                tr.window(rng.randrange(64), rng.randrange(64), cycle)
        r_sm = simulate(sm, tr)
        r_tm = simulate(tm, tr)
        assert r_sm.outputs == r_tm.outputs
        assert len(r_sm.outputs) > 500
        assert energy_report(r_sm) == r_sm.e_total_fj
        assert energy_report(r_tm) == r_tm.e_total_fj


def test_pa_partial_init_poisons_lanes():
    spec = PAWindowSpec(3, 3, 1, 1)
    ir = generate_pa(spec, "sm")
    tr = SimTrace().write(0, 0x10)      # pixel (0,0) only
    tr.window(0, 0, cycle=1)
    res = simulate(ir, tr)
    assert res.warnings                    # untouched lanes warned about
    (cycle, value), = res.outputs
    assert value & 0xFF == 0x10
    assert (value >> 8) & 0xFF == 0xFF     # poisoned lane reads all-ones


def test_pa_read_during_write_old_data():
    spec = PAWindowSpec(3, 3, 1, 1)
    for mode in ("sm", "tm"):
        ir = generate_pa(spec, mode)
        tr = SimTrace()
        for i, (px, py) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            tr.write((px << 3) | py, 0x50 + i, cycle=i)
        tr.window(0, 0, cycle=4)
        tr.write(0, 0x77, cycle=4)       # overwrite (0,0) in the same cycle
        tr.window(0, 0, cycle=5)
        res = simulate(ir, tr)
        assert res.outputs[0][1] & 0xFF == 0x50      # old data
        assert res.outputs[1][1] & 0xFF == 0x77


def test_verify_pa_frozen():
    spec = PAWindowSpec(5, 5, 1, 1)
    rep = verify_pa(spec, {mode: generate_pa(spec, mode) for mode in ("sm", "tm")})
    assert rep["origins"] == 1024
    assert rep["designs"] == {"sm": {"mismatches": 0, "warnings": 0},
                              "tm": {"mismatches": 0, "warnings": 0}}
    assert check_plans(spec)["conflicts"] == 0


def test_verify_pa_streams_its_trace(monkeypatch):
    """verify_pa hands its 2·W·H ops to the engine's steps as it makes
    them: on 6,6,1,1 its tracemalloc peak is 0.27 MiB, against 2.3 MiB
    with the ops made into a list first.  Each design's engine gets that
    many ops, and finishes on that cycle count."""
    spec = PAWindowSpec(6, 6, 1, 1)
    irs = {mode: generate_pa(spec, mode) for mode in ("sm", "tm")}
    counted = []
    steps = sim._steps

    def counting(ir, emit):
        read, write, window, finish = steps(ir, emit)
        ops = itertools.count()

        def counted_write(cycle, a, b):
            next(ops)
            write(cycle, a, b)

        def counted_window(cycle, x, y):
            next(ops)
            window(cycle, x, y)

        def counted_finish(cycles):
            counted.append((next(ops), cycles))
            return finish(cycles)
        return read, counted_write, counted_window, counted_finish
    monkeypatch.setattr(sim, "_steps", counting)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = verify_pa(spec, irs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep["origins"] == 64 * 64
    assert [d["mismatches"] for d in rep["designs"].values()] == [0, 0]
    assert counted == [(2 * 64 * 64, 2 * 64 * 64)] * 2
    assert peak < 1 << 20, peak


def test_verify_pa_holds_no_list_of_reads():
    """verify_pa compares each read as the engine makes it, against one
    table of expected windows both designs share: sm and tm of 8,8,1,1
    peak at 4.0 MiB together under tracemalloc, where keeping each
    design's 65,536 reads in a list peaks at 19.9 MiB."""
    spec = PAWindowSpec(8, 8, 1, 1)
    irs = {mode: generate_pa(spec, mode) for mode in ("sm", "tm")}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = verify_pa(spec, irs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [d["mismatches"] for d in rep["designs"].values()] == [0, 0]
    assert peak < 5 << 20, peak


@pytest.mark.parametrize("pixel_bits", [1, 8, 16])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_pa_image_is_pinned(monkeypatch, seed, pixel_bits):
    """verify_pa writes pixel (x, y), x-major, with the next draw of
    random.Random(seed * 1000003 + m*17 + n*13 + a*5 + b).randrange(2^P)."""
    spec = PAWindowSpec(4, 3, 1, 1, pixel_bits=pixel_bits)
    writes = []
    steps = sim._steps

    def capturing(ir, emit):
        read, write, window, finish = steps(ir, emit)

        def captured(cycle, a, b):
            writes.append((cycle, a, b))
            write(cycle, a, b)
        return read, captured, window, finish
    monkeypatch.setattr(sim, "_steps", capturing)
    rep = verify_pa(spec, {"sm": generate_pa(spec, "sm")}, seed=seed)
    rng = random.Random(seed * 1000003 + 4 * 17 + 3 * 13 + 1 * 5 + 1)
    want = [(x * 8 + y, (x << 3) | y, rng.randrange(1 << pixel_bits))
            for x in range(16) for y in range(8)]
    assert writes == want
    assert rep["designs"]["sm"]["mismatches"] == 0


@pytest.mark.parametrize("boundary", ["wrap", "clamp"])
@pytest.mark.parametrize("pixel_bits", [1, 4, 16])
def test_pa_pixel_widths_match_reference(pixel_bits, boundary):
    """Pixels of other widths than 8 land in their slots, and verify_pa
    reads every window right.  A bank macro is a power of two wide, so
    those are the widths a design can have."""
    rng = random.Random(pixel_bits)
    for m, n, a, b in [(4, 3, 1, 1), (3, 4, 2, 0), (3, 3, 1, 2)]:
        spec = PAWindowSpec(m, n, a, b, pixel_bits=pixel_bits,
                            boundary=boundary)
        image = [[rng.getrandbits(pixel_bits) for _ in range(spec.image_h)]
                 for _ in range(spec.image_w)]
        tr = SimTrace()
        for px in range(spec.image_w):
            for py in range(spec.image_h):
                tr.write((px << n) | py, image[px][py])
        origins = [(rng.randrange(-4, spec.image_w + 4),
                    rng.randrange(-4, spec.image_h + 4)) for _ in range(40)]
        for ox, oy in origins:
            tr.window(ox, oy)
        base = spec.image_w * spec.image_h
        want = [(base + i + 1, pa_reference(spec, image, ox, oy))
                for i, (ox, oy) in enumerate(origins)]
        irs = {mode: generate_pa(spec, mode) for mode in ("sm", "tm")}
        for mode, ir in irs.items():
            assert simulate(ir, tr).outputs == want, (spec, mode)
        assert verify_pa(spec, irs)["designs"] == {
            mode: {"mismatches": 0, "warnings": 0} for mode in irs}, spec


def test_verify_pa_checks_meta():
    ir = generate_pa(PAWindowSpec(4, 4, 1, 1), "sm")
    with pytest.raises(SimError):
        verify_pa(PAWindowSpec(5, 4, 1, 1), {"sm": ir})
    with pytest.raises(SimError):
        verify_pa(PAWindowSpec(5, 4, 1, 1),
                  {"sm": generate_pa(PAWindowSpec(5, 4, 1, 1), "sm"), "tm": ir})


def cover_order_windows(img, cover, pixel_bits):
    """The window read at every corner, x-major, built one pixel at a time
    in cover order: slot dx * len(ycov) + dy holds img[xcov[dx]][ycov[dy]]."""
    xs, ys = cover
    table = []
    for xcov in xs:
        for ycov in ys:
            expect = 0
            slot = 0
            for px in xcov:
                column = img[px]
                for py in ycov:
                    expect |= column[py] << slot
                    slot += pixel_bits
            table.append(expect)
    return table


def reference_verify(spec, seed=0):
    """(mismatches, warnings) that verify_pa reports for either design of
    `spec`, from a gather local to this test under pa.axis_plans and
    pa.lane_shifts as they stand (patched or not), without the engine's
    window tables: the window at corner (x, y) holds, for each bank (p, q),
    the pixel (rows[p] << a | p, cols[q] << b | q) that the plans address
    in it, at the bit lane_shifts gives that bank under the plans'
    rotation.  Each is compared with cover_order_windows of verify_pa's
    image (pinned by test_verify_pa_image_is_pinned).  Every pixel is
    written before the first window, so no lane warns."""
    rng = random.Random(seed * 1000003 + spec.m * 17 + spec.n * 13
                        + spec.a * 5 + spec.b)
    W, H = spec.image_w, spec.image_h
    img = [[rng.randrange(1 << spec.pixel_bits) for _y in range(H)]
           for _x in range(W)]
    xs, ys = pa.axis_plans(spec)
    shifts = pa.lane_shifts(spec)
    want = iter(cover_order_windows(img, window_cover(spec), spec.pixel_bits))
    mismatches = 0
    for _x0, rx, rows in xs:
        for _y0, ry, cols in ys:
            got = 0
            for p in range(spec.banks_x):
                column = img[(rows[p] << spec.a) | p]
                for q in range(spec.banks_y):
                    got |= column[(cols[q] << spec.b) | q] \
                        << shifts[rx][ry][p * spec.banks_y + q]
            mismatches += got != next(want)
    return mismatches, 0


# wrap and clamp, a = 0 and b = 0, and 1- and 64-bit pixels
ORACLE_SPECS = [PAWindowSpec(*s, pixel_bits=p, boundary=bd) for s, p, bd in [
    ((4, 3, 1, 1), 8, "wrap"), ((4, 3, 1, 1), 8, "clamp"),
    ((3, 4, 0, 2), 1, "wrap"), ((4, 3, 2, 0), 64, "clamp"),
    ((3, 3, 0, 0), 64, "wrap"), ((4, 4, 2, 1), 1, "clamp"),
    ((3, 4, 1, 2), 64, "wrap"),
]]


def _spec_id(v):
    if isinstance(v, PAWindowSpec):
        return f"{v.m},{v.n},{v.a},{v.b}-{v.pixel_bits}b-{v.boundary}"
    return str(v)


def window_model(spec, trace):
    """(outputs, warnings) of a window memory, from pa_reference over the
    pixels written so far, one op per cycle: an unwritten pixel reads as
    all ones, and a window warns of the bank (px mod 2^a, py mod 2^b) of
    each unwritten pixel it covers, in (p, q) order, at its effective
    corner."""
    W, H = spec.image_w, spec.image_h
    bx, by = spec.banks_x, spec.banks_y
    image = [[(1 << spec.pixel_bits) - 1] * H for _x in range(W)]
    written = set()
    outputs, warnings = [], []
    for cycle, kind, a, b in trace.ops:
        if kind == "W":
            px, py = a >> spec.n, a % H
            image[px][py] = b
            written.add((px, py))
            continue
        outputs.append((cycle + 1, pa_reference(spec, image, a, b)))
        if spec.boundary == "clamp":
            x, y = min(max(a, 0), W - bx), min(max(b, 0), H - by)
        else:
            x, y = a % W, b % H
        unset = sorted((px % bx, py % by)
                       for px in ((x + dx) % W for dx in range(bx))
                       for py in ((y + dy) % H for dy in range(by))
                       if (px, py) not in written)
        warnings += [f"cycle {cycle}: uninitialized lane ({p},{q}) in window "
                     f"at ({x},{y})" for p, q in unset]
    return outputs, warnings


@pytest.mark.parametrize("spec", [
    *(PAWindowSpec(*s, pixel_bits=p, boundary=bd)
      for s in ((3, 3, 0, 0), (4, 4, 2, 1), (5, 4, 3, 1), (3, 5, 1, 2))
      for bd in ("wrap", "clamp") for p in (1, 8, 64)),
    PAWindowSpec(5, 5, 5, 5, pixel_bits=1),
    PAWindowSpec(4, 3, 2, 1, pixel_bits=16, boundary="clamp"),
    PAWindowSpec(3, 4, 1, 2, pixel_bits=16)], ids=_spec_id)
def test_window_engine_matches_the_model(spec):
    """Random pixel writes and window reads, at corners in [-W, 2W) x
    [-H, 2H) so that some lie off the surface: both designs give the
    model's outputs and warnings.  A third of the ops write, so most
    windows are partly written and rotation parts bank order from slot
    order.  One lane, 1,024 lanes of 1-bit pixels and 16-bit pixels are
    among the specs."""
    rng = random.Random(_spec_id(spec))
    W, H = spec.image_w, spec.image_h
    tr = SimTrace()
    for _ in range(W * H):
        if rng.random() < 1 / 3:
            pixel = (rng.randrange(W) << spec.n) | rng.randrange(H)
            tr.write(pixel, rng.getrandbits(spec.pixel_bits))
        else:
            tr.window(rng.randrange(-W, 2 * W), rng.randrange(-H, 2 * H))
    outputs, warnings = window_model(spec, tr)
    assert 0 < len(warnings) < spec.lanes * len(outputs)
    for mode in ("sm", "tm"):
        res = simulate(generate_pa(spec, mode), tr)
        assert res.outputs == outputs, mode
        assert res.warnings == warnings, mode


@pytest.mark.parametrize("spec", [
    PAWindowSpec(4, 3, 1, 1), PAWindowSpec(3, 4, 2, 1, pixel_bits=4, boundary="clamp"),
    PAWindowSpec(3, 3, 3, 1, pixel_bits=16), PAWindowSpec(2, 2, 0, 0),
], ids=_spec_id)
def test_window_engine_follows_any_aligner(monkeypatch, spec):
    """With lane_shifts sending the banks to random slots under half the
    rotations, and to their own under the rest, each window holds the
    pixel that axis_plans address in each bank (map_pixel inverted; all
    ones when unwritten) at the slot lane_shifts gives that bank."""
    rng = random.Random(_spec_id(spec))
    shifts = [[rng.sample(t, len(t)) if rng.random() < 0.5 else t for t in per_rx]
              for per_rx in pa.lane_shifts(spec)]
    monkeypatch.setattr(pa, "lane_shifts", lambda _spec: shifts)
    W, H, P = spec.image_w, spec.image_h, spec.pixel_bits
    image = [[(1 << P) - 1] * H for _x in range(W)]
    tr = SimTrace()
    for x, y in rng.sample([(x, y) for x in range(W) for y in range(H)], W * H // 2):
        image[x][y] = rng.getrandbits(P)
        tr.write((x << spec.n) | y, image[x][y])
    corners = [(rng.randrange(-W, 2 * W), rng.randrange(-H, 2 * H)) for _ in range(60)]
    for x, y in corners:
        tr.window(x, y)
    plan = pa.window_planner(spec, *pa.axis_plans(spec))
    want = []
    for i, (x, y) in enumerate(corners):
        (_, rx, rows), (_, ry, cols) = plan(x, y)
        out = 0
        for p in range(spec.banks_x):
            for q in range(spec.banks_y):
                px, py = (rows[p] << spec.a) | p, (cols[q] << spec.b) | q
                out |= image[px][py] << shifts[rx][ry][p * spec.banks_y + q]
        want.append((W * H // 2 + i + 1, out))
    for mode in ("sm", "tm"):
        assert simulate(generate_pa(spec, mode), tr).outputs == want, mode


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=_spec_id)
def test_expected_windows_match_cover_order(spec):
    """The per-axis table of expected windows is the pixel-at-a-time loop
    over pa.window_cover."""
    rng = random.Random(str(spec))
    img = [[rng.getrandbits(spec.pixel_bits) for _y in range(spec.image_h)]
           for _x in range(spec.image_w)]
    cover = window_cover(spec)
    assert sim._expected_windows(img, cover, spec.pixel_bits) \
        == cover_order_windows(img, cover, spec.pixel_bits)


def _swap_banks_0_and_1(lane_shifts):
    def swapped(spec):
        shifts = lane_shifts(spec)
        for t in (t for per_rx in shifts for t in per_rx):
            t[0], t[1] = t[1], t[0]
        return shifts
    return swapped


def _no_carry_on(axis_plans, axis):
    def plans(spec):
        # the banks of one axis all get the address of its first pixel's bank
        tables = list(axis_plans(spec))
        tables[axis] = [(c0, r, (addrs[r],) * len(addrs))
                        for c0, r, addrs in tables[axis]]
        return tables
    return plans


# each fault on the specs it can break: banks 0 and 1 need two lanes, and
# a carry needs two banks along its axis
FAULTS = [(spec, fault) for spec in ORACLE_SPECS
          for fault, breaks in (("lanes", spec.lanes > 1), ("carry_x", spec.a > 0),
                                ("carry_y", spec.b > 0)) if breaks]


@pytest.mark.parametrize("spec, fault", FAULTS, ids=_spec_id)
def test_verify_pa_counts_as_the_reference(monkeypatch, spec, fault):
    """Under a partial fault, each design's mismatches and warnings are
    those of the reference: a gather that reads the faulty plans and
    aligner without the engine, against the pixel-at-a-time windows.  The
    faults are banks 0 and 1 trading output slots, and the carry dropped
    on one axis of the plans."""
    if fault == "lanes":
        monkeypatch.setattr(pa, "lane_shifts", _swap_banks_0_and_1(pa.lane_shifts))
    else:
        axis = "xy".index(fault[-1])
        monkeypatch.setattr(pa, "axis_plans", _no_carry_on(pa.axis_plans, axis))
    irs = {mode: generate_pa(spec, mode) for mode in ("sm", "tm")}
    rep = verify_pa(spec, irs, seed=3)
    want = reference_verify(spec, seed=3)
    assert want[0], want
    assert {mode: (d["mismatches"], d["warnings"])
            for mode, d in rep["designs"].items()} == {mode: want for mode in irs}


def test_verify_pa_counts_a_late_read(monkeypatch):
    """A read with the right value on the wrong cycle is a mismatch, and
    counts for its own design only."""
    spec = PAWindowSpec(4, 4, 1, 1)
    sim_pa = sim._sim_pa

    def late_in_sm(ir, by_kind, emit, mode):
        if mode == "sm":
            # every third read arrives a cycle late
            def late(out, n=itertools.count().__next__):
                emit((out[0] + 1, out[1]) if n() % 3 == 0 else out)
            return sim_pa(ir, by_kind, late, mode)
        return sim_pa(ir, by_kind, emit, mode)
    monkeypatch.setattr(sim, "_sim_pa", late_in_sm)
    rep = verify_pa(spec, {mode: generate_pa(spec, mode) for mode in ("sm", "tm")})
    assert rep["designs"] == {"sm": {"mismatches": 86, "warnings": 0},
                              "tm": {"mismatches": 0, "warnings": 0}}


@pytest.mark.parametrize("fault, sm_mismatches", [("tail", 32), ("twice", 127)])
def test_verify_pa_sees_every_expected_read(monkeypatch, fault, sm_mismatches):
    """An engine that drops its last reads, or makes each read twice, fails
    verification for its own design only, and verification still returns:
    each expected read never made, and each read past the last expected
    one, is a mismatch."""
    spec = PAWindowSpec(3, 3, 1, 1)
    sim_pa = sim._sim_pa

    def faulty_sm(ir, by_kind, emit, mode):
        if mode == "sm":
            if fault == "tail":
                # every read after the 32nd of 64 is lost
                def faulty(out, n=itertools.count().__next__):
                    if n() < 32:
                        emit(out)
            else:
                def faulty(out):
                    emit(out)
                    emit(out)
            return sim_pa(ir, by_kind, faulty, mode)
        return sim_pa(ir, by_kind, emit, mode)
    monkeypatch.setattr(sim, "_sim_pa", faulty_sm)
    rep = verify_pa(spec, {mode: generate_pa(spec, mode) for mode in ("sm", "tm")})
    assert rep["designs"] == {"sm": {"mismatches": sm_mismatches, "warnings": 0},
                              "tm": {"mismatches": 0, "warnings": 0}}


def test_unknown_design_rejected():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    ir.meta["design"] = "dram_please"
    with pytest.raises(SimError):
        simulate(ir, SimTrace().idle())


def _small_design(design):
    """The small netlist of `design` that _synthesized writes."""
    if design == "sram":
        return generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    return generate_pa(PAWindowSpec(4, 4, 1, 1), design[3:])


def _synthesized(tmp_path, design):
    """(.nl path, trace path) for a small netlist of `design`."""
    ir = _small_design(design)
    if design == "sram":
        ops = "W 0 1\nW 37 a5\nR 37\nR 0\nR 5\n"
    else:
        ops = "W 0 1\nW 37 a5\nWIN 0 0\nWIN 3 2\n"
    nl, tr = tmp_path / "good.nl", tmp_path / "ops.tr"
    emit_netlist(ir, nl)
    tr.write_text(ops)
    return nl, tr


def _edit_meta(src, dst, key, value):
    """Copy the .nl at src to dst with meta `key` set to `value`, or
    dropped when `value` is None."""
    lines = src.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("# meta "):
            toks = [t for t in line.split()[2:] if t.partition("=")[0] != key]
            if value is not None:
                toks.append(f"{key}={value}")
            lines[i] = "# meta " + " ".join(toks) + "\n"
    dst.write_text("".join(lines))


@pytest.mark.parametrize("design, key, value", [
    ("sram", "t_cycle_ps", "abc"), ("sram", "p_leak_nw", "nan"),
    ("sram", "e_wire_op_fj", "-1"), ("sram", "R", None), ("sram", "K", "3"),
    ("sram", "W", "inf"), ("pa_sm", "m", None), ("pa_sm", "boundary", None),
    ("pa_tm", "t_cycle_ps", "inf"), ("pa_tm", "a", "-1"),
    ("pa_sm", "pixel_bits", "12"), ("sram", "M", "32"),
])
def test_sim_rejects_malformed_meta(tmp_path, capsys, design, key, value):
    """Every meta figure an engine reads must exist and be a finite number
    >= 0, and an SRAM's M must leave a word a bit (M <= C*W): sim exits 2
    with one line naming the key, never a traceback."""
    nl, tr = _synthesized(tmp_path, design)
    bad = tmp_path / "bad.nl"
    _edit_meta(nl, bad, key, value)
    assert main(["sim", str(bad), str(tr), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smemsynth sim: ") and err.count("\n") == 1
    assert "meta" in err and key in err


def _edit_lines(src, dst, edit):
    """Copy the .nl at src to dst with each line passed through `edit`,
    which returns the new line or None to drop it."""
    lines = (edit(line) for line in src.read_text().splitlines(keepends=True))
    dst.write_text("".join(line for line in lines if line is not None))


def _set_param(cell, key, value):
    """An `edit` that sets `key` on `cell`'s line to `value`, or drops it
    when `value` is None."""
    def edit(line):
        toks = line.split()
        if toks[:2] != ["cell", cell]:
            return line
        toks = [t for t in toks if t.partition("=")[0] != key]
        if value is not None:
            toks.append(f"{key}={value}")
        return " ".join(toks) + "\n"
    return edit


def _drop_net(net):
    def edit(line):
        toks = line.split()
        return None if toks[:2] in (["port", net], ["conn", net]) else line
    return edit


def _rename_cell(old, new):
    """An `edit` that renames cell `old` to `new`, on its line and its conns."""
    def edit(line):
        toks = line.split()
        if toks[:2] == ["cell", old]:
            toks[1] = new
        elif toks[0] == "conn" and toks[2].rpartition(".")[0] == old:
            toks[2] = f"{new}.{toks[2].rpartition('.')[2]}"
        else:
            return line
        return " ".join(toks) + "\n"
    return edit


def _drop_cell(cell):
    """An `edit` that drops `cell`'s line and the conns of its pins."""
    def edit(line):
        toks = line.split()
        if toks[:2] == ["cell", cell] or (
                toks[0] == "conn" and toks[2].rpartition(".")[0] == cell):
            return None
        return line
    return edit


def _port_width(net, width):
    def edit(line):
        toks = line.split()
        return f"port {net} {toks[2]} {width}\n" if toks[:2] == ["port", net] else line
    return edit


@pytest.mark.parametrize("design, edit, named", [
    ("sram", _set_param("bank_0_0/ba_0", "e_read_fj", "abc"), "bank_0_0/ba_0 e_read_fj"),
    ("sram", _set_param("bank_1_1/ba_1", "e_read_fj", "-1"), "bank_1_1/ba_1 e_read_fj"),
    ("sram", _set_param("bank_0_1/ba_0", "e_write_fj", None),
     "bank_0_1/ba_0 lacks e_write_fj"),
    ("sram", _set_param("dec", "e_event_fj", "nan"), "dec e_event_fj"),
    ("sram", _set_param("bank_1_0/ba_1", "B", None), "bank_1_0/ba_1: macro geometry"),
    ("sram", _drop_net("rdata"), "rdata must be an out port of 8 bits"),
    ("sram", _port_width("rdata", 9), "rdata must be an out port of 8 bits"),
    ("pa_sm", _set_param("xdec", "e_event_fj", "-5"), "xdec e_event_fj"),
    ("pa_sm", _set_param("bank_1_0/incy", "e_event_fj", "inf"),
     "bank_1_0/incy e_event_fj"),
    ("pa_sm", _set_param("bank_1_1/ba", "e_write_fj", "abc"), "bank_1_1/ba e_write_fj"),
    ("pa_sm", _drop_net("rdata"), "rdata must be an out port of 32 bits"),
    ("pa_tm", _set_param("bank_0_1/translate", "e_event_fj", None),
     "bank_0_1/translate lacks e_event_fj"),
    ("pa_tm", _set_param("bank_1_1/sram/dec", "e_event_fj", "nan"),
     "bank_1_1/sram/dec e_event_fj"),
    ("pa_tm", _port_width("rdata", 16), "rdata must be an out port of 32 bits"),
    # e_event_fj on every priced kind, and each param a price reads, are
    # checked, also where the engines never read them
    ("sram", _set_param("mux", "e_event_fj", "nan"), "mux e_event_fj"),
    ("sram", _set_param("dec", "mux_bits", "-1"), "dec mux_bits"),
    ("pa_sm", _set_param("align", "e_event_fj", None), "align lacks e_event_fj"),
    ("pa_tm", _set_param("bank_0_0/sram/dec", "stages", None),
     "bank_0_0/sram/dec lacks stages"),
    # a figure a price reads must also agree with the window spec, or
    # `sim --lib` prices a decode depth or mode the engine never ran
    ("pa_tm", _set_param("bank_0_0/sram/dec", "stages", "40.5"),
     "bank_0_0/sram/dec: decoder width or depth mismatch"),
    ("pa_tm", _set_param("bank_1_1/sram/dec", "mux_bits", "1"),
     "bank_1_1/sram/dec: decoder width or depth mismatch"),
    ("pa_tm", _set_param("bank_0_1/translate", "mode", None),
     "bank_0_1/translate: expected a translate-mode cell"),
    ("pa_sm", _set_param("xdec", "mux_bits", "1"),
     "xdec: decoder width or depth mismatch"),
    ("pa_sm", _set_param("ydec", "stages", "2"),
     "ydec: decoder width or depth mismatch"),
    ("pa_sm", _set_param("bank_1_0/incx", "mode", "translate"),
     "bank_1_0/incx: unexpected translate-mode cell"),
    # the SRAM's tree takes 8 address bits and decodes 7 of them; 1 selects the mux
    ("sram", _set_param("dec", "stages", "8"), "dec: decoder width or depth mismatch"),
    ("sram", _set_param("dec", "mux_bits", "0"), "dec: decoder width or depth mismatch"),
    ("sram", _set_param("dec", "in_bits", "7"), "dec: decoder width or depth mismatch"),
    # every bank macro holds a bank's words of one pixel each
    ("pa_sm", _set_param("bank_1_1/ba", "B", "8"), "bank_1_1/ba: macro geometry mismatch"),
    ("pa_tm", _set_param("bank_0_1/sram/bank_0_0/ba_0", "W", "16"),
     "bank_0_1/sram/bank_0_0/ba_0: macro geometry mismatch"),
    # the aligner must gather every lane
    ("pa_sm", _set_param("align", "lanes", "2"), "aligner lane count mismatch"),
    ("pa_tm", _set_param("align", "lanes", None), "aligner lane count mismatch"),
    # a renamed cell keeps the census, but the trace drives its old name
    ("sram", _rename_cell("bank_0_0/tri_0", "bank_0_0/tri_9"),
     "netlist structure: the activity counts cell 'bank_0_0/tri_0', "
     "which the netlist lacks"),
    ("pa_sm", _rename_cell("align", "aligner"),
     "netlist structure: the activity counts cell 'align', which the netlist lacks"),
    ("pa_tm", _rename_cell("bank_1_1/sram/bank_0_0/ba_0", "bank_1_1/sram/bank_0_0/ba_1"),
     "netlist structure: the activity counts cell 'bank_1_1/sram/bank_0_0/ba_0', "
     "which the netlist lacks"),
])
def test_sim_rejects_malformed_cell(tmp_path, capsys, design, edit, named):
    """Every cell figure an engine reads, on every cell, must exist and be
    a finite number >= 0, and rdata must be an out port of the width the
    engine derives: sim exits 2 with one line naming the cell and key."""
    nl, tr = _synthesized(tmp_path, design)
    bad = tmp_path / "bad.nl"
    _edit_lines(nl, bad, edit)
    assert main(["sim", str(bad), str(tr), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smemsynth sim: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("design, cell", [("sram", "bank_0_0/tri_0"),
                                          ("pa_sm", "bank_0_1/tri")])
def test_renamed_cell_fails_before_the_first_op(tmp_path, design, cell):
    """A cell renamed within the census is refused when the engine names
    the cells its activity counts, before it reads an op, and verify_pa,
    which prices nothing, refuses it too."""
    nl, tr = _synthesized(tmp_path, design)
    bad = tmp_path / "bad.nl"
    _edit_lines(nl, bad, _rename_cell(cell, f"{cell}x"))
    ir = parse_netlist(bad)
    trace = TraceFile(tr)
    with pytest.raises(SimError) as exc:
        simulate(ir, trace)
    assert str(exc.value) == ("netlist structure: the activity counts cell "
                              f"'{cell}', which the netlist lacks")
    assert len(trace) == 0
    if design != "sram":
        with pytest.raises(SimError):
            verify_pa(PAWindowSpec(4, 4, 1, 1), {design: ir})


def test_sim_size_follows_the_cells(tmp_path, capsys):
    """The meta's `words` and `bits` are not read: a file claiming 10^12
    words simulates like the file it was edited from, and allocates
    nothing for words the trace never writes."""
    nl, tr = _synthesized(tmp_path, "sram")
    huge = tmp_path / "huge.nl"
    _edit_meta(nl, huge, "words", 999999999999)
    _edit_meta(huge, huge, "bits", 3)
    runs = []
    for path, out in ((nl, tmp_path / "a"), (huge, tmp_path / "b")):
        assert main(["sim", str(path), str(tr), "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, (out / "result.txt").read_text()))
    assert runs[0] == runs[1]


# -- the cell census ------------------------------------------------------------

# the kinds each of _synthesized's netlists holds
_HELD = {"sram": ("baplus_instance", "decoder", "wordline_gate", "tristate_driver",
                  "column_mux", "output_reg"),
         "pa_sm": ("baplus_instance", "decoder", "wordline_gate", "tristate_driver",
                   "output_reg", "pa_increment", "pa_align")}
_HELD["pa_tm"] = _HELD["pa_sm"]


@pytest.mark.parametrize("design, kind, delta", [
    *((d, k, -1) for d, kinds in _HELD.items() for k in kinds),
    *((d, k, +1) for d in _HELD for k in sorted(CELL_KINDS)),
])
def test_sim_counts_every_kind_of_cell(tmp_path, capsys, design, kind, delta):
    """One cell of a kind the design holds dropped with its conns, or one
    extra cell of any kind: sim exits 2 with one line naming the kind and
    both counts, before it reads the trace."""
    nl, tr = _synthesized(tmp_path, design)
    held = [c for c in parse_netlist(nl).cells.values() if c.kind == kind]
    assert bool(held) == (kind in _HELD[design])
    bad = tmp_path / "bad.nl"
    if delta < 0:
        _edit_lines(nl, bad, _drop_cell(held[-1].name))
    else:
        # a copy of a generated cell of the kind, under a new name
        like = next(c for d in _HELD for c in _small_design(d).cells.values()
                    if c.kind == kind)
        params = " ".join(f"{k}={v}" for k, v in like.params.items())
        bad.write_text(nl.read_text() + f"cell extra_cell {kind} {params}\n")
    tr.write_text("R 1_0\n")    # a malformed trace: the census fails first
    assert main(["sim", str(bad), str(tr), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"smemsynth sim: netlist structure: expected {len(held)} {kind} cells, "
        f"found {len(held) + delta}\n")


def test_census_holds_for_generated_srams():
    """Every generated SRAM passes the engine's census and prices the
    cells its activity counts: M = 1 and M > 1, R and K above 1, and a
    one-row macro."""
    lib = Library([generate_variant(32, 8),
                   generate_variant(1, 8, b_bounds=None)], TechParams())
    for variant in ("ba_32x8", "ba_1x8"):
        for R, C, K, M in itertools.product((1, 2, 4), (1, 2, 4), (1, 2, 4),
                                            (1, 2, 8)):
            ir = generate_sram(MemoryConfig(variant, R, C, K, M), lib)
            last = ir.meta["words"] - 1
            res = simulate(ir, SimTrace().write(last, 1).read(last))
            assert res.outputs == [(2, 1)]


# -- netlists held as slots ----------------------------------------------------

LIB_32X8 = str(Path(sim.__file__).parent / "fixtures" / "lib_32x8.json")


def _refuse_expand(monkeypatch):
    def refuse(ir):
        raise AssertionError(f"{ir.name} was expanded")
    monkeypatch.setattr(netlist.NetlistIR, "expand", refuse)


def _sim_text(tmp_path, capsys, nl, trace, lib_args):
    """sim's exit code, stdout, stderr and result.txt bytes (None if none)."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "result.txt").unlink(missing_ok=True)
    code = main(["sim", str(nl), str(trace), *lib_args, "--out", str(out)])
    std = capsys.readouterr()
    result = out / "result.txt"
    return code, std.out, std.err, result.read_bytes() if result.exists() else None


def test_held_cells_are_found_as_expanded():
    """find_cell gives every cell of a held IR, head or slot, the kind and
    (through sim's _params) the params, fields bound, of its expanded
    twin's cell, and None for a name the IR lacks."""
    held = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    flat = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
    flat.expand()
    for name, cell in flat.cells.items():
        found, binding = held.find_cell(name)
        assert (found.kind, sim._params(held, found, binding)) == (cell.kind, cell.params)
    assert [held.find_cell(n) for n in ("bank_2_0/ba_0", "bank_0_0/ba_2", "mux2")] \
        == [None] * 3
    assert held.slots is not None


@pytest.mark.parametrize("config", ["ba_32x8,2,2,2,1", "ba_32x8,2,2,2,2"])
def test_sim_reads_held_slots_as_their_expansion(tmp_path, monkeypatch, capsys, config):
    """With M = 1 and M > 1, R and K both above 1, simulate of a held IR,
    and sim of a synth-written .nl with and without --lib, never expand the
    slots, and match the expanded twin bit for bit: outputs, warnings,
    activity keys in their order, e_total_fj and the repriced energy; sim
    writes the bytes it writes from the flat reader's IR, and leaves the
    parsed IR held."""
    variant, *factors = config.split(",")
    cfg, lib = MemoryConfig(variant, *map(int, factors)), small_lib()
    flat = generate_sram(cfg, lib)
    flat.expand()
    words, bits = flat.meta["words"], flat.meta["bits"]
    rng = random.Random(config)
    tr = SimTrace()
    for a in rng.sample(range(words), 24):
        tr.read(a).write(a, rng.getrandbits(bits)).read(a ^ rng.randrange(words))
    want = simulate(flat, tr)
    want_lib = energy_report(want, lib)
    # every slot's gate, tristate and macro read and written
    assert want.warnings and len(want.activity) >= 2 + 4 * 8

    _refuse_expand(monkeypatch)
    held = generate_sram(cfg, lib)
    got = simulate(held, tr)
    assert (got.outputs, list(got.warnings)) == (want.outputs, list(want.warnings))
    assert list(got.activity.items()) == list(want.activity.items())
    assert got.e_total_fj.hex() == want.e_total_fj.hex()
    assert energy_report(got, lib).hex() == want_lib.hex()
    assert held.slots is not None

    assert main(["synth", "--config", config, "--lib", LIB_32X8,
                 "--out", str(tmp_path)]) == 0
    nl = next(tmp_path.glob("*.nl"))
    trace = tmp_path / "ops.tr"
    SimTrace.to_file(SimTrace().write(0, 1).read(0).read(words - 1).idle()
                     .write(words - 1, 2).read(words - 1), trace)
    parsed = []
    monkeypatch.setattr(cli, "parse_netlist",
                        lambda path: parsed.append(netlist.parse_netlist(path)) or parsed[-1])
    capsys.readouterr()
    runs = [_sim_text(tmp_path, capsys, nl, trace, a) for a in ([], ["--lib", LIB_32X8])]
    assert [ir.slots is not None for ir in parsed] == [True, True]
    monkeypatch.setattr(cli, "parse_netlist", netlist._parse_flat)
    assert runs == [_sim_text(tmp_path, capsys, nl, trace, a)
                    for a in ([], ["--lib", LIB_32X8])]
    assert [code for code, *_ in runs] == [0, 0]
    assert "energy_report cross-check" in runs[1][1]


@pytest.mark.parametrize("pattern, value, message", [
    (r"e_read_fj=\S+", "e_read_fj=nan",
     "netlist cell bank_0_0/ba_0 e_read_fj=nan is not a finite number >= 0"),
    (r" B=32 (?=W=8 words)", " B=16 ",
     "netlist structure: bank_0_0/ba_0: macro geometry mismatch")],
    ids=["macro-nan", "meta-B"])
def test_sim_names_a_held_slot_it_refuses(tmp_path, monkeypatch, capsys, pattern, value,
                                          message):
    """A synth-written .nl whose macro lines all read e_read_fj=nan, or
    whose meta gives the macros another B, still folds, and sim refuses
    it, without expanding, with the flat reader's IR's message: the first
    slot's macro is named."""
    assert main(["synth", "--config", "ba_32x8,2,2,2,2", "--lib", LIB_32X8,
                 "--out", str(tmp_path)]) == 0
    nl = next(tmp_path.glob("*.nl"))
    text, n = re.subn(pattern, value, nl.read_text())
    assert n == (2 * 2 * 2 if value.startswith("e_") else 1)
    nl.write_text(text)
    assert parse_netlist(nl).slots is not None
    trace = tmp_path / "ops.tr"
    trace.write_text("W 0 1\nR 0\n")
    capsys.readouterr()
    monkeypatch.setattr(cli, "parse_netlist", netlist._parse_flat)
    want = _sim_text(tmp_path, capsys, nl, trace, [])
    monkeypatch.setattr(cli, "parse_netlist", netlist.parse_netlist)
    _refuse_expand(monkeypatch)
    assert _sim_text(tmp_path, capsys, nl, trace, []) == want
    assert want[0] == 2 and want[3] is None
    assert want[2] == f"smemsynth sim: {message}\n"


class _Censused(Exception):
    """Raised where the window engine, its census passed, builds its tables."""


def test_census_holds_for_generated_window_memories(monkeypatch):
    """Every generated window memory passes the engine's census: m, n in
    1..5, every a <= m and b <= n, wrap and clamp, sm and tm.  The engine
    checks a netlist's structure, and names the cells its activity counts,
    before it builds pa.window_tables, so a design whose census holds and
    whose cells carry their names reaches that call."""
    def censused(spec):
        raise _Censused
    monkeypatch.setattr(pa, "window_tables", censused)
    for m, n in itertools.product(range(1, 6), repeat=2):
        for a, b in itertools.product(range(m + 1), range(n + 1)):
            for boundary in ("wrap", "clamp"):
                spec = PAWindowSpec(m, n, a, b, boundary=boundary)
                for mode in ("sm", "tm"):
                    with pytest.raises(_Censused):
                        simulate(generate_pa(spec, mode), SimTrace())


# -- trace files and evaluation order -------------------------------------------

@pytest.mark.parametrize("bad,msg", [
    ("READ 4", "unknown op 'READ'"),
    ("R", "list index out of range"),
    ("W 1 zz", "invalid literal for int() with base 16: 'zz'"),
    ("W 1 -5", "write data must be non-negative"),
    ("R 010", "invalid literal for int() with base 0: '010'"),
    ("WIN 3", "list index out of range"),
    ("R 1 W 2 aa", "extra token 'W'"),
    ("W 1 ff 0", "extra token '0'"),
    ("WIN 3 4 5", "extra token '5'"),
    ("IDLE junk", "extra token 'junk'"),
])
def test_trace_file_rejects_line(tmp_path, capsys, bad, msg):
    path = tmp_path / "bad.tr"
    path.write_text(f"# header\nW 0x10 ff\n\nR 1_0\n{bad}\nIDLE\n")
    with pytest.raises(TraceError) as exc:
        SimTrace.from_file(path)
    assert str(exc.value) == f"{path}:5: {msg}"
    # sim names the line too, although the write to 0x10 before it is out
    # of range for an 8-word memory
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_8x8", 1, 1, 1, 1),
                               default_library(TechParams())), nl)
    assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth sim: {path}:5: {msg}\n"


def test_trace_file_fuzz(tmp_path):
    """Seeded lines of random tokens: each file reads or raises TraceError."""
    rng = random.Random(13)
    words = ["W", "R", "WIN", "IDLE", "#", "x", "0", "010", "0x1f", "1_0",
             "-3", "ff", "-ff", "zz", "0b11", "+5"]
    path = tmp_path / "fuzz.tr"
    for _ in range(500):
        path.write_text("".join(
            " ".join(rng.choice(words) for _ in range(rng.randrange(4))) + "\n"
            for _ in range(rng.randint(1, 5))))
        try:
            tr = SimTrace.from_file(path)
        except TraceError as e:
            assert str(e).startswith(f"{path}:")
        else:
            assert [op[0] for op in tr.ops] == list(range(len(tr.ops)))


@pytest.mark.parametrize("lineno, meta", [
    pytest.param(2, None, id="2"), pytest.param(3001, None, id="3001"),
    pytest.param(3001, ("K", 3), id="3001-bad-structure"),
])
def test_non_utf8_trace_names_its_line(tmp_path, capsys, lineno, meta):
    """The bad byte's own line is named, not the line where the reader's
    decode chunk began.  sim names it ahead of the faults the engine meets
    first: the writes from line 2049 on are out of range, and `meta`
    makes the netlist's structure fail its check."""
    path = tmp_path / "bad.tr"
    lines = [f"W {i} {i:x}".encode() for i in range(4000)]
    lines[lineno - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TraceError) as exc:
        SimTrace.from_file(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}:{lineno}: ") and "decode byte 0xff" in msg
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 4, 4, 8, 2), small_lib()), nl)
    if meta:
        _edit_meta(nl, nl, *meta)
    assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth sim: {msg}\n"


@pytest.mark.parametrize("bad, msg", [
    pytest.param(b"R 0x1g", "invalid literal for int() with base 0: '0x1g'", id="token"),
    pytest.param(b"W 3 ff\xff", None, id="byte"),
])
def test_trace_reader_names_a_line_past_its_first_chunks(tmp_path, capsys, bad, msg):
    """Line 20,001 of 30,000 starts past the first 170 KB, so a reader that
    reads the file in chunks meets it several chunks in: a bad token, or
    a byte no codec step decodes, is still named by its own line, through
    SimTrace.from_file and through sim."""
    path = tmp_path / "long.tr"
    lines = [f"W {i % 2048} {i % 256:x}".encode() for i in range(30_000)]
    lines[20_000] = bad
    text = b"\n".join(lines) + b"\n"
    assert text.index(bad) > 170_000
    path.write_bytes(text)
    with pytest.raises(TraceError) as exc:
        SimTrace.from_file(path)
    got = str(exc.value)
    if msg is None:
        assert got.startswith(f"{path}:20001: ") and "decode byte 0xff" in got
    else:
        assert got == f"{path}:20001: {msg}"
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 4, 4, 8, 2), small_lib()), nl)
    assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth sim: {got}\n"


# spellings that int(tok, 0) reads as a non-negative value
SPELLINGS = (str, hex, lambda v: f"0x{v:04x}", lambda v: "_".join(str(v)))


@pytest.mark.parametrize("design", ["sram", "pa_sm", "pa_tm"])
def test_address_spellings_read_as_their_value(tmp_path, design):
    """A trace that spells each address, and each non-negative window
    corner, as 16, 0x10, 0x0010 or 1_6 at random runs as its all-decimal
    twin: the reader converts each distinct token once, so every spelling
    of a value must reach the engine as that value."""
    rng = random.Random(f"spell:{design}")
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
        read_kind, words = "R", 256
    else:
        ir = generate_pa(PAWindowSpec(4, 4, 1, 1), design[3:])
        read_kind, words = "WIN", 256

    def spell(tok):
        v = int(tok)
        return rng.choice(SPELLINGS)(v) if v >= 0 else tok

    def spelled(line):
        # the address of a W, or each operand of an R or a WIN
        toks = line.split()
        end = {"W": 2, "R": 2, "WIN": 3}.get(toks[0] if toks else "", 1)
        return " ".join(toks[:1] + [spell(t) for t in toks[1:end]] + toks[end:]) \
            if end > 1 else line
    decimal = _random_trace_text(rng, read_kind, words, 3000)
    spelt = "".join(spelled(ln) + "\n" for ln in decimal.splitlines())
    assert spelt != decimal
    twin, path = tmp_path / "decimal.tr", tmp_path / "spelt.tr"
    twin.write_text(decimal)
    path.write_text(spelt)
    got, want = simulate(ir, TraceFile(path)), simulate(ir, TraceFile(twin))
    for field in ("outputs", "activity", "e_total_fj", "cycles", "warnings"):
        assert getattr(got, field) == getattr(want, field), field
    assert SimTrace.from_file(path).ops == SimTrace.from_file(twin).ops


def test_leading_zero_decimal_is_refused_after_its_value_was_read(tmp_path, capsys):
    """010 is not a spelling of 10, nor of 8, although 10 and 0x0a were
    read before it: the line that holds it is named."""
    path = tmp_path / "zero.tr"
    path.write_text("W 10 1\nR 10\nR 0x0a\nW 8 2\nR 010\nIDLE\n")
    msg = f"{path}:5: invalid literal for int() with base 0: '010'"
    with pytest.raises(TraceError) as exc:
        SimTrace.from_file(path)
    assert str(exc.value) == msg
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), small_lib()), nl)
    assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"smemsynth sim: {msg}\n"


def _random_trace_text(rng, read_kind, words, n_lines):
    """Trace-file text of writes, reads, IDLE, blank lines and comments."""
    lines = []
    for _ in range(n_lines):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(["", "   ", "# note", "  # R 1"]))
        elif r < 0.2:
            lines.append("IDLE")
        elif r < 0.55:
            lines.append(f"W {rng.randrange(words)} {rng.getrandbits(8):x}")
        elif read_kind == "R":
            lines.append(f"R {rng.randrange(words)}")
        else:
            lines.append(f"WIN {rng.randrange(-20, 40)} {rng.randrange(-20, 40)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("design", ["sram", "pa_sm", "pa_tm"])
def test_trace_file_streams_what_from_file_reads(tmp_path, design):
    """simulate reads a TraceFile as it goes and gets what it gets from the
    SimTrace that from_file builds; len() is the ops the pass read."""
    rng = random.Random(f"stream:{design}")
    if design == "sram":
        ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), small_lib())
        read_kind, words = "R", 256
    else:
        ir = generate_pa(PAWindowSpec(4, 4, 1, 1), design[3:])
        read_kind, words = "WIN", 256
    path = tmp_path / "ops.tr"
    texts = ["", "# only a comment\n\n", "IDLE\n# trailing\n"]
    texts += [_random_trace_text(rng, read_kind, words, rng.randint(1, 600))
              for _ in range(8)]
    for text in texts:
        path.write_text(text)
        listed = SimTrace.from_file(path)
        streamed = TraceFile(path)
        got, want = simulate(ir, streamed), simulate(ir, listed)
        for field in ("outputs", "activity", "e_total_fj", "cycles", "warnings"):
            assert getattr(got, field) == getattr(want, field), (field, text)
        assert len(streamed) == len(listed)
        assert list(streamed) == listed.ops      # each pass reads the file anew


def test_sim_memory_follows_the_outputs_not_the_trace(tmp_path):
    """sim streams its trace: 200k ops of writes and idles with 20 reads
    peak at a fraction of the 21 MiB that a list of the ops takes."""
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), small_lib()), nl)
    path = tmp_path / "long.tr"
    with open(path, "w") as fh:
        for i in range(200_000):
            fh.write("R 7\n" if i % 10_000 == 0 else f"W {i % 32} {i % 256:x}\n"
                     if i % 2 else "IDLE\n")
    tracemalloc.start()
    try:
        assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert "# cycles 200000" in (tmp_path / "out" / "result.txt").read_text()


def test_sim_memory_holds_a_bounded_memo_of_spellings(tmp_path):
    """200k distinct spellings of address 16, as leading-zero hex with
    underscores, each converted once: sim keeps a bounded memo of them,
    so it peaks at a fraction of the 26 MiB that a memo of every spelling
    takes."""
    nl = tmp_path / "m.nl"
    emit_netlist(generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), small_lib()), nl)
    digits = f"{16:019x}"

    def spelling(i):
        # an underscore after digit d for each set bit d of i
        return "0x" + "".join(c + "_" * (i >> d & 1)
                              for d, c in enumerate(digits[:-1])) + digits[-1]
    path = tmp_path / "spelt.tr"
    with open(path, "w") as fh:
        for i in range(200_000):
            fh.write(f"R {spelling(i)}\n" if i % 10_000 == 0 else
                     f"W {spelling(i)} {i % 256:x}\n")
    tracemalloc.start()
    try:
        assert main(["sim", str(nl), str(path), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    text = (tmp_path / "out" / "result.txt").read_text()
    assert "# cycles 200000" in text and "OUT 10001 0f" in text


def _lanes(cycle, corner, *labels):
    return [f"cycle {cycle}: uninitialized lane ({label}) in window at ({corner})"
            for label in labels]


ALL_LANES = ("0,0", "0,1", "1,0", "1,1")
# 3,3,1,1: pixels (1,1) and (1,5) are written, both held by bank (1,1)
PA_WARNED = "# pixels\nW 9 5\nW 13 7\n\nWIN 1 1\nIDLE\nWIN 9 11\nWIN -3 5\n"


@pytest.mark.parametrize("design, trace, want", [
    ("sram", "W 3 a\nR 3\nR 7\nIDLE\nR 31\n# again\nR 7\n",
     ["cycle 2: uninitialized read at address 7",
      "cycle 4: uninitialized read at address 31",
      "cycle 5: uninitialized read at address 7"]),
    # the corners rotate the window by (1,1), so slot order is not bank order
    ("wrap", PA_WARNED,
     _lanes(2, "1,1", "0,0", "0,1", "1,0") + _lanes(4, "1,3", *ALL_LANES)
     + _lanes(5, "5,5", *ALL_LANES)),
    # clamped to (6,6), rotation (0,0), and to (0,5), rotation (0,1)
    ("clamp", PA_WARNED,
     _lanes(2, "1,1", "0,0", "0,1", "1,0") + _lanes(4, "6,6", *ALL_LANES)
     + _lanes(5, "0,5", "0,0", "0,1", "1,0")),
], ids=["sram", "wrap", "clamp"])
def test_warnings_text_and_order(tmp_path, capsys, design, trace, want):
    """The exact warnings, in bank order within a window, in the result and
    in result.txt."""
    if design == "sram":
        irs = [generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), small_lib())]
    else:
        irs = [generate_pa(PAWindowSpec(3, 3, 1, 1, boundary=design), mode)
               for mode in ("sm", "tm")]
    tr, nl, out = tmp_path / "w.tr", tmp_path / "w.nl", tmp_path / "out"
    tr.write_text(trace)
    for ir in irs:
        assert simulate(ir, SimTrace.from_file(tr)).warnings == want
        emit_netlist(ir, nl)
        assert main(["sim", str(nl), str(tr), "--out", str(out)]) == 0
        lines = (out / "result.txt").read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# warning ")] == \
            [f"# warning {w}" for w in want]
    capsys.readouterr()


def test_warnings_read_as_a_sequence_of_strings():
    """SimResult.warnings keeps records and reads as the list of strings:
    len, iteration, indexing from either end, slices and ==; blocks()
    gives one window's lines at a time, each after a prefix."""
    ir = generate_pa(PAWindowSpec(3, 3, 1, 1), "sm")
    trace = SimTrace().write(9, 5).write(13, 7).idle().window(1, 1)
    trace.idle().window(9, 11).window(-3, 5)
    got = simulate(ir, trace).warnings
    want = (_lanes(3, "1,1", "0,0", "0,1", "1,0") + _lanes(5, "1,3", *ALL_LANES)
            + _lanes(6, "5,5", *ALL_LANES))
    assert isinstance(got, Warnings) and len(got) == len(want) == 11
    assert list(got) == want and got == want and want == got
    assert got != want[:-1] and got != want[:-1] + ["other"] and got != tuple(want)
    assert [got[i] for i in range(-11, 11)] == want + want
    assert got[2:5] == want[2:5] and got[::-3] == want[::-3]
    for i in (11, -12):
        with pytest.raises(IndexError):
            got[i]
    blocks = list(got.blocks("# "))
    assert [b.count("\n") for b in blocks] == [3, 4, 4]
    assert "".join(blocks) == "".join(f"# {w}\n" for w in want)
    assert want[4] in got and got.index(want[7]) == 7
    assert simulate(ir, SimTrace().write(9, 5)).warnings == [] == Warnings()


def test_pa_warnings_stay_records_until_written(tmp_path):
    """3,000 window reads of an unwritten 16-lane memory give 48,000
    warnings.  They stay one record per window until result.txt is
    written a window at a time, so sim peaks at 1.4 MiB, against 5.8 MiB
    with the strings made by the engine."""
    nl, tr, out = tmp_path / "w.nl", tmp_path / "w.tr", tmp_path / "out"
    emit_netlist(generate_pa(PAWindowSpec(5, 5, 2, 2), "sm"), nl)
    rng = random.Random(3)
    corners = [(rng.randrange(32), rng.randrange(32)) for _ in range(3000)]
    tr.write_text("".join(f"WIN {x} {y}\n" for x, y in corners))
    tracemalloc.start()
    try:
        assert main(["sim", str(nl), str(tr), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    warned = [ln for ln in (out / "result.txt").read_text().splitlines()
              if ln.startswith("# warning ")]
    assert len(warned) == 48_000
    x, y = corners[1]
    assert warned[17] == f"# warning cycle 1: uninitialized lane (0,1) in window at ({x},{y})"
    assert peak < 3 << 20, peak


def test_trace_file_comments_take_no_cycle(tmp_path):
    path = tmp_path / "c.tr"
    path.write_text("W 0x10 AB\n# note\n\n   \n  # indented\nIDLE\nWIN 1 2\nR 1_0\n")
    tr = SimTrace.from_file(path)
    assert tr.ops == [(0, "W", 16, 0xAB), (1, "IDLE", 0, 0),
                      (2, "WIN", 1, 2), (3, "R", 10, 0)]
    assert tr.n_cycles == 4


def test_trace_file_leaves_port_state(tmp_path):
    path = tmp_path / "r.tr"
    path.write_text("W 4 1\nIDLE\nR 4\n")
    tr = SimTrace.from_file(path)
    with pytest.raises(TraceError):
        tr.read(5, cycle=2)              # the file's last line took the read port
    with pytest.raises(TraceError):
        tr.window(0, 0, cycle=2)
    with pytest.raises(TraceError):
        tr.idle(cycle=1)                 # stamps must not decrease
    tr.write(4, 2, cycle=2)              # the write port is still free
    assert len(tr) == 4

    path.write_text("R 4\nW 4 1\n")
    tr = SimTrace.from_file(path)
    with pytest.raises(TraceError):
        tr.write(5, 2, cycle=1)
    tr.read(4, cycle=1)
    assert tr.n_cycles == 2

    path.write_text("# nothing\n")
    tr = SimTrace.from_file(path)
    tr.read(0, cycle=0).write(0, 1, cycle=0)
    assert len(tr) == 2


def _random_cycles(rng, read_kind, n_cycles):
    """Per cycle, the ops to co-issue: at most one read-port and one write op."""
    cycles = []
    for c in range(n_cycles):
        ops = [(c, "IDLE", 0, 0)] * rng.randrange(3)
        if rng.random() < 0.7:
            ops.append((c, read_kind, rng.randrange(8), rng.randrange(8)
                        if read_kind == "WIN" else 0))
        if rng.random() < 0.7:
            ops.append((c, "W", rng.randrange(8) if read_kind == "R"
                        else rng.randrange(64), rng.randrange(256)))
        cycles.append(ops)
    return cycles


def _trace_of(ops):
    tr = SimTrace()
    for cycle, kind, a, b in ops:
        if kind == "R":
            tr.read(a, cycle=cycle)
        elif kind == "WIN":
            tr.window(a, b, cycle=cycle)
        elif kind == "W":
            tr.write(a, b, cycle=cycle)
        else:
            tr.idle(cycle=cycle)
    return tr


@pytest.mark.parametrize("design", ["sram", "pa_sm", "pa_tm"])
def test_ops_kept_in_evaluation_order(design):
    rng = random.Random(f"order:{design}")
    if design == "sram":
        ir, read_kind = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1),
                                      small_lib()), "R"
    else:
        ir, read_kind = generate_pa(PAWindowSpec(3, 3, 1, 1), design[3:]), "WIN"
    for _ in range(20):
        cycles = _random_cycles(rng, read_kind, 12)
        canonical = sorted((op for ops in cycles for op in ops),
                           key=lambda o: (o[0], o[1] == "W"))
        shuffled = []
        for ops in cycles:
            ops = list(ops)
            rng.shuffle(ops)
            shuffled += ops
        tr = _trace_of(shuffled)
        assert tr.ops == sorted(shuffled, key=lambda o: (o[0], o[1] == "W"))
        got, want = simulate(ir, tr), simulate(ir, _trace_of(canonical))
        assert got.outputs == want.outputs
        assert got.activity == want.activity
        assert got.e_total_fj == want.e_total_fj
