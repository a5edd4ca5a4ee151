"""Cycle-level simulation: functional oracles, energy accounting, PA sweep."""

import random

import pytest

from smemsynth.baplus import Library, TechParams, default_library, generate_variant
from smemsynth.explorer import MemoryConfig, UserSpec, enumerate_configs, evaluate_ppa
from smemsynth.netlist import (emit_netlist, generate_sram, join_address,
                               parse_netlist)
from smemsynth.pa import PAWindowSpec, generate_pa
from smemsynth.sim import (SimError, SimTrace, TraceError, energy_report,
                           simulate, verify_pa)


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


def test_trace_api_guards():
    tr = SimTrace()
    tr.read(0, cycle=5)
    with pytest.raises(TraceError):
        tr.read(1, cycle=5)              # second read-port op in a cycle
    with pytest.raises(TraceError):
        tr.write(0, 1, cycle=2)          # stamps must not decrease
    with pytest.raises(TraceError):
        SimTrace().write(0, -1)


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
    assert energy_report(res) == pytest.approx(res.e_total_fj)


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
        assert energy_report(r_sm) == pytest.approx(r_sm.e_total_fj)
        assert energy_report(r_tm) == pytest.approx(r_tm.e_total_fj)


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
    for mode in ("sm", "tm"):
        rep = verify_pa(spec, generate_pa(spec, mode))
        assert rep["origins"] == 1024
        assert rep["mismatches"] == 0
        assert rep["conflicts"] == 0
        assert rep["warnings"] == 0


def test_verify_pa_checks_meta():
    ir = generate_pa(PAWindowSpec(4, 4, 1, 1), "sm")
    with pytest.raises(SimError):
        verify_pa(PAWindowSpec(5, 4, 1, 1), ir)


def test_unknown_design_rejected():
    lib = small_lib()
    ir = generate_sram(MemoryConfig("ba_32x8", 1, 1, 1, 1), lib)
    ir.meta["design"] = "dram_please"
    with pytest.raises(SimError):
        simulate(ir, SimTrace().idle())
