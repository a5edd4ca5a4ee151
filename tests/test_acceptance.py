"""Acceptance suite: one test per shipped guarantee, each timed and printed.

Every test prints a single [PASS]/[FAIL] line (visible with -s or in the
captured output) and enforces its runtime budget.
"""

import itertools
import random
import time
from pathlib import Path

from smemsynth.baplus import TechParams, default_library, generate_variant
from smemsynth.cli import main
from smemsynth.explorer import (MemoryConfig, UserSpec, enumerate_configs,
                                evaluate_ppa, pareto_front,
                                traditional_baseline_ppa)
from smemsynth.floorplan import check, estimate_dimensions, realize
from smemsynth.leafcell import (count_constructs, fin_efficiency, load_cell,
                                power_rail_efficiency, transistor_efficiency)
from smemsynth.netlist import generate_sram
from smemsynth.pa import PAWindowSpec, check_plans, generate_pa
from smemsynth.sim import SimTrace, simulate, verify_pa

from test_explorer import brute_force_configs, naive_front
from test_floorplan import bounding_box
from test_leafcell import naive_constructs
from test_sim import flat_reference

FIXTURES = Path(__file__).parent.parent / "src" / "smemsynth" / "fixtures"


class Timer:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[{verdict}] {self.label}: {elapsed:.2f}s (budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} over budget"
        return False


def pa_sweep():
    for m, n in itertools.product(range(3, 7), repeat=2):
        for a, b in itertools.product(range(0, 3), repeat=2):
            if a <= m and b <= n:
                yield m, n, a, b


def test_criterion_1_pa_correctness():
    with Timer("1 PA conflict-freedom & window correctness", 60):
        for m, n, a, b in pa_sweep():
            spec = PAWindowSpec(m, n, a, b)
            rep = verify_pa(spec, {"sm": generate_pa(spec, "sm")})
            plans = check_plans(spec)
            assert rep["origins"] == spec.image_w * spec.image_h
            assert rep["designs"]["sm"]["mismatches"] + plans["mismatches"] == 0, \
                (m, n, a, b)
            assert plans["conflicts"] == 0, (m, n, a, b)


def test_criterion_2_sm_tm_equivalence():
    with Timer("2 SM/TM functional equivalence", 30):
        for m, n, a, b in pa_sweep():
            spec = PAWindowSpec(m, n, a, b)
            sm = generate_pa(spec, "sm")
            tm = generate_pa(spec, "tm")
            rng = random.Random(m * 1000 + n * 100 + a * 10 + b)
            tr = SimTrace()
            w_mask, h_mask = spec.image_w - 1, spec.image_h - 1
            for cycle in range(5000):        # one write + one window = 10^4 ops
                px, py = rng.getrandbits(8) & w_mask, rng.getrandbits(8) & h_mask
                tr.write((px << n) | py, rng.getrandbits(8), cycle)
                tr.window(rng.getrandbits(9), rng.getrandbits(9), cycle)
            r_sm = simulate(sm, tr)
            r_tm = simulate(tm, tr)
            assert r_sm.outputs == r_tm.outputs, (m, n, a, b)


def test_criterion_3_enumeration():
    with Timer("3 enumeration soundness & completeness", 10):
        rng = random.Random(42)
        lib = default_library(TechParams())
        for i in range(50):
            if i % 2:
                spec = UserSpec(rng.randint(1, 4096), rng.randint(1, 128))
            else:
                spec = UserSpec(1 << rng.randint(0, 12), 1 << rng.randint(0, 7))
            assert enumerate_configs(spec, lib) == brute_force_configs(spec, lib)
        from smemsynth.baplus import Library
        fix = Library([generate_variant(32, 8)], TechParams())
        assert len(enumerate_configs(UserSpec(256, 8), fix)) == 10


def test_criterion_4_pareto_oracle():
    with Timer("4 Pareto front matches O(n^2) filter", 5):
        from test_explorer import _cloud
        rng = random.Random(4)
        for _ in range(100):
            pts = _cloud(rng, 200)
            got = pareto_front(pts)
            want = naive_front(pts)
            assert {id(e) for _, e in got} == {id(e) for _, e in want}


def test_criterion_5_simulator_oracle():
    with Timer("5 simulator matches flat reference", 30):
        rng = random.Random(5)
        lib = default_library(TechParams())
        done = 0
        while done < 20:
            spec = UserSpec(1 << rng.randint(5, 12), 1 << rng.randint(3, 6))
            cfgs = enumerate_configs(spec, lib)
            if not cfgs:
                continue
            cfg = rng.choice(cfgs)
            ir = generate_sram(cfg, lib)
            words, bits = spec.words, spec.bits
            tr = SimTrace()
            for cycle in range(5000):       # saturate both ports: 10^4 ops
                wa = rng.randrange(words)
                tr.write(wa, rng.getrandbits(bits), cycle)
                # every fourth cycle aims the read at the written address
                ra = wa if cycle % 4 == 0 else rng.randrange(words)
                tr.read(ra, cycle)
            res = simulate(ir, tr)
            assert res.outputs == flat_reference(words, bits, tr), cfg
            done += 1

        # read-during-write returns old data, explicitly
        ir = generate_sram(MemoryConfig("ba_32x8", 2, 2, 2, 2), lib)
        tr = SimTrace().write(9, 0x21)
        tr.read(9, cycle=1)
        tr.write(9, 0x7E, cycle=1)
        assert simulate(ir, tr).outputs == [(2, 0x21)]


def test_criterion_6_floorplan_geometry():
    with Timer("6 floorplan legality for 50 random configs", 10):
        rng = random.Random(6)
        lib = default_library(TechParams())
        done = 0
        while done < 50:
            spec = UserSpec(1 << rng.randint(5, 12), 1 << rng.randint(3, 6))
            cfgs = enumerate_configs(spec, lib)
            if not cfgs:
                continue
            cfg = rng.choice(cfgs)
            fp = realize(cfg, lib, logic_area_um2=rng.choice([0.0, 0.0, 5.0]))
            assert check(fp) == [], cfg
            assert bounding_box(fp) == (fp.die_w, fp.die_h)
            plain = realize(cfg, lib)
            assert (plain.die_w, plain.die_h) == estimate_dimensions(cfg, lib)
            assert bounding_box(plain) == estimate_dimensions(cfg, lib)
            done += 1


def test_criterion_7_model_calibration():
    with Timer("7 model calibration brackets", 10):
        tech = TechParams()
        # (a) same capacity, different shape: squat is faster and smaller,
        #     tall-narrow reads cheaper
        squat = generate_variant(32, 16, tech)
        tall = generate_variant(64, 8, tech)
        assert squat.t_access_ps < tall.t_access_ps
        assert squat.area_um2(tech) < tall.area_um2(tech)
        assert tall.e_read_fj < squat.e_read_fj

        # (b) shared decode vs per-bank translation at the measured point
        from smemsynth.pa import compare_pa_ppa
        cmp = compare_pa_ppa(PAWindowSpec(5, 5, 1, 1))
        assert 0.60 <= cmp.area_ratio <= 0.85, cmp.area_ratio
        assert cmp.sm.gops_per_watt > cmp.tm.gops_per_watt

        # (c) tuned organization beats the pessimized fixed baseline by >= 5%
        lib = default_library(tech)
        spec = UserSpec(256, 16)
        best = max((evaluate_ppa(c, lib) for c in enumerate_configs(spec, lib)),
                   key=lambda e: e.gops_per_watt)
        _, base = traditional_baseline_ppa(spec, lib)
        assert best.gops_per_watt >= 1.05 * base.gops_per_watt


def test_criterion_8_leafcell_metrics():
    with Timer("8 leaf-cell table ratios & construct oracle", 5):
        nand = load_cell(FIXTURES / "nand2_x1.cell")
        uni = load_cell(FIXTURES / "dffq_unidir.cell")
        bi = load_cell(FIXTURES / "dffq_bidir.cell")
        assert transistor_efficiency(nand) == 2 / 4
        assert transistor_efficiency(uni) == 13 / 25
        assert transistor_efficiency(bi) == 13 / 23
        assert power_rail_efficiency(nand) == 2 / 10
        for lay in (nand, uni, bi):
            assert abs(fin_efficiency(lay) - 0.6667) < 1e-4

        for path in sorted(FIXTURES.glob("*.cell")):
            lay = load_cell(path)
            layers = sorted({s.layer for s in lay.shapes})
            for target in layers:
                for window in (2, 3, 4, 5):
                    got = count_constructs(lay, target, window, set(layers))
                    want = naive_constructs(lay, target, window, set(layers))
                    assert got == want, (lay.name, target, window)


def _run_all_commands(out_root: Path):
    spec = str(FIXTURES / "spec_256x8.json")
    lib = str(FIXTURES / "lib_32x8.json")
    out_root.mkdir(parents=True, exist_ok=True)
    trace = out_root / "ops.tr"
    trace.write_text("W 3 1f\nIDLE\nR 3\nIDLE\n")
    cmds = [
        ["genlib", "--out", str(out_root / "g"), "--seed", "0"],
        ["explore", "--spec", spec, "--lib", lib,
         "--out", str(out_root / "e"), "--seed", "0"],
        ["synth", "--config", "ba_32x8,2,2,2,2", "--lib", lib,
         "--out", str(out_root / "s"), "--seed", "0"],
        ["pa", "--spec", "4,4,1,1", "--out", str(out_root / "p"),
         "--seed", "0"],
        None,   # sim needs the synth output; filled below
        ["leafcell", "--out", str(out_root / "l"), "--seed", "0"],
    ]
    for cmd in cmds:
        if cmd is None:
            nl = next((out_root / "s").glob("*.nl"))
            cmd = ["sim", str(nl), str(trace), "--out", str(out_root / "m"),
                   "--seed", "0"]
        assert main(cmd) == 0, cmd


def test_criterion_9_cli_determinism(tmp_path):
    with Timer("9 CLI outputs byte-identical across runs", 60):
        a, b = tmp_path / "a", tmp_path / "b"
        _run_all_commands(a)
        _run_all_commands(b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        assert len(files_a) >= 10
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
