"""Command-line driver: exit codes, file outputs, fixture walkthroughs."""

import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import smemsynth
from smemsynth import pa, sim
from smemsynth.cli import main

FIXTURES = Path(__file__).parent.parent / "src" / "smemsynth" / "fixtures"
SPEC = str(FIXTURES / "spec_256x8.json")
LIB = str(FIXTURES / "lib_32x8.json")
README = Path(__file__).parent.parent / "README.md"


def test_genlib(tmp_path):
    out = tmp_path / "g"
    assert main(["genlib", "--out", str(out)]) == 0
    doc = json.loads((out / "library.json").read_text())
    assert len(doc["macros"]) == 16
    assert "tech" in doc


def test_genlib_custom_grid(tmp_path):
    out = tmp_path / "g"
    assert main(["genlib", "--out", str(out),
                 "--b-values", "8,16", "--w-values", "8"]) == 0
    doc = json.loads((out / "library.json").read_text())
    assert [m["name"] for m in doc["macros"]] == ["ba_8x8", "ba_16x8"]


def test_explore_fixture_has_ten_rows(tmp_path):
    out = tmp_path / "e"
    assert main(["explore", "--spec", SPEC, "--lib", LIB,
                 "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) - 1 == 10                     # header + data rows
    chosen = json.loads((out / "chosen.json").read_text())
    assert chosen["feasible"] is True
    assert chosen["config"]["variant"] == "ba_32x8"
    assert (out / "front.dat").read_text().startswith("# area_um2")


def test_explore_inline_spec_and_bounds(tmp_path):
    out = tmp_path / "e2"
    assert main(["explore", "--spec", "256x8", "--lib", LIB,
                 "--bounds", "8,8,8,1", "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.split(",")[4] == "1" for r in rows)   # M capped at 1


def test_explore_infeasible_exit_code(tmp_path):
    out = tmp_path / "e3"
    rc = main(["explore", "--spec", SPEC, "--lib", LIB,
               "--t-max-ps", "1", "--out", str(out)])
    assert rc == 1
    chosen = json.loads((out / "chosen.json").read_text())
    assert chosen["feasible"] is False and chosen["violation"] > 0


def test_explore_over_the_energy_limit_exits_1(tmp_path, capsys):
    """An --e-max-fj below every config's energy makes explore pick the
    least violating config and exit 1."""
    out = tmp_path / "e"
    assert main(["explore", "--spec", SPEC, "--lib", LIB,
                 "--e-max-fj", "1", "--out", str(out)]) == 1
    assert "(INFEASIBLE +" in capsys.readouterr().out
    chosen = json.loads((out / "chosen.json").read_text())
    assert chosen["feasible"] is False
    # the violation is e_op / limit - 1, from the unrounded e_op
    assert abs(chosen["violation"] - (chosen["ppa"]["e_op_fj"] - 1)) < 1e-3


def test_explore_without_a_legal_organization_exits_1(tmp_path, capsys):
    out = tmp_path / "e"
    assert main(["explore", "--spec", "256x8", "--lib", LIB,
                 "--bounds", "1,1,1,1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "no legal organization for this spec and library\n"
    assert not list(out.iterdir())


def _dropping(generate, net, ends):
    """`generate`, with the `ends` ("drivers" or "sinks") of `net` dropped
    from the netlist it returns."""
    def dropped(*args):
        ir = generate(*args)
        getattr(ir.nets[net], ends).clear()
        return ir
    return dropped


def test_synth_exits_1_on_a_failed_netlist_check(tmp_path, capsys, monkeypatch):
    from smemsynth import cli
    monkeypatch.setattr(cli, "generate_sram",
                        _dropping(cli.generate_sram, "rdata", "drivers"))
    out = tmp_path / "s"
    assert main(["synth", "--config", "ba_32x8,2,2,2,2", "--lib", LIB,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "netlist check: net rdata: undriven output port\n"
    assert not list(out.iterdir())


def test_pa_exits_1_on_a_failed_netlist_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pa, "generate_pa", _dropping(pa.generate_pa, "rot_q", "drivers"))
    out = tmp_path / "p"
    assert main(["pa", "--spec", "4,4,1,1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "sm netlist check: net rot_q: no driver\n"
    assert not list(out.iterdir())


# each JSON input: the command that reads file {} and a document it
# accepts, whose last key is required (a tech file requires none)
_JSON_INPUTS = {
    "explore --spec": (["explore", "--spec", "{}"], {"words": 256, "bits": 8}),
    "pa --spec": (["pa", "--spec", "{}"], {"m": 3, "n": 3, "a": 1, "b": 1}),
    "synth --config": (["synth", "--config", "{}"],
                       {"variant": "ba_32x8", "R": 1, "C": 1, "K": 2, "M": 1}),
    "explore --tech": (["explore", "--spec", "256x8", "--tech", "{}"],
                       {"d0_ps": 50.0}),
    "synth --lib": (["synth", "--config", "ba_32x8,1,1,2,1", "--lib", "{}"],
                    {"tech": {}, "macros": []}),
}


def _bad_json(doc: dict, fault: str) -> tuple[bytes, str]:
    """`doc` as a file with `fault`, and the message that names it, after
    the file's path."""
    text = json.dumps(doc, indent=1)
    last = list(doc)[-1]
    if fault == "malformed":
        # the closing brace dropped: the parser stops on the last line
        return text[:-1].encode(), f":{text.count(chr(10)) + 1}: malformed JSON: "
    if fault == "not-utf8":
        return text.replace("\n", "\n\xff", 1).encode("latin-1"), (
            ":2: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte")
    if fault == "not-object":
        return b"[1, 2]\n", ": must hold a JSON object"
    if fault == "unknown":
        return json.dumps(doc | {"vendor": "acme"}).encode(), \
            ": unknown fields: ['vendor']"
    return json.dumps({k: v for k, v in doc.items() if k != last}).encode(), \
        f": missing fields: [{last!r}]"


@pytest.mark.parametrize("source, fault", [
    (source, fault) for source in _JSON_INPUTS
    for fault in ("malformed", "not-utf8", "not-object", "unknown", "missing")
    if (source, fault) != ("explore --tech", "missing")])
def test_bad_json_file_names_its_path(tmp_path, capsys, source, fault):
    """Every JSON input file that is malformed, not UTF-8 or not an object,
    or has an unknown key or lacks a required one, exits 2 with one line
    that starts with the file's path, and writes nothing."""
    argv, doc = _JSON_INPUTS[source]
    path = tmp_path / "in.json"
    data, named = _bad_json(doc, fault)
    path.write_bytes(data)
    argv = [str(path) if a == "{}" else a for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"smemsynth {argv[0]}: {path}{named}")
    assert err.count("\n") == 1 and (fault == "malformed" or err.endswith(named + "\n"))
    assert not out.exists() or not list(out.iterdir())


def test_missing_config_file_is_not_found(tmp_path, capsys):
    """A --config that looks like a file path but names no file is reported
    as not found, as --spec, --lib and --tech are."""
    path = tmp_path / "missing.json"
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"smemsynth synth: input file not found: {path}\n"


def test_synth_outputs(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--config", "ba_32x8,2,2,2,2", "--lib", LIB,
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    stem = "sram_ba_32x8_r2c2k2m2"
    assert names == [f"{stem}.fp", f"{stem}.nl", f"{stem}.v"]
    assert (out / f"{stem}.fp").read_text().startswith("die ")


def test_synth_accepts_chosen_json(tmp_path):
    e, s = tmp_path / "e", tmp_path / "s"
    main(["explore", "--spec", SPEC, "--lib", LIB, "--out", str(e)])
    assert main(["synth", "--config", str(e / "chosen.json"), "--lib", LIB,
                 "--out", str(s)]) == 0
    assert list(s.glob("*.nl"))


def test_pa_reports(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["pa", "--spec", "4,4,1,1", "--out", str(out)]) == 0
    verify = (out / "pa_verify.txt").read_text()
    assert "mismatches=0 conflicts=0" in verify
    assert verify.count("origins=256") == 2        # both designs swept
    rows = (out / "pa_compare.csv").read_text().splitlines()
    assert rows[0] == "design,area_um2,t_cycle_ps,e_op_fj,gops_per_watt"
    assert rows[1].startswith("sm,") and rows[2].startswith("tm,")
    assert (out / "pa_sm.nl").exists() and (out / "pa_tm.nl").exists()


def _pa_lines(out):
    """pa_verify.txt's sm and tm lines as {field: value} dicts."""
    lines = (out / "pa_verify.txt").read_text().splitlines()[1:]
    return [dict(tok.split("=") for tok in ln.split()[1:]) for ln in lines]


def test_pa_checks_the_plans_once(tmp_path, monkeypatch):
    calls = []
    check_plans = pa.check_plans

    def counted(spec):
        # and reports a conflict, which both lines carry
        calls.append(spec)
        return {**check_plans(spec), "conflicts": 1}
    monkeypatch.setattr(pa, "check_plans", counted)
    assert main(["pa", "--spec", "4,4,1,1", "--out", str(tmp_path)]) == 1
    assert calls == [pa.PAWindowSpec(4, 4, 1, 1)]
    assert [(ln["mismatches"], ln["conflicts"]) for ln in _pa_lines(tmp_path)] \
        == [("0", "1")] * 2


def test_pa_fails_a_plan_without_carry(tmp_path, monkeypatch):
    plans = pa.axis_plans

    def no_carry(spec):
        # every bank gets the address of the bank holding the first pixel
        return [[(c0, r, (addrs[r],) * len(addrs)) for c0, r, addrs in table]
                for table in plans(spec)]
    monkeypatch.setattr(pa, "axis_plans", no_carry)
    assert main(["pa", "--spec", "4,4,1,1", "--out", str(tmp_path)]) == 1
    spec = pa.PAWindowSpec(4, 4, 1, 1)
    plan_mismatches = pa.check_plans(spec)["mismatches"]
    lines = _pa_lines(tmp_path)
    assert plan_mismatches > 0 and len(lines) == 2
    rep = sim.verify_pa(spec, {mode: pa.generate_pa(spec, mode) for mode in ("sm", "tm")})
    for (mode, reads), line in zip(rep["designs"].items(), lines):
        # the netlists run the same plans, so they read wrong windows too
        assert reads["mismatches"] > 0
        assert int(line["mismatches"]) == reads["mismatches"] + plan_mismatches


@pytest.mark.parametrize("how", ["spec", "flag"])
def test_pa_rejects_pixel_bits_not_a_power_of_two(tmp_path, capsys, how):
    """A bank macro is a power of two wide, so pa refuses other pixel
    widths up front, naming pixel_bits, and writes no file."""
    if how == "spec":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"m": 3, "n": 3, "a": 1, "b": 1, "pixel_bits": 5}))
        argv = ["--spec", str(path)]
    else:
        argv = ["--spec", "3,3,1,1", "--pixel-bits", "12"]
    out = tmp_path / "out"
    assert main(["pa", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smemsynth pa: ") and "pixel_bits" in err
    assert not list(out.iterdir())


def test_pa_fails_swapped_output_slots(tmp_path, monkeypatch):
    lane_shifts = pa.lane_shifts

    def swapped(spec):
        # banks 0 and 1 trade output slots under every rotation
        shifts = lane_shifts(spec)
        for t in (t for per_rx in shifts for t in per_rx):
            t[0], t[1] = t[1], t[0]
        return shifts
    monkeypatch.setattr(pa, "lane_shifts", swapped)
    assert main(["pa", "--spec", "4,4,1,1", "--out", str(tmp_path)]) == 1
    assert pa.check_plans(pa.PAWindowSpec(4, 4, 1, 1))["mismatches"] == 0
    lines = _pa_lines(tmp_path)
    assert len(lines) == 2
    assert all(int(ln["mismatches"]) > 0 and ln["conflicts"] == "0" for ln in lines)


def test_sim_roundtrip(tmp_path):
    s = tmp_path / "s"
    main(["synth", "--config", "ba_32x8,1,1,2,1", "--lib", LIB,
          "--out", str(s)])
    nl = next(s.glob("*.nl"))
    tr = tmp_path / "ops.tr"
    tr.write_text("W 5 c3\nIDLE\nR 5\n")
    out = tmp_path / "m"
    assert main(["sim", str(nl), str(tr), "--out", str(out)]) == 0
    lines = (out / "result.txt").read_text().splitlines()
    assert "OUT 3 c3" in lines
    assert any(ln.startswith("# e_total_fj ") for ln in lines)


def test_sim_tech_without_lib_cross_checks_the_built_in_grid(tmp_path, capsys):
    """`sim --tech FILE` with no --lib reprices the run by the built-in grid
    under that technology, as explore and synth build it."""
    s = tmp_path / "s"
    assert main(["synth", "--config", "ba_32x8,1,1,2,1", "--out", str(s)]) == 0
    nl = next(s.glob("*.nl"))
    tr = tmp_path / "ops.tr"
    tr.write_text("W 5 c3\nIDLE\nR 5\n")
    tech = tmp_path / "tech.json"
    tech.write_text(json.dumps({"e_dec0_fj": 40.0}))
    capsys.readouterr()
    assert main(["sim", str(nl), str(tr), "--tech", str(tech),
                 "--out", str(tmp_path / "m")]) == 0
    res = sim.simulate(smemsynth.parse_netlist(nl), sim.TraceFile(tr))
    want = sim.energy_report(res, smemsynth.default_library(
        smemsynth.TechParams(e_dec0_fj=40.0)))
    assert want > res.e_total_fj + 1
    assert capsys.readouterr().out.splitlines()[0] == \
        f"energy_report cross-check: {want:.3f} fJ"


def test_sim_passes_a_trace_that_counts_its_ops(tmp_path, monkeypatch):
    """sim streams the trace into simulate; once the call returns, len() of
    what it passed is the trace's op count, as per-op rates read it."""
    s = tmp_path / "s"
    main(["synth", "--config", "ba_32x8,1,1,2,1", "--lib", LIB,
          "--out", str(s)])
    tr = tmp_path / "ops.tr"
    tr.write_text("# five ops\nW 5 c3\n\nIDLE\nR 5\n  # note\nR 6\nW 1 0\n")
    counted = []
    simulate = sim.simulate

    def counting(ir, trace):
        res = simulate(ir, trace)
        counted.append(len(trace))
        return res
    monkeypatch.setattr(sim, "simulate", counting)
    assert main(["sim", str(next(s.glob("*.nl"))), str(tr),
                 "--out", str(tmp_path / "m")]) == 0
    assert counted == [5]


def test_synth_and_sim_hold_the_design_once(tmp_path, capsys):
    """On the 6,000-cell sram_tall config ba_16x8,2,4,256,1, synth peaks
    well under the expanded IR's size, as it holds the slots once, and sim
    at 1.2 times it (tracemalloc).  A whole-file join of the .nl text, or a
    parse that copies a name per connection, takes each past 1.8 times."""
    config = "ba_16x8,2,4,256,1"
    variant, *factors = config.split(",")
    lib = smemsynth.default_library()
    tracemalloc.start()
    try:
        ir = smemsynth.generate_sram(smemsynth.MemoryConfig(variant, *map(int, factors)), lib)
        ir.expand()
        design = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    words, bits = ir.meta["words"], ir.meta["bits"]
    del ir
    rng = random.Random(5)
    tr = tmp_path / "ops.tr"
    tr.write_text("".join(f"W {rng.randrange(words)} {rng.getrandbits(bits):x}\n"
                          f"R {rng.randrange(words)}\n" for _ in range(1000)))

    def peak(argv):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / design
        finally:
            tracemalloc.stop()
    out = tmp_path / "s"
    assert peak(["synth", "--config", config, "--out", str(out)]) < 1.6
    assert peak(["sim", str(next(out.glob("*.nl"))), str(tr),
                 "--out", str(tmp_path / "m")]) < 1.5
    assert "1000 outputs over 2000 cycles" in capsys.readouterr().out


@pytest.mark.parametrize("config", ["ba_8x8,1,8,512,1", "ba_64x64,1,8,4,8"])
def test_synth_never_expands(tmp_path, monkeypatch, config):
    """synth generates, checks, emits and counts a tall SRAM and one with
    M > 1 from its held slots, never their expansion; sim of its .nl runs."""
    def refuse(ir):
        raise AssertionError(f"{ir.name} was expanded")
    monkeypatch.setattr(smemsynth.netlist.NetlistIR, "expand", refuse)
    out = tmp_path / "s"
    assert main(["synth", "--config", config, "--out", str(out)]) == 0
    tr = tmp_path / "ops.tr"
    tr.write_text("W 5 1f\nR 5\nIDLE\nR 6\n")
    assert main(["sim", str(next(out.glob("*.nl"))), str(tr),
                 "--out", str(tmp_path / "m")]) == 0
    outs = [line.split()[1:] for line in (tmp_path / "m" / "result.txt").open()
            if line.startswith("OUT")]
    assert [(int(c), int(d, 16)) for c, d in outs] == [(2, 0x1f), (4, (1 << 64) - 1)]


def test_sim_empty_trace_leakage_only(tmp_path):
    s = tmp_path / "s"
    main(["synth", "--config", "ba_32x8,1,1,1,1", "--lib", LIB,
          "--out", str(s)])
    tr = tmp_path / "empty.tr"
    tr.write_text("")
    out = tmp_path / "m"
    assert main(["sim", str(next(s.glob("*.nl"))), str(tr),
                 "--out", str(out)]) == 0
    lines = (out / "result.txt").read_text().splitlines()
    assert not [ln for ln in lines if ln.startswith("OUT")]
    assert "# e_total_fj 0.000" in lines


def test_leafcell_default_fixtures(tmp_path):
    out = tmp_path / "l"
    assert main(["leafcell", "--out", str(out)]) == 0
    rows = (out / "leafcell_report.csv").read_text().splitlines()
    assert rows[0].startswith("name,tracks,")
    assert len(rows) == 6                          # five shipped fixtures
    nand = next(r for r in rows if r.startswith("nand2_x1,"))
    assert ",0.5000,0.2000,0" in nand


def test_leafcell_constructs_column(tmp_path):
    out = tmp_path / "l2"
    assert main(["leafcell", str(FIXTURES / "uniform_grating.cell"),
                 "--out", str(out), "--target-layer", "via0",
                 "--window", "2", "--relevant", "poly,via0"]) == 0
    rows = (out / "leafcell_report.csv").read_text().splitlines()
    assert rows[0].endswith(",constructs")
    assert rows[1].endswith(",1")


def test_usage_errors(tmp_path):
    assert main(["explore", "--spec", "banana", "--out", str(tmp_path)]) == 2
    assert main(["explore", "--spec", "256x8", "--lib", "/no/such/lib.json",
                 "--out", str(tmp_path)]) == 2
    assert main(["explore", "--spec", "256x8", "--lib", LIB,
                 "--bounds", "1,2", "--out", str(tmp_path)]) == 2
    assert main(["synth", "--config", "ba_32x8,3,1,1,1", "--lib", LIB,
                 "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value, named", [
    ("--logic-area-um2", "nan", "logic_area_um2"),
    ("--logic-area-um2", "inf", "logic_area_um2"),
    ("--logic-area-um2", "-1", "logic_area_um2"),
    ("--ar-target", "nan", "aspect_ratio_target"),
    ("--ar-target", "inf", "aspect_ratio_target"),
    ("--ar-target", "0", "aspect_ratio_target"),
    ("--ar-tol", "-5", "aspect_ratio_tol"),
    ("--ar-tol", "nan", "aspect_ratio_tol"),
    ("--ar-tol", "1", "aspect_ratio_tol"),
])
def test_synth_rejects_what_explore_would(tmp_path, capsys, flag, value, named):
    """synth's logic area must be a finite number >= 0, and its aspect-ratio
    flags pass the checks a UserSpec makes; anything else exits 2."""
    argv = ["synth", "--config", "ba_32x8,1,1,8,1", "--lib", LIB,
            "--out", str(tmp_path), "--ar-target", "1.0", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("smemsynth synth: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("command, fields", [
    ("explore", {"words": "256", "bits": 8}),
    ("explore", {"words": 256, "bits": True}),
    ("explore", {"words": 256, "bits": 8, "aspect_ratio_tol": "0.1"}),
    ("explore", {"words": 256, "bits": 8, "t_max_ps": [500]}),
    ("explore", {"words": 256, "bits": 8, "t_max_ps": float("nan")}),
    ("explore", [256, 8]),
    ("explore", {"bits": 8}),
    ("pa", {"m": 4, "n": "x", "a": 1, "b": 1}),
    ("pa", {"m": 4, "n": 4, "a": 1, "b": 1, "pixel_bits": 8.5}),
    ("pa", {"m": 4, "n": 4, "a": 1}),
])
def test_mistyped_spec_file_exits_2(tmp_path, capsys, command, fields):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields))
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"smemsynth {command}: ")


def test_mistyped_config_file_exits_2(tmp_path):
    config = tmp_path / "chosen.json"
    config.write_text(json.dumps({"variant": "ba_32x8", "R": True, "C": 1,
                                  "K": 2, "M": 1}))
    assert main(["synth", "--config", str(config), "--lib", LIB,
                 "--out", str(tmp_path / "s")]) == 2
    assert not list((tmp_path / "s").iterdir())


@pytest.mark.parametrize("content, named", [
    ([{"variant": "ba_32x8", "R": 1, "C": 1, "K": 2, "M": 1}], "must hold a JSON object"),
    ({"config": {"variant": "ba_32x8", "R": 1, "C": 1, "K": 2}}, "missing fields: ['M']"),
    ({"variant": "ba_32x8", "R": 1, "C": 1, "K": 2, "M": 1, "N": 2}, "unknown fields: ['N']"),
    # the whole line, for a fault the reader reports
    ({"config": ["ba_32x8", 1, 1, 2, 1]},
     "smemsynth synth: {path}: config: must hold a JSON object\n"),
    ({"config": "ba_32x8,1,1,2,1"},
     "smemsynth synth: {path}: config: must hold a JSON object\n"),
    ({"variant": ["ba_32x8"], "R": 1, "C": 1, "K": 2, "M": 1}, "unknown macro variant"),
    ({"variant": "ba_32x8", "R": 1, "C": 1, "K": 1, "M": 16}, "M=16 does not divide C*W=8"),
])
def test_config_file_read_through_the_spec_helpers(tmp_path, capsys, content, named):
    """synth --config FILE takes a JSON object, or one under `config`, with
    exactly the MemoryConfig fields; anything else exits 2 with one line
    naming the problem and writes nothing."""
    config = tmp_path / "chosen.json"
    config.write_text(json.dumps(content))
    assert main(["synth", "--config", str(config), "--lib", LIB,
                 "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smemsynth synth: ") and err.count("\n") == 1
    assert named.format(path=config) in err
    assert not list((tmp_path / "s").iterdir())


def test_rejected_synth_writes_nothing(tmp_path, capsys, monkeypatch):
    """synth checks the floorplan before it writes the netlist and Verilog,
    so a run it rejects leaves --out empty."""
    argv = ["synth", "--config", "ba_32x8,1,1,8,1", "--lib", LIB]
    assert main(argv + ["--logic-area-um2", "nan", "--out", str(tmp_path / "a")]) == 2
    assert not list((tmp_path / "a").iterdir())
    monkeypatch.setattr("smemsynth.floorplan.check", lambda fp: ["rect x: overlap"])
    assert main(argv + ["--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.endswith("floorplan check: rect x: overlap\n")
    assert not list((tmp_path / "b").iterdir())


@pytest.mark.parametrize("spec, cap_mib, named", [
    ("40,40,0,0", 400, "a 40,40 image has 2^80 window origins"),
    ({"m": 4, "n": 4, "a": 1, "b": 1, "pixel_bits": 1 << 40}, 1536,
     "rdata is 4398046511104 bits (4 lanes x 1099511627776-bit pixels)"),
    # within the origin and rdata limits, but over the lane reads
    ({"m": 9, "n": 9, "a": 3, "b": 3, "pixel_bits": 1}, 400,
     "verifying reads 16777216 lanes (64 at each of 262144 origins); "
     "the budget is 4194304"),
], ids=["origins", "rdata", "lanes"])
def test_pa_over_budget_exits_2_and_writes_nothing(tmp_path, spec, cap_mib, named):
    """A spec past pa's budget is rejected before anything of its size is
    built: the run is capped well below what building it would take."""
    if isinstance(spec, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    out = tmp_path / "out"
    cap = cap_mib << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from smemsynth.cli import main\n"
            f"sys.exit(main(['pa', '--spec', {spec!r}, '--out', {str(out)!r}]))\n")
    src = str(Path(smemsynth.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("smemsynth pa: ") and run.stderr.count("\n") == 1
    assert named in run.stderr
    assert not list(out.iterdir())


def test_unknown_spec_fields_named(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"words": 256, "bits": 8,
                                "ar_target": 1.0, "ar_tol": 0.1}))
    assert main(["explore", "--spec", str(spec), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"smemsynth explore: {spec}: unknown fields: ['ar_target', 'ar_tol']\n"
    spec.write_text(json.dumps({"m": 4, "n": 4, "a": 1, "b": 1, "bits": 8}))
    assert main(["pa", "--spec", str(spec), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"smemsynth pa: {spec}: unknown fields: ['bits']\n"


def test_thread_env_guard(tmp_path, monkeypatch):
    # explore is serial; a leftover thread-count variable changes nothing
    monkeypatch.setenv("SMEMSYNTH_THREADS", "2")
    assert main(["explore", "--spec", SPEC, "--lib", LIB,
                 "--out", str(tmp_path)]) == 0


def test_outputs_deterministic(tmp_path):
    # spot check here; the acceptance suite runs every command twice
    outs = []
    for tag in ("x", "y"):
        d = tmp_path / tag
        main(["explore", "--spec", SPEC, "--lib", LIB, "--out", str(d)])
        outs.append((d / "report.csv").read_bytes()
                    + (d / "chosen.json").read_bytes())
    assert outs[0] == outs[1]


def test_readme_walkthrough(tmp_path, monkeypatch, capsys):
    """Run the README's Command line block in a fresh directory.  Every
    `#   ` output line it shows must be printed; a trailing ` ...` matches
    a prefix."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    shown, ran = [], 0
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#   "):
            shown.append(line[4:])
        elif line.startswith("printf "):
            _, text, _, target = shlex.split(line)
            Path(target).write_text(text.replace("\\n", "\n"))
        elif line.startswith("smemsynth "):
            argv = [str(README.parent / a) if a.startswith("src/") else a
                    for a in shlex.split(line)[1:]]
            assert main(argv) == 0, line
            ran += 1
    printed = capsys.readouterr().out.splitlines()
    assert ran == 6 and len(shown) == 8
    for want in shown:
        if want.endswith(" ..."):
            assert any(p.startswith(want[:-4]) for p in printed), want
        else:
            assert want in printed, want
