"""Command-line driver for batch memory-synthesis runs.

Sub-commands cover the flow end to end: build a macro library (genlib),
size an organization for a capacity spec (explore), emit netlist / HDL /
floorplan for one organization (synth), build and compare the two
pixel-array mappings (pa), replay traces (sim), and score leaf-cell
layouts (leafcell).  Every output is plain text -- CSV or line-oriented
whitespace data -- and deterministic for fixed inputs and seed, so runs
diff cleanly in CI.
"""

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

from . import floorplan, leafcell, pa, sim
from .baplus import (Library, TechParams, check_record, default_library,
                     load_library, load_tech, read_json, save_library)
from .explorer import (MemoryConfig, UserSpec, check_aspect_ratio,
                       enumerate_configs, evaluate_ppa, pareto_front,
                       select_best, write_report_csv)
from .netlist import check_wellformed, emit_hdl, emit_netlist, generate_sram, parse_netlist

FIXTURE_DIR = Path(__file__).parent / "fixtures"


class UsageError(ValueError):
    """Bad invocation: missing files, malformed spec strings, and so on."""


# what main reports as `smemsynth <command>: <reason>` with exit 2: bad
# usage (UsageError) and the libraries' domain errors are all ValueError
# subclasses; a finite but huge figure can still overflow where a model
# rounds it to whole nanometres
DOMAIN_ERRORS = (ValueError, OSError, KeyError, OverflowError)


# -- small parsers -------------------------------------------------------------

def _parse_bounds(text):
    """`R,C,K,M` caps as four comma-separated ints; missing -> None."""
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--bounds wants four values: R,C,K,M")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--bounds values must be integers: {text!r}")
    if any(v < 1 for v in vals):
        raise UsageError("--bounds values must be >= 1")
    return dict(zip(("R", "C", "K", "M"), vals))


def _parse_int_list(text, flag):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} wants comma-separated integers, got {text!r}")


def _load_tech(path) -> TechParams | None:
    return None if path is None else load_tech(path)


def _load_lib(args) -> Library:
    """--lib (default: the built-in grid), with --tech as its technology."""
    tech = _load_tech(args.tech)
    if args.lib:
        lib = load_library(args.lib)
        # explicit --tech wins over whatever the library file recorded
        return lib if tech is None else Library(list(lib), tech)
    return default_library(tech or TechParams())


def _spec_fields(value, cls, parse_inline, key=None) -> dict:
    """The fields of a `cls` that `value` gives: the JSON object in file
    `value` (or its member `key`, where it has one), key-checked against
    `cls`, or `parse_inline(value)` for the inline form."""
    if not os.path.isfile(value):
        return parse_inline(value)
    doc = read_json(value)
    if key in doc:
        return check_record(doc[key], f"{value}: {key}", cls)
    return check_record(doc, value, cls)


def _inline_user_spec(value) -> dict:
    m = re.fullmatch(r"(\d+)x(\d+)", value)
    if not m:
        raise UsageError(f"--spec wants WORDSxBITS or a JSON file, got {value!r}")
    return {"words": int(m.group(1)), "bits": int(m.group(2))}


def _user_spec(args) -> UserSpec:
    """--spec as `WORDSxBITS` inline or a JSON file with the same fields;
    the limit and aspect-ratio flags override the file."""
    fields = _spec_fields(args.spec, UserSpec, _inline_user_spec)
    for name, flag in (("aspect_ratio_target", args.ar_target),
                       ("aspect_ratio_tol", args.ar_tol),
                       ("t_max_ps", args.t_max_ps), ("e_max_fj", args.e_max_fj)):
        if flag is not None:
            fields[name] = flag
    return UserSpec(**fields)


def _inline_pa_spec(value) -> dict:
    parts = _parse_int_list(value, "--spec")
    if len(parts) != 4:
        raise UsageError("--spec wants m,n,a,b or a JSON file")
    return dict(zip(("m", "n", "a", "b"), parts))


def _pa_spec(args) -> pa.PAWindowSpec:
    """--spec as `m,n,a,b` inline or a JSON file with the full field set;
    --pixel-bits and --boundary fill only the fields the file lacks."""
    fields = _spec_fields(args.spec, pa.PAWindowSpec, _inline_pa_spec)
    fields.setdefault("pixel_bits", args.pixel_bits)
    fields.setdefault("boundary", args.boundary)
    return pa.PAWindowSpec(**fields)


def _inline_config(text) -> dict:
    parts = text.split(",")
    if len(parts) != 5:
        raise UsageError("--config wants VARIANT,R,C,K,M or a chosen.json")
    try:
        return {"variant": parts[0], **dict(zip("RCKM", map(int, parts[1:])))}
    except ValueError:
        raise UsageError(f"--config factors must be integers: {text!r}")


def _memory_config(text, lib: Library) -> MemoryConfig:
    """--config as `VARIANT,R,C,K,M` inline or a chosen.json from explore."""
    cfg = MemoryConfig(**_spec_fields(text, MemoryConfig, _inline_config, "config"))
    cfg.validate(lib)
    return cfg


def _fmt(v: float, places: int) -> str:
    return f"{v:.{places}f}"


# -- sub-commands --------------------------------------------------------------

def cmd_genlib(args) -> int:
    tech = _load_tech(args.tech) or TechParams()
    b_values = _parse_int_list(args.b_values, "--b-values")
    w_values = _parse_int_list(args.w_values, "--w-values")
    lib = default_library(tech, b_values=b_values, w_values=w_values)
    path = Path(args.out) / "library.json"
    save_library(lib, path)
    print(f"library.json: {len(lib)} macros "
          f"(B in {sorted(set(b_values))}, W in {sorted(set(w_values))})")
    return 0


def cmd_explore(args) -> int:
    lib = _load_lib(args)
    spec = _user_spec(args)
    cfgs = enumerate_configs(spec, lib, args.bounds)
    if not cfgs:
        print("no legal organization for this spec and library", file=sys.stderr)
        return 1
    points = [(c, evaluate_ppa(c, lib)) for c in cfgs]
    front = pareto_front(points)

    out = Path(args.out)
    write_report_csv(out / "report.csv", points, front)
    with open(out / "front.dat", "w") as fh:
        # gnuplot-friendly: whitespace columns, front points only
        fh.write("# area_um2 t_cycle_ps e_op_fj gops_per_watt\n")
        for cfg, est in front:
            fh.write(f"{est.area_um2:.4f} {est.t_cycle_ps:.2f} "
                     f"{est.e_op_fj:.3f} {est.gops_per_watt:.2f}\n")

    sel = select_best(points, spec)
    chosen = {
        "config": {"variant": sel.config.variant, "R": sel.config.R,
                   "C": sel.config.C, "K": sel.config.K, "M": sel.config.M},
        "ppa": {"area_um2": round(sel.estimate.area_um2, 4),
                "t_cycle_ps": round(sel.estimate.t_cycle_ps, 2),
                "e_op_fj": round(sel.estimate.e_op_fj, 3),
                "p_leak_nw": round(sel.estimate.p_leak_nw, 3),
                "gops_per_watt": round(sel.estimate.gops_per_watt, 2)},
        "feasible": sel.feasible,
        "violation": round(sel.violation, 6),
    }
    with open(out / "chosen.json", "w") as fh:
        json.dump(chosen, fh, indent=2, sort_keys=True)
        fh.write("\n")

    c = sel.config
    print(f"{len(points)} configs, {len(front)} on the front; "
          f"chose {c.variant},R={c.R},C={c.C},K={c.K},M={c.M} "
          f"({'feasible' if sel.feasible else f'INFEASIBLE +{sel.violation:.3f}'})")
    return 0 if sel.feasible else 1


def cmd_synth(args) -> int:
    lib = _load_lib(args)
    cfg = _memory_config(args.config, lib)
    ar_tol = args.ar_tol if args.ar_tol is not None else 0.0
    check_aspect_ratio(args.ar_target, ar_tol)
    ir = generate_sram(cfg, lib)
    violations = check_wellformed(ir)
    if violations:
        for v in violations:
            print(f"netlist check: {v}", file=sys.stderr)
        return 1

    # every check runs before the first file is written
    fp = floorplan.realize(cfg, lib, args.logic_area_um2,
                           ar_target=args.ar_target, ar_tol=ar_tol,
                           transpose=args.transpose)
    problems = floorplan.check(fp)
    if problems:
        for p in problems:
            print(f"floorplan check: {p}", file=sys.stderr)
        return 1

    out = Path(args.out)
    emit_netlist(ir, out / f"{ir.name}.nl")
    emit_hdl(ir, out / f"{ir.name}.v")
    floorplan.export_text(fp, out / f"{ir.name}.fp")
    note = " (AR-MISS)" if fp.ar_miss else ""
    print(f"{ir.name}: {ir.cell_count()} cells, die "
          f"{fp.die_w}x{fp.die_h} nm{note}")
    return 0


def cmd_pa(args) -> int:
    tech = _load_tech(args.tech)
    spec = _pa_spec(args)
    pa.check_budget(spec)
    out = Path(args.out)
    irs = {}
    for mode in ("sm", "tm"):
        ir = pa.generate_pa(spec, mode, tech)
        violations = check_wellformed(ir)
        if violations:
            for v in violations:
                print(f"{mode} netlist check: {v}", file=sys.stderr)
            return 1
        emit_netlist(ir, out / f"pa_{mode}.nl")
        irs[mode] = ir

    cmp = pa.compare_pa_ppa(spec, tech)
    with open(out / "pa_compare.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("design", "area_um2", "t_cycle_ps", "e_op_fj",
                     "gops_per_watt"))
        for design, est in (("sm", cmp.sm), ("tm", cmp.tm)):
            wr.writerow([design, _fmt(est.area_um2, 4), _fmt(est.t_cycle_ps, 2),
                         _fmt(est.e_op_fj, 3), _fmt(est.gops_per_watt, 2)])

    # the plans depend on the spec alone; each mode's line carries them
    plans = pa.check_plans(spec)
    bad = 0
    lines = [f"window m={spec.m} n={spec.n} a={spec.a} b={spec.b} "
             f"pixel_bits={spec.pixel_bits} boundary={spec.boundary}"]
    rep = sim.verify_pa(spec, irs, seed=args.seed)
    for mode, reads in rep["designs"].items():
        mismatches = reads["mismatches"] + plans["mismatches"]
        bad += mismatches + plans["conflicts"]
        lines.append(f"{mode} origins={rep['origins']} "
                     f"mismatches={mismatches} "
                     f"conflicts={plans['conflicts']} "
                     f"warnings={reads['warnings']}")
    with open(out / "pa_verify.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines[1:]:
        print(line)
    print(f"area sm/tm {cmp.area_ratio:.4f}, gops/W sm {cmp.sm.gops_per_watt:.1f} "
          f"vs tm {cmp.tm.gops_per_watt:.1f}")
    return 1 if bad else 0


def cmd_sim(args) -> int:
    ir = parse_netlist(args.netlist)
    trace = sim.TraceFile(args.trace)
    try:
        res = sim.simulate(ir, trace)
    except DOMAIN_ERRORS:
        # the engine reads the trace as it goes, so it may fail before
        # reaching a malformed line; that line is still the error reported
        for _op in trace:
            pass
        raise
    # rdata's width, which the engine checked in the head
    digits = max(1, (ir.head()[1]["rdata"].width + 3) // 4)
    leak = sim.leak_fj(ir.meta, res.cycles)

    out = Path(args.out)
    with open(out / "result.txt", "w") as fh:
        fh.write(f"# smemsynth sim result {ir.name}\n")
        fh.write(f"# cycles {res.cycles}\n")
        fh.write(f"# e_total_fj {res.e_total_fj:.3f}\n")
        fh.write(f"# e_leak_fj {leak:.3f}\n")
        # one write per record: a window's lanes, or one SRAM read
        for text in res.warnings.blocks("# warning "):
            fh.write(text)
        out_line = f"OUT %d %0{digits}x\n"
        fh.writelines(out_line % cv for cv in res.outputs)
    if args.lib or args.tech:
        check = sim.energy_report(res, _load_lib(args))
        print(f"energy_report cross-check: {check:.3f} fJ")
    print(f"{len(res.outputs)} outputs over {res.cycles} cycles, "
          f"e_total {res.e_total_fj:.3f} fJ ({leak:.3f} leak)")
    return 0


def cmd_leafcell(args) -> int:
    paths = args.inputs or sorted(str(p) for p in FIXTURE_DIR.glob("*.cell"))
    if not paths:
        print("no .cell files to score", file=sys.stderr)
        return 2
    relevant = set(args.relevant.split(",")) if args.relevant else None
    rows = []
    total_violations = 0
    for path in paths:
        layout = leafcell.load_cell(path)
        violations = leafcell.check_restrictions(layout)
        for v in violations:
            print(f"{layout.name}: {v}", file=sys.stderr)
        total_violations += len(violations)
        row = [layout.name, layout.track_count, layout.width_pitches,
               _fmt(leafcell.fin_efficiency(layout), 4),
               _fmt(leafcell.transistor_efficiency(layout), 4),
               _fmt(leafcell.power_rail_efficiency(layout), 4),
               len(violations)]
        if args.target_layer:
            row.append(leafcell.count_constructs(
                layout, args.target_layer, args.window,
                relevant or {args.target_layer}))
        rows.append(row)

    header = ["name", "tracks", "width_pitches", "fin_efficiency",
              "transistor_efficiency", "power_rail_efficiency", "violations"]
    if args.target_layer:
        header.append("constructs")
    with open(Path(args.out) / "leafcell_report.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    for row in rows:
        print(f"{row[0]}: fin {row[3]} gate {row[4]} rail {row[5]} "
              f"violations {row[6]}")
    return 1 if total_violations else 0


# -- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smemsynth",
        description="Synthesize and analyze application-tuned memories.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized step (default 0)")
    common.add_argument("--tech", help="technology parameter JSON file")

    p = sub.add_parser("genlib", parents=[common],
                       help="generate a macro library over a (B, W) grid")
    p.add_argument("--b-values", default="8,16,32,64",
                   help="comma-separated row counts")
    p.add_argument("--w-values", default="8,16,32,64",
                   help="comma-separated column counts")

    p = sub.add_parser("explore", parents=[common],
                       help="enumerate organizations and pick the best")
    p.add_argument("--spec", required=True,
                   help="WORDSxBITS (e.g. 256x8) or a JSON spec file")
    p.add_argument("--lib", help="library JSON (default: built-in grid)")
    p.add_argument("--bounds", help="caps on the R,C,K,M factors")
    p.add_argument("--ar-target", type=float, help="aspect-ratio target h/w")
    p.add_argument("--ar-tol", type=float, help="relative AR tolerance")
    p.add_argument("--t-max-ps", type=float, help="cycle-time limit")
    p.add_argument("--e-max-fj", type=float, help="per-op energy limit")

    p = sub.add_parser("synth", parents=[common],
                       help="emit netlist, HDL and floorplan for one config")
    p.add_argument("--config", required=True,
                   help="VARIANT,R,C,K,M or a chosen.json from explore")
    p.add_argument("--lib", help="library JSON (default: built-in grid)")
    p.add_argument("--logic-area-um2", type=float, default=0.0,
                   help="periphery logic area folded into the io strip")
    p.add_argument("--ar-target", type=float, help="aspect-ratio target h/w")
    p.add_argument("--ar-tol", type=float, help="relative AR tolerance")
    p.add_argument("--transpose", action="store_true",
                   help="swap die width and height")

    p = sub.add_parser("pa", parents=[common],
                       help="build and compare the two pixel-array mappings")
    p.add_argument("--spec", required=True,
                   help="m,n,a,b (e.g. 5,5,1,1) or a JSON spec file")
    p.add_argument("--pixel-bits", type=int, default=8)
    p.add_argument("--boundary", choices=list(pa.BOUNDARY_MODES),
                   default="wrap", help="off-image policy for window reads")

    p = sub.add_parser("sim", parents=[common],
                       help="replay a trace file against a netlist")
    p.add_argument("netlist", help="netlist text file")
    p.add_argument("trace", help="trace file (W/R/WIN/IDLE lines)")
    p.add_argument("--lib", help="library JSON for an energy cross-check")

    p = sub.add_parser("leafcell", parents=[common],
                       help="score leaf-cell layouts and check restrictions")
    p.add_argument("inputs", nargs="*", metavar="CELL",
                   help=".cell files (default: shipped fixtures)")
    p.add_argument("--target-layer",
                   help="also count unique constructs on this layer")
    p.add_argument("--window", type=int, default=4,
                   help="construct window in pitches (default 4)")
    p.add_argument("--relevant", help="comma-separated layers in the window")

    return parser


COMMANDS = {
    "genlib": cmd_genlib,
    "explore": cmd_explore,
    "synth": cmd_synth,
    "pa": cmd_pa,
    "sim": cmd_sim,
    "leafcell": cmd_leafcell,
}


def _check_args(args) -> None:
    """Parse --bounds, check that the input files exist, then create --out.

    Checking up front means a command never gets halfway through a run
    before tripping on a missing input.
    """
    if "bounds" in args:
        args.bounds = _parse_bounds(args.bounds)
    inputs = getattr(args, "inputs", [])
    if args.command == "sim":
        inputs = [args.netlist, args.trace]
    # --spec and --config may be inline strings or files; only file-looking
    # ones are checked
    specs = [v for v in (getattr(args, "spec", None), getattr(args, "config", None))
             if v and (os.sep in v or v.endswith(".json"))]
    for p in (getattr(args, "lib", None), args.tech, *inputs, *specs):
        if p is not None and not os.path.isfile(p):
            raise UsageError(f"input file not found: {p}")
    os.makedirs(args.out, exist_ok=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return COMMANDS[args.command](args)
    except DOMAIN_ERRORS as exc:
        print(f"smemsynth {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
