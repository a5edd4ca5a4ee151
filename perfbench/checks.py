"""Independent checkers for the outputs of the smemsynth commands.

No checker calls the smemsynth function whose output it judges.  Each one
re-derives the expected result from the command's inputs with its own code
(a brute-force enumeration, a quadratic dominance filter, a flat-memory
model, a direct window reference, a sweep-line overlap test) and reads the
output files with its own parsers.  Every checker returns a list of
problem strings; an empty list means the output is correct.
"""

from __future__ import annotations

import bisect
import csv
import json
import re
from collections import Counter, defaultdict

REPORT_FIELDS = ("variant", "R", "C", "K", "M", "area_um2", "t_cycle_ps",
                 "e_op_fj", "p_leak_nw", "gops_per_watt", "pareto")


# -- library and analytic geometry ---------------------------------------------

def read_library(path):
    """(tech dict, {macro name: macro dict}) read straight from the JSON."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc["tech"], {m["name"]: m for m in doc["macros"]}


def die_size(tech, macro, R, C, K):
    """Analytic (width, height) in nm of an R x C bank grid of K macros.

    Bank columns are macro-wide plus a gutter, next to a decode strip; bank
    rows stack K macros under a control row, above the global I/O strip.
    """
    pp, tp = tech["poly_pitch_nm"], tech["track_pitch_nm"]
    macro_w = round(macro["width_pitches"] * pp)
    macro_h = round(macro["height_tracks"] * tp)
    w = C * (macro_w + round(tech["gutter_pitches"] * pp)) \
        + round(tech["periph_w_pitches"] * pp)
    h = R * (K * macro_h + round(tech["bank_periph_h_tracks"] * tp)) \
        + round(tech["global_periph_h_tracks"] * tp)
    return w, h


# -- explore -------------------------------------------------------------------

def brute_force_configs(words, bits, tech, macros, ar_target=None, ar_tol=0.0):
    """Every (variant, R, C, K, M) of powers of two realizing words x bits.

    Tries each power-of-two R, K, M up to `words` and each power-of-two C
    up to bits * M, keeping the ones with R*K*B*M == words and
    C*W == bits*M; with an aspect-ratio target, also the ones whose
    analytic die height/width lies within ar_tol of it.
    """
    span = words.bit_length()
    found = set()
    for name, m in macros.items():
        B, W = m["B"], m["W"]
        for r in range(span):
            for k in range(span):
                for mm in range(span):
                    if B << (r + k + mm) != words:
                        continue
                    for c in range(bits.bit_length() + mm + 1):
                        if W << c != bits << mm:
                            continue
                        R, C, K, M = 1 << r, 1 << c, 1 << k, 1 << mm
                        if ar_target is not None:
                            w, h = die_size(tech, m, R, C, K)
                            if abs(h / w - ar_target) > ar_tol * ar_target:
                                continue
                        found.add((name, R, C, K, M))
    return found


def read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != REPORT_FIELDS:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    out = []
    for row in rows[1:]:
        out.append({"key": (row[0], *(int(v) for v in row[1:5])),
                    "area": float(row[5]), "t": float(row[6]),
                    "e": float(row[7]), "p_leak": float(row[8]),
                    "gops": float(row[9]), "pareto": int(row[10])})
    return out


def dominated(a, b):
    """True when triple b dominates triple a (minimization)."""
    return b[0] <= a[0] and b[1] <= a[1] and b[2] <= a[2] and b != a


def check_explore(report_path, chosen_path, words, bits, lib_path,
                  ar_target=None, ar_tol=0.0):
    tech, macros = read_library(lib_path)
    problems = []
    try:
        rows = read_report(report_path)
    except (ValueError, IndexError) as exc:
        return [f"report.csv unreadable: {exc}"]
    keys = [r["key"] for r in rows]
    expect = brute_force_configs(words, bits, tech, macros, ar_target, ar_tol)
    if len(set(keys)) != len(keys):
        problems.append("report.csv repeats a configuration")
    missing, extra = expect - set(keys), set(keys) - expect
    if missing:
        problems.append(f"report.csv lacks {len(missing)} configs, "
                        f"e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"report.csv has {len(extra)} illegal configs, "
                        f"e.g. {sorted(extra)[0]}")

    triples = [(r["area"], r["t"], r["e"]) for r in rows]
    for r, tri in zip(rows, triples):
        on_front = not any(dominated(tri, other) for other in triples)
        if r["pareto"] != int(on_front):
            problems.append(f"{r['key']}: pareto={r['pareto']}, "
                            f"dominance filter says {int(on_front)}")
            break

    with open(chosen_path) as fh:
        chosen = json.load(fh)
    if rows:
        best = min(rows, key=lambda r: (r["area"], r["t"], r["key"]))
        c = chosen["config"]
        got = (c["variant"], c["R"], c["C"], c["K"], c["M"])
        if got != best["key"]:
            problems.append(f"chosen {got}, least-area row is {best['key']}")
        ppa = chosen["ppa"]
        for field, col in (("area_um2", "area"), ("t_cycle_ps", "t"),
                           ("e_op_fj", "e"), ("p_leak_nw", "p_leak"),
                           ("gops_per_watt", "gops")):
            if ppa[field] != best[col]:
                problems.append(f"chosen {field}={ppa[field]}, "
                                f"report says {best[col]}")
        if chosen["feasible"] is not True or chosen["violation"] != 0:
            problems.append("chosen config is not flagged feasible")
    return problems


# -- synth ---------------------------------------------------------------------

def check_netlist(nl_path, R, C, K):
    """Cell inventory and driver rules, from a line-by-line read of the .nl."""
    kind_of = {}
    nets = set()
    inputs = set()
    drivers = defaultdict(list)
    problems = []
    with open(nl_path) as fh:
        for line in fh:
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            if toks[0] == "port":
                nets.add(toks[1])
                if toks[2] == "in":
                    inputs.add(toks[1])
            elif toks[0] == "cell":
                kind_of[toks[1]] = toks[2]
            elif toks[0] == "net":
                nets.add(toks[1])
            elif toks[0] == "conn":
                cell = toks[2].rpartition(".")[0]
                if toks[1] not in nets or cell not in kind_of:
                    problems.append(f"conn to unknown net/cell: {line.strip()}")
                elif toks[3] == "drive":
                    drivers[toks[1]].append(cell)
    kinds = Counter(kind_of.values())
    for kind in ("baplus_instance", "wordline_gate", "tristate_driver"):
        if kinds[kind] != R * C * K:
            problems.append(f"{kinds[kind]} {kind} cells, expected {R * C * K}")
    for net in sorted(nets):
        drv = drivers.get(net, [])
        if net in inputs:
            if drv:
                problems.append(f"input port {net} has internal drivers")
        elif not drv:
            problems.append(f"net {net} has no driver")
        elif len(drv) > 1 and any(kind_of[c] != "tristate_driver" for c in drv):
            problems.append(f"net {net}: several drivers, not all tristate")
    return problems


def read_floorplan(fp_path):
    with open(fp_path) as fh:
        head = fh.readline().split()
        rects = []
        for line in fh:
            name, kind, x, y, w, h = line.split()[1:]
            rects.append((name, kind, int(x), int(y), int(w), int(h)))
    return int(head[1]), int(head[2]), rects


def first_overlap(rects):
    """A pair of overlapping (name, x, y, w, h) rects, or None.

    Sweep over x; the active rects are kept sorted by y.  While no overlap
    has been found the active y-intervals are disjoint, so a new rect can
    only meet the active interval that starts last below its top edge.
    At equal x, rects that end are removed before rects that start, so
    rects that merely touch do not count.
    """
    events = []
    for i, (_n, x, _y, w, _h) in enumerate(rects):
        events.append((x, 1, i))
        events.append((x + w, 0, i))
    events.sort()
    active = []                      # (y_lo, y_hi, index), sorted
    for _x, starts, i in events:
        _n, _rx, y, _w, h = rects[i]
        item = (y, y + h, i)
        if not starts:
            del active[bisect.bisect_left(active, item)]
            continue
        j = bisect.bisect_left(active, (y + h,))
        if j and active[j - 1][1] > y:
            return rects[active[j - 1][2]][0], rects[i][0]
        active.insert(j, item)
    return None


def check_floorplan(fp_path, tech, macro, R, C, K):
    die_w, die_h, rects = read_floorplan(fp_path)
    problems = []
    want = die_size(tech, macro, R, C, K)
    if (die_w, die_h) != want:
        problems.append(f"die {die_w}x{die_h}, analytic {want[0]}x{want[1]}")
    n_macros = sum(1 for r in rects if r[1] == "macro")
    if n_macros != R * C * K:
        problems.append(f"{n_macros} macro rects, expected {R * C * K}")
    for name, _k, x, y, w, h in rects:
        if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > die_w or y + h > die_h:
            problems.append(f"{name} is not inside the die")
            break
    solid = [(n, x, y, w, h) for n, k, x, y, w, h in rects
             if k in ("macro", "periph_region")]
    pair = first_overlap(solid)
    if pair:
        problems.append(f"overlap: {pair[0]} / {pair[1]}")
    return problems


def check_synth(out_dir, name, lib_path, variant, R, C, K):
    tech, macros = read_library(lib_path)
    return (check_netlist(f"{out_dir}/{name}.nl", R, C, K)
            + check_floorplan(f"{out_dir}/{name}.fp", tech, macros[variant],
                              R, C, K))


# -- sim -----------------------------------------------------------------------

def read_trace(path):
    """[(cycle, op, a, b)] with one op per line, the line index its cycle."""
    ops = []
    with open(path) as fh:
        for cycle, line in enumerate(fh):
            toks = line.split()
            if toks[0] == "W":
                ops.append((cycle, "W", int(toks[1], 0), int(toks[2], 16)))
            elif toks[0] in ("R", "WIN"):
                ops.append((cycle, toks[0], *(int(t, 0) for t in toks[1:])))
            else:
                ops.append((cycle, toks[0]))
    return ops


def flat_memory_outputs(ops, bits):
    """(OUT lines, uninitialized reads) of a flat word memory.

    Reads see the memory as it was at the start of their cycle (old data on
    a read during a write), return all-ones for unwritten words and emit
    at cycle + 1.
    """
    mem = {}
    ones = (1 << bits) - 1
    digits = max(1, (bits + 3) // 4)
    outs, unset = [], 0
    pending = []
    last = None
    for op in ops:
        if op[0] != last:
            for addr, data in pending:
                mem[addr] = data
            pending.clear()
            last = op[0]
        if op[1] == "R":
            value = mem.get(op[2])
            if value is None:
                value, unset = ones, unset + 1
            outs.append(f"OUT {op[0] + 1} {value:0{digits}x}")
        elif op[1] == "W":
            pending.append((op[2], op[3]))
    return outs, unset


def read_result(path):
    cycles, outs, warnings = None, [], 0
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("OUT "):
                outs.append(line)
            elif line.startswith("# cycles "):
                cycles = int(line.split()[2])
            elif line.startswith("# warning "):
                warnings += 1
    return cycles, outs, warnings


def check_sim(result_path, trace_path, bits, stdout):
    """An SRAM sim run with --lib: outputs, cycles, warnings and energy line."""
    ops = read_trace(trace_path)
    want, unset = flat_memory_outputs(ops, bits)
    return (_compare_result(result_path, len(ops), want, unset)
            + _check_energy_line(stdout))


def _compare_result(result_path, n_cycles, want, unset):
    cycles, outs, warnings = read_result(result_path)
    problems = []
    if cycles != n_cycles:
        problems.append(f"# cycles {cycles}, trace has {n_cycles} lines")
    if len(outs) != len(want):
        problems.append(f"{len(outs)} OUT lines, expected {len(want)}")
    for got, exp in zip(outs, want):
        if got != exp:
            problems.append(f"{got!r}, expected {exp!r}")
            break
    if warnings != unset:
        problems.append(f"{warnings} warnings, {unset} uninitialized reads")
    return problems


def _check_energy_line(stdout):
    cross = re.search(r"energy_report cross-check: (\S+) fJ", stdout)
    total = re.search(r"e_total (\S+) fJ", stdout)
    if not cross or not total:
        return ["sim printed no energy cross-check"]
    if cross.group(1) != total.group(1):
        return [f"energy_report {cross.group(1)} fJ != e_total {total.group(1)} fJ"]
    return []


# -- pa ------------------------------------------------------------------------

def window_outputs(ops, m, n, a, b, pixel_bits, boundary):
    """(OUT lines, uninitialized lanes) of a direct window reference.

    Pixel writes address (x << n) | y.  A window at (x, y) returns pixel
    (x + dx, y + dy) in lane dx * 2^b + dy: toroidally wrapped, or with the
    origin first clamped so the window stays on the image.
    """
    w_img, h_img, bx, by = 1 << m, 1 << n, 1 << a, 1 << b
    ones = (1 << pixel_bits) - 1
    digits = max(1, (bx * by * pixel_bits + 3) // 4)
    pix = {}
    outs, unset = [], 0
    pending = []
    last = None
    for op in ops:
        if op[0] != last:
            for xy, data in pending:
                pix[xy] = data
            pending.clear()
            last = op[0]
        if op[1] == "W":
            pending.append(((op[2] >> n, op[2] & (h_img - 1)), op[3]))
        elif op[1] == "WIN":
            x, y = op[2], op[3]
            if boundary == "clamp":
                x = min(max(x, 0), w_img - bx)
                y = min(max(y, 0), h_img - by)
            value = 0
            for dx in range(bx):
                for dy in range(by):
                    p = pix.get(((x + dx) % w_img, (y + dy) % h_img))
                    if p is None:
                        p, unset = ones, unset + 1
                    value |= p << ((dx * by + dy) * pixel_bits)
            outs.append(f"OUT {op[0] + 1} {value:0{digits}x}")
    return outs, unset


def check_pa_verify(verify_path, m, n):
    with open(verify_path) as fh:
        lines = fh.read().splitlines()
    problems = []
    for mode in ("sm", "tm"):
        line = next((ln for ln in lines if ln.startswith(mode + " ")), None)
        if line is None:
            problems.append(f"pa_verify.txt has no {mode} line")
            continue
        fields = dict(tok.split("=") for tok in line.split()[1:])
        want = {"origins": str(1 << (m + n)), "mismatches": "0",
                "conflicts": "0", "warnings": "0"}
        for key, value in want.items():
            if fields.get(key) != value:
                problems.append(f"{mode} {key}={fields.get(key)}, expected {value}")
    return problems


def check_window_sim(result_path, trace_path, spec, boundary, twin_path=None):
    """The sim result against the window reference and, if given, its twin.

    The twin is the other design's result on the same trace; both designs
    must produce the same outputs.
    """
    ops = read_trace(trace_path)
    want, unset = window_outputs(ops, *spec, boundary)
    problems = _compare_result(result_path, len(ops), want, unset)
    if twin_path is not None and read_result(twin_path)[1] != read_result(result_path)[1]:
        problems.append("sm and tm outputs differ")
    return problems
