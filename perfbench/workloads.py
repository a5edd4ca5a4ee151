"""The three workloads: their inputs, their commands and their checks.

A workload is a list of `Step`s, one `smemsynth` command each, that every
round runs in order.  `build()` writes the workload's inputs for a seed:
the seed sets trace contents, addresses, data and PA image contents,
never the amount of work, so runs with different seeds do the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# sram_flow: user specs from the shipped 256x8 fixture up to 2^24 bits,
# as (label, words, bits, aspect-ratio target or None).  The chosen dies
# are wide, so floorplan checking stays cheap and the explorer dominates
# the design side.  64x512 stays out: its floorplan stacks overlapping pins
# that `synth` does not flag.
FLOW_SPECS = (
    ("s256x8", 256, 8, None),
    ("s4096x32", 4096, 32, None),
    ("s16384x16_ar1", 16384, 16, 1.0),
    ("s65536x32", 65536, 32, None),
    ("s262144x64", 262144, 64, None),
)
FLOW_AR_TOL = 0.1
FLOW_TRACE_OPS = 100_000
FLOW_ADDRESSES = 4096          # distinct addresses a trace touches

# sram_tall: legal configs whose bank columns stack hundreds of macros, so
# floorplan.check (quadratic within a column) and the netlist text path
# dominate.  The explorer does no work here.
TALL_CONFIGS = ("ba_8x8,1,8,512,1", "ba_16x8,2,4,256,1", "ba_8x16,1,2,1024,1")
TALL_TRACE_OPS = 20_000

# pa_window: (m, n, a, b) window specs, images 2^6..2^8 a side and windows
# 2^1..2^3 a side, each built in both boundary modes.
PA_SPECS = ((6, 6, 1, 1), (7, 6, 3, 1), (6, 8, 1, 2))
PA_BOUNDARIES = ("wrap", "clamp")
PA_PIXEL_BITS = 8
PA_TRACE_OPS = 20_000

WORKLOADS = ("sram_flow", "sram_tall", "pa_window")


@dataclass
class Step:
    command: str                     # explore | synth | sim | pa
    label: str                       # the input, unique within the workload
    argv: Callable[[], list]         # called before each run of the step
    out: Path                        # the directory the command writes
    check: Callable[[str], list]     # stdout -> problems, on the first pass


def _only(directory: Path, pattern: str) -> str:
    (path,) = directory.glob(pattern)
    return str(path)


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def sram_trace(rng, words, bits, n_ops):
    """Writes, reads and IDLE over a seeded set of addresses."""
    pool = rng.sample(range(words), min(words, FLOW_ADDRESSES))
    lines = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45:
            lines.append(f"W {rng.choice(pool)} {rng.getrandbits(bits):x}")
        elif r < 0.9:
            lines.append(f"R {rng.choice(pool)}")
        else:
            lines.append("IDLE")
    return lines


def window_trace(rng, m, n, n_ops):
    """Pixel writes interleaved with window reads at random origins."""
    lines = []
    for _ in range(n_ops):
        x, y = rng.randrange(1 << m), rng.randrange(1 << n)
        if rng.random() < 0.5:
            lines.append(f"W {(x << n) | y} {rng.getrandbits(PA_PIXEL_BITS):x}")
        else:
            lines.append(f"WIN {x} {y}")
    return lines


def _run_genlib(main, work: Path) -> Path:
    if main(["genlib", "--out", str(work / "lib")]) != 0:
        raise RuntimeError("genlib failed")
    return work / "lib" / "library.json"


def build(name, seed, main, work: Path, fixtures: Path) -> list[Step]:
    """Write the inputs of workload `name` under `work`; return its steps."""
    rng = random.Random(f"{name}:{seed}")
    lib = _run_genlib(main, work)
    return {"sram_flow": _sram_flow, "sram_tall": _sram_tall,
            "pa_window": _pa_window}[name](rng, seed, work, lib, fixtures)


def _sram_flow(rng, _seed, work, genlib_json, fixtures):
    steps = []
    for label, words, bits, ar in FLOW_SPECS:
        d = work / label
        d.mkdir(parents=True)
        if label == "s256x8":
            spec, lib = fixtures / "spec_256x8.json", fixtures / "lib_32x8.json"
            lib_args = ["--lib", str(lib)]
        else:
            spec, lib = d / "spec.json", genlib_json
            spec.write_text(json.dumps({"words": words, "bits": bits}) + "\n")
            lib_args = []        # explore and synth use the built-in library
        ar_args = [] if ar is None else ["--ar-target", str(ar),
                                         "--ar-tol", str(FLOW_AR_TOL)]
        trace = d / "ops.tr"
        _write_lines(trace, sram_trace(rng, words, bits, FLOW_TRACE_OPS))
        ex, sy, si = d / "explore", d / "synth", d / "sim"
        steps += [
            Step("explore", label,
                 lambda spec=spec, ex=ex, a=lib_args + ar_args:
                     ["explore", "--spec", str(spec), "--out", str(ex)] + a,
                 ex,
                 lambda _out, ex=ex, w=words, b=bits, lib=lib, ar=ar:
                     checks.check_explore(ex / "report.csv", ex / "chosen.json",
                                          w, b, lib, ar, FLOW_AR_TOL)),
            Step("synth", label,
                 lambda ex=ex, sy=sy, a=lib_args:
                     ["synth", "--config", str(ex / "chosen.json"),
                      "--out", str(sy)] + a,
                 sy,
                 lambda _out, ex=ex, sy=sy, lib=lib: _check_chosen_synth(ex, sy, lib)),
            Step("sim", label,
                 lambda sy=sy, si=si, trace=trace, lib=lib:
                     ["sim", _only(sy, "*.nl"), str(trace), "--lib", str(lib),
                      "--out", str(si)],
                 si,
                 lambda out, si=si, trace=trace, b=bits:
                     checks.check_sim(si / "result.txt", trace, b, out)),
        ]
    return steps


def _check_chosen_synth(explore_dir, synth_dir, lib):
    cfg = json.loads((explore_dir / "chosen.json").read_text())["config"]
    name = Path(_only(synth_dir, "*.nl")).stem
    return checks.check_synth(synth_dir, name, lib, cfg["variant"],
                              cfg["R"], cfg["C"], cfg["K"])


def _sram_tall(rng, _seed, work, lib, _fixtures):
    _tech, macros = checks.read_library(lib)
    steps = []
    for config in TALL_CONFIGS:
        variant, *factors = config.split(",")
        R, C, K, M = (int(f) for f in factors)
        macro = macros[variant]
        words, bits = R * K * macro["B"] * M, C * macro["W"] // M
        label = config.replace(",", "_")
        d = work / label
        d.mkdir(parents=True)
        trace = d / "ops.tr"
        _write_lines(trace, sram_trace(rng, words, bits, TALL_TRACE_OPS))
        sy, si = d / "synth", d / "sim"
        nl_name = f"sram_{variant}_r{R}c{C}k{K}m{M}"
        steps += [
            Step("synth", label,
                 lambda c=config, sy=sy:
                     ["synth", "--config", c, "--lib", str(lib), "--out", str(sy)],
                 sy,
                 lambda _out, sy=sy, n=nl_name, v=variant, f=(R, C, K):
                     checks.check_synth(sy, n, lib, v, *f)),
            Step("sim", label,
                 lambda sy=sy, si=si, trace=trace, n=nl_name:
                     ["sim", str(sy / f"{n}.nl"), str(trace), "--lib", str(lib),
                      "--out", str(si)],
                 si,
                 lambda out, si=si, trace=trace, b=bits:
                     checks.check_sim(si / "result.txt", trace, b, out)),
        ]
    return steps


def _pa_window(rng, seed, work, _lib, _fixtures):
    steps = []
    for spec in PA_SPECS:
        m, n, _a, _b = spec
        for boundary in PA_BOUNDARIES:
            label = "pa_{}_{}_{}_{}_{}".format(*spec, boundary)
            d = work / label
            d.mkdir(parents=True)
            trace = d / "ops.tr"
            _write_lines(trace, window_trace(rng, m, n, PA_TRACE_OPS))
            pd = d / "pa"
            steps.append(Step(
                "pa", label,
                lambda s=",".join(map(str, spec)), b=boundary, pd=pd:
                    ["pa", "--spec", s, "--boundary", b, "--seed", str(seed),
                     "--out", str(pd)],
                pd,
                lambda _out, pd=pd, m=m, n=n:
                    checks.check_pa_verify(pd / "pa_verify.txt", m, n)))
            for mode in ("sm", "tm"):
                si = d / f"sim_{mode}"
                twin = d / "sim_sm" / "result.txt" if mode == "tm" else None
                steps.append(Step(
                    "sim", f"{label}_{mode}",
                    lambda pd=pd, si=si, trace=trace, mode=mode:
                        ["sim", str(pd / f"pa_{mode}.nl"), str(trace),
                         "--out", str(si)],
                    si,
                    lambda _out, si=si, trace=trace, s=spec, b=boundary, tw=twin:
                        checks.check_window_sim(si / "result.txt", trace,
                                                (*s, PA_PIXEL_BITS), b, tw)))
    return steps
