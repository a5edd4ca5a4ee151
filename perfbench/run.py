"""In-process benchmark of the smemsynth command-line flows.

    python3 perfbench/run.py --workload sram_flow --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The workload runs in this one
process: it sets up its inputs, then runs whole rounds of
`smemsynth.cli.main(argv)` calls, every step of the workload once per
round, until --seconds would be overrun.  No interpreter start-up is
timed.  The first pass is checked in full by the independent checkers in
checks.py; every later pass must write byte-identical outputs.

Every timing is built from like-for-like samples: a step (one command on
one input) runs once per round, its figure is the median of its
per-round latencies, and a command's figure is the sum of those medians
over the workload's inputs.  The speed of a shared host drifts by tens of
percent over minutes, so every time is then scaled to a reference host
speed: a fixed pure-Python probe runs before every step, and times are
multiplied by REFERENCE_PROBE_S / (the run's median probe time).  See
README.md.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds, writes every span and count to
.perfbench/trace-<workload>-<seed>.jsonl and prints the per-layer metrics,
including the tracing overhead (traced minus untraced flow_s).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# a fixed probe time that defines the reference host; reported times are
# seconds on a host where the probe's median takes this long.  It is close
# to the probe's time on a lightly loaded 2 GHz Xeon vCPU under Python 3.11
# (its fastest runs there took 2.2-2.5 ms)
REFERENCE_PROBE_S = 0.0025
LAYERS = ("cli", "explorer", "netlist", "floorplan", "sim", "pa", "baplus")
COMMANDS = ("explore", "synth", "pa", "sim")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(args, work):
    """Import smemsynth afresh from src/, run genlib, write the inputs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name in [m for m in sys.modules if m.split(".")[0] == "smemsynth"]:
        del sys.modules[name]
    cli = importlib.import_module("smemsynth.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        steps = workloads.build(args.workload, args.seed, cli.main, work,
                                SRC / "smemsynth" / "fixtures")
    return cli, steps


def timed_set_up(args, work):
    """Seconds for one more set-up in `work`, leaving the run's modules loaded."""
    loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "smemsynth"}
    t0 = time.perf_counter()
    set_up(args, work)
    seconds = time.perf_counter() - t0
    for name in [m for m in sys.modules if m.split(".")[0] == "smemsynth"]:
        del sys.modules[name]
    sys.modules.update(loaded)
    shutil.rmtree(work, ignore_errors=True)
    return seconds


def digest(step, stdout):
    """sha256 of the step's stdout and of every file it wrote."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(step.out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, cli, steps):
        self.cli = cli
        self.steps = steps
        self.times = [[] for _ in steps]       # per step: one latency per round
        self.traced_times = [[] for _ in steps]
        self.probes = []                       # probe latency before each step
        self.first = [None] * len(steps)       # digest of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def round(self, traced=False):
        for i, step in enumerate(self.steps):
            argv = step.argv()
            out = io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc, err = exc, io.StringIO(repr(exc))
            dt = time.perf_counter() - t0
            (self.traced_times if traced else self.times)[i].append(dt)
            self.attempted += 1
            where = f"{step.command} {step.label}"
            if rc != 0:
                self.failed += 1
                print(f"FAILED {where}: exit {rc}: {err.getvalue().strip()}",
                      file=sys.stderr)
                continue
            got = digest(step, out.getvalue())
            if self.first[i] is None:
                self.first[i] = got
                self.problems += [f"{where}: {p}" for p in step.check(out.getvalue())]
            elif got != self.first[i]:
                self.problems.append(f"{where}: outputs differ from the first pass"
                                     + (" (traced)" if traced else ""))


def probe():
    """A fixed slice of dict, string and sort work: the host's speed gauge."""
    table = {}
    for i in range(3000):
        table["k%d" % (i * 7919 % 3001)] = [i, str(i)]
    return len("".join(sorted(table)))


def command_sums(steps, times, scale):
    """{command: scale * sum over its steps of the step's median latency}."""
    sums = dict.fromkeys(COMMANDS, 0.0)
    for step, samples in zip(steps, times):
        sums[step.command] += scale * statistics.median(samples)
    return sums


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_scale(run):
    """Reference seconds per host second, from this run's probes."""
    return REFERENCE_PROBE_S / statistics.median(run.probes)


def end_to_end(run, setups, rss_mib):
    scale = host_scale(run)
    sums = command_sums(run.steps, run.times, scale)
    flow = sum(sums.values())
    print(f"host: median probe {statistics.median(run.probes) * 1e3:.3f} ms, "
          f"so 1 host s = {scale:.4f} reference s; unscaled flow "
          f"{flow / scale:.4f} s")
    return {"setup_s": (scale * statistics.median(setups), "s"),
            "flow_s": (flow, "s"),
            "design_s": (flow - sums["sim"], "s"),
            "sim_s": (sums["sim"], "s"),
            "peak_rss_mb": (rss_mib, "MiB")}


def per_layer(run, tracer):
    scale = host_scale(run)
    traced_rounds = sorted({r for *_x, r in tracer.spans})
    selfs = tracer.self_times()
    out = {}
    for span, metric in spans.LAYER_TIMES.items():
        out[metric] = (scale * statistics.median(selfs[r][span] for r in traced_rounds), "s")
    for count in spans.LAYER_COUNTS:
        out[count] = (tracer.counts[traced_rounds[0]][count], "count")
    simulate_s = out["sim.simulate_s"][0]
    out["sim.ops_per_s"] = (out["sim.ops"][0] / simulate_s if simulate_s else 0.0, "1/s")
    sums = command_sums(run.steps, run.times, scale)
    for cmd in ("explore", "synth", "pa"):
        out[f"{cmd}_s"] = (sums[cmd], "s")
    traced_flow = sum(command_sums(run.steps, run.traced_times, scale).values())
    out["trace.overhead_s"] = (traced_flow - sum(sums.values()), "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smemsynth" / "cli.py").is_file():
        print(f"no smemsynth sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # the first set-up also pays for the interpreter's own imports since
        # process start; the others are spread over the first rounds, so
        # that their median follows the host's speed over the whole run
        cli, steps = set_up(args, work)
        setups = [time.perf_counter() - START]

        run = Run(cli, steps)
        tracer = None
        if args.trace:
            tracer = spans.Tracer({name: sys.modules[f"smemsynth.{name}"]
                                   for name in LAYERS})
        began = time.perf_counter()
        rounds = 0
        while True:
            run.round()
            if rounds == 0:
                # the peak creeps up over rounds as the heap fragments, so
                # a run with fewer rounds would read lower: take the peak
                # over set-up and the first pass only
                rss_mib = peak_rss_mib()
            if tracer:
                tracer.round = rounds
                tracer.install()
                try:
                    run.round(traced=True)
                finally:
                    tracer.uninstall()
            rounds += 1
            if len(setups) < SETUP_REPEATS:
                setups.append(timed_set_up(args, work.with_name(work.name + "-setup")))
            spent = time.perf_counter() - began
            if rounds >= MIN_ROUNDS and spent * (rounds + 1) / rounds > args.seconds:
                break

        if tracer:
            metrics = per_layer(run, tracer)
            tracer.dump(WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(run, setups, rss_mib)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    kind = "untraced+traced round pairs" if tracer else "rounds"
    print(f"{args.workload}: {rounds} {kind} of {len(run.steps)} commands, "
          f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
