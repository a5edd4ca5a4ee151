"""Span tracing of smemsynth's layers from outside the package.

`Tracer.install()` replaces each traced public function at every place it
is looked up during a run (for example both `smemsynth.cli.generate_sram`
and `smemsynth.netlist.generate_sram`, and the `sim.simulate` and
`pa.check_plans` that `verify_pa` calls) with a wrapper that records a
span: name, start, end and the span that caused it.  `uninstall()` puts
the original functions back, so untraced rounds run the unmodified code.
Spans and counts stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# span name -> per-layer metric holding the summed self time of its spans
LAYER_TIMES = {
    "cli.explore": "cli.explore.self_s",
    "cli.synth": "cli.synth.self_s",
    "cli.sim": "cli.sim.self_s",
    "cli.pa": "cli.pa.self_s",
    "explorer.enumerate_configs": "explorer.enumerate_configs_s",
    "explorer.evaluate_ppa": "explorer.evaluate_ppa_s",
    "explorer.pareto_front": "explorer.pareto_front_s",
    "explorer.select_best": "explorer.select_best_s",
    "explorer.write_report_csv": "explorer.write_report_csv_s",
    "baplus.default_library": "baplus.default_library_s",
    "baplus.load_library": "baplus.load_library_s",
    "netlist.generate_sram": "netlist.generate_sram_s",
    "netlist.check_wellformed": "netlist.check_wellformed_s",
    "netlist.emit_netlist": "netlist.emit_netlist_s",
    "netlist.emit_hdl": "netlist.emit_hdl_s",
    "netlist.parse_netlist": "netlist.parse_netlist_s",
    "floorplan.realize": "floorplan.realize_s",
    "floorplan.check": "floorplan.check_s",
    "floorplan.export_text": "floorplan.export_text_s",
    "sim.trace_from_file": "sim.trace_from_file_s",
    "sim.simulate": "sim.simulate_s",
    "sim.energy_report": "sim.energy_report_s",
    "sim.verify_pa": "sim.verify_pa.self_s",
    "pa.check_plans": "pa.check_plans_s",
    "pa.generate_pa": "pa.generate_pa_s",
    "pa.compare_pa_ppa": "pa.compare_pa_ppa_s",
}

LAYER_COUNTS = ("explorer.configs", "explorer.front_points", "netlist.cells",
                "netlist.nets", "netlist.conns", "floorplan.rects", "sim.ops",
                "pa.origins")


def _ir_sizes(args, _result):
    ir = args[0]
    return {"netlist.cells": len(ir.cells), "netlist.nets": len(ir.nets),
            "netlist.conns": sum(len(n.drivers) + len(n.sinks)
                                 for n in ir.nets.values())}


# span name -> the work one call did, as {count name: amount}, from its
# arguments and result
COUNTERS = {
    "explorer.enumerate_configs": lambda a, r: {"explorer.configs": len(r)},
    "explorer.pareto_front": lambda a, r: {"explorer.front_points": len(r)},
    "netlist.check_wellformed": _ir_sizes,
    "floorplan.realize": lambda a, r: {"floorplan.rects": len(r.placements)},
    "sim.simulate": lambda a, r: {"sim.ops": len(a[1])},
    "sim.verify_pa": lambda a, r: {"pa.origins": r["origins"]},
}


class Tracer:
    def __init__(self, modules):
        """`modules` maps a short layer name ("cli", "sim", ...) to the module."""
        self.modules = modules
        self.spans = []                  # (id, parent, name, start, end, round)
        self.counts = defaultdict(lambda: defaultdict(int))   # round -> counts
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command = None             # id of the open cli command span
        self._saved = []                 # (owner, attr, original)

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn, root=False):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            # calls on the thread pool's workers belong to the command span
            parent = stack[-1] if stack else self._command
            stack.append(sid)
            if root:
                self._command = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._command = None
                self.spans.append((sid, parent, name, start, end, self.round))
            if counter is not None:
                counts = self.counts[self.round]
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function at each module attribute that holds it."""
        cli = self.modules["cli"]
        for cmd in ("explore", "synth", "sim", "pa"):
            self._patch_dict(cli.COMMANDS, cmd, f"cli.{cmd}")
        for name in LAYER_TIMES:
            layer, func = name.split(".")
            if layer == "cli":
                continue
            if name == "sim.trace_from_file":
                cls = self.modules["sim"].SimTrace
                self._patch(cls, "from_file",
                            staticmethod(self._wrap(name, cls.from_file)))
                continue
            original = getattr(self.modules[layer], func)
            wrapper = self._wrap(name, original)
            for mod in self.modules.values():
                if mod.__dict__.get(func) is original:
                    self._patch(mod, func, wrapper)

    def _patch_dict(self, table, key, name):
        self._saved.append((table, key, table[key]))
        table[key] = self._wrap(name, table[key], root=True)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------
    def self_times(self):
        """{round: {span name: summed self time}}.

        A span's self time is its duration minus the part of it that its
        child spans cover; children on different threads may overlap, so
        the covered part is the union of their intervals.
        """
        children = defaultdict(list)
        for sid, parent, _n, start, end, _r in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: defaultdict(float))
        for sid, _p, name, start, end, rnd in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[rnd][name] += (end - start) - covered
        return out

    def dump(self, path):
        """One JSON object per line: every span, then the counts per round."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "round": rnd}) + "\n")
            for rnd, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"round": rnd, "counts": counts}) + "\n")
