"""Cycle-accurate functional simulation of generated netlists.

Semantics (identical for every design):
  * synchronous, one-cycle read latency: a read issued at cycle t produces
    its output at cycle t + 1;
  * a read and a write may share a cycle (1R-1W); a read that collides with
    a same-address write returns the OLD data;
  * reading a never-written location yields an all-ones poison value plus a
    warning.

Each design kind gets its own engine that first validates the netlist's
structure (cell inventory and parameters), then steps the trace while
counting per-cell activations.  Energy is activations times per-event
energies plus leakage over the trace duration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import netlist, pa
from .baplus import Library, TechParams, ilog2


class SimError(ValueError):
    pass


class TraceError(ValueError):
    pass


_READ_KINDS = ("R", "WIN")


class SimTrace:
    """Ordered, cycle-stamped operations; at most 1R and 1W per cycle."""

    def __init__(self):
        self.ops: list[tuple] = []  # (cycle, kind, a, b)
        # stamps never decrease, so only the last cycle's ports can clash
        self._cycle = -1
        self._used = ""  # ports ("r", "w") taken in self._cycle

    def _add(self, cycle, kind, a=0, b=0):
        if cycle is None:
            cycle = self.n_cycles
        if cycle < 0:
            raise TraceError("negative cycle")
        if self.ops and cycle < self.ops[-1][0]:
            raise TraceError("cycle stamps must not decrease")
        port = "r" if kind in _READ_KINDS else ("w" if kind == "W" else None)
        if cycle != self._cycle:
            self._cycle, self._used = cycle, ""
        if port is not None:
            if port in self._used:
                raise TraceError(f"cycle {cycle}: second {port}-port op")
            self._used += port
        self.ops.append((cycle, kind, a, b))
        return self

    @property
    def n_cycles(self) -> int:
        return self.ops[-1][0] + 1 if self.ops else 0

    def __len__(self):
        return len(self.ops)

    def read(self, addr, cycle=None):
        return self._add(cycle, "R", addr)

    def write(self, addr, data, cycle=None):
        if data < 0:
            raise TraceError("write data must be non-negative")
        return self._add(cycle, "W", addr, data)

    def window(self, x, y, cycle=None):
        return self._add(cycle, "WIN", x, y)

    def idle(self, cycle=None):
        return self._add(cycle, "IDLE")

    def to_file(self, path) -> None:
        """One line per cycle: W <addr> <hexdata> | R <addr> | WIN <x> <y> | IDLE."""
        lines = ["IDLE"] * self.n_cycles
        for cycle, kind, a, b in self.ops:
            if kind == "IDLE":
                continue
            if lines[cycle] != "IDLE":
                raise TraceError(
                    f"cycle {cycle}: trace file holds one op per line; "
                    "co-issued read+write traces are API-only")
            if kind == "W":
                lines[cycle] = f"W {a} {b:x}"
            elif kind == "R":
                lines[cycle] = f"R {a}"
            else:
                lines[cycle] = f"WIN {a} {b}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def from_file(cls, path) -> "SimTrace":
        tr = cls()
        cycle = 0
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                toks = line.split()
                try:
                    if toks[0] == "W":
                        tr.write(int(toks[1], 0), int(toks[2], 16), cycle)
                    elif toks[0] == "R":
                        tr.read(int(toks[1], 0), cycle)
                    elif toks[0] == "WIN":
                        tr.window(int(toks[1], 0), int(toks[2], 0), cycle)
                    elif toks[0] == "IDLE":
                        tr.idle(cycle)
                    else:
                        raise TraceError(f"unknown op {toks[0]!r}")
                except (IndexError, ValueError) as e:
                    raise TraceError(f"{path}:{lineno}: {e}") from None
                cycle += 1
        return tr


@dataclass
class SimResult:
    outputs: list          # (cycle, value), one per read, at issue cycle + 1
    activity: dict         # cell name (":read"/":write" suffix for macros) -> count
    e_total_fj: float
    cycles: int
    warnings: list = field(default_factory=list)
    ir: netlist.NetlistIR | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SimError(f"netlist structure: {msg}")


def _sorted_ops(trace: SimTrace):
    # reads evaluate before the co-issued write commits, whatever the
    # insertion order was
    return sorted(trace.ops, key=lambda op: (op[0], op[1] == "W"))


def leak_fj(meta: dict, cycles: int) -> float:
    """Leakage energy (fJ) of a design's `meta` over `cycles` cycles."""
    # nW * ps = 1e-21 J = 1e-6 fJ
    return meta["p_leak_nw"] * meta["t_cycle_ps"] * cycles * 1e-6


# -- 1R-1W engine -----------------------------------------------------------

def _sim_sram(ir: netlist.NetlistIR, trace: SimTrace) -> SimResult:
    meta = ir.meta
    R, C, K, M = meta["R"], meta["C"], meta["K"], meta["M"]
    B, W, words, bits = meta["B"], meta["W"], meta["words"], meta["bits"]
    lR, lK, lB, lM = ilog2(R), ilog2(K), ilog2(B), ilog2(M)
    dec = ir.cells.get("dec")
    _require(dec is not None and dec.kind == "decoder", "missing global decoder")
    _require(dec.params["in_bits"] == lR + lK + lB + lM, "decoder width mismatch")
    _require(dec.params["stages"] == lR + lK + lB, "decoder stage count mismatch")
    _require(dec.params["mux_bits"] == lM, "decoder mux-select bits mismatch")
    bas = ir.cells_of_kind("baplus_instance")
    _require(len(bas) == R * C * K, f"expected {R*C*K} macros, found {len(bas)}")
    for cell in bas:
        _require(cell.params["B"] == B and cell.params["W"] == W,
                 f"{cell.name}: macro geometry mismatch")
    _require(len(ir.cells_of_kind("wordline_gate")) == R * C * K,
             "one wordline gate per macro")
    _require((M > 1) == ("mux" in ir.cells), "column mux present iff M > 1")
    _require((M > 1) == ("sel_reg" in ir.cells), "select register iff M > 1")

    e_read = bas[0].params["e_read_fj"]
    e_write = bas[0].params["e_write_fj"]
    e_dec = dec.params["e_event_fj"]
    e_wire = meta["e_wire_op_fj"]

    mem = [None] * words
    poison = (1 << bits) - 1
    outputs = []
    warnings = []
    reads = writes = 0
    addr_reads: dict[int, int] = {}
    addr_writes: dict[int, int] = {}

    for cycle, kind, a, b in _sorted_ops(trace):
        if kind == "R":
            if not 0 <= a < words:
                raise SimError(f"cycle {cycle}: read address {a} out of range")
            v = mem[a]
            if v is None:
                v = poison
                warnings.append(f"cycle {cycle}: uninitialized read at address {a}")
            outputs.append((cycle + 1, v))
            reads += 1
            addr_reads[a] = addr_reads.get(a, 0) + 1
        elif kind == "W":
            if not 0 <= a < words:
                raise SimError(f"cycle {cycle}: write address {a} out of range")
            if b > poison:
                raise SimError(f"cycle {cycle}: write data wider than {bits} bits")
            mem[a] = b
            writes += 1
            addr_writes[a] = addr_writes.get(a, 0) + 1
        elif kind == "WIN":
            raise SimError("window reads apply to parallel-access designs only")

    act = {"__wire__": reads + writes, "dec": reads + writes}
    if M > 1:
        act["mux"] = reads
        act["sel_reg"] = reads
    for addr_map, suffix in ((addr_reads, ":read"), (addr_writes, ":write")):
        # (bank row, macro) -> accesses, in order of first access
        rk_map: dict[tuple, int] = {}
        for a, n in addr_map.items():
            r, k, _row, _s = netlist.split_address(a, lR, lK, lB, lM)
            rk_map[r, k] = rk_map.get((r, k), 0) + n
        for (r, k), n in rk_map.items():
            for c in range(C):
                bank = f"bank_{r}_{c}"
                act[f"{bank}/wlg_{k}"] = act.get(f"{bank}/wlg_{k}", 0) + n
                act[f"{bank}/ba_{k}{suffix}"] = act.get(f"{bank}/ba_{k}{suffix}", 0) + n
                if suffix == ":read":
                    act[f"{bank}/tri_{k}"] = act.get(f"{bank}/tri_{k}", 0) + n

    e = (act["dec"] * e_dec + act["__wire__"] * e_wire
         + reads * C * e_read + writes * C * e_write
         + leak_fj(meta, trace.n_cycles))
    return SimResult(outputs, act, e, trace.n_cycles, warnings, ir)


# -- parallel-access engines -------------------------------------------------

def _pa_common(ir: netlist.NetlistIR):
    spec = pa._spec_from_meta(ir.meta)
    bas = ir.cells_of_kind("baplus_instance")
    _require(len(bas) == spec.lanes, f"expected {spec.lanes} bank macros")
    for cell in bas:
        _require(cell.params["B"] == spec.bank_words
                 and cell.params["W"] == spec.pixel_bits,
                 f"{cell.name}: bank macro geometry mismatch")
    align = ir.cells.get("align")
    _require(align is not None and align.kind == "pa_align", "missing aligner")
    _require(align.params["lanes"] == spec.lanes, "aligner lane count mismatch")
    _require((spec.a + spec.b > 0) == ("rot_reg" in ir.cells),
             "rotation register iff the window spans multiple banks")
    return spec, bas[0]


def _pa_step_tables(spec: pa.PAWindowSpec):
    """slot_shift[rx * 2^b + ry][bank_index] -> output bit offset."""
    P = spec.pixel_bits
    bx, by = spec.banks_x, spec.banks_y
    tables = []
    for rx in range(bx):
        for ry in range(by):
            t = [0] * (bx * by)
            for p in range(bx):
                for q in range(by):
                    dx = (p - rx) % bx
                    dy = (q - ry) % by
                    t[(p << spec.b) | q] = (dx * by + dy) * P
            tables.append(t)
    return tables


def _sim_pa(ir: netlist.NetlistIR, trace: SimTrace, mode: str) -> SimResult:
    spec, ba0 = _pa_common(ir)
    mb, nb = spec.m - spec.a, spec.n - spec.b
    if mode == "sm":
        for axis, stages in (("x", mb), ("y", nb)):
            d = ir.cells.get(f"{axis}dec")
            _require(d is not None and d.kind == "decoder",
                     f"missing shared {axis}-axis decoder")
            _require(d.params["stages"] == stages,
                     f"{axis}-axis decoder depth mismatch")
        incs = [c for c in ir.cells_of_kind("pa_increment")]
        _require(len(incs) == 2 * spec.lanes,
                 "two one-hot increment cells per bank")
        e_dec_evt = (ir.cells["xdec"].params["e_event_fj"]
                     + ir.cells["ydec"].params["e_event_fj"])
        e_inc_evt = sum(c.params["e_event_fj"] for c in incs)
    else:
        trs = [c for c in ir.cells_of_kind("pa_increment")]
        _require(len(trs) == spec.lanes, "one translator per bank")
        for c in trs:
            _require(c.params.get("mode") == "translate",
                     f"{c.name}: expected a translate-mode cell")
        for p in range(spec.banks_x):
            for q in range(spec.banks_y):
                d = ir.cells.get(f"bank_{p}_{q}/sram/dec")
                _require(d is not None and d.params["in_bits"] == mb + nb,
                         f"bank ({p},{q}): private decode tree mismatch")
        e_dec_evt = spec.lanes * ir.cells["bank_0_0/sram/dec"].params["e_event_fj"]
        e_inc_evt = spec.lanes * trs[0].params["e_event_fj"]

    e_read, e_write = ba0.params["e_read_fj"], ba0.params["e_write_fj"]
    e_wire = ir.meta["e_wire_op_fj"]
    P = spec.pixel_bits
    lanes = spec.lanes
    a_, b_ = spec.a, spec.b
    bxm, bym = spec.banks_x - 1, spec.banks_y - 1
    xm, ym = spec.image_w - 1, spec.image_h - 1
    cols_n = spec.cols
    pmask = (1 << P) - 1
    plan = pa.window_planner(spec)
    tables = _pa_step_tables(spec)
    mem = [[None] * spec.bank_words for _ in range(lanes)]
    outputs = []
    warnings = []
    reads = writes = 0
    bank_writes = [0] * lanes

    for cycle, kind, xa, yb in _sorted_ops(trace):
        if kind == "WIN":
            (x, rx, rows), (y, ry, cols) = plan(xa, yb)
            shifts = tables[(rx << b_) | ry]
            out = 0
            bi = 0
            for p in range(bxm + 1):
                base = rows[p] * cols_n
                for q in range(bym + 1):
                    v = mem[bi][base + cols[q]]
                    if v is None:
                        v = pmask
                        warnings.append(
                            f"cycle {cycle}: uninitialized lane ({p},{q}) "
                            f"in window at ({x},{y})")
                    out |= v << shifts[bi]
                    bi += 1
            outputs.append((cycle + 1, out))
            reads += 1
        elif kind == "W":
            x, y = xa >> spec.n, xa & ym
            if not (0 <= x <= xm and 0 <= y <= ym):
                raise SimError(f"cycle {cycle}: pixel write ({x},{y}) off-surface")
            if yb > pmask:
                raise SimError(f"cycle {cycle}: write data wider than {P} bits")
            bi = ((x & bxm) << b_) | (y & bym)
            mem[bi][(x >> a_) * cols_n + (y >> b_)] = yb
            bank_writes[bi] += 1
            writes += 1
        elif kind == "R":
            raise SimError("single-address reads apply to 1R-1W designs only")

    act = {"__wire__": reads + writes, "align": reads}
    if a_ + b_:
        act["rot_reg"] = reads
    ops = reads + writes
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            bank = f"bank_{p}_{q}"
            bi = (p << b_) | q
            if mode == "sm":
                act[f"{bank}/incx"] = act[f"{bank}/incy"] = reads
                act[f"{bank}/wlg"] = reads + bank_writes[bi]
                act[f"{bank}/tri"] = reads
            else:
                act[f"{bank}/translate"] = ops
                act[f"{bank}/sram/dec"] = reads + bank_writes[bi]
                act[f"{bank}/sram/bank_0_0/wlg_0"] = reads + bank_writes[bi]
                act[f"{bank}/sram/bank_0_0/tri_0"] = reads
            ba = f"{bank}/ba" if mode == "sm" else f"{bank}/sram/bank_0_0/ba_0"
            act[f"{ba}:read"] = reads
            if bank_writes[bi]:
                act[f"{ba}:write"] = bank_writes[bi]
    if mode == "sm":
        act["xdec"] = act["ydec"] = ops

    if mode == "sm":
        e_dec_total = ops * e_dec_evt
    else:
        # every private tree decodes on reads; writes decode in one bank
        e_dec_total = (reads * e_dec_evt
                       + writes * e_dec_evt / lanes)
    e = (e_dec_total + reads * e_inc_evt
         + (writes * e_inc_evt if mode == "tm" else 0.0)
         + reads * lanes * e_read + writes * e_write
         + ops * e_wire + leak_fj(ir.meta, trace.n_cycles))
    return SimResult(outputs, act, e, trace.n_cycles, warnings, ir)


def simulate(ir: netlist.NetlistIR, trace: SimTrace) -> SimResult:
    design = ir.meta.get("design")
    if design == "sram_1r1w":
        return _sim_sram(ir, trace)
    if design == "pa_sm":
        return _sim_pa(ir, trace, "sm")
    if design == "pa_tm":
        return _sim_pa(ir, trace, "tm")
    raise SimError(f"no engine for design {design!r}")


# -- energy recomputation ----------------------------------------------------

def energy_report(result: SimResult, lib: Library | None = None,
                  tech: TechParams | None = None) -> float:
    """Recompute total energy (fJ) from activity and library/tech models."""
    ir = result.ir
    if ir is None:
        raise SimError("result carries no netlist")
    tech = tech or (lib.tech if lib is not None else TechParams())
    total = leak_fj(ir.meta, result.cycles)
    for key, count in result.activity.items():
        if key == "__wire__":
            total += count * ir.meta["e_wire_op_fj"]
            continue
        name, _, event = key.partition(":")
        cell = ir.cells[name]
        if cell.kind == "baplus_instance":
            if lib is not None and cell.params["variant"] in {m.name for m in lib.macros}:
                macro = lib[cell.params["variant"]]
            else:
                macro = None
            if event == "read":
                e = macro.e_read_fj if macro else cell.params["e_read_fj"]
            elif event == "write":
                e = macro.e_write_fj if macro else cell.params["e_write_fj"]
            else:
                e = 0.0
        elif cell.kind == "decoder":
            # charge the tree that actually toggles: coordinate decoders
            # take more input bits than they decode (the rest rotate lanes)
            bits = cell.params["stages"] + cell.params.get("mux_bits", 0)
            e = tech.e_dec0_fj + tech.e_dec1_fj * bits
        elif cell.kind == "pa_increment":
            e = tech.e_inc_fj if cell.params.get("mode") == "translate" \
                else tech.e_inc_fj / 2
        else:
            e = float(cell.params.get("e_event_fj", 0.0))
        total += count * e
    return total


# -- exhaustive window verification -------------------------------------------

def verify_pa(spec: pa.PAWindowSpec, ir: netlist.NetlistIR, seed: int = 0) -> dict:
    """Load a pseudorandom image, sweep every window origin, compare against
    a direct toroidal (or clamped) reference; also count bank conflicts in
    the access plans.  A clean design reports 0 mismatches, 0 conflicts."""
    spec.validate()
    if ir.meta.get("design") not in ("pa_sm", "pa_tm"):
        raise SimError("verify_pa needs a parallel-access netlist")
    for k in ("m", "n", "a", "b", "pixel_bits", "boundary"):
        if ir.meta.get(k) != getattr(spec, k):
            raise SimError(f"netlist {k}={ir.meta.get(k)!r} does not match spec")
    rng = random.Random(seed * 1000003 + spec.m * 17 + spec.n * 13
                        + spec.a * 5 + spec.b)
    P = spec.pixel_bits
    img = [[rng.randrange(1 << P) for _y in range(spec.image_h)]
           for _x in range(spec.image_w)]
    trace = SimTrace()
    for x in range(spec.image_w):
        for y in range(spec.image_h):
            trace.write((x << spec.n) | y, img[x][y])
    origins = [(x, y) for x in range(spec.image_w) for y in range(spec.image_h)]
    for x, y in origins:
        trace.window(x, y)
    result = simulate(ir, trace)
    xm, ym = spec.image_w - 1, spec.image_h - 1
    clamp = spec.boundary == "clamp"
    xmax, ymax = spec.image_w - spec.banks_x, spec.image_h - spec.banks_y
    mismatches = 0
    base_cycle = spec.image_w * spec.image_h
    for i, (x, y) in enumerate(origins):
        if clamp:
            x, y = min(x, xmax), min(y, ymax)
        expect = 0
        slot = 0
        for dx in range(spec.banks_x):
            for dy in range(spec.banks_y):
                px = (x + dx) & xm if not clamp else x + dx
                py = (y + dy) & ym if not clamp else y + dy
                expect |= img[px][py] << (slot * P)
                slot += 1
        cyc, got = result.outputs[i]
        if got != expect or cyc != base_cycle + i + 1:
            mismatches += 1
    plan_report = pa.check_plans(spec)
    return {"m": spec.m, "n": spec.n, "a": spec.a, "b": spec.b,
            "boundary": spec.boundary, "origins": len(origins),
            "mismatches": mismatches + plan_report["mismatches"],
            "conflicts": plan_report["conflicts"],
            "warnings": len(result.warnings)}
