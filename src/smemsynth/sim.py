"""Cycle-accurate functional simulation of generated netlists.

Semantics (identical for every design):
  * synchronous, one-cycle read latency: a read issued at cycle t produces
    its output at cycle t + 1;
  * a read and a write may share a cycle (1R-1W); a read that collides with
    a same-address write returns the OLD data;
  * reading a never-written location yields an all-ones poison value plus a
    warning.

Each design kind gets its own engine that first validates the netlist's
structure (cell inventory and parameters), then runs the trace one step
call per op (read, write or window) while counting per-cell activations.
_price alone turns them into energy: leakage over the trace duration plus
each count times its cell's price.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress, count, islice, repeat
from operator import lshift, or_

from . import explorer, netlist, pa
from .baplus import Library, is_pow2, undecodable_line


class SimError(ValueError):
    pass


class TraceError(ValueError):
    pass


# op kind -> the port it takes ("" for none)
_PORT = {"R": "r", "WIN": "r", "W": "w", "IDLE": ""}


class SimTrace:
    """Cycle-stamped operations; at most 1R and 1W per cycle.

    `ops` is kept in evaluation order: by cycle, and within a cycle a write
    comes after the co-issued read, whatever the insertion order, because
    the read sees the old data.
    """

    def __init__(self):
        self.ops: list[tuple] = []  # (cycle, kind, a, b)
        # stamps never decrease, so only the last cycle's ports can clash
        self._cycle = -1
        self._used = ""  # ports ("r", "w") taken in self._cycle

    def _add(self, cycle, kind, a=0, b=0):
        ops = self.ops
        if cycle is None:
            cycle = self.n_cycles
        if cycle < 0:
            raise TraceError("negative cycle")
        if ops and cycle < ops[-1][0]:
            raise TraceError("cycle stamps must not decrease")
        port = _PORT[kind]
        if cycle != self._cycle:
            self._cycle, self._used = cycle, ""
        if port:
            if port in self._used:
                raise TraceError(f"cycle {cycle}: second {port}-port op")
            self._used += port
        if kind != "W" and ops and ops[-1][0] == cycle and ops[-1][1] == "W":
            ops.insert(-1, (cycle, kind, a, b))
        else:
            ops.append((cycle, kind, a, b))
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
        """Read a trace file into a trace that more ops can be added to.

        One op per line means stamps never decrease and ports never clash,
        so the file's ops are taken without _add's checks.
        """
        tr = cls()
        tr.ops = ops = list(TraceFile(path))
        if ops:
            tr._cycle, tr._used = ops[-1][0], _PORT[ops[-1][1]]
        return tr

    def feed(self, read, write, window) -> int:
        """Call read(cycle, a), write(cycle, a, b) or window(cycle, x, y)
        for each op, in evaluation order; IDLE makes no call.  Returns the
        number of cycles."""
        for cycle, kind, a, b in self.ops:
            if kind == "R":
                read(cycle, a)
            elif kind == "W":
                write(cycle, a, b)
            elif kind == "WIN":
                window(cycle, a, b)
        return self.n_cycles


# A pass of a trace file converts each of its first 4,096 distinct number
# tokens of at most 40 characters once, then looks them up: a trace
# touching 4,096 addresses fits, and the memo holds under 1 MiB whatever
# the trace
_MEMO_TOKENS = 1 << 12
_MEMO_CHARS = 40


class TraceFile:
    """The ops of a trace file, parsed as they are run.

    Each op line is the next cycle: W <addr> <hexdata> | R <addr> |
    WIN <x> <y> | IDLE.  Blank lines and `#` comments take no cycle.
    feed() hands each op line, as it is read, to the engine's step for
    its first token, so no op is built; iterating yields the same ops as
    (cycle, kind, a, b), a chunk of the file at a time.  A malformed line
    raises TraceError naming `path:lineno` when the pass reaches it.
    len() is the number of ops the last pass read.
    """

    def __init__(self, path):
        self.path = path
        self._read = 0

    def __len__(self):
        return self._read

    def feed(self, read, write, window) -> int:
        """Call read(cycle, a), write(cycle, a, b) or window(cycle, x, y)
        for each op line, in file order; IDLE makes no call.  Returns the
        number of cycles."""
        for _ in self._chunks(read, write, window):
            pass
        return self._read

    def __iter__(self):
        ops = []
        add = ops.append
        for _ in self._chunks(lambda c, a: add((c, "R", a, 0)),
                              lambda c, a, b: add((c, "W", a, b)),
                              lambda c, x, y: add((c, "WIN", x, y)),
                              lambda c: add((c, "IDLE", 0, 0))):
            yield from ops
            ops.clear()

    def _chunks(self, read, write, window, idle=None):
        """The one parser: runs each op line's step, and `idle(cycle)` for
        IDLE when given, and yields after each chunk of lines.

        An address or window corner is converted by int(tok, 0) once per
        distinct token, within _MEMO_TOKENS and _MEMO_CHARS, so memory does
        not grow with the trace.  A line's fault is a function of its text
        alone, so the first line of its chunk with that text is the one
        named.
        """
        path = self.path
        memo = {}
        get = memo.get

        def address(tok):
            a = int(tok, 0)
            if len(memo) < _MEMO_TOKENS and len(tok) <= _MEMO_CHARS:
                memo[tok] = a
            return a
        cycle = lineno = 0
        try:
            with open(path) as fh:
                while lines := fh.readlines(1 << 16):
                    for line in lines:
                        toks = line.split()
                        if not toks:
                            continue
                        op = toks[0]
                        try:
                            if op == "W":
                                a = get(toks[1])
                                if a is None:
                                    a = address(toks[1])
                                b = int(toks[2], 16)
                                if b < 0:
                                    raise TraceError("write data must be non-negative")
                                if len(toks) > 3:
                                    raise TraceError(f"extra token {toks[3]!r}")
                                write(cycle, a, b)
                            elif op == "R":
                                if len(toks) > 2:
                                    raise TraceError(f"extra token {toks[2]!r}")
                                a = get(toks[1])
                                if a is None:
                                    a = address(toks[1])
                                read(cycle, a)
                            elif op == "WIN":
                                if len(toks) > 3:
                                    raise TraceError(f"extra token {toks[3]!r}")
                                x = get(toks[1])
                                if x is None:
                                    x = address(toks[1])
                                y = get(toks[2])
                                if y is None:
                                    y = address(toks[2])
                                window(cycle, x, y)
                            elif op == "IDLE":
                                if len(toks) > 1:
                                    raise TraceError(f"extra token {toks[1]!r}")
                                if idle:
                                    idle(cycle)
                            elif op[0] == "#":
                                continue
                            else:
                                raise TraceError(f"unknown op {op!r}")
                        except SimError:
                            raise   # the engine's, not the line's
                        except (IndexError, ValueError) as e:
                            raise TraceError(f"{path}:{lineno + lines.index(line) + 1}: "
                                             f"{e}") from None
                        cycle += 1
                    lineno += len(lines)
                    yield
        except UnicodeDecodeError as e:
            raise TraceError(undecodable_line(path, e)) from None
        finally:
            self._read = cycle


class Warnings(Sequence):
    """A run's warnings, kept as the engine's records and formatted only
    when read.

    `render(record, prefix)` gives one record's warnings as text, one
    line `prefix + warning` each; `count` is how many all records give.
    len(), iteration, indexing and == against a list see the warnings,
    in order; blocks() gives the text record by record.
    """

    def __init__(self, records=(), render=None, count=0):
        self._records = records
        self._render = render
        self._count = count
        self._ends = None    # each record's end index, made on first indexing

    def __len__(self):
        return self._count

    def blocks(self, prefix=""):
        """Each record's text, `prefix` leading each of its lines."""
        render = self._render
        return (render(r, prefix) for r in self._records)

    def __iter__(self):
        for text in self.blocks():
            yield from text.splitlines()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("warning index out of range")
        if self._ends is None:
            self._ends = list(accumulate(t.count("\n") for t in self.blocks()))
        k = bisect_right(self._ends, i)
        lines = self._render(self._records[k], "").splitlines()
        return lines[i - (self._ends[k - 1] if k else 0)]

    def __eq__(self, other):
        if not isinstance(other, (list, Warnings)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"Warnings({list(self)!r})"


@dataclass
class SimResult:
    outputs: list          # (cycle, value), one per read, at issue cycle + 1
    activity: dict         # cell name (":read"/":write" suffix for macros),
                           # or "__wire__" for the ops on the wires -> count
    e_total_fj: float
    cycles: int
    warnings: Warnings = field(default_factory=Warnings)
    ir: netlist.NetlistIR | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SimError(f"netlist structure: {msg}")


def _params(ir: netlist.NetlistIR, cell, binding) -> dict:
    """The params of a cell as NetlistIR.find_cell gives it."""
    return cell.params if binding is None else ir.slots.params(cell, binding)


def _check_decoder(ir: netlist.NetlistIR, name: str, in_bits: int, stages: int,
                   mux_bits: int = 0) -> None:
    """The decoder `name` must decode the width and depth it is priced by."""
    found = ir.find_cell(name)
    _require(found is not None and found[0].kind == "decoder", f"missing decoder {name}")
    params = _params(ir, *found)
    got = tuple(params.get(k) for k in ("in_bits", "stages", "mux_bits"))
    _require(got == (in_bits, stages, mux_bits), f"{name}: decoder width or depth mismatch")


def _is_figure(v) -> bool:
    """v is a finite int or float >= 0: not a bool, and not NaN, which
    no comparison binds."""
    return type(v) in (int, float) and 0 <= v < math.inf


def _check_figures(d: dict, what: str, *keys) -> None:
    """SimError naming `what` and the first key that `d` lacks or that is
    not a finite number >= 0."""
    for k in keys:
        if k not in d:
            raise SimError(f"{what} lacks {k}")
        if not _is_figure(d[k]):
            raise SimError(f"{what} {k}={d[k]!r} is not a finite number >= 0")


class _Cells:
    """One kind's cells, in the flat IR's order: `head`, a flat IR's cells
    or a held IR's head cells, then the recorded slot's `rec` once per
    binding of `slots`.  len() counts them; iteration yields each one's
    (name, params), a held slot's made from its recorded cell as it is
    reached."""

    def __init__(self, slots):
        self.slots, self.head, self.rec = slots, [], []

    def __len__(self):
        return len(self.head) + (len(self.rec) * len(self.slots.bindings) if self.rec else 0)

    def __iter__(self):
        for cell in self.head:
            yield cell.name, cell.params
        slots = self.slots
        for b in slots.bindings if self.rec else ():
            for cell in self.rec:
                yield slots.name(cell, b), slots.params(cell, b)

    def values(self, key: str) -> set:
        """The distinct values of param `key` (None where a cell has none):
        a recorded cell's literal once, or each binding's value of it."""
        values = {cell.params.get(key) for cell in self.head}
        for cell in self.rec:
            values |= self.slots.values(cell, key)
        return values


def _check_cells(ir: netlist.NetlistIR) -> dict:
    """The cells of `ir` by kind, as _Cells, once _check_figures passes,
    naming the cell, every param its kind is priced by and a priced kind's
    e_event_fj.  Like cells share figures, so a kind's cells are walked
    only when one of a key's distinct values is not a figure; held slots
    are read from their recorded slot, without expanding."""
    slots = ir.slots
    by_kind = {kind: _Cells(slots) for kind in netlist.CELL_KINDS}
    for cell in ir.head()[0].values():
        by_kind[cell.kind].head.append(cell)
    for cell in slots.rec.cells.values() if slots else ():
        by_kind[cell.kind].rec.append(cell)
    for kind, cells in by_kind.items():
        entry = netlist.CELL_KINDS[kind]
        for k in entry.reads + (("e_event_fj",) if entry.price else ()):
            if not all(map(_is_figure, cells.values(k))):
                for name, params in cells:
                    _check_figures(params, f"netlist cell {name}", k)
    return by_kind


def _census(by_kind: dict, B: int, W: int, **counts) -> None:
    """The design's cell inventory: `counts[kind]` cells of each kind in
    `by_kind` (none of a kind `counts` omits), and every macro B x W."""
    for kind, cells in by_kind.items():
        n = counts.get(kind, 0)
        _require(len(cells) == n, f"expected {n} {kind} cells, found {len(cells)}")
    macros = by_kind["baplus_instance"]
    if not (macros.values("B") <= {B} and macros.values("W") <= {W}):
        for name, params in macros:
            _require(params.get("B") == B and params.get("W") == W,
                     f"{name}: macro geometry mismatch")


def _cell_names(ir: netlist.NetlistIR, names) -> list:
    """`names`, the cells an engine's activity will count, as `ir` holds
    them, so the activity keys share a flat netlist's strings; SimError
    names the first that is no cell of `ir`, so a cell renamed within the
    census fails before the first op."""
    held = []
    for name in names:
        found = ir.find_cell(name)
        if found is None:
            raise SimError("netlist structure: the activity counts cell "
                           f"{name!r}, which the netlist lacks")
        held.append(name if found[1] else found[0].name)
    return held


def _check_rdata(ir: netlist.NetlistIR, bits: int) -> None:
    _require(ir.ports.get("rdata") == "out" and ir.head()[1]["rdata"].width == bits,
             f"rdata must be an out port of {bits} bits")


def leak_fj(meta: dict, cycles: int) -> float:
    """Leakage energy (fJ) of a design's `meta` over `cycles` cycles."""
    # nW * ps = 1e-21 J = 1e-6 fJ
    return meta["p_leak_nw"] * meta["t_cycle_ps"] * cycles * 1e-6


# -- 1R-1W engine -----------------------------------------------------------

def sram_geometry(meta: dict) -> tuple:
    """((R, C, K, M, B, W), AddressMap, bits) of a 1R-1W netlist's meta,
    each factor a power of two and M leaving a word a bit.  The word width
    is derived, not read: the cells are checked against these factors, and
    the meta's own `words` and `bits` could claim any size."""
    _check_figures(meta, "netlist meta", *"RCKMBW")
    for k in "RCKMBW":
        _require(is_pow2(meta[k]), f"meta {k}={meta[k]} is not a power of two")
    R, C, K, M, B, W = factors = tuple(meta[k] for k in "RCKMBW")
    _require(M <= C * W, f"meta M={M} leaves a word no bits (C*W={C * W})")
    return factors, explorer.AddressMap.of(R, K, B, M), C * W // M


def _sim_sram(ir: netlist.NetlistIR, by_kind: dict, emit):
    (R, C, K, M, B, W), amap, bits = sram_geometry(ir.meta)
    words = R * K * B * M
    _check_rdata(ir, bits)
    slots, mux = R * C * K, int(M > 1)
    _census(by_kind, B, W, baplus_instance=slots, wordline_gate=slots,
            tristate_driver=slots, decoder=1, column_mux=mux, output_reg=mux)
    _check_decoder(ir, "dec", **amap.decoder)
    # each slot's wordline gate, macro and tristate, by (bank row, macro),
    # named once and checked before the first op
    _cell_names(ir, ("dec", "mux", "sel_reg") if M > 1 else ("dec",))
    slot_cells = {(r, k): [_cell_names(ir, (f"bank_{r}_{c}/wlg_{k}", f"bank_{r}_{c}/ba_{k}",
                                            f"bank_{r}_{c}/tri_{k}")) for c in range(C)]
                  for r in range(R) for k in range(K)}

    mem: dict[int, int] = {}   # written words only: memory follows the trace
    poison = (1 << bits) - 1
    warnings = []
    addr_reads: dict[int, int] = {}
    addr_writes: dict[int, int] = {}

    def read(cycle, a):
        if not 0 <= a < words:
            raise SimError(f"cycle {cycle}: read address {a} out of range")
        v = mem.get(a)
        if v is None:
            v = poison
            warnings.append((cycle, a))
        emit((cycle + 1, v))
        addr_reads[a] = addr_reads.get(a, 0) + 1

    def write(cycle, a, b):
        if not 0 <= a < words:
            raise SimError(f"cycle {cycle}: write address {a} out of range")
        if b > poison:
            raise SimError(f"cycle {cycle}: write data wider than {bits} bits")
        mem[a] = b
        addr_writes[a] = addr_writes.get(a, 0) + 1

    def window(cycle, x, y):
        raise SimError("window reads apply to parallel-access designs only")

    def finish(cycles):
        reads = sum(addr_reads.values())
        ops = reads + sum(addr_writes.values())
        act = {"__wire__": ops, "dec": ops}
        if M > 1:
            act["mux"] = reads
            act["sel_reg"] = reads
        for addr_map, suffix in ((addr_reads, ":read"), (addr_writes, ":write")):
            # (bank row, macro) -> accesses, in order of first access
            rk_map: dict[tuple, int] = {}
            for a, n in addr_map.items():
                r, k, _row, _s = amap.split(a)
                rk_map[r, k] = rk_map.get((r, k), 0) + n
            for rk, n in rk_map.items():
                for wlg, ba, tri in slot_cells[rk]:
                    act[wlg] = act.get(wlg, 0) + n
                    ba += suffix
                    act[ba] = act.get(ba, 0) + n
                    if suffix == ":read":
                        act[tri] = act.get(tri, 0) + n
        return act, Warnings(warnings, _read_warning, len(warnings)), cycles
    return read, write, window, finish


def _read_warning(record, prefix) -> str:
    cycle, a = record
    return f"{prefix}cycle {cycle}: uninitialized read at address {a}\n"


# -- parallel-access engines -------------------------------------------------

def _sim_pa(ir: netlist.NetlistIR, by_kind: dict, emit, mode: str):
    _check_figures(ir.meta, "netlist meta", "m", "n", "a", "b", "pixel_bits")
    spec = pa._spec_from_meta(ir.meta)
    lanes, sm = spec.lanes, mode == "sm"
    _check_rdata(ir, lanes * spec.pixel_bits)
    _census(by_kind, spec.bank_words, spec.pixel_bits, baplus_instance=lanes,
            wordline_gate=lanes, tristate_driver=lanes, decoder=2 if sm else lanes,
            pa_increment=2 * lanes if sm else lanes, output_reg=int(lanes > 1),
            pa_align=1)
    (_, align), = by_kind["pa_align"]
    _require(align.get("lanes") == lanes, "aligner lane count mismatch")
    if sm:
        _check_decoder(ir, "xdec", spec.m, spec.m - spec.a)
        _check_decoder(ir, "ydec", spec.n, spec.n - spec.b)
    else:
        for p in range(spec.banks_x):
            for q in range(spec.banks_y):
                _check_decoder(ir, f"bank_{p}_{q}/sram/dec", **spec.bank_map.decoder)
    for name, params in by_kind["pa_increment"]:
        # the mode an increment is priced by must be the design's
        _require((params.get("mode") == "translate") != sm,
                 f"{name}: {'unexpected' if sm else 'expected a'} "
                 "translate-mode cell")

    parts = (("incx", "incy", "wlg", "tri", "ba") if sm else
             ("translate", "sram/dec", "sram/bank_0_0/wlg_0", "sram/bank_0_0/tri_0",
              "sram/bank_0_0/ba_0"))
    # each bank's number, the cells of it the activity counts, and its
    # "p,q" for the warnings; every cell the activity counts is named once
    # and checked before the first op
    banks = [(bi, _cell_names(ir, [f"bank_{p}_{q}/{part}" for part in parts]), f"{p},{q}")
             for p, row in enumerate(pa.storage_map(spec)[2])
             for q, bi in enumerate(row)]
    _cell_names(ir, ["align", *(["rot_reg"] if lanes > 1 else []),
                     *(["xdec", "ydec"] if sm else [])])

    P = spec.pixel_bits
    n, xm, ym = spec.n, spec.image_w - 1, spec.image_h - 1
    pmask = (1 << P) - 1
    xs, ys, aligners, wxs, wys, fields, blank = pa.window_tables(spec)
    plan = pa.window_planner(spec, xs, ys)
    mem = [blank] * spec.bank_words
    unwritten = lanes * spec.bank_words   # pixels whose flag is still set
    reads = 0
    # (cycle, x, y, the labels of the banks whose lane is uninitialized)
    warnings = []
    unset_lanes = 0
    # the flags of a window's uninitialized lanes -> their labels, in bank
    # order, made once per set of flags
    named = {}
    labels = [label for _, _, label in banks]
    bank_flags = [fields[bi][2] for bi, _, _ in banks]
    bank_writes = [0] * lanes

    def window(cycle, xa, yb):
        nonlocal reads, unset_lanes
        (x, gx, rws), (y, gy, cws) = plan(xa, yb)
        bias, groups = aligners[gx + gy]
        out = 0
        if unwritten:
            poisoned = 0
            for i, j, mask, flags, up in groups:
                word = mem[rws[i] + cws[j]]
                out |= (word & mask) << up
                poisoned |= word & flags
            if poisoned:
                unset = named.get(poisoned)
                if unset is None:
                    unset = named[poisoned] = tuple(
                        compress(labels, map(poisoned.__and__, bank_flags)))
                warnings.append((cycle, x, y, unset))
                unset_lanes += len(unset)
        else:
            for i, j, mask, _flags, up in groups:
                out |= (mem[rws[i] + cws[j]] & mask) << up
        emit((cycle + 1, out >> bias))
        reads += 1

    def write(cycle, xa, yb):
        nonlocal unwritten
        x, y = xa >> n, xa & ym
        if not (0 <= x <= xm and 0 <= y <= ym):
            raise SimError(f"cycle {cycle}: pixel write ({x},{y}) off-surface")
        if yb > pmask:
            raise SimError(f"cycle {cycle}: write data wider than {P} bits")
        (kx, i), (ky, j) = wxs[x], wys[y]
        k, w = kx + ky, i + j
        up, keep, flag = fields[k]
        word = mem[w]
        if unwritten and word & flag:
            unwritten -= 1
        mem[w] = word & keep | yb << up
        bank_writes[k] += 1

    def read(cycle, a):
        raise SimError("single-address reads apply to 1R-1W designs only")

    def finish(cycles):
        ops = reads + sum(bank_writes)
        act = {"__wire__": ops, "align": reads}
        if lanes > 1:
            act["rot_reg"] = reads
        for bi, (first, second, wlg, tri, ba), _ in banks:
            accessed = reads + bank_writes[bi]
            if sm:
                act[first] = act[second] = reads
            else:
                # every private tree decodes on reads; writes decode in one bank
                act[first] = ops
                act[second] = accessed
            act[wlg] = accessed
            act[tri] = reads
            act[f"{ba}:read"] = reads
            if bank_writes[bi]:
                act[f"{ba}:write"] = bank_writes[bi]
        if sm:
            act["xdec"] = act["ydec"] = ops
        return act, Warnings(warnings, render, unset_lanes), cycles

    def render(record, prefix) -> str:
        # the window's part of the text is formatted once
        cycle, x, y, unset = record
        head = f"{prefix}cycle {cycle}: uninitialized lane ("
        tail = f") in window at ({x},{y})\n"
        return head + (tail + head).join(unset) + tail

    return read, write, window, finish


def _steps(ir: netlist.NetlistIR, emit):
    """Check `ir`'s structure, then return its engine as steps (read,
    write, window, finish).  read(cycle, a), write(cycle, a, b) and
    window(cycle, x, y) each run one op, given in evaluation order, and
    hand each read's (cycle, value) to `emit` as it is made; an op for
    the other kind of design raises SimError.  finish(cycles) returns
    (activity, warnings, cycles).
    """
    design = ir.meta.get("design")
    if design not in ("sram_1r1w", "pa_sm", "pa_tm"):
        raise SimError(f"no engine for design {design!r}")
    by_kind = _check_cells(ir)
    _check_figures(ir.meta, "netlist meta", "e_wire_op_fj", "p_leak_nw", "t_cycle_ps")
    if design == "sram_1r1w":
        return _sim_sram(ir, by_kind, emit)
    return _sim_pa(ir, by_kind, emit, design[3:])


def _run(ir: netlist.NetlistIR, trace, emit):
    """Check `ir`'s structure, then feed the ops of `trace` to its steps in
    one pass, handing each read's (cycle, value) to `emit` as it is made.

    Returns (activity, warnings, cycles).  A TraceFile streams from its
    file.
    """
    read, write, window, finish = _steps(ir, emit)
    return finish(trace.feed(read, write, window))


def simulate(ir: netlist.NetlistIR, trace: SimTrace | TraceFile) -> SimResult:
    """Check `ir`'s structure, then run the ops of `trace` on it in one pass.

    Memory follows the outputs and the warnings' records, not the trace:
    a TraceFile streams from its file.
    """
    outputs = []
    act, warnings, cycles = _run(ir, trace, outputs.append)
    return SimResult(outputs, act, _price(ir, act, cycles), cycles, warnings, ir)


# -- energy -------------------------------------------------------------------

def _price(ir: netlist.NetlistIR, activity: dict, cycles: int,
           lib: Library | None = None) -> float:
    """Energy (fJ): leakage over `cycles` plus each `activity` count times
    its price.  A macro's read or write is priced by `lib`'s variant when
    `lib` holds it, else by the macro's own figure; another priced kind by
    its table price under `lib`'s technology, or without `lib` by the
    e_event_fj the cell carries.  Held slots are priced without expanding."""
    total = leak_fj(ir.meta, cycles)
    find = ir.find_cell
    for key, count in activity.items():
        if key == "__wire__":
            total += count * ir.meta["e_wire_op_fj"]
            continue
        name, _, event = key.partition(":")
        cell, binding = find(name)   # the engine checked it holds every name
        price = netlist.CELL_KINDS[cell.kind].price
        if event:   # a macro's read or write
            params = _params(ir, cell, binding)
            figure = f"e_{event}_fj"
            variant = params.get("variant")
            if lib is not None and variant in lib:
                e = getattr(lib[variant], figure)
            else:
                e = params[figure]
        elif price is None:
            e = 0.0
        elif lib is None:
            e = _params(ir, cell, binding)["e_event_fj"]
        else:
            e = price(_params(ir, cell, binding), lib.tech)
        total += count * e
    return total


def energy_report(result: SimResult, lib: Library | None = None) -> float:
    """Reprice `result`'s activity (fJ) by the library's macro and tech
    models; without a library this is exactly `result.e_total_fj`."""
    if result.ir is None:
        raise SimError("result carries no netlist")
    return _price(result.ir, result.activity, result.cycles, lib)


# -- exhaustive window verification -------------------------------------------

def _or_runs(runs: list, width: int):
    """The element-wise OR of the int sequences `runs`, the d-th shifted
    d * width bits up."""
    out = runs[0]
    for d in range(1, len(runs)):
        out = map(or_, out, map(lshift, runs[d], repeat(d * width)))
    return out


def _expected_windows(img: list, cover, pixel_bits: int) -> list:
    """The rdata of a window read at every corner, x-major: the window
    at corner (x, y) holds pixel (xs[x][dx], ys[y][dy]) of `img`, a list
    of columns, in slot dx * len(ys[y]) + dy, for the (xs, ys) of
    pa.window_cover.

    Each column's pixels are packed once under every y cover, into runs
    of len(ys[y]) slots; each corner then ORs the runs of its columns.  A
    column's runs are dropped after the last corner that reads them.
    """
    xs, ys = cover
    slots = list(zip(*ys))          # slots[dy][y] = ys[y][dy]
    run = len(slots) * pixel_bits
    last = {px: x for x, xcov in enumerate(xs) for px in xcov}
    packed = {}
    table = []
    for x, xcov in enumerate(xs):
        runs = []
        for px in xcov:
            if px not in packed:
                get = img[px].__getitem__
                packed[px] = list(_or_runs([map(get, s) for s in slots], pixel_bits))
            runs.append(packed[px] if last[px] != x else packed.pop(px))
        table.extend(_or_runs(runs, run))
    return table


def _load_and_sweep(img: list, n: int, steps) -> tuple:
    """Run verify_pa's ops on an engine's `steps`, one op per cycle: every
    pixel of `img`, a list of columns, written at address x << n | y, then
    a window read at every corner.  Returns finish's (activity, warnings,
    cycles); the engine's state is dropped with this call."""
    _read, write, window, finish = steps
    W, H = len(img), len(img[0])
    cycle = 0
    for x in range(W):
        column, row = img[x], x << n
        for y in range(H):
            write(cycle, row | y, column[y])
            cycle += 1
    for x in range(W):
        for y in range(H):
            window(cycle, x, y)
            cycle += 1
    return finish(cycle)


def verify_pa(spec: pa.PAWindowSpec, irs: dict, seed: int = 0) -> dict:
    """Load one pseudorandom image into each netlist of `irs` (name ->
    netlist of `spec`), read a window at every corner on the surface, and
    compare each read, as the engine makes it, with pa.window_cover.

    A read that differs from the covered pixels, or arrives on the wrong
    cycle, is a mismatch, and so is a read past the last expected one and
    an expected read never made.  The report holds the spec, `origins` (the
    corners each netlist reads) and, under `designs`, each name's
    `mismatches` and `warnings`; a clean netlist reports 0 and 0.  The
    access plans are pa.check_plans' to check, once per spec.
    """
    spec.validate()
    for ir in irs.values():
        if ir.meta.get("design") not in ("pa_sm", "pa_tm"):
            raise SimError("verify_pa needs a parallel-access netlist")
        for k in pa.SPEC_KEYS:
            if ir.meta.get(k) != getattr(spec, k):
                raise SimError(f"netlist {k}={ir.meta.get(k)!r} does not match spec")
    rng = random.Random(seed * 1000003 + spec.m * 17 + spec.n * 13
                        + spec.a * 5 + spec.b)
    P = spec.pixel_bits
    W, H = spec.image_w, spec.image_h
    # rng.randrange(1 << P) per pixel, drawn as randrange draws it: P + 1
    # random bits, drawn again while they reach 2^P
    pixels = filter((1 << P).__gt__, iter(partial(rng.getrandbits, P + 1), -1))
    img = [list(islice(pixels, H)) for _x in range(W)]
    expected = _expected_windows(img, pa.window_cover(spec), P)
    designs = {}
    for name, ir in irs.items():
        misses = count()
        table = zip(count(W * H + 1), expected)

        def check(out, want=table, miss=misses.__next__):
            # a read past the end of the table is a mismatch too
            if out != next(want, None):
                miss()
        _act, warnings, _cycles = _load_and_sweep(img, spec.n, _steps(ir, check))
        # and so is each expected read the engine never made
        designs[name] = {"mismatches": next(misses) + sum(1 for _ in table),
                         "warnings": len(warnings)}
    return {"m": spec.m, "n": spec.n, "a": spec.a, "b": spec.b,
            "boundary": spec.boundary, "origins": W * H, "designs": designs}
