"""Structural netlist IR, the 1R-1W SRAM generator, and emitters.

Cells carry a kind plus integer/string params; nets record driver and sink
endpoints as (cell, pin) pairs.  Hierarchy is the '/' in cell and net names:
a cell's scope is its name up to the last '/'.  A port is the net of the same
name plus a direction.  Select buses are one-hot (width = line count);
address ports are binary, split as explorer.AddressMap says.

An SRAM's R*C*K BA+ slots are held once, as a SlotArray: one slot recorded
from the generator's own slot body, and one binding per slot.  emit_netlist,
check_wellformed and NetlistIR.cell_count read it as it is; the first read
of `cells` or `nets` expands it into the flat IR.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from typing import Callable, NamedTuple

from . import explorer, floorplan
from .baplus import BAPlusMacro, Library, undecodable_line

class Kind(NamedTuple):
    """What a cell kind means: the pins it drives (every other pin is an
    input); `price(params, tech)`, the fJ of one event, which generators
    stamp last as `e_event_fj` (None: no event price; a macro is priced per
    access); and `reads`, the other numeric params a cell is priced by."""
    outputs: frozenset
    price: Callable | None = None
    reads: tuple = ()


def _free(_params, _tech) -> float:
    return 0.0


# the kinds generate_sram and generate_pa emit, and no others
CELL_KINDS = {
    "baplus_instance": Kind(frozenset({"qout"}), reads=("e_read_fj", "e_write_fj")),
    "decoder": Kind(
        frozenset({"r_bank", "r_ba", "r_row", "r_msel", "w_bank", "w_ba", "w_row",
                   "w_msel", "base_oh", "wbase_oh"}),
        # the tree that toggles: an axis decoder takes more input bits than
        # it decodes (the rest rotate lanes)
        lambda p, tech: tech.e_dec_fj(p["stages"] + p["mux_bits"]),
        ("stages", "mux_bits")),
    "wordline_gate": Kind(frozenset({"rwl", "wwl"})),
    "tristate_driver": Kind(frozenset({"out"})),
    "column_mux": Kind(frozenset({"out"}), _free),
    "output_reg": Kind(frozenset({"q"})),
    # a binary translator, or one of a bank's two one-hot increments
    "pa_increment": Kind(
        frozenset({"sel_oh", "taddr", "twaddr", "twe"}),
        lambda p, tech: (tech.e_inc_fj if p.get("mode") == "translate"
                         else tech.e_inc_fj / 2)),
    "pa_align": Kind(frozenset({"out"}), _free),
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(/[A-Za-z_][A-Za-z0-9_]*)*")


class NetlistError(ValueError):
    pass


@dataclass
class Cell:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Net:
    name: str
    width: int
    drivers: list = field(default_factory=list)  # (cell_name, pin)
    sinks: list = field(default_factory=list)


class NetlistIR:
    def __init__(self, name: str, meta: dict | None = None):
        self.name = name
        self.meta = dict(meta or {})
        self.ports: dict[str, str] = {}  # name -> "in" | "out"; width on the net
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self.slots: SlotArray | None = None

    def hold_slots(self, body, bindings: list) -> None:
        """Add one slot per binding `(scope, suffix, *values, out)`, where
        `body(ir, *binding)` adds one slot flat.  The slots are held as a
        SlotArray after the cells and nets added so far, or added flat now
        when their text cannot be stamped from one recorded slot."""
        slots = SlotArray(self.cells, self.nets, body, bindings)
        if slots.text is None:
            for b in bindings:
                body(self, *b)
            return
        del self.cells, self.nets
        self.slots = slots
        self.__class__ = _HeldIR

    def expand(self) -> None:
        """Make a held SlotArray flat: each slot is added by its body, after
        the cells and nets added before it, as if it had never been held."""
        slots, self.slots = self.slots, None
        if slots is None:
            return
        self.__class__ = NetlistIR
        self.cells, self.nets = slots.cells, slots.nets
        for b in slots.bindings:
            slots.body(self, *b)

    def cell_count(self) -> int:
        """len(self.cells), without expanding held slots."""
        slots = self.slots
        if slots is None:
            return len(self.cells)
        return len(slots.cells) + len(slots.rec.cells) * len(slots.bindings)

    # -- construction -----------------------------------------------------
    def add_port(self, name: str, direction: str, width: int) -> Net:
        if direction not in ("in", "out"):
            raise NetlistError(f"port {name}: bad direction {direction}")
        net = self.add_net(name, width)
        self.ports[name] = direction
        return net

    def add_net(self, name: str, width: int) -> Net:
        if not _NAME_RE.fullmatch(name):
            raise NetlistError(f"bad net name {name!r}")
        if name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        if width < 1:
            raise NetlistError(f"net {name}: width must be >= 1")
        n = Net(name, width)
        self.nets[name] = n
        return n

    def add_cell(self, name: str, kind: str, /, **params) -> Cell:
        if not _NAME_RE.fullmatch(name):
            raise NetlistError(f"bad cell name {name!r}")
        if kind not in CELL_KINDS:
            raise NetlistError(f"cell {name}: unknown kind {kind!r}")
        if name in self.cells:
            raise NetlistError(f"duplicate cell {name!r}")
        c = Cell(name, kind, params)
        self.cells[name] = c
        return c

    def add_priced_cell(self, name: str, kind: str, tech, /, **params) -> Cell:
        """add_cell, with the kind's event price under `tech` as e_event_fj."""
        params["e_event_fj"] = round(CELL_KINDS[kind].price(params, tech), 6)
        return self.add_cell(name, kind, **params)

    def connect(self, net: str, cell: str, pin: str) -> str:
        """Put `pin` of `cell` on `net`, as a driver if the cell's kind drives
        it; return the role taken, "drive" or "sink".  The endpoint holds
        the cell's own name, so every IR shares one string per cell name."""
        try:
            n, c = self.nets[net], self.cells[cell]
        except KeyError:
            if net not in self.nets:
                raise NetlistError(f"unknown net {net!r}") from None
            raise NetlistError(f"unknown cell {cell!r}") from None
        if pin in CELL_KINDS[c.kind].outputs:
            n.drivers.append((c.name, pin))
            return "drive"
        n.sinks.append((c.name, pin))
        return "sink"


class _HeldIR(NetlistIR):
    """A NetlistIR that holds a SlotArray.  Its first read of `cells` or
    `nets` expands it into a plain NetlistIR, so a flat IR's `cells` and
    `nets` are instance attributes that no class attribute shadows."""

    @property
    def cells(self):
        self.expand()
        return self.cells

    @property
    def nets(self):
        self.expand()
        return self.nets


def _net_faults(ports: dict, nets, kind) -> list[str]:
    """Violation strings of each (name, drivers, sinks) in `nets`; `kind`
    gives a driver cell's kind."""
    v = []
    for name, drivers, sinks in nets:
        pdir = ports.get(name)
        if pdir is None:
            if not drivers:
                v.append(f"net {name}: no driver")
            if not sinks:
                v.append(f"net {name}: no sink")
        elif pdir == "in":
            if drivers:
                v.append(f"net {name}: input port must not have internal drivers")
            if not sinks:
                v.append(f"net {name}: dangling input port")
        else:
            if not drivers:
                v.append(f"net {name}: undriven output port")
        if len(drivers) > 1:
            for cell, _pin in drivers:
                if kind(cell) != "tristate_driver":
                    v.append(f"net {name}: multiple drivers include "
                             f"non-tristate {cell}")
    return v


def check_wellformed(ir: NetlistIR) -> list[str]:
    """Violation strings for the structural invariants; empty when clean.
    A held SlotArray is checked as it is; if that finds a fault, the IR is
    expanded and its flat violations returned."""
    if ir.slots is not None and ir.slots.clean(ir.ports):
        return []
    cells = ir.cells
    v = _net_faults(ir.ports, ((n.name, n.drivers, n.sinks) for n in ir.nets.values()),
                    lambda cell: cells[cell].kind)
    # in net order, and without a set copy of every name
    v += [f"name {n!r} used for both a cell and a net"
          for n in ir.nets if n in cells]
    return v


# -- the BA+ slot ------------------------------------------------------------

def add_slot(ir: NetlistIR, scope: str, suffix: str, macro: BAPlusMacro,
             col: int, selects, wsel: str | None, **gate_params) -> str:
    """Add one BA+ slot under `scope`; return its tristate's name.

    A slot is a wordline gate (`gate_params`, fed by the `selects` (net,
    pin) pairs) driving the read and write wordlines of one `macro`, and a
    tristate that puts the macro's q on a read bitline when the slot's own
    read wordline fires.  `wsel` is the column-mux write select, if any.
    Names are `<scope>/<part><suffix>`; the caller wires the tristate's out.
    """
    wlg, ba, tri = f"{scope}/wlg{suffix}", f"{scope}/ba{suffix}", f"{scope}/tri{suffix}"
    rwl, wwl, q = f"{scope}/rwl{suffix}", f"{scope}/wwl{suffix}", f"{scope}/q{suffix}"
    ir.add_cell(wlg, "wordline_gate", **gate_params)
    for net, pin in selects:
        ir.connect(net, wlg, pin)
    ir.add_net(rwl, macro.B)
    ir.add_net(wwl, macro.B)
    ir.connect(rwl, wlg, "rwl")
    ir.connect(wwl, wlg, "wwl")

    ir.add_cell(ba, "baplus_instance", variant=macro.name, B=macro.B,
                W=macro.W, col=col, e_read_fj=macro.e_read_fj,
                e_write_fj=macro.e_write_fj, p_leak_nw=macro.p_leak_nw,
                t_access_ps=macro.t_access_ps)
    ir.connect("clk", ba, "clk")
    ir.connect(rwl, ba, "rwl")
    ir.connect(wwl, ba, "wwl")
    ir.connect("wdata", ba, "din")
    if wsel:
        ir.connect(wsel, ba, "wsel")
    ir.add_net(q, macro.W)
    ir.connect(q, ba, "qout")

    ir.add_cell(tri, "tristate_driver", col=col, registered_enable=1)
    ir.connect("clk", tri, "clk")
    ir.connect(q, tri, "in")
    ir.connect(rwl, tri, "en")
    return tri


# -- the slots held once ------------------------------------------------------

# the scope, suffix and out net a SlotArray records its one slot under
_SCOPE, _SUFFIX, _OUT = "slotscope", "slotsuffix", "slotout"


class _Field:
    """A binding value, held by the recorded slot as its format field."""
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


def _literal(v) -> str:
    """`v` as netlist text, or its format field; braces doubled for str.format."""
    if isinstance(v, _Field):
        return f"{{{v.index}}}"
    return _fmt_param(v).replace("{", "{{").replace("}", "}}")


class SlotArray:
    """Slots held once, after a head: the cells and nets added before them.

    `body(ir, scope, suffix, *values, out)` adds one slot flat, and each
    binding holds those arguments for one slot.  `rec` is one slot, made by
    `body` on an IR of the head's nets, under placeholder scope, suffix and
    out net, with a _Field for each value.  `text` holds its lines as
    str.format templates over a binding: "cells", "nets" and "conns" (of
    the slot's own nets), and (net, role) for its conns on a head net, _OUT
    standing for the binding's out.  `text` is None, and the slots are
    added flat, when a slot name is not `<scope>/<part><suffix>`, when one
    part starts another (a cell of one slot could then share a name with a
    net of another), when an out net is not in the head, or when a slot
    reaches its out net both directly and by `out` (its conns there would
    then interleave)."""

    def __init__(self, cells: dict, nets: dict, body, bindings: list):
        self.cells, self.nets, self.body, self.bindings = cells, nets, body, bindings
        self.by_out = {}                # out net -> its bindings, in order
        for b in bindings:
            self.by_out.setdefault(b[-1], []).append(b)
        rec = self.rec = NetlistIR("slot")
        for net in nets.values():
            rec.add_net(net.name, net.width)
        rec.add_net(_OUT, 1)
        last = len(bindings[0]) - 1
        body(rec, _SCOPE, _SUFFIX, *map(_Field, range(2, last)), _OUT)
        self.own = [n for n in rec.nets.values() if n.name not in nets and n.name != _OUT]
        self.text = self._templates(f"{{{last}}}")

    def _templates(self, out_field: str) -> dict | None:
        rec, own = self.rec, [n.name for n in self.own]
        parts = {name: name[len(_SCOPE) + 1:-len(_SUFFIX)] for name in chain(rec.cells, own)}
        if any(f"{_SCOPE}/{p}{_SUFFIX}" != name or _SCOPE in p or _SUFFIX in p
               for name, p in parts.items()):
            return None
        if any(parts[a].startswith(parts[b]) or parts[b].startswith(parts[a])
               for a in rec.cells for b in own):
            return None
        fields = {name: "{0}/" + p + "{1}" for name, p in parts.items()} | {_OUT: out_field}

        def conns(net, role):
            ends = net.drivers if role == "drive" else net.sinks
            name = fields.get(net.name, net.name)
            return [f"conn {name} {fields[cell]}.{_literal(pin)} {role}" for cell, pin in ends]

        text = {
            "cells": [_cell_line(fields[c.name], c.kind, c.params, _literal)
                      for c in rec.cells.values()],
            "nets": [f"net {fields[n.name]} {n.width}" for n in self.own],
            "conns": [line for n in self.own for line in conns(n, "drive") + conns(n, "sink")],
        }
        for net in rec.nets.values():
            if net.name not in parts:           # a head net, or _OUT
                text[net.name, "drive"] = conns(net, "drive")
                text[net.name, "sink"] = conns(net, "sink")
        if any(out not in self.nets or text[out, role] and text[_OUT, role]
               for out in self.by_out for role in ("drive", "sink")):
            return None
        self.height = max(map(len, text.values()))
        return {key: "\n".join(lines) for key, lines in text.items() if lines}

    def stamps(self, key, bindings=None):
        """text[key] stamped with each binding (default: all): one item per
        binding, of up to `height` lines."""
        fmt = self.text.get(key)
        if fmt is None:
            return ()
        return starmap(fmt.format, self.bindings if bindings is None else bindings)

    def head_stamps(self, net: str, role: str):
        """The slots' conns on head net `net` in `role`, in binding order."""
        return chain(self.stamps((net, role)),
                     self.stamps((_OUT, role), self.by_out.get(net, ())))

    def clean(self, ports: dict) -> bool:
        """Whether the expanded IR passes check_wellformed, from the head, the
        recorded slot and the nets they share.  A head net's ends stand with
        each slot's counted at most twice, which keeps every rule's outcome;
        every slot's own nets are the recorded slot's.  A slot name starts
        with its scope and a '/', and no scope holds one (generate_sram's
        are bank_<r>_<c>), so a head name without '/' names no slot's cell
        or net."""
        rec, n = self.rec, min(len(self.bindings), 2)
        out = rec.nets[_OUT]

        def ends(net, role):
            return (getattr(net, role) + getattr(rec.nets[net.name], role) * n
                    + getattr(out, role) * min(len(self.by_out.get(net.name, ())), 2))

        nets = chain(((net.name, ends(net, "drivers"), ends(net, "sinks"))
                      for net in self.nets.values()),
                     ((net.name, net.drivers, net.sinks) for net in self.own))
        return (not _net_faults(ports, nets,
                                lambda c: (self.cells.get(c) or rec.cells[c]).kind)
                and not any(name in self.cells or "/" in name for name in self.nets)
                and not any("/" in name for name in self.cells))


# -- 1R-1W SRAM generator --------------------------------------------------

def generate_sram(cfg: explorer.MemoryConfig, lib: Library) -> NetlistIR:
    """Structural netlist for a 1R-1W memory config.

    One dual-port global decode tree drives one-hot bank-row/macro/row
    selects; each macro sits in an add_slot, whose wordline gate
    clock-gates the row bundle; the slot tristates of a bank column share
    one global read bitline; an M-way column mux (with a one-cycle select
    pipeline register) produces rdata.  The slots are held once, as a
    SlotArray over this function's slot body.
    """
    cfg.validate(lib)
    macro = lib[cfg.variant]
    tech = lib.tech
    words, bits = cfg.dims(lib)
    amap = cfg.address_map(lib)
    est = explorer.evaluate_ppa(cfg, lib)
    w_nm, h_nm = floorplan.estimate_dimensions(cfg, lib)

    ir = NetlistIR(
        f"sram_{cfg.variant}_r{cfg.R}c{cfg.C}k{cfg.K}m{cfg.M}",
        meta={
            "design": "sram_1r1w", "variant": cfg.variant,
            "R": cfg.R, "C": cfg.C, "K": cfg.K, "M": cfg.M,
            "B": macro.B, "W": macro.W, "words": words, "bits": bits,
            "t_cycle_ps": est.t_cycle_ps, "p_leak_nw": est.p_leak_nw,
            "e_wire_op_fj": round(tech.e_wire_fj(w_nm, h_nm), 6),
        },
    )
    ir.add_port("clk", "in", 1)
    ir.add_port("raddr", "in", amap.port_width)
    ir.add_port("waddr", "in", amap.port_width)
    ir.add_port("re", "in", 1)
    ir.add_port("we", "in", 1)
    ir.add_port("wdata", "in", bits)
    ir.add_port("rdata", "out", bits)

    ir.add_priced_cell("dec", "decoder", tech, **amap.decoder, ports="rw")
    for p in ("raddr", "waddr", "re", "we"):
        ir.connect(p, "dec", p)

    def dec_out(name: str, width: int) -> str:
        ir.add_net(name, width)
        ir.connect(name, "dec", name)
        return name

    selects = [("re", "re"), ("we", "we")]  # each wordline gate's (net, pin)s

    def select(name: str, width: int) -> None:
        selects.append((dec_out(name, width), name))

    for prefix in ("r", "w"):
        if amap.lR:
            select(f"{prefix}_bank", cfg.R)
        if amap.lK:
            select(f"{prefix}_ba", cfg.K)
        select(f"{prefix}_row", macro.B)
    if amap.lM:
        dec_out("r_msel", cfg.M)
        dec_out("w_msel", cfg.M)
        ir.add_net("r_msel_q", cfg.M)
        reg = ir.add_cell("sel_reg", "output_reg", role="mux_sel_pipeline")
        ir.connect("clk", "sel_reg", "clk")
        ir.connect("r_msel", "sel_reg", "d")
        ir.connect("r_msel_q", "sel_reg", "q")

    if cfg.M > 1:
        for c in range(cfg.C):
            ir.add_net(f"col_bl_{c}", macro.W)
        ir.add_priced_cell("mux", "column_mux", tech, C=cfg.C, W=macro.W, M=cfg.M)
        for c in range(cfg.C):
            ir.connect(f"col_bl_{c}", "mux", f"in_{c}")
        ir.connect("r_msel_q", "mux", "sel")
        ir.connect("rdata", "mux", "out")

    wsel = "w_msel" if amap.lM else None

    def slot(ir, bank, suffix, r, k, c, out):
        tri = add_slot(ir, bank, suffix, macro, c, selects, wsel, bank_row=r, ba=k)
        ir.connect(out, tri, "out")

    outs = [f"col_bl_{c}" if cfg.M > 1 else "rdata" for c in range(cfg.C)]
    suffixes = [f"_{k}" for k in range(cfg.K)]
    bindings = []
    for r in range(cfg.R):
        for c in range(cfg.C):
            bank = f"bank_{r}_{c}"
            bindings += [(bank, suffix, r, k, c, outs[c])
                         for k, suffix in enumerate(suffixes)]
    ir.hold_slots(slot, bindings)
    return ir


# -- native text format ----------------------------------------------------

def _fmt_param(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _cell_line(name: str, kind: str, params: dict, text=_fmt_param) -> str:
    return f"cell {name} {kind}" + "".join(f" {k}={text(v)}" for k, v in params.items())


# lines per write of emit_netlist: the text held at once stays a few
# hundred KiB, however large the design
_EMIT_CHUNK = 4096


def _netlist_lines(ir: NetlistIR):
    """The lines of `ir`'s text, in emit order, made one at a time; a held
    SlotArray's come as one item per slot and section."""
    slots = ir.slots
    cells, nets = (ir.cells, ir.nets) if slots is None else (slots.cells, slots.nets)
    yield f"# smemsynth netlist {ir.name}"
    if ir.meta:
        kv = " ".join(f"{k}={_fmt_param(v)}" for k, v in ir.meta.items())
        yield f"# meta {kv}"
    for name, d in ir.ports.items():
        yield f"port {name} {d} {nets[name].width}"
    for c in cells.values():
        yield _cell_line(c.name, c.kind, c.params)
    if slots:
        yield from slots.stamps("cells")
    for n in nets.values():
        if n.name not in ir.ports:
            yield f"net {n.name} {n.width}"
    if slots:
        yield from slots.stamps("nets")
    for n in nets.values():
        for cell, pin in n.drivers:
            yield f"conn {n.name} {cell}.{pin} drive"
        if slots:
            yield from slots.head_stamps(n.name, "drive")
        for cell, pin in n.sinks:
            yield f"conn {n.name} {cell}.{pin} sink"
        if slots:
            yield from slots.head_stamps(n.name, "sink")
    if slots:
        yield from slots.stamps("conns")


def emit_netlist(ir: NetlistIR, path) -> None:
    """Line-oriented netlist text; see parse_netlist for the grammar.  It is
    written _EMIT_CHUNK lines at a time, or as many slot items as hold at
    most that many, so memory follows the IR, not a copy of its text; a
    held SlotArray is written without expanding it."""
    lines = _netlist_lines(ir)
    step = _EMIT_CHUNK // ir.slots.height if ir.slots else _EMIT_CHUNK
    with open(path, "w") as fh:
        while chunk := list(islice(lines, step)):
            fh.write("\n".join(chunk) + "\n")


def _parse_value(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_netlist(path) -> NetlistIR:
    """Read the text written by emit_netlist; one streamed pass, one line at
    a time.  A `conn` must follow the `port`/`net` and `cell` it names, and
    its role must be the one the cell's kind gives the pin.

    Every line is built by add_port/add_net/add_cell/connect, so it gets
    their checks and messages, prefixed by `path:lineno`.
    """
    ir = NetlistIR("netlist")
    add_cell, connect = ir.add_cell, ir.connect
    params_of = {}  # "key=value" token -> (key, value), converted once
    pins = {}  # one string per distinct pin, as a generated IR has
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                toks = line.split()
                if not toks:
                    continue
                head = toks[0]
                try:
                    if head == "conn":
                        cell, _, pin = toks[2].rpartition(".")
                        role = toks[3]
                        pin = pins.setdefault(pin, pin)
                        want = connect(toks[1], cell, pin)
                        if role != want:
                            raise NetlistError(f"{cell}.{pin} of a {ir.cells[cell].kind} "
                                               f"takes role {want!r}, not {role!r}")
                        if len(toks) > 4:
                            raise NetlistError(f"extra token {toks[4]!r}")
                    elif head == "cell":
                        params = {}
                        for tok in toks[3:]:
                            kv = params_of.get(tok)
                            if kv is None:
                                k, eq, v = tok.partition("=")
                                if not eq:
                                    raise NetlistError(f"param {tok!r} is not key=value")
                                kv = params_of[tok] = (k, _parse_value(v))
                            params[kv[0]] = kv[1]
                        if len(params) < len(toks) - 3:
                            keys = [params_of[tok][0] for tok in toks[3:]]
                            twice = next(k for k in keys if keys.count(k) > 1)
                            raise NetlistError(f"param {twice!r} given twice")
                        add_cell(toks[1], toks[2], **params)
                    elif head == "net":
                        ir.add_net(toks[1], int(toks[2]))
                        if len(toks) > 3:
                            raise NetlistError(f"extra token {toks[3]!r}")
                    elif head == "port":
                        ir.add_port(toks[1], toks[2], int(toks[3]))
                        if len(toks) > 4:
                            raise NetlistError(f"extra token {toks[4]!r}")
                    elif head[0] == "#":
                        body = line.strip()[1:].strip()
                        if body.startswith("smemsynth netlist "):
                            ir.name = body.split()[-1]
                        elif body.startswith("meta "):
                            for tok in body[5:].split():
                                k, eq, v = tok.partition("=")
                                if not eq:
                                    raise NetlistError(f"meta {tok!r} is not key=value")
                                ir.meta[k] = _parse_value(v)
                    else:
                        raise NetlistError(f"unknown directive {head!r}")
                except (IndexError, ValueError) as e:
                    raise NetlistError(f"{path}:{lineno}: {e}") from None
        except UnicodeDecodeError as e:
            raise NetlistError(undecodable_line(path, e)) from None
    return ir


# -- Verilog-2001 emission -------------------------------------------------

def _vbits(width: int, value: int) -> str:
    return f"{width}'d{value}"


def _onehot_shift(width: int, idx_expr: str) -> str:
    one = f"{{{{{width - 1}{{1'b0}}}}, 1'b1}}" if width > 1 else "1'b1"
    return f"({one} << {idx_expr})"


def _ba_module_text(B: int, W: int, name: str) -> list[str]:
    """Behavioral macro leaf: one-hot wordlines, registered read, read-first."""
    out = [
        f"module {name} (clk, rwl, wwl, wmask, din, qout);",
        "  input clk;",
        f"  input [{B - 1}:0] rwl, wwl;",
        f"  input [{W - 1}:0] wmask, din;",
        f"  output reg [{W - 1}:0] qout;",
        f"  reg [{W - 1}:0] mem [0:{B - 1}];",
        "  integer i;",
        "  always @(posedge clk) begin",
        f"    for (i = 0; i < {B}; i = i + 1) begin",
        "      if (rwl[i]) qout <= mem[i];",
        "      if (wwl[i]) mem[i] <= (mem[i] & ~wmask) | (din & wmask);",
        "    end",
        "  end",
        "endmodule",
    ]
    return out


def _emit_hdl_sram(ir: NetlistIR) -> str:
    from .sim import sram_geometry
    (R, C, K, M, B, W), amap, bits = sram_geometry(ir.meta)
    WM = W // M
    ba_mod = f"ba_{B}x{W}"
    L = [f"// generated 1R-1W memory: {ir.name}",
         f"module {ir.name} (clk, raddr, waddr, re, we, wdata, rdata);",
         "  input clk, re, we;",
         f"  input [{amap.port_width - 1}:0] raddr, waddr;",
         f"  input [{bits - 1}:0] wdata;",
         f"  output [{bits - 1}:0] rdata;", ""]

    *selects, (msb, lsb) = amap.ranges
    for pre in "rw":
        # one one-hot select per field; an empty field selects its one line
        for sel, width, (hi, lo) in zip(("bank", "ba", "row"), (R, K, B), selects):
            onehot = _onehot_shift(width, f"{pre}addr[{hi}:{lo}]") if hi >= lo else "1'b1"
            L.append(f"  wire [{width - 1}:0] {pre}_{sel} = {onehot};")
    if amap.lM:
        L.append(f"  wire [{msb}:0] w_msel = waddr[{msb}:{lsb}];")
        L.append(f"  reg [{msb}:0] r_msel_q;")
        L.append(f"  always @(posedge clk) r_msel_q <= raddr[{msb}:{lsb}];")
        L.append(f"  wire [{W - 1}:0] wmask = {{{WM}{{1'b1}}}} << (w_msel * {WM});")
    else:
        L.append(f"  wire [{W - 1}:0] wmask = {{{W}{{1'b1}}}};")
    L.append("")
    for c in range(C):
        L.append(f"  wire [{W - 1}:0] col_bl_{c};")
        if M > 1:
            lo = c * WM
            L.append(f"  wire [{W - 1}:0] wslice_{c} = "
                     f"wdata[{lo + WM - 1}:{lo}] << (w_msel * {WM});")
            L.append(f"  assign rdata[{lo + WM - 1}:{lo}] = "
                     f"col_bl_{c} >> (r_msel_q * {WM});")
        else:
            lo = c * W
            L.append(f"  wire [{W - 1}:0] wslice_{c} = wdata[{lo + W - 1}:{lo}];")
            L.append(f"  assign rdata[{lo + W - 1}:{lo}] = col_bl_{c};")
    L.append("")
    for r in range(R):
        for c in range(C):
            L.append(f"  {ir.name}_bank u_bank_{r}_{c} (.clk(clk),"
                     f" .re_sel(re & r_bank[{r}]), .we_sel(we & w_bank[{r}]),"
                     " .r_ba(r_ba), .w_ba(w_ba), .r_row(r_row), .w_row(w_row),"
                     f" .wmask(wmask), .din(wslice_{c}), .colbl(col_bl_{c}));")
    L += ["endmodule", ""]

    # one module per hierarchy level: the bank, then the behavioral macro leaf
    L += [f"module {ir.name}_bank (clk, re_sel, we_sel, r_ba, w_ba, r_row, w_row,"
          " wmask, din, colbl);",
          "  input clk, re_sel, we_sel;",
          f"  input [{K - 1}:0] r_ba, w_ba;",
          f"  input [{B - 1}:0] r_row, w_row;",
          f"  input [{W - 1}:0] wmask, din;",
          f"  output [{W - 1}:0] colbl;"]
    for k in range(K):
        L.append(f"  wire rsel_{k} = re_sel & r_ba[{k}];")
        L.append(f"  wire [{B - 1}:0] rwl_{k} = rsel_{k} ? r_row : {_vbits(B, 0)};")
        L.append(f"  wire [{B - 1}:0] wwl_{k} = (we_sel & w_ba[{k}]) ? w_row : {_vbits(B, 0)};")
        L.append(f"  wire [{W - 1}:0] q_{k};")
        L.append(f"  reg drv_{k};")
        L.append(f"  always @(posedge clk) drv_{k} <= rsel_{k};")
        L.append(f"  {ba_mod} u_ba_{k} (.clk(clk), .rwl(rwl_{k}), .wwl(wwl_{k}),"
                 f" .wmask(wmask), .din(din), .qout(q_{k}));")
        L.append(f"  assign colbl = drv_{k} ? q_{k} : {{{W}{{1'bz}}}};")
    L += ["endmodule", ""]
    L += _ba_module_text(B, W, ba_mod)
    return "\n".join(L) + "\n"


def emit_hdl(ir: NetlistIR, path) -> None:
    """Write the design as self-contained Verilog-2001 (fully elaborated)."""
    design = ir.meta.get("design")
    if design == "sram_1r1w":
        text = _emit_hdl_sram(ir)
    elif design in ("pa_sm", "pa_tm"):
        from . import pa
        text = pa.emit_hdl_pa(ir)
    else:
        raise NetlistError(f"no HDL emitter for design {design!r}")
    with open(path, "w") as fh:
        fh.write(text)
