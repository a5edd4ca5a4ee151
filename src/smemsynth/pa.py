"""Parallel window access over a 2^m x 2^n pixel surface.

A window of 2^a x 2^b pixels is fetched per cycle from 2^(a+b) banks.  Pixel
(x, y) lives in bank (x mod 2^a, y mod 2^b) at in-bank address
(x >> a, y >> b), so any aligned-or-not window touches every bank exactly
once.  Two microarchitectures are generated:

* select-mode ("sm"): two shared base decoders (one per axis) produce base
  one-hot selects; each bank locally rotates the one-hot by its carry bit
  and ANDs row x column selects at the divided wordline.
* translate-mode ("tm"): each bank carries a private address translator
  (base + carry, in binary) feeding a conventional single-macro memory with
  its own full decode tree.

Both read out one lane per bank; a registered rotation value steers the
output alignment network so lane data lands at window-relative positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import explorer, netlist
from .baplus import Library, TechParams, generate_variant

BOUNDARY_MODES = ("wrap", "clamp")


class PAError(ValueError):
    pass


@dataclass(frozen=True)
class PAWindowSpec:
    m: int
    n: int
    a: int
    b: int
    pixel_bits: int = 8
    boundary: str = "wrap"

    def validate(self):
        if not (0 <= self.a <= self.m):
            raise PAError(f"need 0 <= a <= m, got a={self.a}, m={self.m}")
        if not (0 <= self.b <= self.n):
            raise PAError(f"need 0 <= b <= n, got b={self.b}, n={self.n}")
        if self.m < 1 or self.n < 1:
            raise PAError("image must be at least 2x2")
        if self.pixel_bits < 1:
            raise PAError("pixel_bits must be positive")
        if self.boundary not in BOUNDARY_MODES:
            raise PAError(f"boundary must be one of {BOUNDARY_MODES}")

    @property
    def banks_x(self) -> int:
        return 1 << self.a

    @property
    def banks_y(self) -> int:
        return 1 << self.b

    @property
    def lanes(self) -> int:
        return self.banks_x * self.banks_y

    @property
    def rows(self) -> int:
        return 1 << (self.m - self.a)

    @property
    def cols(self) -> int:
        return 1 << (self.n - self.b)

    @property
    def bank_words(self) -> int:
        return self.rows * self.cols

    @property
    def image_w(self) -> int:
        return 1 << self.m

    @property
    def image_h(self) -> int:
        return 1 << self.n


def map_pixel(spec: PAWindowSpec, x: int, y: int):
    """((bank_x, bank_y), (row, col)) storage location of pixel (x, y)."""
    if not (0 <= x < spec.image_w and 0 <= y < spec.image_h):
        raise PAError(f"pixel ({x}, {y}) outside {spec.image_w}x{spec.image_h}")
    bx = x & (spec.banks_x - 1)
    by = y & (spec.banks_y - 1)
    return (bx, by), (x >> spec.a, y >> spec.b)


def bank_index(spec: PAWindowSpec, bx: int, by: int) -> int:
    return (bx << spec.b) | by


def bank_addr(spec: PAWindowSpec, row: int, col: int) -> int:
    return (row << (spec.n - spec.b)) | col


def _axis_plans(side_bits: int, low_bits: int, clamp: bool) -> list:
    """Per-coordinate plans along one axis of a 2^side_bits surface.

    Entry [c] is (c0, r, addrs): the effective coordinate (clamped so the
    window stays on the surface, else c itself), the rotation (the bank
    index holding the window's first pixel), and the address issued to
    each of the 2^low_bits banks along the axis.  Banks whose index
    precedes the rotation point take the next address (carry), wrapping at
    the edge of the bank.
    """
    cmax = (1 << side_bits) - (1 << low_bits)
    bmask = (1 << low_bits) - 1
    amask = (1 << (side_bits - low_bits)) - 1
    plans = []
    for c in range(1 << side_bits):
        c0 = min(c, cmax) if clamp else c
        r, base = c0 & bmask, c0 >> low_bits
        plans.append((c0, r, tuple((base + (p < r)) & amask
                                   for p in range(bmask + 1))))
    return plans


def window_planner(spec: PAWindowSpec):
    """plan(x, y) -> ((x0, rx, rows), (y0, ry, cols)) for a window corner.

    rows[p] is the row address issued to the banks with x-index p, cols[q]
    the column address for y-index q; (rx, ry) is the rotation.  A corner
    off the surface wraps toroidally, or clamps when the spec clamps.  A
    plan's rows depend only on x and its columns only on y, so both axes
    are tabulated once per spec.
    """
    clamp = spec.boundary == "clamp"
    xs = _axis_plans(spec.m, spec.a, clamp)
    ys = _axis_plans(spec.n, spec.b, clamp)
    xm, ym = spec.image_w - 1, spec.image_h - 1
    if not clamp:
        return lambda x, y: (xs[x & xm], ys[y & ym])

    def plan(x, y):
        return (xs[x if 0 <= x <= xm else (0 if x < 0 else xm)],
                ys[y if 0 <= y <= ym else (0 if y < 0 else ym)])
    return plan


def check_plans(spec: PAWindowSpec, origins=None) -> dict:
    """Exhaustively check plans against the pixel-to-bank map.

    For every window origin (all of them unless `origins` narrows the
    sweep), confirm that each covered pixel is fetched from exactly the
    bank/address the storage map assigns it, and that no bank is addressed
    twice.  Returns a report dict with mismatch/conflict counts.
    """
    spec.validate()
    ma, mb = spec.banks_x - 1, spec.banks_y - 1
    mx, my = spec.image_w - 1, spec.image_h - 1
    a, b_ = spec.a, spec.b
    rows_n, cols_n = spec.rows, spec.cols
    clamp = spec.boundary == "clamp"
    xmax = spec.image_w - spec.banks_x
    ymax = spec.image_h - spec.banks_y
    plan = window_planner(spec)
    if origins is None:
        origins = ((x, y) for x in range(spec.image_w)
                   for y in range(spec.image_h))
    checked = mismatches = conflicts = 0
    for ox, oy in origins:
        if clamp:
            x, y = min(max(ox, 0), xmax), min(max(oy, 0), ymax)
        else:
            x, y = ox & mx, oy & my
        (x0, rx, rows), (y0, ry, cols) = plan(ox, oy)
        if (x0, rx, y0, ry) != (x, x & ma, y, y & mb):
            mismatches += 1
        seen_p = set()
        for dx in range(ma + 1):
            px = (x + dx) & mx if not clamp else x + dx
            p = px & ma
            seen_p.add(p)
            if rows[p] != (px >> a) & (rows_n - 1):
                mismatches += 1
        if len(seen_p) != ma + 1:
            conflicts += 1
        seen_q = set()
        for dy in range(mb + 1):
            py = (y + dy) & my if not clamp else y + dy
            q = py & mb
            seen_q.add(q)
            if cols[q] != (py >> b_) & (cols_n - 1):
                mismatches += 1
        if len(seen_q) != mb + 1:
            conflicts += 1
        checked += 1
    return {"m": spec.m, "n": spec.n, "a": spec.a, "b": spec.b,
            "boundary": spec.boundary, "origins": checked,
            "mismatches": mismatches, "conflicts": conflicts}


# -- analytic PPA comparison ------------------------------------------------

def _bank_macro(spec: PAWindowSpec, tech: TechParams):
    """One tall macro holds a bank: every bank word is a row."""
    return generate_variant(spec.bank_words, spec.pixel_bits, tech,
                            b_bounds=None, w_bounds=None)


def _storage_dims_nm(spec: PAWindowSpec, tech: TechParams):
    macro = _bank_macro(spec, tech)
    gutter = round(tech.gutter_pitches * tech.poly_pitch_nm)
    w = spec.lanes * (macro.width_nm(tech) + gutter)
    h = macro.height_nm(tech)
    return macro, w, h


@dataclass(frozen=True)
class PAComparison:
    spec: PAWindowSpec
    sm: explorer.PPAEstimate
    tm: explorer.PPAEstimate

    @property
    def area_ratio(self) -> float:
        return self.sm.area_um2 / self.tm.area_um2

    @property
    def gops_ratio(self) -> float:
        return self.sm.gops_per_watt / self.tm.gops_per_watt


def compare_pa_ppa(spec: PAWindowSpec, tech: TechParams | None = None) -> PAComparison:
    """Analytic area/timing/energy for both bank-select microarchitectures.

    Select-mode shares two small base decoders and pays a per-bank one-hot
    increment; translate-mode replicates a full-depth decode tree per bank.
    Both pay the same storage, rotation register, and alignment network.
    """
    spec.validate()
    tech = tech or TechParams()
    tech.validate()
    macro, w_nm, h_nm = _storage_dims_nm(spec, tech)
    banks = spec.lanes
    mb = spec.m - spec.a
    nb = spec.n - spec.b
    storage_um2 = (w_nm / 1e3) * (h_nm / 1e3)
    semiperim_um = (w_nm + h_nm) / 1e3

    def dec_area(bits: int) -> float:
        return tech.a_dec0_um2 + tech.a_dec1_um2 * (1 << bits)

    inc_um2 = tech.a_inc_um2 * (mb + nb)
    align_um2 = tech.a_align_um2 * banks * spec.pixel_bits
    logic = {
        "sm": dec_area(mb) + dec_area(nb) + banks * inc_um2 + align_um2,
        "tm": banks * dec_area(mb + nb) + banks * inc_um2 + align_um2,
    }
    t = {
        "sm": (tech.d0_ps + tech.d1_ps * (max(mb, nb) + 1) + macro.t_access_ps
               + tech.m0_ps + tech.m1_ps * (spec.a + spec.b)),
        "tm": (tech.d0_ps + tech.d1_ps * (mb + nb + 2) + macro.t_access_ps
               + tech.m0_ps + tech.m1_ps * (spec.a + spec.b)),
    }
    shared_e = (banks * macro.e_read_fj + banks * tech.e_inc_fj
                + tech.e_wire_per_um_fj * semiperim_um)
    e = {
        "sm": (2 * tech.e_dec0_fj + tech.e_dec1_fj * (mb + nb)) + shared_e,
        "tm": banks * (tech.e_dec0_fj + tech.e_dec1_fj * (mb + nb)) + shared_e,
    }
    out = {}
    for mode in ("sm", "tm"):
        placed_logic = logic[mode] / tech.utilization
        area = storage_um2 + placed_logic
        p_leak = banks * macro.p_leak_nw + tech.p_leak_logic_nw_um2 * placed_logic
        out[mode] = explorer.PPAEstimate(
            area_um2=area, t_cycle_ps=t[mode], e_op_fj=e[mode],
            p_leak_nw=p_leak,
            gops_per_watt=explorer.gops_per_watt(e[mode], p_leak, t[mode]))
    return PAComparison(spec, out["sm"], out["tm"])


# -- netlist generation ------------------------------------------------------

def _pa_ports(ir: netlist.NetlistIR, spec: PAWindowSpec):
    ir.add_port("clk", "in", 1)
    ir.add_port("x", "in", spec.m)
    ir.add_port("y", "in", spec.n)
    ir.add_port("re", "in", 1)
    ir.add_port("wx", "in", spec.m)
    ir.add_port("wy", "in", spec.n)
    ir.add_port("we", "in", 1)
    ir.add_port("wdata", "in", spec.pixel_bits)
    ir.add_port("rdata", "out", spec.lanes * spec.pixel_bits)


def _add_rot_and_align(ir: netlist.NetlistIR, spec: PAWindowSpec, tech: TechParams):
    if spec.a + spec.b:
        ir.add_net("rot_q", spec.a + spec.b)
        reg = ir.add_cell("rot_reg", "output_reg", role="rotation_pipeline",
                          a=spec.a, b=spec.b)
        ir.connect("clk", reg.name, "clk")
        ir.connect("x", reg.name, "x")
        ir.connect("y", reg.name, "y")
        ir.connect("re", reg.name, "en")
        ir.connect("rot_q", reg.name, "q", "drive")
    align = ir.add_cell("align", "pa_align", lanes=spec.lanes,
                        pixel_bits=spec.pixel_bits, a=spec.a, b=spec.b,
                        e_event_fj=0.0)
    if spec.a + spec.b:
        ir.connect("rot_q", "align", "rot")
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            ir.connect(f"bank_{p}_{q}/lane", "align", f"lane_{p}_{q}")
    ir.connect("rdata", "align", "out", "drive")


def generate_pa_sm(spec: PAWindowSpec, tech: TechParams | None = None) -> netlist.NetlistIR:
    """Select-mode netlist: shared base decode, per-bank one-hot rotate."""
    spec.validate()
    tech = tech or TechParams()
    macro = _bank_macro(spec, tech)
    cmp_ = compare_pa_ppa(spec, tech)
    _, w_nm, h_nm = _storage_dims_nm(spec, tech)
    wire_fj = tech.e_wire_per_um_fj * (w_nm + h_nm) / 1e3
    mb, nb = spec.m - spec.a, spec.n - spec.b

    ir = netlist.NetlistIR(
        f"pa_sm_m{spec.m}n{spec.n}a{spec.a}b{spec.b}",
        meta={"design": "pa_sm", "m": spec.m, "n": spec.n, "a": spec.a,
              "b": spec.b, "pixel_bits": spec.pixel_bits,
              "boundary": spec.boundary, "lanes": spec.lanes,
              "bank_words": spec.bank_words, "variant": macro.name,
              "t_cycle_ps": cmp_.sm.t_cycle_ps, "p_leak_nw": cmp_.sm.p_leak_nw,
              "e_wire_op_fj": round(wire_fj, 6)})
    _pa_ports(ir, spec)

    for axis, bits, base in (("x", mb, spec.rows), ("y", nb, spec.cols)):
        dec = ir.add_cell(f"{axis}dec", "decoder", in_bits=(spec.m if axis == "x" else spec.n),
                          stages=bits, mux_bits=0, ports="rw", axis=axis,
                          boundary=spec.boundary,
                          e_event_fj=round(tech.e_dec0_fj + tech.e_dec1_fj * bits, 6))
        ir.connect(axis, dec.name, axis)
        ir.connect(f"w{axis}", dec.name, f"w{axis}")
        ir.connect("re", dec.name, "re")
        ir.connect("we", dec.name, "we")
        ir.add_net(f"{axis}base_oh", base)
        ir.add_net(f"w{axis}base_oh", base)
        ir.connect(f"{axis}base_oh", dec.name, "base_oh", "drive")
        ir.connect(f"w{axis}base_oh", dec.name, "wbase_oh", "drive")

    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            bank = f"bank_{p}_{q}"
            for axis, sel, width in (("x", p, spec.rows), ("y", q, spec.cols)):
                inc = ir.add_cell(f"{bank}/inc{axis}", "pa_increment",
                                  axis=axis, sel=sel, low_bits=(spec.a if axis == "x" else spec.b),
                                  boundary=spec.boundary,
                                  e_event_fj=round(tech.e_inc_fj / 2, 6))
                ir.connect(f"{axis}base_oh", inc.name, "base_oh")
                ir.connect(axis, inc.name, axis)
                sel_net = f"{bank}/rsel" if axis == "x" else f"{bank}/csel"
                ir.add_net(sel_net, width)
                ir.connect(sel_net, inc.name, "sel_oh", "drive")

            wlg = ir.add_cell(f"{bank}/wlg", "wordline_gate", mode="divided",
                              p=p, q=q)
            ir.connect(f"{bank}/rsel", wlg.name, "rsel")
            ir.connect(f"{bank}/csel", wlg.name, "csel")
            ir.connect("re", wlg.name, "re")
            ir.connect("wxbase_oh", wlg.name, "wxbase_oh")
            ir.connect("wybase_oh", wlg.name, "wybase_oh")
            ir.connect("wx", wlg.name, "wx")
            ir.connect("wy", wlg.name, "wy")
            ir.connect("we", wlg.name, "we")
            ir.add_net(f"{bank}/rwl", spec.bank_words)
            ir.add_net(f"{bank}/wwl", spec.bank_words)
            ir.connect(f"{bank}/rwl", wlg.name, "rwl", "drive")
            ir.connect(f"{bank}/wwl", wlg.name, "wwl", "drive")

            ba = ir.add_cell(f"{bank}/ba", "baplus_instance", variant=macro.name,
                             B=macro.B, W=macro.W, col=0,
                             e_read_fj=macro.e_read_fj, e_write_fj=macro.e_write_fj,
                             p_leak_nw=macro.p_leak_nw, t_access_ps=macro.t_access_ps)
            ir.connect("clk", ba.name, "clk")
            ir.connect(f"{bank}/rwl", ba.name, "rwl")
            ir.connect(f"{bank}/wwl", ba.name, "wwl")
            ir.connect("wdata", ba.name, "din")
            ir.add_net(f"{bank}/q", spec.pixel_bits)
            ir.connect(f"{bank}/q", ba.name, "qout", "drive")

            tri = ir.add_cell(f"{bank}/tri", "tristate_driver", col=0,
                              registered_enable=1)
            ir.connect("clk", tri.name, "clk")
            ir.connect(f"{bank}/q", tri.name, "in")
            ir.connect(f"{bank}/rwl", tri.name, "en")
            ir.add_net(f"{bank}/lane", spec.pixel_bits)
            ir.connect(f"{bank}/lane", tri.name, "out", "drive")

    _add_rot_and_align(ir, spec, tech)
    return ir


def generate_pa_tm(spec: PAWindowSpec, tech: TechParams | None = None) -> netlist.NetlistIR:
    """Translate-mode netlist: per-bank binary translator + private memory.

    Each bank's storage is a regular single-macro memory grafted in under
    the bank scope, so every bank carries its own full-depth decode tree.
    """
    spec.validate()
    tech = tech or TechParams()
    macro = _bank_macro(spec, tech)
    cmp_ = compare_pa_ppa(spec, tech)
    _, w_nm, h_nm = _storage_dims_nm(spec, tech)
    wire_fj = tech.e_wire_per_um_fj * (w_nm + h_nm) / 1e3
    mb, nb = spec.m - spec.a, spec.n - spec.b
    sublib = Library([macro], tech)
    subcfg = explorer.MemoryConfig(macro.name, 1, 1, 1, 1)

    ir = netlist.NetlistIR(
        f"pa_tm_m{spec.m}n{spec.n}a{spec.a}b{spec.b}",
        meta={"design": "pa_tm", "m": spec.m, "n": spec.n, "a": spec.a,
              "b": spec.b, "pixel_bits": spec.pixel_bits,
              "boundary": spec.boundary, "lanes": spec.lanes,
              "bank_words": spec.bank_words, "variant": macro.name,
              "t_cycle_ps": cmp_.tm.t_cycle_ps, "p_leak_nw": cmp_.tm.p_leak_nw,
              "e_wire_op_fj": round(wire_fj, 6)})
    _pa_ports(ir, spec)

    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            bank = f"bank_{p}_{q}"
            tr = ir.add_cell(f"{bank}/translate", "pa_increment",
                             axis="xy", mode="translate", sel_x=p, sel_y=q,
                             a=spec.a, b=spec.b, boundary=spec.boundary,
                             e_event_fj=round(tech.e_inc_fj, 6))
            for pin in ("x", "y", "wx", "wy", "we"):
                ir.connect(pin, tr.name, pin)
            ir.add_net(f"{bank}/taddr", max(mb + nb, 1))
            ir.add_net(f"{bank}/twaddr", max(mb + nb, 1))
            ir.add_net(f"{bank}/twe", 1)
            ir.connect(f"{bank}/taddr", tr.name, "taddr", "drive")
            ir.connect(f"{bank}/twaddr", tr.name, "twaddr", "drive")
            ir.connect(f"{bank}/twe", tr.name, "twe", "drive")
            ir.add_net(f"{bank}/lane", spec.pixel_bits)

            sub = netlist.generate_sram(subcfg, sublib)
            _graft(ir, sub, f"{bank}/sram",
                   {"clk": "clk", "raddr": f"{bank}/taddr",
                    "waddr": f"{bank}/twaddr", "re": "re",
                    "we": f"{bank}/twe", "wdata": "wdata",
                    "rdata": f"{bank}/lane"})

    _add_rot_and_align(ir, spec, tech)
    return ir


def _graft(ir: netlist.NetlistIR, sub: netlist.NetlistIR, prefix: str,
           port_map: dict) -> None:
    """Splice `sub` into `ir` under `prefix`, rewiring its ports via port_map."""
    def rename(net: str) -> str:
        return port_map[net] if net in port_map else f"{prefix}/{net}"

    for cell in sub.cells.values():
        ir.add_cell(f"{prefix}/{cell.name}", cell.kind, **dict(cell.params))
    for net in sub.nets.values():
        if net.name not in port_map:
            ir.add_net(f"{prefix}/{net.name}", net.width)
    for net in sub.nets.values():
        tgt = rename(net.name)
        for cell, pin in net.drivers:
            ir.connect(tgt, f"{prefix}/{cell}", pin, "drive")
        for cell, pin in net.sinks:
            ir.connect(tgt, f"{prefix}/{cell}", pin, "sink")
        # a grafted output port keeps its driver; inputs keep their sinks,
        # both now on the mapped top-level net, so nothing else to do


def generate_pa(spec: PAWindowSpec, mode: str, tech: TechParams | None = None) -> netlist.NetlistIR:
    if mode == "sm":
        return generate_pa_sm(spec, tech)
    if mode == "tm":
        return generate_pa_tm(spec, tech)
    raise PAError(f"unknown parallel-access mode {mode!r}")


# -- Verilog-2001 emission ---------------------------------------------------

def _clamp_expr(name: str, bits: int, vmax: int) -> str:
    return f"({name} > {bits}'d{vmax}) ? {bits}'d{vmax} : {name}"


def _emit_pa_top_common(ir: netlist.NetlistIR, L: list, spec: PAWindowSpec):
    P = spec.pixel_bits
    lanes = spec.lanes
    L += [f"module {ir.name} (clk, x, y, re, wx, wy, we, wdata, rdata);",
          "  input clk, re, we;",
          f"  input [{spec.m - 1}:0] x, wx;",
          f"  input [{spec.n - 1}:0] y, wy;",
          f"  input [{P - 1}:0] wdata;",
          f"  output [{lanes * P - 1}:0] rdata;", ""]
    if spec.boundary == "clamp":
        L.append(f"  wire [{spec.m - 1}:0] xe = "
                 + _clamp_expr("x", spec.m, spec.image_w - spec.banks_x) + ";")
        L.append(f"  wire [{spec.n - 1}:0] ye = "
                 + _clamp_expr("y", spec.n, spec.image_h - spec.banks_y) + ";")
    else:
        L.append(f"  wire [{spec.m - 1}:0] xe = x;")
        L.append(f"  wire [{spec.n - 1}:0] ye = y;")
    L.append("")


def _emit_pa_align(L: list, spec: PAWindowSpec):
    P = spec.pixel_bits
    lanes = spec.lanes
    if spec.a + spec.b:
        L.append(f"  reg [{spec.a + spec.b - 1}:0] rot_q;")
        rx = f"xe[{spec.a - 1}:0]" if spec.a else ""
        ry = f"ye[{spec.b - 1}:0]" if spec.b else ""
        cat = f"{{{rx}, {ry}}}" if rx and ry else (rx or ry)
        L.append(f"  always @(posedge clk) if (re) rot_q <= {cat};")
    lane_names = [f"lane_{p}_{q}" for p in range(spec.banks_x)
                  for q in range(spec.banks_y)]
    # lane p,q sits at bus slot p*2^b + q
    L.append(f"  wire [{lanes * P - 1}:0] lane_bus = "
             f"{{{', '.join(reversed(lane_names))}}};")
    for dx in range(spec.banks_x):
        for dy in range(spec.banks_y):
            slot = dx * spec.banks_y + dy
            if spec.a and spec.b:
                p = f"((rot_q[{spec.a + spec.b - 1}:{spec.b}] + {dx}) & {spec.banks_x - 1})"
                q = f"((rot_q[{spec.b - 1}:0] + {dy}) & {spec.banks_y - 1})"
                idx = f"({p} * {spec.banks_y} + {q})"
            elif spec.a:
                idx = f"((rot_q + {dx}) & {spec.banks_x - 1})"
            elif spec.b:
                idx = f"((rot_q + {dy}) & {spec.banks_y - 1})"
            else:
                idx = "0"
            L.append(f"  assign rdata[{(slot + 1) * P - 1}:{slot * P}] = "
                     f"lane_bus >> ({idx} * {P});")
    L.append("endmodule")
    L.append("")


def _emit_hdl_pa_sm(ir: netlist.NetlistIR) -> str:
    spec = _spec_from_meta(ir.meta)
    P = spec.pixel_bits
    R, C = spec.rows, spec.cols
    B = spec.bank_words
    mb, nb = spec.m - spec.a, spec.n - spec.b
    bank_mod = f"{ir.name}_bank"
    ba_mod = f"ba_{B}x{P}"
    L = [f"// generated parallel-access memory (select mode): {ir.name}"]
    _emit_pa_top_common(ir, L, spec)
    # shared base decode, one per axis
    xbase = f"xe[{spec.m - 1}:{spec.a}]" if mb else "1'b0"
    ybase = f"ye[{spec.n - 1}:{spec.b}]" if nb else "1'b0"
    wxbase = f"wx[{spec.m - 1}:{spec.a}]" if mb else "1'b0"
    wybase = f"wy[{spec.n - 1}:{spec.b}]" if nb else "1'b0"
    L.append(f"  wire [{R - 1}:0] xbase_oh = "
             + (netlist._onehot_shift(R, xbase) if mb else "1'b1") + ";")
    L.append(f"  wire [{C - 1}:0] ybase_oh = "
             + (netlist._onehot_shift(C, ybase) if nb else "1'b1") + ";")
    L.append(f"  wire [{R - 1}:0] wxbase_oh = "
             + (netlist._onehot_shift(R, wxbase) if mb else "1'b1") + ";")
    L.append(f"  wire [{C - 1}:0] wybase_oh = "
             + (netlist._onehot_shift(C, wybase) if nb else "1'b1") + ";")
    xlow = f"xe[{spec.a - 1}:0]" if spec.a else "1'b0"
    ylow = f"ye[{spec.b - 1}:0]" if spec.b else "1'b0"
    wxlow = f"wx[{spec.a - 1}:0]" if spec.a else "1'b0"
    wylow = f"wy[{spec.b - 1}:0]" if spec.b else "1'b0"
    L.append("")
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            L.append(f"  wire [{P - 1}:0] lane_{p}_{q};")
            L.append(f"  {bank_mod} #(.P_SEL({p}), .Q_SEL({q})) u_bank_{p}_{q} "
                     f"(.clk(clk), .re(re), .we(we), .xbase_oh(xbase_oh),"
                     f" .ybase_oh(ybase_oh), .xlow({xlow}), .ylow({ylow}),"
                     f" .wxbase_oh(wxbase_oh), .wybase_oh(wybase_oh),"
                     f" .wxlow({wxlow}), .wylow({wylow}), .din(wdata),"
                     f" .lane(lane_{p}_{q}));")
    L.append("")
    _emit_pa_align(L, spec)

    aw = max(spec.a, 1)
    bw = max(spec.b, 1)
    L += [f"module {bank_mod} (clk, re, we, xbase_oh, ybase_oh, xlow, ylow,"
          " wxbase_oh, wybase_oh, wxlow, wylow, din, lane);",
          "  parameter P_SEL = 0;",
          "  parameter Q_SEL = 0;",
          "  input clk, re, we;",
          f"  input [{R - 1}:0] xbase_oh, wxbase_oh;",
          f"  input [{C - 1}:0] ybase_oh, wybase_oh;",
          f"  input [{aw - 1}:0] xlow, wxlow;",
          f"  input [{bw - 1}:0] ylow, wylow;",
          f"  input [{P - 1}:0] din;",
          f"  output [{P - 1}:0] lane;"]
    # local one-hot rotate: banks before the rotation point take the carry
    if R > 1:
        L.append("  wire cx = (P_SEL < xlow);")
        L.append(f"  wire [{R - 1}:0] rsel = cx ? "
                 f"{{xbase_oh[{R - 2}:0], xbase_oh[{R - 1}]}} : xbase_oh;")
        L.append(f"  wire [{R - 1}:0] wrsel = wxbase_oh;")
    else:
        L.append("  wire [0:0] rsel = xbase_oh;")
        L.append("  wire [0:0] wrsel = wxbase_oh;")
    if C > 1:
        L.append("  wire cy = (Q_SEL < ylow);")
        L.append(f"  wire [{C - 1}:0] csel = cy ? "
                 f"{{ybase_oh[{C - 2}:0], ybase_oh[{C - 1}]}} : ybase_oh;")
        L.append(f"  wire [{C - 1}:0] wcsel = wybase_oh;")
    else:
        L.append("  wire [0:0] csel = ybase_oh;")
        L.append("  wire [0:0] wcsel = wybase_oh;")
    L.append("  wire wmatch = we & (wxlow == P_SEL) & (wylow == Q_SEL);")
    L.append(f"  wire [{B - 1}:0] rwl, wwl;")
    for r in range(R):
        hi = (r + 1) * C - 1
        L.append(f"  assign rwl[{hi}:{r * C}] = {{{C}{{re & rsel[{r}]}}}} & csel;")
        L.append(f"  assign wwl[{hi}:{r * C}] = {{{C}{{wmatch & wrsel[{r}]}}}} & wcsel;")
    L += [f"  wire [{P - 1}:0] q;",
          f"  {ba_mod} u_ba (.clk(clk), .rwl(rwl), .wwl(wwl),"
          f" .wmask({{{P}{{1'b1}}}}), .din(din), .qout(q));",
          "  assign lane = q;",
          "endmodule", ""]
    L += netlist._ba_module_text(B, P, ba_mod)
    return "\n".join(L) + "\n"


def _emit_hdl_pa_tm(ir: netlist.NetlistIR) -> str:
    spec = _spec_from_meta(ir.meta)
    P = spec.pixel_bits
    B = spec.bank_words
    mb, nb = spec.m - spec.a, spec.n - spec.b
    bank_mod = f"{ir.name}_bank"
    ba_mod = f"ba_{B}x{P}"
    L = [f"// generated parallel-access memory (translate mode): {ir.name}"]
    _emit_pa_top_common(ir, L, spec)
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            L.append(f"  wire [{P - 1}:0] lane_{p}_{q};")
            L.append(f"  {bank_mod} #(.P_SEL({p}), .Q_SEL({q})) u_bank_{p}_{q} "
                     f"(.clk(clk), .re(re), .we(we), .x(xe), .y(ye),"
                     f" .wx(wx), .wy(wy), .din(wdata), .lane(lane_{p}_{q}));")
    L.append("")
    _emit_pa_align(L, spec)

    L += [f"module {bank_mod} (clk, re, we, x, y, wx, wy, din, lane);",
          "  parameter P_SEL = 0;",
          "  parameter Q_SEL = 0;",
          "  input clk, re, we;",
          f"  input [{spec.m - 1}:0] x, wx;",
          f"  input [{spec.n - 1}:0] y, wy;",
          f"  input [{P - 1}:0] din;",
          f"  output [{P - 1}:0] lane;"]
    xlow = f"x[{spec.a - 1}:0]" if spec.a else "1'b0"
    ylow = f"y[{spec.b - 1}:0]" if spec.b else "1'b0"
    wxlow = f"wx[{spec.a - 1}:0]" if spec.a else "1'b0"
    wylow = f"wy[{spec.b - 1}:0]" if spec.b else "1'b0"
    # binary translate: base plus carry, wrapping at the bank array edge
    row = (f"(x[{spec.m - 1}:{spec.a}] + (P_SEL < {xlow}))" if mb else "1'b0")
    col = (f"(y[{spec.n - 1}:{spec.b}] + (Q_SEL < {ylow}))" if nb else "1'b0")
    wrow = f"wx[{spec.m - 1}:{spec.a}]" if mb else "1'b0"
    wcol = f"wy[{spec.n - 1}:{spec.b}]" if nb else "1'b0"
    if mb:
        L.append(f"  wire [{mb - 1}:0] row_t = {row};")
    if nb:
        L.append(f"  wire [{nb - 1}:0] col_t = {col};")
    addr = ("{row_t, col_t}" if mb and nb else
            ("row_t" if mb else ("col_t" if nb else "1'b0")))
    waddr = (f"{{{wrow}, {wcol}}}" if mb and nb else
             (wrow if mb else (wcol if nb else "1'b0")))
    L.append(f"  wire [{max(mb + nb, 1) - 1}:0] taddr = {addr};")
    L.append(f"  wire [{max(mb + nb, 1) - 1}:0] twaddr = {waddr};")
    L.append(f"  wire wmatch = we & ({wxlow} == P_SEL) & ({wylow} == Q_SEL);")
    L.append(f"  wire [{B - 1}:0] rwl = re ? "
             + netlist._onehot_shift(B, "taddr") + f" : {B}'d0;")
    L.append(f"  wire [{B - 1}:0] wwl = wmatch ? "
             + netlist._onehot_shift(B, "twaddr") + f" : {B}'d0;")
    L += [f"  wire [{P - 1}:0] q;",
          f"  {ba_mod} u_ba (.clk(clk), .rwl(rwl), .wwl(wwl),"
          f" .wmask({{{P}{{1'b1}}}}), .din(din), .qout(q));",
          "  assign lane = q;",
          "endmodule", ""]
    L += netlist._ba_module_text(B, P, ba_mod)
    return "\n".join(L) + "\n"


def _spec_from_meta(meta: dict) -> PAWindowSpec:
    return PAWindowSpec(m=meta["m"], n=meta["n"], a=meta["a"], b=meta["b"],
                        pixel_bits=meta["pixel_bits"],
                        boundary=meta.get("boundary", "wrap"))


def emit_hdl_pa(ir: netlist.NetlistIR) -> str:
    if ir.meta.get("design") == "pa_sm":
        return _emit_hdl_pa_sm(ir)
    if ir.meta.get("design") == "pa_tm":
        return _emit_hdl_pa_tm(ir)
    raise PAError(f"not a parallel-access netlist: {ir.meta.get('design')!r}")
