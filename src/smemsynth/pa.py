"""Parallel window access over a 2^m x 2^n pixel surface.

A window of 2^a x 2^b pixels is fetched per cycle from 2^(a+b) banks.  Pixel
(x, y) lives in bank (x mod 2^a, y mod 2^b) at in-bank address
(x >> a, y >> b), so any aligned-or-not window touches every bank exactly
once; storage_map and lane_shifts are the one definition of this layout.
Two microarchitectures are generated:

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

import struct
from dataclasses import dataclass

from . import explorer, netlist
from .baplus import Library, TechParams, generate_variant, is_int, is_pow2

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
        for name in ("m", "n", "a", "b", "pixel_bits"):
            v = getattr(self, name)
            if not is_int(v):
                raise PAError(f"{name} must be an integer, got {v!r}")
        if not (0 <= self.a <= self.m):
            raise PAError(f"need 0 <= a <= m, got a={self.a}, m={self.m}")
        if not (0 <= self.b <= self.n):
            raise PAError(f"need 0 <= b <= n, got b={self.b}, n={self.n}")
        if self.m < 1 or self.n < 1:
            raise PAError("image must be at least 2x2")
        if not is_pow2(self.pixel_bits):
            # a bank macro is a power of two wide
            raise PAError(f"pixel_bits must be a power of two, got {self.pixel_bits}")
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
    def bank_map(self) -> explorer.AddressMap:
        """A bank's address split, as the one-macro SRAM of a tm bank."""
        return explorer.AddressMap.of(1, 1, self.bank_words, 1)

    @property
    def image_w(self) -> int:
        return 1 << self.m

    @property
    def image_h(self) -> int:
        return 1 << self.n


# the spec fields, as a netlist's meta records them
SPEC_KEYS = ("m", "n", "a", "b", "pixel_bits", "boundary")

# The budget of `smemsynth pa`, which verifies both designs at every window
# origin: its memory follows the origins and the rdata width, and its time
# the lanes read over all origins.  On a 2.1 GHz Xeon vCPU, specs at the
# limits took 1.4-3.7 s and peaked at 70 MiB or less (9,9,2,2 with 1-bit
# pixels, 9,9,0,0 with 1024-bit pixels); 10,10,1,1 took 5.5 s and 74 MiB.
MAX_ORIGINS_LOG2 = 18
MAX_RDATA_BITS = 1 << 10
MAX_LANE_READS = 1 << 22


def check_budget(spec: PAWindowSpec) -> None:
    """PAError unless `spec` is valid and within the budget above.

    The origins are bounded by their exponent first, so a spec far over
    the budget is rejected without building a number of its size.
    """
    spec.validate()
    if spec.m + spec.n > MAX_ORIGINS_LOG2:
        raise PAError(f"a {spec.m},{spec.n} image has 2^{spec.m + spec.n} "
                      f"window origins; the budget is 2^{MAX_ORIGINS_LOG2}")
    rdata = spec.lanes * spec.pixel_bits
    if rdata > MAX_RDATA_BITS:
        raise PAError(f"rdata is {rdata} bits ({spec.lanes} lanes x "
                      f"{spec.pixel_bits}-bit pixels); the budget is "
                      f"{MAX_RDATA_BITS}")
    reads = spec.image_w * spec.image_h * spec.lanes
    if reads > MAX_LANE_READS:
        raise PAError(f"verifying reads {reads} lanes ({spec.lanes} at each "
                      f"of {spec.image_w * spec.image_h} origins); the "
                      f"budget is {MAX_LANE_READS}")


def storage_map(spec: PAWindowSpec):
    """(xs, ys, bank, row_addr): where the window memory stores each pixel.

    xs[x] = (p, row) and ys[y] = (q, col): pixel (x, y) is held by bank
    (p, q) = (x mod 2^a, y mod 2^b) at row x >> a, column y >> b.  That
    bank is numbered bank[p][q] = p * 2^b + q, and the pixel's address in
    it is row_addr[row] + col = row * 2^(n-b) + col.
    """
    bx, by = spec.banks_x, spec.banks_y
    return ([(x % bx, x // bx) for x in range(spec.image_w)],
            [(y % by, y // by) for y in range(spec.image_h)],
            [[p * by + q for q in range(by)] for p in range(bx)],
            [row * spec.cols for row in range(spec.rows)])


def lane_shifts(spec: PAWindowSpec) -> list:
    """The aligner: shifts[rx][ry][bank] is the rdata bit at which bank
    (p, q)'s lane lands under rotation (rx, ry).  That is its window slot
    ((p - rx) mod 2^a) * 2^b + (q - ry) mod 2^b times pixel_bits, so slot
    dx * 2^b + dy holds the pixel at window offset (dx, dy)."""
    bx, by = spec.banks_x, spec.banks_y
    return [[[((p - rx) % bx * by + (q - ry) % by) * spec.pixel_bits
              for p in range(bx) for q in range(by)]   # in bank order
             for ry in range(by)] for rx in range(bx)]


def axis_plans(spec: PAWindowSpec):
    """(xs, ys): the access plan of every window corner on the surface.

    xs[x] = (x0, rx, rows) and ys[y] = (y0, ry, cols).  x0 is the
    effective corner (clamped so the window stays on the surface, else x
    itself), rx the rotation (the bank of pixel x0, by storage_map) and
    rows[p] the row issued to the banks with x-index p; likewise along y.
    Banks that precede the rotation point take the next row (carry),
    wrapping at the edge of the bank.  A plan's rows depend only on x and
    its columns only on y, so each axis is tabulated once per spec.
    """
    clamp = spec.boundary == "clamp"

    def axis(cells, banks):
        side = len(cells)
        plans = []
        for c in range(side):
            c0 = min(c, side - banks) if clamp else c
            r, base = cells[c0]
            plans.append((c0, r, tuple((base + (p < r)) % (side // banks)
                                       for p in range(banks))))
        return plans
    xcells, ycells = storage_map(spec)[:2]
    return axis(xcells, spec.banks_x), axis(ycells, spec.banks_y)


def window_tables(spec: PAWindowSpec):
    """(xs, ys, reads, wxs, wys, lanes, blank): axis_plans, storage_map and
    lane_shifts for a window memory held as bank_words packed words.  Word
    w holds word w of every bank: bank k's pixel at bits k * pixel_bits,
    and above all pixels a flag per bank, bank k's set while its pixel is
    unwritten.  Every word starts as `blank`: all ones, every pixel poison
    and unwritten.

    A window reads xs[x] = (x0, gx, rws) and ys[y] = (y0, gy, cws): x0 and
    y0 are its effective corner, rws the rows (as row_addr offsets) and cws
    the columns that its plans issue, one or two each.  reads[gx + gy] =
    (bias, groups) aligns it: each (i, j, mask, flags, up) of groups takes
    the pixels `mask` of word rws[i] + cws[j], whose banks' flags are
    `flags`, shifted `up` bits up; the window is their OR shifted `bias`
    bits down, each pixel in its lane_shifts slot.  A group holds the
    banks of one address pair on one side of the rotation, at most four,
    when lane_shifts moves them all by one shift, as the sound aligner
    does; else the banks of one address pair and shift.

    Pixel (x, y) is bank kx + ky at word i + j, for wxs[x] = (kx, i) and
    wys[y] = (ky, j); lanes[k] = (up, keep, flag) writes it: bank k's pixel
    goes `up` bits up, `keep` clears it and its flag, `flag` is its flag.

    PAError when an axis plan sends one window's banks more than two
    addresses: an increment cell gives its bank the base or the next.
    """
    xcells, ycells, bank, row_addr = storage_map(spec)
    P, L = spec.pixel_bits, spec.lanes
    blank = (1 << L * (P + 1)) - 1
    xplans, yplans = axis_plans(spec)

    def axis(name, plans, offsets):
        # the entries, and each distinct (rotation, address index per bank)
        entries, patterns = [], {}
        for c, (c0, r, issued) in enumerate(plans):
            addrs = tuple(dict.fromkeys(issued))
            if len(addrs) > 2:
                raise PAError(f"the {name} plan of corner {c} sends its banks "
                              f"{len(addrs)} addresses; an increment gives two")
            g = patterns.setdefault((r, tuple(map(addrs.index, issued))), len(patterns))
            entries.append((c0, g, tuple(offsets[a] for a in addrs)))
        return entries, list(patterns)
    xs, xpatterns = axis("x", xplans, row_addr)
    ys, ypatterns = axis("y", yplans, range(spec.cols))
    shifts = lane_shifts(spec)
    lanes = range(L)
    base = [k * P for k in lanes]
    # bank k's pixel bits, its flag, and a 1 in its 32-bit field of a
    # list of shifts packed into one int
    masks = [(((1 << P) - 1) << base[k], 1 << L * P + k, 1 << 32 * k) for k in lanes]

    def packed(values):
        return int.from_bytes(struct.pack(f"<{L}I", *values), "little")

    def total(banks):
        # the pixel bits, the flags and the packed ones of `banks`
        return [sum(kind) for kind in zip(*map(masks.__getitem__, banks))]

    def classes(patterns, lines):
        # per pattern, each class of bank lines that take one address and
        # lie on one side of the rotation: (address index, first line, total)
        totals = [total(line) for line in lines]
        out = []
        for r, sel in patterns:
            keys = [(s, line < r) for line, s in enumerate(sel)]
            out.append([(key[0], keys.index(key), [sum(kind) for kind in zip(
                *(t for t, at in zip(totals, keys) if at == key))])
                for key in dict.fromkeys(keys)])
        return out
    xparts = classes(xpatterns, bank)
    yparts = classes(ypatterns, list(zip(*bank)))
    packed_base = packed(base)
    reads = []
    for (rx, xsel), xclasses in zip(xpatterns, xparts):
        for (ry, ysel), yclasses in zip(ypatterns, yparts):
            rot = shifts[rx][ry]
            # each pair of classes' banks, shifted as its first bank is ...
            groups, ones = [], []
            for i, p, (xm, xf, xo) in xclasses:
                for j, q, (ym, yf, yo) in yclasses:
                    k = bank[p][q]
                    groups.append((i, j, xm & ym, xf & yf, rot[k] - base[k]))
                    ones.append(xo & yo)
            # ... when every bank of it is: shifts and their differences
            # stay far below 2^32, so the packed sums agree only if each
            # bank's field does
            if packed(rot) != packed_base + sum(g[4] * o for g, o in zip(groups, ones)):
                # else each bank grouped by its address pair and its shift
                by_key = {}
                for p, i in enumerate(xsel):
                    for q, j in enumerate(ysel):
                        k = bank[p][q]
                        by_key.setdefault((i, j, rot[k] - base[k]), []).append(k)
                groups = [(i, j, *total(ks)[:2], up) for (i, j, up), ks in by_key.items()]
            bias = max(0, -min(g[4] for g in groups))
            reads.append((bias, tuple((i, j, mask, flags, up + bias)
                                      for i, j, mask, flags, up in groups)))
    ny = len(ypatterns)
    return ([(x0, g * ny, rws) for x0, g, rws in xs], ys, reads,
            [(bank[p][0], row_addr[row]) for p, row in xcells],
            [(bank[0][q], col) for q, col in ycells],
            [(base[k], blank ^ mask ^ flag, flag) for k, (mask, flag, _) in enumerate(masks)],
            blank)


def window_planner(spec: PAWindowSpec, xs: list, ys: list):
    """plan(x, y) -> (xs[x], ys[y]) of per-axis corner tables, as
    axis_plans or window_tables give them, for any window corner.

    A corner off the surface wraps toroidally, or clamps when the spec
    clamps, onto the corner whose plans it takes.
    """
    xm, ym = spec.image_w - 1, spec.image_h - 1
    if spec.boundary != "clamp":
        return lambda x, y: (xs[x & xm], ys[y & ym])

    def plan(x, y):
        return (xs[x if 0 <= x <= xm else (0 if x < 0 else xm)],
                ys[y if 0 <= y <= ym else (0 if y < 0 else ym)])
    return plan


def window_cover(spec: PAWindowSpec):
    """(xs, ys): the pixels a window covers, read straight from the spec.

    xs[x] lists, in window order, the x coordinates of the 2^a pixels that
    a window with its corner at x spans; ys[y] lists the 2^b y coordinates
    for a corner at y.  Both cover every corner on the surface.  Wrap takes
    each coordinate modulo the side; clamp first moves the corner back
    until the window fits.  A window is the product of its two axes, so
    each axis is tabulated once per spec.
    """
    spec.validate()
    clamp = spec.boundary == "clamp"

    def axis(side, win):
        last = side - win if clamp else side - 1   # clamp moves later corners here
        return [tuple((min(c, last) + d) % side for d in range(win))
                for c in range(side)]
    return axis(spec.image_w, spec.banks_x), axis(spec.image_h, spec.banks_y)


def check_plans(spec: PAWindowSpec) -> dict:
    """Check axis_plans against window_cover and storage_map.

    For every corner on the surface, the plan must start at the covered
    window's first pixel and its bank, and must send each bank the row
    (along x) or column (along y) of the covered pixel it holds.  Each
    wrong corner and each wrong address is one mismatch.  Each axis of a
    corner whose pixels share a bank is one conflict.  A sound spec
    reports 0 and 0.

    A corner's plan is the pair of its axes' entries, so each entry is
    checked once and the counts over all W x H corners follow: a corner
    is wrong when either axis starts wrong, and each wrong address on an
    axis recurs once per corner along the other.
    """
    def check(cover, cells, plans):
        # (entries that start wrong, wrong addresses, entries with a conflict)
        starts = addrs = conflicts = 0
        for c, (c0, r, issued) in zip(cover, plans, strict=True):
            starts += (c0, r) != (c[0], cells[c[0]][0])
            addrs += sum(issued[bank] != addr
                         for bank, addr in (cells[p] for p in c))
            conflicts += len({cells[p][0] for p in c}) != len(c)
        return starts, addrs, conflicts
    (sx, ax, cx), (sy, ay, cy) = map(check, window_cover(spec),
                                     storage_map(spec)[:2], axis_plans(spec))
    W, H = spec.image_w, spec.image_h
    return {"m": spec.m, "n": spec.n, "a": spec.a, "b": spec.b,
            "boundary": spec.boundary, "origins": W * H,
            "mismatches": sx * H + sy * W - sx * sy + ax * H + ay * W,
            "conflicts": cx * H + cy * W}


# -- analytic PPA comparison ------------------------------------------------

def _bank_macro(spec: PAWindowSpec, tech: TechParams):
    """One tall macro holds a bank: every bank word is a row."""
    return generate_variant(spec.bank_words, spec.pixel_bits, tech,
                            b_bounds=None, w_bounds=None)


def _storage_dims_nm(spec: PAWindowSpec, tech: TechParams):
    macro = _bank_macro(spec, tech)
    w = spec.lanes * (macro.width_nm(tech) + tech.gutter_nm())
    h = macro.height_nm(tech)
    return macro, w, h


@dataclass(frozen=True)
class PAComparison:
    sm: explorer.PPAEstimate
    tm: explorer.PPAEstimate

    @property
    def area_ratio(self) -> float:
        return self.sm.area_um2 / self.tm.area_um2


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

    def dec_area(bits: int) -> float:
        return tech.a_dec0_um2 + tech.a_dec1_um2 * (1 << bits)

    inc_um2 = tech.a_inc_um2 * (mb + nb)
    align_um2 = tech.a_align_um2 * banks * spec.pixel_bits
    logic = {
        "sm": dec_area(mb) + dec_area(nb) + banks * inc_um2 + align_um2,
        "tm": banks * dec_area(mb + nb) + banks * inc_um2 + align_um2,
    }
    align_ps = tech.t_mux_ps(spec.a + spec.b)
    t = {
        "sm": tech.t_dec_ps(max(mb, nb) + 1) + macro.t_access_ps + align_ps,
        "tm": tech.t_dec_ps(mb + nb + 2) + macro.t_access_ps + align_ps,
    }
    shared_e = (banks * macro.e_read_fj + banks * tech.e_inc_fj
                + tech.e_wire_fj(w_nm, h_nm))
    e = {
        "sm": (tech.e_dec_fj(mb) + tech.e_dec_fj(nb)) + shared_e,
        "tm": banks * tech.e_dec_fj(mb + nb) + shared_e,
    }
    out = {}
    for mode in ("sm", "tm"):
        placed_logic = tech.placed_logic_area(logic[mode])
        area = storage_um2 + placed_logic
        p_leak = banks * macro.p_leak_nw + tech.p_leak_logic_nw_um2 * placed_logic
        out[mode] = explorer.PPAEstimate(
            area_um2=area, t_cycle_ps=t[mode], e_op_fj=e[mode],
            p_leak_nw=p_leak).check_finite(PAError, f"{mode} estimate")
    return PAComparison(out["sm"], out["tm"])


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
        ir.connect("rot_q", reg.name, "q")
    ir.add_priced_cell("align", "pa_align", tech, lanes=spec.lanes,
                       pixel_bits=spec.pixel_bits, a=spec.a, b=spec.b)
    if spec.a + spec.b:
        ir.connect("rot_q", "align", "rot")
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            ir.connect(f"bank_{p}_{q}/lane", "align", f"lane_{p}_{q}")
    ir.connect("rdata", "align", "out")


def generate_pa(spec: PAWindowSpec, mode: str, tech: TechParams | None = None) -> netlist.NetlistIR:
    """Window-memory netlist in select ("sm") or translate ("tm") mode.

    Both modes share the ports, the bank macro, the rotation register and
    the alignment network.  The mode builds only what turns the window
    corner into each bank's wordlines.
    """
    if mode not in ("sm", "tm"):
        raise PAError(f"unknown parallel-access mode {mode!r}")
    spec.validate()
    tech = tech or TechParams()
    macro, w_nm, h_nm = _storage_dims_nm(spec, tech)
    est = getattr(compare_pa_ppa(spec, tech), mode)

    ir = netlist.NetlistIR(
        f"pa_{mode}_m{spec.m}n{spec.n}a{spec.a}b{spec.b}",
        meta={"design": f"pa_{mode}", "m": spec.m, "n": spec.n, "a": spec.a,
              "b": spec.b, "pixel_bits": spec.pixel_bits,
              "boundary": spec.boundary, "lanes": spec.lanes,
              "bank_words": spec.bank_words, "variant": macro.name,
              "t_cycle_ps": est.t_cycle_ps, "p_leak_nw": est.p_leak_nw,
              "e_wire_op_fj": round(tech.e_wire_fj(w_nm, h_nm), 6)})
    _pa_ports(ir, spec)
    add_bank = (_sm_banks if mode == "sm" else _tm_banks)(ir, spec, tech, macro)
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            add_bank(f"bank_{p}_{q}", p, q)
    _add_rot_and_align(ir, spec, tech)
    return ir


def _sm_banks(ir: netlist.NetlistIR, spec: PAWindowSpec, tech: TechParams, macro):
    """Select mode: add the shared base decoders, return the bank builder.

    Each bank rotates the base one-hot selects by its carry and ANDs row
    and column selects at the divided wordline gate of its slot.
    """
    axes = (("x", spec.m, spec.a, spec.rows, "rsel"),
            ("y", spec.n, spec.b, spec.cols, "csel"))
    for axis, in_bits, low_bits, base, _ in axes:
        bits = in_bits - low_bits
        dec = ir.add_priced_cell(f"{axis}dec", "decoder", tech, in_bits=in_bits,
                                 stages=bits, mux_bits=0, ports="rw", axis=axis,
                                 boundary=spec.boundary)
        ir.connect(axis, dec.name, axis)
        ir.connect(f"w{axis}", dec.name, f"w{axis}")
        ir.connect("re", dec.name, "re")
        ir.connect("we", dec.name, "we")
        ir.add_net(f"{axis}base_oh", base)
        ir.add_net(f"w{axis}base_oh", base)
        ir.connect(f"{axis}base_oh", dec.name, "base_oh")
        ir.connect(f"w{axis}base_oh", dec.name, "wbase_oh")

    # the wordline-gate selects that every bank shares
    shared = [(n, n) for n in ("re", "wxbase_oh", "wybase_oh", "wx", "wy", "we")]

    def add_bank(bank: str, p: int, q: int):
        selects = []
        for (axis, _, low_bits, width, sel_net), sel in zip(axes, (p, q)):
            inc = ir.add_priced_cell(f"{bank}/inc{axis}", "pa_increment", tech,
                                     axis=axis, sel=sel, low_bits=low_bits,
                                     boundary=spec.boundary)
            ir.connect(f"{axis}base_oh", inc.name, "base_oh")
            ir.connect(axis, inc.name, axis)
            ir.add_net(f"{bank}/{sel_net}", width)
            ir.connect(f"{bank}/{sel_net}", inc.name, "sel_oh")
            selects.append((f"{bank}/{sel_net}", sel_net))

        tri = netlist.add_slot(ir, bank, "", macro, 0, selects + shared, None,
                               mode="divided", p=p, q=q)
        ir.add_net(f"{bank}/lane", spec.pixel_bits)
        ir.connect(f"{bank}/lane", tri, "out")
    return add_bank


def _tm_banks(ir: netlist.NetlistIR, spec: PAWindowSpec, tech: TechParams, macro):
    """Translate mode: return the bank builder.

    Each bank gets a binary translator and a regular single-macro memory
    grafted in under the bank scope, so every bank carries its own
    full-depth decode tree.
    """
    abits = spec.bank_map.port_width
    sub = netlist.generate_sram(explorer.MemoryConfig(macro.name, 1, 1, 1, 1),
                                Library([macro], tech))

    def add_bank(bank: str, p: int, q: int):
        tr = ir.add_priced_cell(f"{bank}/translate", "pa_increment", tech,
                                axis="xy", mode="translate", sel_x=p, sel_y=q,
                                a=spec.a, b=spec.b, boundary=spec.boundary)
        for pin in ("x", "y", "wx", "wy", "we"):
            ir.connect(pin, tr.name, pin)
        ir.add_net(f"{bank}/taddr", abits)
        ir.add_net(f"{bank}/twaddr", abits)
        ir.add_net(f"{bank}/twe", 1)
        ir.connect(f"{bank}/taddr", tr.name, "taddr")
        ir.connect(f"{bank}/twaddr", tr.name, "twaddr")
        ir.connect(f"{bank}/twe", tr.name, "twe")
        ir.add_net(f"{bank}/lane", spec.pixel_bits)
        _graft(ir, sub, f"{bank}/sram",
               {"clk": "clk", "raddr": f"{bank}/taddr",
                "waddr": f"{bank}/twaddr", "re": "re",
                "we": f"{bank}/twe", "wdata": "wdata",
                "rdata": f"{bank}/lane"})
    return add_bank


def _graft(ir: netlist.NetlistIR, sub: netlist.NetlistIR, prefix: str,
           port_map: dict) -> None:
    """Splice `sub` into `ir` under `prefix`, rewiring its ports via port_map."""
    def rename(net: str) -> str:
        return port_map[net] if net in port_map else f"{prefix}/{net}"

    for cell in sub.cells.values():
        ir.add_cell(f"{prefix}/{cell.name}", cell.kind, **cell.params)
    for net in sub.nets.values():
        if net.name not in port_map:
            ir.add_net(f"{prefix}/{net.name}", net.width)
    for net in sub.nets.values():
        tgt = rename(net.name)
        # a grafted output port keeps its driver and an input its sinks,
        # both now on the mapped top-level net
        for cell, pin in net.drivers + net.sinks:
            ir.connect(tgt, f"{prefix}/{cell}", pin)


# -- Verilog-2001 emission ---------------------------------------------------

def _fields(spec: PAWindowSpec, sig: str):
    """(bank, row): the bit fields of coordinate `sig` (x, xe or wx; y, ye
    or wy) that pick its bank and row (or column) in storage_map's layout.
    A bank field with no bits is 1'b0, bank 0; an empty row field is ""."""
    bits, low = (spec.m, spec.a) if "x" in sig else (spec.n, spec.b)
    return (f"{sig}[{low - 1}:0]" if low else "1'b0",
            f"{sig}[{bits - 1}:{low}]" if bits > low else "")


def _cat(fields: list) -> str:
    """Concatenation of the non-empty fields; 1'b0 when there are none."""
    fields = [f for f in fields if f]
    if len(fields) > 1:
        return f"{{{', '.join(fields)}}}"
    return fields[0] if fields else "1'b0"


def _emit_pa_align(L: list, spec: PAWindowSpec):
    P = spec.pixel_bits
    lanes = spec.lanes
    if spec.a + spec.b:
        L.append(f"  reg [{spec.a + spec.b - 1}:0] rot_q;")
        # the corner's bank fields, of each axis with more than one bank
        cat = _cat([_fields(spec, sig)[0]
                    for sig, low in (("xe", spec.a), ("ye", spec.b)) if low])
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


def _hdl_sm(spec: PAWindowSpec):
    """Select mode: shared one-hot base decode; each bank rotates it."""
    R, C = spec.rows, spec.cols
    decode, ports = [], []
    for pre, sigs in (("", ("xe", "ye")), ("w", ("wx", "wy"))):
        fields = [_fields(spec, sig) for sig in sigs]
        for axis, width, (_, row) in zip("xy", (R, C), fields):
            onehot = netlist._onehot_shift(width, row) if row else "1'b1"
            decode.append(f"  wire [{width - 1}:0] {pre}{axis}base_oh = {onehot};")
            ports.append((f"{pre}{axis}base_oh",) * 2)
        ports += [(f"{pre}{axis}low", bank) for axis, (bank, _) in zip("xy", fields)]
    decode.append("")
    inputs = [(R, "xbase_oh, wxbase_oh"), (C, "ybase_oh, wybase_oh"),
              (max(spec.a, 1), "xlow, wxlow"), (max(spec.b, 1), "ylow, wylow")]
    # local one-hot rotate: banks before the rotation point take the carry
    body = []
    for axis, sel, par, width in (("x", "r", "P_SEL", R), ("y", "c", "Q_SEL", C)):
        rot = f"{axis}base_oh"
        if width > 1:
            body.append(f"  wire c{axis} = ({par} < {axis}low);")
            rot = (f"c{axis} ? {{{axis}base_oh[{width - 2}:0], "
                   f"{axis}base_oh[{width - 1}]}} : {axis}base_oh")
        body += [f"  wire [{width - 1}:0] {sel}sel = {rot};",
                 f"  wire [{width - 1}:0] w{sel}sel = w{axis}base_oh;"]
    body += ["  wire wmatch = we & (wxlow == P_SEL) & (wylow == Q_SEL);",
             f"  wire [{spec.bank_words - 1}:0] rwl, wwl;"]
    for r in range(R):
        hi = (r + 1) * C - 1
        body.append(f"  assign rwl[{hi}:{r * C}] = {{{C}{{re & rsel[{r}]}}}} & csel;")
        body.append(f"  assign wwl[{hi}:{r * C}] = {{{C}{{wmatch & wrsel[{r}]}}}} & wcsel;")
    return "select", decode, ports, inputs, body


def _hdl_tm(spec: PAWindowSpec):
    """Translate mode: each bank translates the corner to a binary address."""
    B = spec.bank_words
    ports = [("x", "xe"), ("y", "ye"), ("wx", "wx"), ("wy", "wy")]
    inputs = [(spec.m, "x, wx"), (spec.n, "y, wy")]
    # binary translate: base plus carry, wrapping at the bank array edge
    body, addr = [], []
    for name, sig, width, par in (("row_t", "x", spec.m - spec.a, "P_SEL"),
                                  ("col_t", "y", spec.n - spec.b, "Q_SEL")):
        bank, row = _fields(spec, sig)
        if row:
            body.append(f"  wire [{width - 1}:0] {name} = ({row} + ({par} < {bank}));")
            addr.append(name)
    (wxlow, wxrow), (wylow, wyrow) = _fields(spec, "wx"), _fields(spec, "wy")
    abits = spec.bank_map.port_width
    body += [f"  wire [{abits - 1}:0] taddr = {_cat(addr)};",
             f"  wire [{abits - 1}:0] twaddr = {_cat([wxrow, wyrow])};",
             f"  wire wmatch = we & ({wxlow} == P_SEL) & ({wylow} == Q_SEL);",
             f"  wire [{B - 1}:0] rwl = re ? "
             + netlist._onehot_shift(B, "taddr") + f" : {B}'d0;",
             f"  wire [{B - 1}:0] wwl = wmatch ? "
             + netlist._onehot_shift(B, "twaddr") + f" : {B}'d0;"]
    return "translate", [], ports, inputs, body


def _spec_from_meta(meta: dict) -> PAWindowSpec:
    """The window spec a netlist's meta records, checked."""
    missing = [k for k in SPEC_KEYS if k not in meta]
    if missing:
        raise PAError(f"netlist meta lacks {', '.join(missing)}")
    spec = PAWindowSpec(**{k: meta[k] for k in SPEC_KEYS})
    try:
        spec.validate()
    except PAError as e:
        raise PAError(f"netlist meta: {e}") from None
    return spec


def emit_hdl_pa(ir: netlist.NetlistIR) -> str:
    """Verilog-2001 text: the top, its bank module and the BA+ leaf.

    The top clamps or passes the window corner, instantiates one bank per
    lane and aligns the lanes by the registered rotation.  The mode writes
    only its top-level decode, the bank ports and the bank body.
    """
    design = ir.meta.get("design")
    if design not in ("pa_sm", "pa_tm"):
        raise PAError(f"not a parallel-access netlist: {design!r}")
    spec = _spec_from_meta(ir.meta)
    P, B = spec.pixel_bits, spec.bank_words
    bank_mod = f"{ir.name}_bank"
    ba_mod = f"ba_{B}x{P}"
    title, decode, ports, inputs, body = (_hdl_sm if design == "pa_sm" else _hdl_tm)(spec)
    L = [f"// generated parallel-access memory ({title} mode): {ir.name}",
         f"module {ir.name} (clk, x, y, re, wx, wy, we, wdata, rdata);",
         "  input clk, re, we;",
         f"  input [{spec.m - 1}:0] x, wx;",
         f"  input [{spec.n - 1}:0] y, wy;",
         f"  input [{P - 1}:0] wdata;",
         f"  output [{spec.lanes * P - 1}:0] rdata;", ""]
    for sig, bits, vmax in (("x", spec.m, spec.image_w - spec.banks_x),
                            ("y", spec.n, spec.image_h - spec.banks_y)):
        eff = (f"({sig} > {bits}'d{vmax}) ? {bits}'d{vmax} : {sig}"
               if spec.boundary == "clamp" else sig)
        L.append(f"  wire [{bits - 1}:0] {sig}e = {eff};")
    L += ["", *decode]
    conns = "".join(f" .{port}({sig})," for port, sig in ports)
    for p in range(spec.banks_x):
        for q in range(spec.banks_y):
            L.append(f"  wire [{P - 1}:0] lane_{p}_{q};")
            L.append(f"  {bank_mod} #(.P_SEL({p}), .Q_SEL({q})) u_bank_{p}_{q} "
                     f"(.clk(clk), .re(re), .we(we),{conns}"
                     f" .din(wdata), .lane(lane_{p}_{q}));")
    L.append("")
    _emit_pa_align(L, spec)

    L += [f"module {bank_mod} (clk, re, we, "
          f"{', '.join(port for port, _ in ports)}, din, lane);",
          "  parameter P_SEL = 0;",
          "  parameter Q_SEL = 0;",
          "  input clk, re, we;",
          *(f"  input [{width - 1}:0] {names};" for width, names in inputs),
          f"  input [{P - 1}:0] din;",
          f"  output [{P - 1}:0] lane;",
          *body,
          f"  wire [{P - 1}:0] q;",
          f"  {ba_mod} u_ba (.clk(clk), .rwl(rwl), .wwl(wwl),"
          f" .wmask({{{P}{{1'b1}}}}), .din(din), .qout(q));",
          "  assign lane = q;",
          "endmodule", ""]
    L += netlist._ba_module_text(B, P, ba_mod)
    return "\n".join(L) + "\n"
