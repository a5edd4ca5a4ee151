"""Parameterized floorplan for composed SRAMs.

Die organization: a decode strip runs up the left edge, a global mux/IO strip
runs along the bottom, and the R x C bank grid sits above/right of those.
Each bank stacks its K macros vertically with a local control row on top.
Synthesized periphery logic is folded into the bottom strip, inflated by the
target utilization.  All geometry is integer nanometers so the quick estimate
and the realized bounding box agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .baplus import Library


@dataclass(frozen=True)
class Rect:
    name: str
    kind: str  # macro | periph_region | power_rail | pin
    x: int
    y: int
    w: int
    h: int

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h


@dataclass
class Floorplan:
    die_w: int
    die_h: int
    placements: list = field(default_factory=list)
    ar_miss: bool = False

    @property
    def aspect_ratio(self) -> float:
        return self.die_h / self.die_w


def _grid_dims(cfg, lib: Library):
    """Common integer geometry pieces for a memory config."""
    tech = lib.tech
    m = lib[cfg.variant]
    macro_w = m.width_nm(tech)
    macro_h = m.height_nm(tech)
    gutter = tech.gutter_nm()
    periph_w = tech.pitches_nm(tech.periph_w_pitches)
    bank_ph = tech.tracks_nm(tech.bank_periph_h_tracks)
    global_ph = tech.tracks_nm(tech.global_periph_h_tracks)
    return macro_w, macro_h, gutter, periph_w, bank_ph, global_ph


def estimate_dimensions(cfg, lib: Library):
    """Die (width_nm, height_nm) for a config, before periphery logic."""
    macro_w, macro_h, gutter, periph_w, bank_ph, global_ph = _grid_dims(cfg, lib)
    w = cfg.C * (macro_w + gutter) + periph_w
    h = cfg.R * (cfg.K * macro_h + bank_ph) + global_ph
    return w, h


def realize(cfg, lib: Library, logic_area_um2: float = 0.0, *,
            ar_target: float | None = None, ar_tol: float = 0.0,
            transpose: bool = False) -> Floorplan:
    """Place macros, periphery strips, power rails and edge pins.

    logic_area_um2 is synthesized periphery (decoders/muxes) folded into the
    bottom strip at the configured utilization.  With logic_area_um2 == 0 the
    bounding box equals estimate_dimensions(cfg) exactly.  If an aspect-ratio
    target is given and the realized die misses it, the plan is returned with
    ar_miss set rather than raising.
    """
    tech = lib.tech
    # `not 0 <= x < inf` also rejects NaN, which no comparison would bind
    if not 0 <= logic_area_um2 < math.inf:
        raise ValueError(f"logic_area_um2 must be a finite number >= 0, "
                         f"got {logic_area_um2}")
    macro_w, macro_h, gutter, periph_w, bank_ph, global_ph = _grid_dims(cfg, lib)
    die_w, die_h = estimate_dimensions(cfg, lib)
    extra_h = 0
    if logic_area_um2 > 0:
        # inflate by utilization, spread across the die width
        placed_nm2 = round(tech.placed_logic_area(logic_area_um2 * 1e6))
        extra_h = -(-placed_nm2 // die_w)
    bottom_h = global_ph + extra_h
    die_h += extra_h

    rects = [
        Rect("decode_strip", "periph_region", 0, 0, periph_w, die_h),
        Rect("io_strip", "periph_region", periph_w, 0, die_w - periph_w, bottom_h),
    ]
    bank_pitch_h = cfg.K * macro_h + bank_ph
    for r in range(cfg.R):
        y0 = bottom_h + r * bank_pitch_h
        for c in range(cfg.C):
            x0 = periph_w + c * (macro_w + gutter)
            for k in range(cfg.K):
                rects.append(Rect(f"bank_{r}_{c}/ba_{k}", "macro",
                                  x0, y0 + k * macro_h, macro_w, macro_h))
            rects.append(Rect(f"bank_{r}_{c}/ctrl", "periph_region",
                              x0, y0 + cfg.K * macro_h, macro_w, bank_ph))

    rail_pitch = tech.tracks_nm(tech.rail_pitch_tracks)
    rail_h = max(1, tech.tracks_nm(1) // 2)
    # every rail-pitch multiple whose full height still fits on the die
    n_rails = (die_h - rail_h) // rail_pitch + 1
    for i in range(n_rails):
        rects.append(Rect(f"rail_{i}", "power_rail", 0, i * rail_pitch,
                          die_w, rail_h))

    # address/data pins hug the decode-strip edge (x = 0)
    _words, bits = cfg.dims(lib)
    abits = cfg.address_map(lib).port_width
    pin_names = ([f"raddr[{i}]" for i in range(abits)]
                 + [f"waddr[{i}]" for i in range(abits)]
                 + ["clk", "re", "we"]
                 + [f"wdata[{i}]" for i in range(bits)]
                 + [f"rdata[{i}]" for i in range(bits)])
    pin_w = tech.pitches_nm(1)
    pin_h = tech.tracks_nm(1)
    step = die_h / (len(pin_names) + 1)
    for i, pn in enumerate(pin_names):
        y = min(die_h - pin_h, max(0, round((i + 1) * step) - pin_h // 2))
        rects.append(Rect(f"pin/{pn}", "pin", 0, y, pin_w, pin_h))

    if transpose:
        rects = [Rect(r.name, r.kind, r.y, r.x, r.h, r.w) for r in rects]
        die_w, die_h = die_h, die_w

    fp = Floorplan(die_w, die_h, rects)
    if ar_target is not None:
        fp.ar_miss = misses_aspect_ratio(fp.aspect_ratio, ar_target, ar_tol)
    return fp


def misses_aspect_ratio(ar: float, target: float, tol: float) -> bool:
    """Whether aspect ratio `ar` lies outside `target` by more than the
    relative tolerance `tol`."""
    return abs(ar - target) > tol * target


def _overlapping_pairs(solid: list) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of rects in `solid` that overlap.

    Rects are half-open: a and b overlap when a.x < b.x2, b.x < a.x2,
    a.y < b.y2 and b.y < a.y2, so touching edges do not count.  Rects of
    positive extent go through a sweep over x, with removals before inserts
    at equal x (Bentley & Wood, IEEE TC 1980).  The active rects live in a
    binary tree over the compressed y coordinates.  A rect r being inserted
    meets an active rect a in one of two disjoint ways:
      * a.y <= r.y < a.y2: a's y-span was split into O(log n) canonical
        nodes, and one of them is an ancestor of r.y's leaf (stabbing);
      * r.y < a.y < r.y2: a starts inside r's y-span, found by descending
        only into subtrees where some active rect starts (range reporting).
    That costs O((n + k) log n) for n rects and k reported pairs.  Rects
    with a non-positive extent, already violations, are compared with every
    other rect instead.
    """
    pairs = []
    live = []
    for i, r in enumerate(solid):
        if r.w > 0 and r.h > 0:
            live.append(i)
        else:
            pairs.extend((min(i, j), max(i, j)) for j, b in enumerate(solid)
                         if j != i and (b.w > 0 and b.h > 0 or j > i)
                         and r.x < b.x2 and b.x < r.x2
                         and r.y < b.y2 and b.y < r.y2)
    if not live:
        return sorted(pairs)

    slot = {y: s for s, y in enumerate(sorted(
        {solid[i].y for i in live} | {solid[i].y2 for i in live}))}
    size = 1 << (len(slot) - 2).bit_length()   # leaves >= y slots
    cover: dict[int, set] = {}   # node -> active rects it canonically covers
    first: dict[int, set] = {}   # leaf -> active rects whose y starts there
    busy = bytearray(2 * size)   # node -> 1 if some active rect starts below

    def span_nodes(lo, hi):
        """The canonical nodes that cover leaves [lo, hi)."""
        nodes = []
        lo += size
        hi += size
        while lo < hi:
            if lo & 1:
                nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                nodes.append(hi)
            lo >>= 1
            hi >>= 1
        return nodes

    spans = {}                   # active rect -> (its leaf, its cover nodes)
    events = sorted([(solid[i].x2, 0, i) for i in live]
                    + [(solid[i].x, 1, i) for i in live])
    for _, insert, i in events:
        if insert:
            r = solid[i]
            lo, hi = slot[r.y], slot[r.y2]
            leaf = lo + size
            hits = []
            node = leaf
            while node:
                if node in cover:
                    hits.extend(cover[node])
                node >>= 1
            if lo + 1 < hi:
                stack = span_nodes(lo + 1, hi)
                while stack:
                    node = stack.pop()
                    if busy[node]:
                        if node >= size:
                            hits.extend(first[node])
                        else:
                            stack += (2 * node, 2 * node + 1)
            # rects become active in index order, so every hit j is < i
            pairs.extend((j, i) for j in hits)
            nodes = span_nodes(lo, hi)
            for node in nodes:
                cover.setdefault(node, set()).add(i)
            first.setdefault(leaf, set()).add(i)
            spans[i] = leaf, nodes
            node = leaf
            while node and not busy[node]:
                busy[node] = 1
                node >>= 1
        else:
            leaf, nodes = spans.pop(i)
            for node in nodes:
                cover[node].discard(i)
                if not cover[node]:
                    del cover[node]
            first[leaf].discard(i)
            if not first[leaf]:
                del first[leaf]
                busy[leaf] = 0
                node = leaf >> 1
                while node and not (busy[2 * node] or busy[2 * node + 1]):
                    busy[node] = 0
                    node >>= 1
    return sorted(pairs)


def check(fp: Floorplan) -> list[str]:
    """Containment for every rect, then overlap among macro/periph rects.

    Overlaps are found by a sweep-line over x with the active rects kept in
    a segment tree over y (see `_overlapping_pairs`), in O((n + k) log n)
    for n solid rects and k overlapping pairs.  They are reported in the
    order of the rects sorted by (x, y).  Pins and power rails are checked
    for containment only, never for overlap.
    """
    violations = []
    for r in fp.placements:
        if r.w <= 0 or r.h <= 0:
            violations.append(f"{r.name}: non-positive extent")
        if r.x < 0 or r.y < 0 or r.x2 > fp.die_w or r.y2 > fp.die_h:
            violations.append(f"{r.name}: outside die")
    solid = [r for r in fp.placements if r.kind in ("macro", "periph_region")]
    solid.sort(key=lambda r: (r.x, r.y))
    for i, j in _overlapping_pairs(solid):
        violations.append(f"overlap: {solid[i].name} / {solid[j].name}")
    return violations


def export_text(fp: Floorplan, path) -> None:
    """Line-oriented export: one `rect` per placement, die line first."""
    with open(path, "w") as fh:
        fh.write(f"die {fp.die_w} {fp.die_h} ar {fp.aspect_ratio:.6f}"
                 f"{' AR-MISS' if fp.ar_miss else ''}\n")
        for r in fp.placements:
            fh.write(f"rect {r.name} {r.kind} {r.x} {r.y} {r.w} {r.h}\n")
