"""Leaf-cell efficiency metrics and pattern analyses on gridded layouts.

A cell is `track_count` routing tracks tall and `width_pitches` poly pitches
wide.  Shapes are 1-D segments on that grid: a horizontal shape runs along a
track index with its extent in pitch units; a vertical shape runs along a
pitch index with its extent in track units.  Fin/gate utilization comes in
as declared counts (the way layout tables report them), the shape list
feeds the restriction checker and the construct counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .baplus import undecodable_line

RESTRICTION_CLASSES = ("pure_grating_1d", "structured_1d", "compound_2d")


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class Shape:
    layer: str
    direction: str  # "H" or "V"
    index: float    # track index for H, pitch index for V
    start: float
    end: float


@dataclass
class GridLayout:
    name: str
    track_count: int
    width_pitches: int
    shapes: list = field(default_factory=list)
    layer_classes: dict = field(default_factory=dict)   # layer -> class
    layer_dirs: dict = field(default_factory=dict)      # declared direction
    active_fins: int = 0
    total_fins: int = 0
    active_poly: int = 0
    total_poly: int = 0
    power_rail_tracks: int = 0

    def validate(self) -> None:
        if self.track_count < 1 or self.width_pitches < 1:
            raise LayoutError(f"{self.name}: cell must be at least 1x1")
        if self.active_fins > self.total_fins:
            raise LayoutError(f"{self.name}: more active fins than fins")
        if self.active_poly > self.total_poly:
            raise LayoutError(f"{self.name}: more active gates than pitches")
        if not 0 <= self.power_rail_tracks <= self.track_count:
            raise LayoutError(f"{self.name}: rail count outside track range")
        for i, s in enumerate(self.shapes):
            if s.direction not in ("H", "V"):
                raise LayoutError(f"{self.name}: shape {i} direction {s.direction!r}")
            if s.layer not in self.layer_classes:
                raise LayoutError(f"{self.name}: shape {i} on undeclared layer {s.layer}")
            # `not a < b` also rejects a NaN start or end, which no comparison binds
            if not s.start < s.end:
                raise LayoutError(f"{self.name}: shape {i} has an empty or NaN extent")
            along = self.width_pitches if s.direction == "H" else self.track_count
            across = self.track_count if s.direction == "H" else self.width_pitches
            if s.start < 0 or s.end > along or not 0 <= s.index < across:
                raise LayoutError(f"{self.name}: shape {i} outside cell bounds")
        for layer, cls in self.layer_classes.items():
            if cls not in RESTRICTION_CLASSES:
                raise LayoutError(f"{self.name}: layer {layer} class {cls!r}")

    def layer_shapes(self, layer: str):
        return [s for s in self.shapes if s.layer == layer]


def _parse_ratio(tok: str):
    a, _, t = tok.partition("/")
    return int(a), int(t)


def _num(tok: str):
    f = float(tok)
    return int(f) if f.is_integer() else f


def load_cell(path) -> GridLayout:
    """Parse the line-oriented cell fixture format; see the module tests."""
    lay = GridLayout(name=Path(path).stem, track_count=1, width_pitches=1)
    saw_meta = False
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                toks = line.split()
                try:
                    if toks[0] == "meta":
                        saw_meta = True
                        for tok in toks[1:]:
                            k, _, v = tok.partition("=")
                            if k == "tracks":
                                lay.track_count = int(v)
                            elif k == "pitches":
                                lay.width_pitches = int(v)
                            elif k == "fins":
                                lay.active_fins, lay.total_fins = _parse_ratio(v)
                            elif k == "poly":
                                lay.active_poly, lay.total_poly = _parse_ratio(v)
                            elif k == "rails":
                                lay.power_rail_tracks = int(v)
                            else:
                                raise LayoutError(f"unknown meta key {k!r}")
                    elif toks[0] == "layer":
                        lay.layer_classes[toks[1]] = toks[2]
                        if len(toks) > 3:
                            if toks[3] not in ("H", "V"):
                                raise LayoutError(f"layer {toks[1]} direction "
                                                  f"{toks[3]!r} is not H or V")
                            lay.layer_dirs[toks[1]] = toks[3]
                        if len(toks) > 4:
                            raise LayoutError(f"extra token {toks[4]!r}")
                    elif toks[0] == "shape":
                        lay.shapes.append(Shape(toks[1], toks[2], _num(toks[3]),
                                                _num(toks[4]), _num(toks[5])))
                        if len(toks) > 6:
                            raise LayoutError(f"extra token {toks[6]!r}")
                    else:
                        raise LayoutError(f"unknown directive {toks[0]!r}")
                except (IndexError, ValueError) as e:
                    raise LayoutError(f"{path}:{lineno}: {e}") from None
        except UnicodeDecodeError as e:
            raise LayoutError(undecodable_line(path, e)) from None
    if not saw_meta:
        raise LayoutError(f"{path}: missing meta line")
    lay.validate()
    return lay


# -- efficiency metrics -------------------------------------------------------

def fin_efficiency(layout: GridLayout) -> float:
    """Fins forming active devices over all fins in the cell."""
    if layout.total_fins <= 0:
        raise LayoutError(f"{layout.name}: no fins to measure")
    return layout.active_fins / layout.total_fins


def transistor_efficiency(layout: GridLayout) -> float:
    """Active poly gates x poly pitch over cell width (= active/total pitches)."""
    if layout.width_pitches <= 0:
        raise LayoutError(f"{layout.name}: zero-width cell")
    return layout.active_poly / layout.width_pitches


def power_rail_efficiency(layout: GridLayout) -> float:
    return layout.power_rail_tracks / layout.track_count


# -- restriction classes ------------------------------------------------------

def _merged_cover(segments, lo: float, hi: float) -> bool:
    """True when the union of [start, end) segments covers [lo, hi]."""
    pos = lo
    for s, e in sorted(segments):
        if s > pos:
            return False
        pos = max(pos, e)
        if pos >= hi:
            return True
    return pos >= hi


def check_restrictions(layout: GridLayout) -> list[str]:
    """Violations of each layer's declared patterning restriction class.

    pure_grating_1d: single direction and every grid index covered
    end-to-end.  structured_1d: single direction, any segmentation.
    compound_2d: both directions allowed, shapes on integer grid indices.
    A declared layer direction pins the axis; otherwise the majority
    direction on the layer is taken as its axis.
    """
    v = []
    for layer, cls in sorted(layout.layer_classes.items()):
        shapes = layout.layer_shapes(layer)
        if cls == "compound_2d":
            for i, s in enumerate(shapes):
                if s.index != int(s.index):
                    v.append(f"{layer}: shape {i} off-grid index {s.index}")
            continue
        if not shapes:
            if cls == "pure_grating_1d":
                v.append(f"{layer}: declared a grating but holds no shapes")
            continue
        want = layout.layer_dirs.get(layer)
        if want is None:
            n_h = sum(1 for s in shapes if s.direction == "H")
            want = "H" if n_h * 2 >= len(shapes) else "V"
        for i, s in enumerate(shapes):
            if s.direction != want:
                v.append(f"{layer}: shape {i} runs {s.direction}, "
                         f"layer is {want}-only")
        if cls == "pure_grating_1d":
            n_idx = layout.track_count if want == "H" else layout.width_pitches
            full = layout.width_pitches if want == "H" else layout.track_count
            by_idx = {}
            for s in shapes:
                if s.direction == want:
                    by_idx.setdefault(s.index, []).append((s.start, s.end))
            for idx in range(n_idx):
                segs = by_idx.get(idx, [])
                if not segs:
                    v.append(f"{layer}: grating index {idx} unpopulated")
                elif not _merged_cover(segs, 0, full):
                    v.append(f"{layer}: grating index {idx} not end-to-end")
    return v


# -- pattern constructs -------------------------------------------------------

def _canonical_construct(layout: GridLayout, cx: float, cy: float,
                         half: float, relevant) -> frozenset:
    """Window contents around (cx, cy), translated to the center and scaled
    by 2 so half-grid centers stay integral.  The in-cell visible part of
    the window is part of the signature, so edge-truncated constructs never
    collapse onto interior ones."""
    xlo, xhi = cx - half, cx + half
    ylo, yhi = cy - half, cy + half
    # each direction's (across, along) frame: (centre, low, high) of the window
    frames = {"H": ((cy, ylo, yhi), (cx, xlo, xhi)),
              "V": ((cx, xlo, xhi), (cy, ylo, yhi))}
    elems = []
    for s in layout.shapes:
        if s.layer not in relevant:
            continue
        (c0, lo0, hi0), (c1, lo1, hi1) = frames[s.direction]
        a, b = max(s.start, lo1), min(s.end, hi1)
        if not lo0 <= s.index <= hi0 or a >= b:
            continue
        elems.append((s.layer, s.direction, round(2 * (s.index - c0)),
                      round(2 * (a - c1)), round(2 * (b - c1))))
    vx0, vx1 = max(xlo, 0), min(xhi, layout.width_pitches)
    vy0, vy1 = max(ylo, 0), min(yhi, layout.track_count)
    elems.append(("__cell__", "B", round(2 * (vx0 - cx)), round(2 * (vx1 - cx)),
                  round(2 * (vy0 - cy)), round(2 * (vy1 - cy))))
    return frozenset(elems)


def shape_center(shape: Shape):
    mid = (shape.start + shape.end) / 2
    if shape.direction == "H":
        return mid, shape.index
    return shape.index, mid


def count_constructs(layout: GridLayout, target_layer: str,
                     window_pitches: float, relevant_layers) -> int:
    """Number of unique canonical neighborhoods around target-layer shapes.

    The window is `window_pitches` wide in each axis's own grid units,
    centered on each target shape; fewer unique constructs means a more
    repetitive, manufacturing-friendly layout.
    """
    if window_pitches < 1:
        raise LayoutError("window must be at least one pitch")
    relevant = frozenset(relevant_layers)
    half = window_pitches / 2
    seen = set()
    for s in layout.layer_shapes(target_layer):
        cx, cy = shape_center(s)
        seen.add(_canonical_construct(layout, cx, cy, half, relevant))
    return len(seen)
