"""Augmented bitcell-array (BA+) macro models and the macro library file.

A BA+ macro is a B-entry x W-bit bitcell array wrapped with clock-enabled
wordline driver buffers, a local sense stage and a tri-state global-bitline
driver.  Decode stays outside the macro: the wordline pins expect already
decoded one-hot selects.  Geometry and electrical figures come from a small
analytic model over (B, W) with coefficients held in TechParams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict


class LibraryError(ValueError):
    """Malformed library file or inconsistent macro data."""


class BoundsError(ValueError):
    """Requested macro dimensions outside the configured bounds."""


def is_pow2(n) -> bool:
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    if not is_pow2(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


# Fixed structural overhead of the macro frame around the bitcell array:
# wordline driver/control rows above+below, sense+driver columns at the sides.
PERIPH_TRACKS = 6   # extra entry-rows: clocked WL buffers, local sense, output driver
PERIPH_PITCHES = 4  # extra poly pitches: well taps + tri-state driver column
BITCELL_PITCHES = 2  # an 8T cell spans two poly pitches


@dataclass
class TechParams:
    """Process and model coefficients shared by every analytic estimate.

    Delays are ps, energies fJ, leakage nW, lengths nm, areas um^2.
    """

    track_pitch_nm: float = 64.0
    poly_pitch_nm: float = 48.0

    # BA+ access time: ta_base + ta_row*B + ta_col*W
    ta_base_ps: float = 120.0
    ta_row_ps: float = 2.0
    ta_col_ps: float = 1.0

    # BA+ read energy: er_base + er_col*W + er_row*B*leak_fraction
    er_base_fj: float = 0.5
    er_col_fj: float = 1.0
    er_row_fj: float = 0.4
    leak_fraction: float = 0.5

    # BA+ write energy, same shape as the read model
    ew_base_fj: float = 0.6
    ew_col_fj: float = 1.1
    ew_row_fj: float = 0.4

    # macro leakage, proportional to bitcell count
    leak_per_bit_nw: float = 0.01

    # global decode: d0 + d1 * (address bits)
    d0_ps: float = 50.0
    d1_ps: float = 12.0
    # shared global read bitline with K tri-state drivers: g0 + g1*K
    g0_ps: float = 15.0
    g1_ps: float = 5.0
    # column mux: m0 + m1 * log2(M)
    m0_ps: float = 20.0
    m1_ps: float = 10.0

    # decode energy per access: e_dec0 + e_dec1 * (address bits)
    e_dec0_fj: float = 2.0
    e_dec1_fj: float = 0.8
    # output wiring energy per um of die semiperimeter
    e_wire_per_um_fj: float = 0.18
    # flat periphery leakage of a composed SRAM
    p_leak_periph_nw: float = 50.0

    # parallel-access periphery: per-bank increment stage
    e_inc_fj: float = 0.3
    # synthesized-logic area models (um^2): decoders grow with output lines
    a_dec0_um2: float = 1.2
    a_dec1_um2: float = 0.02
    a_inc_um2: float = 0.15
    a_align_um2: float = 0.08
    p_leak_logic_nw_um2: float = 5.0

    # floorplan strips (decode column, per-bank control row, global mux/IO row)
    gutter_pitches: int = 2
    periph_w_pitches: int = 12
    bank_periph_h_tracks: int = 4
    global_periph_h_tracks: int = 8
    rail_pitch_tracks: int = 20
    utilization: float = 0.7

    # pessimism applied to the fixed-architecture baseline model
    trad_t_factor: float = 1.5
    trad_e_factor: float = 1.15

    def validate(self) -> None:
        if self.track_pitch_nm <= 0 or self.poly_pitch_nm <= 0:
            raise ValueError("pitches must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization {self.utilization} outside (0, 1]")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (int, float)) and v < 0:
                raise ValueError(f"tech parameter {f.name} must be >= 0, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TechParams":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise LibraryError(f"unknown tech key(s): {sorted(unknown)}")
        t = cls(**d)
        t.validate()
        return t


# exact on-disk key set for one macro record
MACRO_KEYS = (
    "name", "B", "W", "height_tracks", "width_pitches",
    "t_access_ps", "e_read_fj", "e_write_fj", "p_leak_nw", "pins",
)

DEFAULT_PINS = (
    ("clk", "S", 0),
    ("rwl", "W", 1),
    ("wwl", "W", 2),
    ("din", "S", 2),
    ("qout", "E", 1),
)


@dataclass(frozen=True)
class BAPlusMacro:
    """One characterized BA+ macro: dimensions plus electrical figures."""

    name: str
    B: int
    W: int
    height_tracks: int
    width_pitches: int
    t_access_ps: float
    e_read_fj: float
    e_write_fj: float
    p_leak_nw: float
    pins: tuple = DEFAULT_PINS

    def validate(self) -> None:
        if self.B < 1 or self.W < 1:
            raise ValueError(f"{self.name}: B and W must be >= 1")
        if self.height_tracks < self.B:
            raise ValueError(f"{self.name}: height_tracks < B")
        if self.width_pitches < self.W:
            raise ValueError(f"{self.name}: width_pitches < W")
        if self.t_access_ps <= 0 or self.e_read_fj <= 0 or self.e_write_fj <= 0:
            raise ValueError(f"{self.name}: access/energy figures must be positive")
        if self.p_leak_nw <= 0:
            raise ValueError(f"{self.name}: leakage must be positive")

    @property
    def capacity_bits(self) -> int:
        return self.B * self.W

    def width_nm(self, tech: TechParams) -> int:
        return round(self.width_pitches * tech.poly_pitch_nm)

    def height_nm(self, tech: TechParams) -> int:
        return round(self.height_tracks * tech.track_pitch_nm)

    def area_um2(self, tech: TechParams) -> float:
        return self.width_nm(tech) * self.height_nm(tech) / 1e6


def generate_variant(B: int, W: int, tech: TechParams | None = None, *,
                     b_bounds: tuple[int, int] | None = (8, 64),
                     w_bounds: tuple[int, int] | None = (8, 64)) -> BAPlusMacro:
    """Characterize the B x W macro variant.

    B and W must be powers of two inside the given inclusive bounds; pass
    bounds=None to lift a limit (used for on-demand tall/wide bank macros).
    """
    tech = tech or TechParams()
    for label, v, bounds in (("B", B, b_bounds), ("W", W, w_bounds)):
        if not is_pow2(v):
            raise BoundsError(f"{label}={v} is not a power of two")
        if bounds is not None and not bounds[0] <= v <= bounds[1]:
            raise BoundsError(f"{label}={v} outside bounds {bounds[0]}..{bounds[1]}")
    m = BAPlusMacro(
        name=f"ba_{B}x{W}",
        B=B,
        W=W,
        height_tracks=B + PERIPH_TRACKS,
        width_pitches=BITCELL_PITCHES * W + PERIPH_PITCHES,
        t_access_ps=tech.ta_base_ps + tech.ta_row_ps * B + tech.ta_col_ps * W,
        e_read_fj=tech.er_base_fj + tech.er_col_fj * W
        + tech.er_row_fj * B * tech.leak_fraction,
        e_write_fj=tech.ew_base_fj + tech.ew_col_fj * W
        + tech.ew_row_fj * B * tech.leak_fraction,
        p_leak_nw=tech.leak_per_bit_nw * B * W,
    )
    m.validate()
    return m


class Library:
    """A macro library: shared TechParams plus named BA+ macros."""

    def __init__(self, macros, tech: TechParams | None = None):
        self.tech = tech or TechParams()
        self.macros: list[BAPlusMacro] = list(macros)
        seen = set()
        for m in self.macros:
            m.validate()
            if m.name in seen:
                raise LibraryError(f"duplicate macro name {m.name!r}")
            seen.add(m.name)
        self._by_name = {m.name: m for m in self.macros}

    def __iter__(self):
        return iter(self.macros)

    def __len__(self):
        return len(self.macros)

    def __getitem__(self, name: str) -> BAPlusMacro:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown macro variant {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other):
        return (isinstance(other, Library) and self.tech == other.tech
                and self.macros == other.macros)


def default_library(tech: TechParams | None = None,
                    b_values=(8, 16, 32, 64),
                    w_values=(8, 16, 32, 64)) -> Library:
    tech = tech or TechParams()
    macros = [generate_variant(b, w, tech) for b in b_values for w in w_values]
    return Library(macros, tech)


def save_library(lib, path) -> None:
    """Write a library (or a plain macro list, default tech) as JSON."""
    if not isinstance(lib, Library):
        lib = Library(lib)
    if not lib.macros:
        raise LibraryError("refusing to save an empty library")
    doc = {
        "tech": lib.tech.to_dict(),
        "macros": [
            {
                "name": m.name, "B": m.B, "W": m.W,
                "height_tracks": m.height_tracks,
                "width_pitches": m.width_pitches,
                "t_access_ps": m.t_access_ps,
                "e_read_fj": m.e_read_fj,
                "e_write_fj": m.e_write_fj,
                "p_leak_nw": m.p_leak_nw,
                "pins": [list(p) for p in m.pins],
            }
            for m in lib.macros
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_library(path) -> Library:
    """Parse a library file, rejecting unknown keys and missing fields."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise LibraryError(f"{path}: malformed JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise LibraryError(f"{path}: top level must be an object")
    extra = set(doc) - {"tech", "macros"}
    if extra:
        raise LibraryError(f"{path}: unknown top-level key(s): {sorted(extra)}")
    if "macros" not in doc:
        raise LibraryError(f"{path}: missing 'macros'")
    tech = TechParams.from_dict(doc.get("tech", {}))
    macros = []
    for i, rec in enumerate(doc["macros"]):
        if not isinstance(rec, dict):
            raise LibraryError(f"{path}: macro #{i} is not an object")
        where = f"macro #{i} ({rec.get('name', '?')})"
        missing = [k for k in MACRO_KEYS if k not in rec]
        if missing:
            raise LibraryError(f"{path}: {where}: missing field {missing[0]!r}")
        unknown = set(rec) - set(MACRO_KEYS)
        if unknown:
            raise LibraryError(f"{path}: {where}: unknown field {sorted(unknown)[0]!r}")
        try:
            pins = tuple((str(n), str(s), int(o)) for n, s, o in rec["pins"])
            m = BAPlusMacro(
                name=str(rec["name"]), B=int(rec["B"]), W=int(rec["W"]),
                height_tracks=int(rec["height_tracks"]),
                width_pitches=int(rec["width_pitches"]),
                t_access_ps=float(rec["t_access_ps"]),
                e_read_fj=float(rec["e_read_fj"]),
                e_write_fj=float(rec["e_write_fj"]),
                p_leak_nw=float(rec["p_leak_nw"]),
                pins=pins,
            )
            m.validate()
        except (TypeError, ValueError) as e:
            raise LibraryError(f"{path}: {where}: {e}") from None
        macros.append(m)
    try:
        return Library(macros, tech)
    except LibraryError as e:
        raise LibraryError(f"{path}: {e}") from None
