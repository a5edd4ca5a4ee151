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
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace


class LibraryError(ValueError):
    """A malformed input file, named by its path (a library, tech, spec or
    config file), or inconsistent macro data."""


class BoundsError(ValueError):
    """Requested macro dimensions outside the configured bounds."""


def is_int(v) -> bool:
    """An int that is not a bool, as a JSON integer parses."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_field_types(obj, what: str) -> None:
    """LibraryError unless every `int` field of dataclass `obj` holds is_int
    and every `float` field is_int or a finite float (never a bool or NaN);
    `what` prefixes the message."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and not is_int(v):
            raise LibraryError(f"{what} {f.name} must be an integer, got {v!r}")
        if f.type == "float" and not (is_int(v) or isinstance(v, float)
                                      and math.isfinite(v)):
            raise LibraryError(f"{what} {f.name} must be a finite number, got {v!r}")


def is_pow2(n) -> bool:
    return is_int(n) and n > 0 and (n & (n - 1)) == 0


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
        _check_field_types(self, "tech parameter")
        if self.track_pitch_nm <= 0 or self.poly_pitch_nm <= 0:
            raise LibraryError("pitches must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise LibraryError(f"utilization {self.utilization} outside (0, 1]")
        for f in fields(self):
            v = getattr(self, f.name)
            if v < 0:
                raise LibraryError(f"tech parameter {f.name} must be >= 0, got {v}")

    # A formula over the coefficients that more than one model uses is
    # written once, here.
    def pitches_nm(self, n) -> int:
        """`n` poly pitches in whole nanometres, as the realized floorplan
        places them, so an estimate equals the realized bounding box."""
        return round(n * self.poly_pitch_nm)

    def tracks_nm(self, n) -> int:
        """`n` routing tracks in whole nanometres."""
        return round(n * self.track_pitch_nm)

    def gutter_nm(self) -> int:
        """The gap between two adjacent macros in a row."""
        return self.pitches_nm(self.gutter_pitches)

    def t_dec_ps(self, bits) -> float:
        """Delay of a decode of `bits` address bits."""
        return self.d0_ps + self.d1_ps * bits

    def t_mux_ps(self, bits) -> float:
        """Delay of a 2^`bits`-way mux or alignment network."""
        return self.m0_ps + self.m1_ps * bits

    def e_dec_fj(self, bits) -> float:
        """Energy of one decode of `bits` address bits."""
        return self.e_dec0_fj + self.e_dec1_fj * bits

    def e_wire_fj(self, w_nm, h_nm) -> float:
        """Output wiring energy of one access to a w_nm x h_nm die."""
        return self.e_wire_per_um_fj * ((w_nm + h_nm) / 1e3)

    def placed_logic_area(self, area) -> float:
        """Die area that synthesized logic of `area` takes when placed at
        the target utilization, in the unit of `area`."""
        return area / self.utilization

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, where="tech") -> "TechParams":
        """The checked TechParams of record `d`; a fault is a LibraryError
        that starts with `where`."""
        t = cls(**check_record(d, where, cls))
        try:
            t.validate()
        except LibraryError as e:
            raise LibraryError(f"{where}: {e}") from None
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
        _check_field_types(self, f"{self.name}:")
        if not all(is_int(pin[2]) for pin in self.pins):
            raise LibraryError(f"{self.name}: pin offsets must be integers")
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

    def width_nm(self, tech: TechParams) -> int:
        return tech.pitches_nm(self.width_pitches)

    def height_nm(self, tech: TechParams) -> int:
        return tech.tracks_nm(self.height_tracks)

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
        "macros": [{k: getattr(m, k) for k in MACRO_KEYS[:-1]}
                   | {"pins": [list(p) for p in m.pins]} for m in lib.macros],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def undecodable_line(path, err: UnicodeDecodeError) -> str:
    """`path:lineno: <reason>` for the first line of `path` that `err`'s codec
    cannot decode.  A text read decodes in chunks, so `err` names neither the
    line nor its offset; this re-reads the file in binary to find both.
    bytes.splitlines breaks lines where a text read does (\\n, \\r, \\r\\n).
    """
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for raw in chunk.splitlines():
                lineno += 1
                try:
                    raw.decode(err.encoding)
                except UnicodeDecodeError as e:
                    return f"{path}:{lineno}: {e}"
    return f"{path}: {err}"


def check_record(rec, where, keys=None, optional=()) -> dict:
    """`rec` if it is a JSON object holding every one of `keys` not in
    `optional`, and no other key; any keys when `keys` is None.  `keys` may
    be a dataclass, whose fields with a default are optional.  A fault is
    a LibraryError that starts with `where`."""
    if not isinstance(rec, dict):
        raise LibraryError(f"{where}: must hold a JSON object")
    if is_dataclass(keys):
        optional = [f.name for f in fields(keys) if f.default is not MISSING]
        keys = [f.name for f in fields(keys)]
    if keys is not None:
        for fault, names in (
                ("unknown", sorted(set(rec) - set(keys))),
                ("missing", [k for k in keys if k not in rec and k not in optional])):
            if names:
                raise LibraryError(f"{where}: {fault} fields: {names}")
    return rec


def read_json(path) -> dict:
    """The JSON object in file `path`.  A fault is a LibraryError that
    starts with the path, then `:<line>` where one is known."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise LibraryError(f"{path}:{e.lineno}: malformed JSON: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise LibraryError(undecodable_line(path, e)) from None
    return check_record(doc, path)


def load_tech(path) -> TechParams:
    """Parse a tech file: one object of TechParams fields, checked."""
    return TechParams.from_dict(read_json(path), path)


def load_library(path) -> Library:
    """Parse a library file, rejecting unknown keys, missing fields and
    mistyped or non-finite figures."""
    doc = check_record(read_json(path), path, ("tech", "macros"), optional=("tech",))
    if not isinstance(doc["macros"], list):
        raise LibraryError(f"{path}: 'macros' must be a list")
    tech = TechParams.from_dict(doc.get("tech", {}), f"{path}: tech")
    macros = []
    for i, rec in enumerate(doc["macros"]):
        where = f"{path}: macro #{i}"
        check_record(rec, where, MACRO_KEYS)
        where += f" ({rec['name']})"
        try:
            pins = tuple((str(n), str(s), o) for n, s, o in rec["pins"])
            m = BAPlusMacro(name=str(rec["name"]), pins=pins,
                            **{k: rec[k] for k in MACRO_KEYS[1:-1]})
            m.validate()
            # a float field may be written as a JSON integer; it loads as float
            m = replace(m, **{f.name: float(getattr(m, f.name))
                              for f in fields(m) if f.type == "float"})
        except (TypeError, ValueError, OverflowError) as e:
            raise LibraryError(f"{where}: {e}") from None
        macros.append(m)
    try:
        return Library(macros, tech)
    except LibraryError as e:
        raise LibraryError(f"{path}: {e}") from None
