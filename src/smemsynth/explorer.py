"""Design-space exploration over composed BA+ memories.

A memory config places R x C banks of K macros each, with an M-way column
mux.  Capacity constraints tie the organization to the requested word/bit
shape; the analytic PPA composition turns each legal config into area, cycle
time, access energy and leakage, and a Pareto filter plus constrained
selection pick the config to realize.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import floorplan
from .baplus import Library, ilog2, is_int, is_pow2


class ConfigError(ValueError):
    """Inconsistent memory config or user spec."""


@dataclass(frozen=True)
class UserSpec:
    words: int
    bits: int
    aspect_ratio_target: float | None = None
    aspect_ratio_tol: float = 0.15
    t_max_ps: float | None = None
    e_max_fj: float | None = None

    def validate(self) -> None:
        for name in ("words", "bits"):
            v = getattr(self, name)
            if not is_int(v):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        for name in ("aspect_ratio_target", "aspect_ratio_tol", "t_max_ps", "e_max_fj"):
            v = getattr(self, name)
            if v is None and name != "aspect_ratio_tol":
                continue
            if not (is_int(v) or isinstance(v, float)):
                raise ConfigError(f"{name} must be a number, got {v!r}")
        if self.words < 1 or self.bits < 1:
            raise ConfigError("words and bits must be >= 1")
        check_aspect_ratio(self.aspect_ratio_target, self.aspect_ratio_tol)
        for lim in (self.t_max_ps, self.e_max_fj):
            # `not x > 0` also rejects NaN, which no comparison would bind
            if lim is not None and not lim > 0:
                raise ConfigError("constraint limits must be positive")


def check_aspect_ratio(target: float | None, tol: float) -> None:
    """ConfigError unless tol is in [0, 1) and target, when set, is positive
    and finite: the goal of a UserSpec and of synth's --ar-target/--ar-tol.
    Both range tests are False for NaN, so NaN is rejected too."""
    if not 0.0 <= tol < 1.0:
        raise ConfigError("aspect_ratio_tol must be in [0, 1)")
    if target is not None and not 0 < target < math.inf:
        raise ConfigError("aspect_ratio_target must be positive and finite")


class AddressMap(NamedTuple):
    """How a 1R-1W address splits: the bit widths of its fields, MSB to LSB
    [bank_row | macro_in_bank | row_in_macro | mux_slot].  A stored word is
    striped across all C bank columns; within a column's W-bit row, mux slot
    s holds bits for the word whose low address bits equal s."""
    lR: int
    lK: int
    lB: int
    lM: int

    @classmethod
    def of(cls, R: int, K: int, B: int, M: int) -> "AddressMap":
        return cls(ilog2(R), ilog2(K), ilog2(B), ilog2(M))

    @property
    def width(self) -> int:
        return self.lR + self.lK + self.lB + self.lM

    @property
    def port_width(self) -> int:
        """An address port has one bit even for a one-word memory."""
        return max(self.width, 1)

    @property
    def decoder(self) -> dict:
        """The decode tree's params: it takes every address bit and decodes
        all but the mux-select bits."""
        return {"in_bits": self.width, "stages": self.width - self.lM,
                "mux_bits": self.lM}

    @property
    def ranges(self) -> tuple:
        """Each field's (msb, lsb), MSB first; an empty field has msb < lsb."""
        m, bm = self.lM, self.lB + self.lM
        kbm = self.lK + bm
        return (self.width - 1, kbm), (kbm - 1, bm), (bm - 1, m), (m - 1, 0)

    def split(self, addr: int) -> tuple:
        """addr -> (bank_row, macro, row, mux_slot)."""
        lR, lK, lB, lM = self
        s = addr & ((1 << lM) - 1)
        row = (addr >> lM) & ((1 << lB) - 1)
        k = (addr >> (lM + lB)) & ((1 << lK) - 1)
        r = addr >> (lM + lB + lK)
        if r >> lR:
            raise ValueError(f"address {addr} out of range")
        return r, k, row, s


@dataclass(frozen=True)
class MemoryConfig:
    """Bank organization: R x C banks, K macros per bank, M-way column mux."""

    variant: str
    R: int
    C: int
    K: int
    M: int

    def validate(self, lib: Library) -> None:
        # a JSON config may hold any value, and a list is not hashable
        if not isinstance(self.variant, str) or self.variant not in lib:
            raise ConfigError(f"unknown macro variant {self.variant!r}")
        m = lib[self.variant]
        for label, v in (("R", self.R), ("C", self.C), ("K", self.K), ("M", self.M)):
            if not is_pow2(v):
                raise ConfigError(f"{label}={v} must be a power of two >= 1")
        if (self.C * m.W) % self.M:
            raise ConfigError(f"M={self.M} does not divide C*W={self.C * m.W}")

    def dims(self, lib: Library) -> tuple[int, int]:
        """(words, bits) this organization realizes."""
        m = lib[self.variant]
        return self.R * self.K * m.B * self.M, self.C * m.W // self.M

    def address_map(self, lib: Library) -> AddressMap:
        return AddressMap.of(self.R, self.K, lib[self.variant].B, self.M)

    def key(self):
        return (self.variant, self.R, self.C, self.K, self.M)


@dataclass(frozen=True)
class PPAEstimate:
    area_um2: float
    t_cycle_ps: float
    e_op_fj: float
    p_leak_nw: float

    @property
    def gops_per_watt(self) -> float:
        return gops_per_watt(self.e_op_fj, self.p_leak_nw, self.t_cycle_ps)

    def triple(self):
        return (self.area_um2, self.t_cycle_ps, self.e_op_fj)

    def check_finite(self, error: type[ValueError], what) -> "PPAEstimate":
        """self, or `error` naming `what` and the first figure that a huge
        tech or macro figure has made infinite or NaN."""
        for name in ("area_um2", "t_cycle_ps", "e_op_fj", "p_leak_nw"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise error(f"{what}: {name} is {v}; a tech or macro figure "
                            "is too large")
        return self


def gops_per_watt(e_op_fj: float, p_leak_nw: float, t_cycle_ps: float) -> float:
    """Throughput efficiency at one op per cycle."""
    joules = e_op_fj * 1e-15 + p_leak_nw * 1e-9 * t_cycle_ps * 1e-12
    return 1e-9 / joules


def _pow2s_upto(limit: int):
    v = 1
    while v <= limit:
        yield v
        v *= 2


def enumerate_configs(spec: UserSpec, lib: Library,
                      bounds: dict | None = None) -> list[MemoryConfig]:
    """All legal configs for a spec, sorted by (variant, R, C, K, M).

    Constraints: R*K*B*M == words, C*W/M == bits with M | C*W, all of
    R, C, K, M powers of two, and (when an aspect-ratio target is set) the
    estimated die AR within tolerance.  `bounds` optionally caps the four
    organization factors, e.g. {"R": 8, "M": 4}.
    """
    spec.validate()
    bounds = bounds or {}
    cap = {d: bounds.get(d, spec.words) for d in ("R", "C", "K", "M")}
    out = []
    for macro in lib:
        if spec.words % macro.B:
            continue
        for m_mux in _pow2s_upto(min(cap["M"], spec.words)):
            if (spec.bits * m_mux) % macro.W:
                continue
            c = spec.bits * m_mux // macro.W
            if not is_pow2(c) or c > cap["C"]:
                continue
            rk, rem = divmod(spec.words, macro.B * m_mux)
            if rem or not is_pow2(rk):
                continue
            for r in _pow2s_upto(min(cap["R"], rk)):
                k = rk // r
                if r * k != rk or k > cap["K"]:
                    continue
                cfg = MemoryConfig(macro.name, r, c, k, m_mux)
                if spec.aspect_ratio_target is not None:
                    w, h = floorplan.estimate_dimensions(cfg, lib)
                    if floorplan.misses_aspect_ratio(
                            h / w, spec.aspect_ratio_target, spec.aspect_ratio_tol):
                        continue
                out.append(cfg)
    out.sort(key=MemoryConfig.key)
    return out


def evaluate_ppa(cfg: MemoryConfig, lib: Library) -> PPAEstimate:
    """Analytic PPA for one config.

    Cycle time stacks global decode, macro access, the shared global read
    bitline (present once more than one macro hangs on it) and the column
    mux (absent for M=1).  Read energy activates all C bank columns; the mux
    discards the un-selected slices.  Leakage sums every placed macro plus a
    flat periphery term.
    """
    tech = lib.tech
    cfg.validate(lib)
    macro = lib[cfg.variant]
    amap = cfg.address_map(lib)

    t = tech.t_dec_ps(amap.width) + macro.t_access_ps
    if cfg.R * cfg.K > 1:
        t += tech.g0_ps + tech.g1_ps * cfg.K
    if cfg.M > 1:
        t += tech.t_mux_ps(amap.lM)

    w_nm, h_nm = floorplan.estimate_dimensions(cfg, lib)
    area = w_nm * h_nm / 1e6

    e_op = (tech.e_dec_fj(amap.width) + cfg.C * macro.e_read_fj
            + tech.e_wire_fj(w_nm, h_nm))
    p_leak = cfg.R * cfg.C * cfg.K * macro.p_leak_nw + tech.p_leak_periph_nw
    return PPAEstimate(area, t, e_op, p_leak).check_finite(ConfigError, cfg)


def pareto_front(points):
    """Non-dominated subset of [(config, estimate), ...], input order kept.

    Minimizes (area, t_cycle, e_op) with the 3-D skyline sweep of Kung,
    Luccio and Preparata ("On finding the maxima of a set of vectors",
    J. ACM 22(4), 1975), O(n log n).  Points are visited in ascending
    triple order, so every earlier point has an area no larger than the
    current one.  Equal triples do not dominate each other, so a group of
    them is kept or dropped whole, and the group is dominated exactly when
    a point of an earlier group has t <= its t and e <= its e.
    A staircase of the kept (t, e) pairs that no other kept pair beats on
    both, t ascending and e strictly descending, answers that by bisection.
    """
    triples = [est.triple() for _, est in points]
    order = sorted(range(len(points)), key=triples.__getitem__)
    ts: list[float] = []
    es: list[float] = []
    keep = [False] * len(points)
    last = verdict = None
    for i in order:
        tri = triples[i]
        if tri != last:
            last = tri
            _, t, e = tri
            j = bisect.bisect_right(ts, t)
            verdict = not (j and es[j - 1] <= e)
            if verdict:
                # the new step hides each step with t' >= t and e' >= e
                lo = hi = bisect.bisect_left(ts, t)
                while hi < len(ts) and es[hi] >= e:
                    hi += 1
                ts[lo:hi] = [t]
                es[lo:hi] = [e]
        keep[i] = verdict
    return [p for p, k in zip(points, keep) if k]


@dataclass
class SelectResult:
    config: MemoryConfig
    estimate: PPAEstimate
    violation: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def select_best(points, spec: UserSpec) -> SelectResult | None:
    """Smallest-area point meeting t/e limits; ties by t_cycle then config.

    With nothing feasible, returns the least-violating point flagged
    infeasible; violation is max over set constraints of value/limit - 1.
    """
    if not points:
        return None

    def violation(est: PPAEstimate) -> float:
        v = 0.0
        if spec.t_max_ps is not None:
            v = max(v, est.t_cycle_ps / spec.t_max_ps - 1.0)
        if spec.e_max_fj is not None:
            v = max(v, est.e_op_fj / spec.e_max_fj - 1.0)
        return v

    # violation is never below 0.0, so the feasible points, at 0.0, come first
    c, e = min(points, key=lambda p: (violation(p[1]), p[1].area_um2,
                                      p[1].t_cycle_ps, p[0].key()))
    return SelectResult(c, e, violation(e))


def traditional_baseline_ppa(spec: UserSpec, lib: Library):
    """Fixed-architecture reference point for the same capacity.

    Models a conventional compiler output: the largest available leaf array
    stacked in a single bank column with no column mux, padded with the
    configured pessimism factors (oversized static periphery is slower and
    spends more energy per access than right-sized synthesized periphery).
    """
    spec.validate()
    best = None
    for macro in sorted(lib, key=lambda m: (-m.B * m.W, -m.B)):
        if spec.bits % macro.W or spec.words % macro.B:
            continue
        c = spec.bits // macro.W
        k = spec.words // macro.B
        if not (is_pow2(c) and is_pow2(k)):
            continue
        cfg = MemoryConfig(macro.name, 1, c, k, 1)
        best = cfg
        break
    if best is None:
        raise ConfigError("no library variant fits a single-column baseline")
    est = evaluate_ppa(best, lib)
    padded = PPAEstimate(est.area_um2, est.t_cycle_ps * lib.tech.trad_t_factor,
                         est.e_op_fj * lib.tech.trad_e_factor, est.p_leak_nw)
    return best, padded


REPORT_HEADER = ("variant", "R", "C", "K", "M", "area_um2", "t_cycle_ps",
                 "e_op_fj", "p_leak_nw", "gops_per_watt", "pareto")


def write_report_csv(path, points, front) -> None:
    """One row per evaluated config; `pareto` marks front membership."""
    front_keys = {c.key() for c, _ in front}
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(REPORT_HEADER)
        for cfg, est in points:
            wr.writerow([cfg.variant, cfg.R, cfg.C, cfg.K, cfg.M,
                         f"{est.area_um2:.4f}", f"{est.t_cycle_ps:.2f}",
                         f"{est.e_op_fj:.3f}", f"{est.p_leak_nw:.3f}",
                         f"{est.gops_per_watt:.2f}",
                         1 if cfg.key() in front_keys else 0])
