"""Recovery of the corrosion law from reconstructed gamma1 traces.

On a boundary segment where the trace is strictly monotone the potential can
be inverted, and the flux read at the inverted location is the value of the
corrosion law.  The recovered graph lives on the value interval spanned by
the segment, shrunk by a trim margin that accounts for the continuation
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NoMonotoneSegmentError(RuntimeError):
    """No sample interval qualifies: the trace oscillation is too small
    relative to the slope threshold."""


class EmptyIntervalError(ValueError):
    """The trim margin swallowed the whole value interval."""


@dataclass(frozen=True)
class BoundaryProfile:
    """Arc-length samples of the gamma1 trace v, normal flux w and
    tangential derivative v'."""

    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        dv = np.asarray(self.dv, dtype=float)
        if not (t.size == v.size == w.size == dv.size):
            raise ValueError("profile arrays must have equal lengths")
        if t.size == 0:
            raise ValueError("profile must be nonempty")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("arc length must be strictly increasing")
        for name, arr in (("t", t), ("v", v), ("w", w), ("dv", dv)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MonotoneSegment:
    """Sample interval [i0, i1] of a profile on which v is strictly monotone
    with |v'| bounded below."""

    i0: int
    i1: int
    t_a: float
    t_b: float
    sign: int
    min_slope: float

    def __post_init__(self):
        if self.i1 <= self.i0:
            raise ValueError("segment must contain at least two samples")
        if self.min_slope <= 0:
            raise ValueError("minimum slope must be positive")


@dataclass(frozen=True)
class ReconstructedNonlinearity:
    """Recovered graph of the corrosion law on a value interval, with the
    monotone segment it came from."""

    interval: tuple
    u_knots: np.ndarray
    f_knots: np.ndarray
    segment: MonotoneSegment | None = None
    trim: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u_knots, dtype=float)
        f = np.asarray(self.f_knots, dtype=float)
        if u.size < 2 or u.size != f.size:
            raise ValueError("need >= 2 matching knots")
        if not np.all(np.diff(u) > 0):
            raise ValueError("knot abscissae must be strictly increasing")
        a, b = self.interval
        if u[0] < a - 1e-12 or u[-1] > b + 1e-12:
            raise ValueError("knots must lie inside the value interval")
        object.__setattr__(self, "u_knots", u)
        object.__setattr__(self, "f_knots", f)
        object.__setattr__(self, "interval", (float(a), float(b)))

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self.u_knots, self.f_knots)


def oscillation(v: np.ndarray) -> float:
    """max v - min v over the samples v of a trace."""
    return float(np.max(v) - np.min(v))


def _monotone_runs(v, dv, eta_threshold):
    """Maximal index runs [a, b], b > a, on which |v'| >= eta_threshold,
    v' keeps one sign and v is strictly monotone in that sign."""
    K = len(v)
    runs = []
    a = 0
    while a < K - 1:
        if abs(dv[a]) < eta_threshold:
            a += 1
            continue
        sign = 1 if dv[a] > 0 else -1
        b = a
        while (b + 1 < K and abs(dv[b + 1]) >= eta_threshold
               and (1 if dv[b + 1] > 0 else -1) == sign
               and (v[b + 1] - v[b]) * sign > 0):
            b += 1
        if b > a:
            runs.append((a, b, sign))
        a = b + 1
    return runs


def _widest_intervals(slope, a, b):
    """Intervals [lo, hi], hi > lo, of the run [a, b] on which slope[k] is
    the minimum, as (lo, hi, k), by one monotone-stack pass.  For each
    distinct minimum the widest such interval is among them."""
    stack = []
    for j in range(a, b + 2):
        cur = slope[j] if j <= b else -math.inf
        while stack and slope[stack[-1]] > cur:
            k = stack.pop()
            lo = stack[-1] + 1 if stack else a
            if j - 1 > lo:
                yield lo, j - 1, k
        stack.append(j)


def find_monotone_segment(profile: BoundaryProfile,
                          eta_threshold: float) -> MonotoneSegment:
    """Best monotone sample interval.

    Qualifying intervals have |v'| >= eta_threshold at every sample and
    strictly monotone v of a single orientation; the winner maximizes
    (min |v'|) * arc length.  Scores are compared in (start, end) order
    and a later interval wins only when it beats the best so far by more
    than 1e-15, as in a scan of all O(K^2) intervals.

    Every interval lies inside the widest interval of its run on which its
    own minimum slope is the minimum, and that one scores at least as
    high, so only those O(K) intervals are scored.  The scan runs on
    Python floats, with the same arithmetic as on the arrays.
    """
    if eta_threshold <= 0:
        raise ValueError("eta_threshold must be positive")
    t, v, dv = profile.t.tolist(), profile.v.tolist(), profile.dv.tolist()
    slope = [abs(x) for x in dv]
    candidates = {}
    for a, b, sign in _monotone_runs(v, dv, eta_threshold):
        for lo, hi, k in _widest_intervals(slope, a, b):
            candidates[(lo, hi)] = (sign, slope[k])
    best = None
    for (i, j), (sign, min_slope) in sorted(candidates.items()):
        score = min_slope * (t[j] - t[i])
        if best is None or score > best[0] + 1e-15:
            best = (score, i, j, sign, min_slope)
    if best is None:
        raise NoMonotoneSegmentError(
            f"no monotone interval with |v'| >= {eta_threshold:g}")
    _, i, j, sign, min_slope = best
    return MonotoneSegment(i0=i, i1=j, t_a=t[i], t_b=t[j], sign=sign,
                           min_slope=min_slope)


def extract_f(profile: BoundaryProfile, seg: MonotoneSegment,
              trim: float = 0.0) -> ReconstructedNonlinearity:
    """Read the corrosion law off the segment: knots (v, w) sorted by v,
    restricted to the value interval shrunk by trim at both ends."""
    if trim < 0:
        raise ValueError("trim must be nonnegative")
    sl = slice(seg.i0, seg.i1 + 1)
    v = profile.v[sl]
    w = profile.w[sl]
    order = np.argsort(v)
    v, w = v[order], w[order]
    vrange = v[-1] - v[0]
    if trim >= 0.5 * vrange:
        raise EmptyIntervalError(
            f"trim {trim:g} is not below half the value range {vrange:g}")
    a, b = float(v[0] + trim), float(v[-1] - trim)
    inner = (v >= a) & (v <= b)
    u_knots = v[inner]
    f_knots = w[inner]
    # interpolated knots at the exact interval ends so the graph covers V
    if u_knots.size == 0 or u_knots[0] > a + 1e-14:
        u_knots = np.concatenate([[a], u_knots])
        f_knots = np.concatenate([[np.interp(a, v, w)], f_knots])
    if u_knots[-1] < b - 1e-14:
        u_knots = np.concatenate([u_knots, [b]])
        f_knots = np.concatenate([f_knots, [np.interp(b, v, w)]])
    keep = np.concatenate([[True], np.diff(u_knots) > 0])
    return ReconstructedNonlinearity(
        interval=(a, b), u_knots=u_knots[keep], f_knots=f_knots[keep],
        segment=seg, trim=float(trim))


def overlap_and_error(rec: ReconstructedNonlinearity, law, grid: int = 1000):
    """The value interval of a reconstruction and the sup distance from the
    law ``law`` over a uniform grid on it.  The law is defined everywhere,
    so the overlap is ``rec.interval``."""
    a, b = rec.interval
    u = np.linspace(a, b, grid)
    return (a, b), float(np.max(np.abs(rec(u) - law(u))))
