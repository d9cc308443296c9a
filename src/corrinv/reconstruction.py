"""Recovery of the corrosion law from reconstructed gamma1 traces.

On a boundary segment where the trace is strictly monotone the potential can
be inverted, and the flux read at the inverted location is the value of the
corrosion law.  The recovered graph lives on the value interval spanned by
the segment, shrunk by a trim margin that accounts for the continuation
error.
"""

from __future__ import annotations

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


def _block_minima(e, reach):
    """Levels 0 to p of the sparse table of minima of e (Bender and
    Farach-Colton, LATIN 2000): level q holds the minimum of
    e[i : i + 2**q], cut at the end of e.  The blocks of all levels add up
    to at least ``reach``."""
    levels = [e]
    step = 1
    while 2 * step <= reach:
        level = levels[-1].copy()
        np.minimum(levels[-1][:-step], levels[-1][step:], out=level[:-step])
        levels.append(level)
        step *= 2
    return levels


def _widest_intervals(slope, link):
    """For each sample k of a run, a maximal chain of valid links (link k
    joins samples k and k + 1), the widest interval [lo, hi] of its run on
    which slope[k] is the minimum, ties going to the first: lo - 1 is the
    nearest earlier sample of the run with slope <= slope[k], hi + 1 the
    nearest later one with slope < slope[k].  Returns (row, k, lo, hi) of
    the samples with hi > lo, in row-major order of (row, k).

    The runs of all rows are laid out one after another, each after a
    -inf.  Both neighbours are then the nearest entry <= or < slope[k],
    found by binary lifting over the sparse table of minima of that
    layout: a fixed number of array passes, 2 per level, and no search
    leaves its run."""
    K = slope.shape[1]
    in_run = np.zeros(slope.shape, dtype=bool)
    in_run[:, :-1] = link
    in_run[:, 1:] |= link
    row, k = np.nonzero(in_run)
    s = slope[row, k]
    # a run starts at each sample that no link joins to the one before it
    starts = np.ones(row.size, dtype=bool)
    joined = k[:-1] < K - 1
    starts[1:][joined] = ~link[row[:-1][joined], k[:-1][joined]]
    at = np.arange(row.size) + np.cumsum(starts)
    layout = np.full(row.size + np.count_nonzero(starts) + 1, -np.inf)
    layout[at] = s
    ends = np.flatnonzero(np.append(starts, True))
    longest = int(np.diff(ends).max()) if row.size else 0
    after, before = at + 1, at - 1
    levels = _block_minima(layout, longest + 1)
    for p in reversed(range(len(levels))):
        step = 1 << p
        # skip a block when it holds no entry < s (after), <= s (before)
        after = after + step * ~(levels[p][after] < s)
        start = np.maximum(before - step + 1, 0)
        before = before - step * ~(levels[p][start] <= s)
    lo, hi = k - (at - before) + 1, k + (after - at) - 1
    keep = hi > lo
    return row[keep], k[keep], lo[keep], hi[keep]


def find_monotone_segment(t, v, dv, thresholds) -> list:
    """Best monotone sample interval of each profile, stacked one per row
    of ``v`` and ``dv`` on the arc lengths ``t`` (one row shared by all, or
    one per profile), with one threshold per row: its MonotoneSegment, or
    None when no interval qualifies.

    Qualifying intervals have |v'| >= threshold at every sample (a nan
    slope never qualifies) and strictly monotone v of a single
    orientation; the winner maximizes (min |v'|) * arc length.  Scores are
    compared in (start, end) order and a later interval wins only when it
    beats the best so far by more than 1e-15, as in a scan of all O(K^2)
    intervals.

    Runs are the maximal chains of valid links.  Every interval lies inside
    the widest interval of its run on which its own minimum slope is the
    minimum, and that one scores at least as high, so only those O(K)
    intervals are scored (``_widest_intervals``, all rows in O(K log K)
    array passes).  A candidate that wins beats the best so far by more
    than 1e-15, which is at least every earlier score, so the 1e-15 rule
    runs over each row's strict running-max records alone.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    dv = np.atleast_2d(np.asarray(dv, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), v.shape)
    thresholds = np.asarray(thresholds, dtype=float)
    if dv.shape != v.shape or thresholds.shape != v.shape[:1]:
        raise ValueError("need one row of v and dv and one threshold per "
                         "profile")
    if np.any(thresholds <= 0):
        raise ValueError("eta_threshold must be positive")
    rows, K = v.shape
    slope = np.abs(dv)
    sign = np.where(dv > 0, 1, -1)
    qualifies = slope >= thresholds[:, None]
    link = (qualifies[:, :-1] & qualifies[:, 1:]
            & (sign[:, :-1] == sign[:, 1:])
            & (np.diff(v, axis=1) * sign[:, :-1] > 0))
    row, k, lo, hi = _widest_intervals(np.where(qualifies, slope, -np.inf),
                                       link)
    order = np.argsort((row * K + lo) * K + hi)
    row, k, lo, hi = row[order], k[order], lo[order], hi[order]
    score = slope[row, k] * (t[row, hi] - t[row, lo])
    # each candidate's column within its row, for a running max per row
    count = np.bincount(row, minlength=rows)
    col = np.arange(row.size) - (np.cumsum(count) - count)[row]
    table = np.full((rows, 1 + (count.max() if row.size else 0)), -np.inf)
    table[row, col + 1] = score
    record = score > np.maximum.accumulate(table, axis=1)[row, col]
    best, top = [None] * rows, [None] * rows
    records = np.flatnonzero(record)
    for c, r, x in zip(records.tolist(), row[records].tolist(),
                       score[records].tolist()):
        if best[r] is None or x > top[r] + 1e-15:
            best[r], top[r] = c, x
    return [None if c is None else MonotoneSegment(
        i0=int(lo[c]), i1=int(hi[c]), t_a=float(t[r, lo[c]]),
        t_b=float(t[r, hi[c]]), sign=int(sign[r, k[c]]),
        min_slope=float(slope[r, k[c]])) for r, c in enumerate(best)]


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
