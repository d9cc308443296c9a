import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrinv.reconstruction import (
    BoundaryProfile,
    DisjointIntervalsError,
    EmptyIntervalError,
    MonotoneSegment,
    NoMonotoneSegmentError,
    ReconstructedNonlinearity,
    extract_f,
    find_monotone_segment,
    oscillation,
    overlap_and_error,
)


def profile_from_callable(fn, dfn, flux=None, n=101, t_end=1.0):
    t = np.linspace(0.0, t_end, n)
    v = fn(t)
    w = flux(t) if flux is not None else np.zeros_like(t)
    return BoundaryProfile(t=t, v=v, w=w, dv=dfn(t))


def exhaustive_best_segment(profile, eta):
    """Independent oracle for the segment search: enumerate every index
    pair, recheck the qualification conditions from scratch, and keep the
    highest score (ties by earliest start)."""
    t, v, dv = profile.t, profile.v, profile.dv
    best = None
    K = t.size
    for i in range(K - 1):
        for j in range(i + 1, K):
            s = dv[i:j + 1]
            if np.min(np.abs(s)) < eta:
                continue
            if not (np.all(s > 0) or np.all(s < 0)):
                continue
            dvv = np.diff(v[i:j + 1])
            if not (np.all(dvv > 0) or np.all(dvv < 0)):
                continue
            if np.sign(dvv[0]) != np.sign(s[0]):
                continue
            score = np.min(np.abs(s)) * (t[j] - t[i])
            if best is None or score > best[0] + 1e-15:
                best = (score, i, j)
    return best


def random_profile(rng, n):
    t = np.sort(rng.uniform(0.0, 1.0, n))
    t[0], t[-1] = 0.0, 1.0
    t = np.unique(t)
    v = np.cumsum(rng.normal(0.0, 0.1, t.size))
    dv = np.gradient(v, t)
    w = rng.normal(0.0, 1.0, t.size)
    return BoundaryProfile(t=t, v=v, w=w, dv=dv)


class TestBoundaryProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryProfile(t=[0.0, 1.0], v=[0.0], w=[0.0, 1.0],
                            dv=[0.0, 1.0])
        with pytest.raises(ValueError):
            BoundaryProfile(t=[0.0, 0.0], v=[0.0, 1.0], w=[0.0, 1.0],
                            dv=[0.0, 1.0])
        with pytest.raises(ValueError):
            BoundaryProfile(t=[], v=[], w=[], dv=[])


class TestOscillation:
    def test_known_values(self):
        p = profile_from_callable(np.sin, np.cos, t_end=2 * np.pi, n=2001)
        assert oscillation(p) == pytest.approx(2.0, abs=1e-5)
        flat = profile_from_callable(lambda t: 0 * t, lambda t: 0 * t)
        assert oscillation(flat) == 0.0


def tied_profiles():
    """Profiles whose best intervals tie exactly, with the winner of the
    tie rule (first in (start, end) order).  Binary-fraction grids and
    slopes make every score exact."""
    # two runs of slope magnitude 4 and equal length, up then down
    t = np.arange(9) * 0.25
    yield BoundaryProfile(t=t, v=[0, 1, 2, 3, 4, 3, 2, 1, 0], w=np.zeros(9),
                          dv=[4, 4, 4, 4, 0, -4, -4, -4, -4]), (0, 3)
    # slope 1 over length 1 against slope 2 over length 0.5, both orders
    t = np.arange(15) * 0.125
    dv = np.array([-1.0] * 9 + [0.0] + [2.0] * 5)
    yield BoundaryProfile(t=t, v=np.cumsum(np.sign(dv)), w=np.zeros(15),
                          dv=dv), (0, 8)
    yield BoundaryProfile(t=t, v=np.cumsum(np.sign(dv[::-1])),
                          w=np.zeros(15), dv=dv[::-1]), (0, 4)
    # two tied sub-intervals of one run, each beating the whole run
    t = np.arange(7) * 0.125
    yield BoundaryProfile(t=t, v=np.arange(7.0), w=np.zeros(7),
                          dv=[4, 4, 4, 1, 4, 4, 4]), (0, 2)


class TestFindMonotoneSegment:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        profiles = [random_profile(rng, int(rng.integers(5, 200)))
                    for _ in range(50)]
        profiles += [p for p, _ in tied_profiles()]
        for p in profiles:
            eta = 0.25 * np.max(np.abs(p.dv))
            oracle = exhaustive_best_segment(p, eta)
            if oracle is None:
                with pytest.raises(NoMonotoneSegmentError):
                    find_monotone_segment(p, eta)
                continue
            seg = find_monotone_segment(p, eta)
            assert (seg.i0, seg.i1) == (oracle[1], oracle[2])
            assert seg.min_slope * (seg.t_b - seg.t_a) == pytest.approx(
                oracle[0], rel=1e-12)
            checked += 1
        assert checked >= 20  # the random profiles mostly qualify

    @pytest.mark.parametrize("profile,winner", list(tied_profiles()))
    def test_exact_ties_go_to_the_first_interval(self, profile, winner):
        eta = 0.25 * np.max(np.abs(profile.dv))
        oracle = exhaustive_best_segment(profile, eta)
        seg = find_monotone_segment(profile, eta)
        assert (oracle[1], oracle[2]) == winner
        assert (seg.i0, seg.i1) == winner
        assert seg.min_slope * (seg.t_b - seg.t_a) == oracle[0]

    def test_simple_ramp(self):
        p = profile_from_callable(lambda t: t, lambda t: np.ones_like(t))
        seg = find_monotone_segment(p, 0.5)
        assert (seg.i0, seg.i1) == (0, p.t.size - 1)
        assert seg.sign == 1
        assert seg.min_slope == pytest.approx(1.0)

    def test_decreasing_branch(self):
        p = profile_from_callable(lambda t: np.cos(np.pi * t),
                                  lambda t: -np.pi * np.sin(np.pi * t))
        seg = find_monotone_segment(p, 0.5)
        assert seg.sign == -1
        assert seg.t_a > 0.0 and seg.t_b < 1.0

    def test_threshold_validation(self):
        p = profile_from_callable(lambda t: t, lambda t: np.ones_like(t))
        with pytest.raises(ValueError):
            find_monotone_segment(p, 0.0)

    def test_flat_profile_raises(self):
        p = profile_from_callable(lambda t: 0 * t, lambda t: 0 * t)
        with pytest.raises(NoMonotoneSegmentError):
            find_monotone_segment(p, 0.1)


class TestExtractF:
    def law_profile(self, law, n=201):
        # v = t, w = law(v): the flux literally is the law along the segment
        t = np.linspace(0.0, 1.0, n)
        return BoundaryProfile(t=t, v=t, w=law(t), dv=np.ones_like(t))

    def test_recovers_law_graph(self):
        law = lambda u: 0.3 * (np.exp(0.5 * u) - np.exp(-0.5 * u))
        p = self.law_profile(law)
        seg = find_monotone_segment(p, 0.5)
        rec = extract_f(p, seg, trim=0.1)
        assert rec.interval == pytest.approx((0.1, 0.9))
        u = np.linspace(0.1, 0.9, 200)
        np.testing.assert_allclose(rec(u), law(u), atol=1e-4)

    def test_endpoint_knots_cover_interval(self):
        p = self.law_profile(lambda u: u**2)
        seg = find_monotone_segment(p, 0.5)
        rec = extract_f(p, seg, trim=0.123456)
        assert rec.u_knots[0] == pytest.approx(0.123456)
        assert rec.u_knots[-1] == pytest.approx(1.0 - 0.123456)

    def test_trim_swallows_interval(self):
        p = self.law_profile(lambda u: u)
        seg = find_monotone_segment(p, 0.5)
        with pytest.raises(EmptyIntervalError):
            extract_f(p, seg, trim=0.5)

    def test_negative_trim(self):
        p = self.law_profile(lambda u: u)
        seg = find_monotone_segment(p, 0.5)
        with pytest.raises(ValueError):
            extract_f(p, seg, trim=-0.1)

    def test_decreasing_trace_sorted_knots(self):
        t = np.linspace(0.0, 1.0, 101)
        p = BoundaryProfile(t=t, v=1.0 - t, w=(1.0 - t)**2,
                            dv=-np.ones_like(t))
        seg = find_monotone_segment(p, 0.5)
        rec = extract_f(p, seg, trim=0.0)
        assert np.all(np.diff(rec.u_knots) > 0)
        u = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(rec(u), u**2, atol=1e-4)

    @given(trim=st.floats(0.0, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_interval_shrinks_by_trim(self, trim):
        p = self.law_profile(lambda u: np.sin(u))
        seg = find_monotone_segment(p, 0.5)
        rec = extract_f(p, seg, trim=trim)
        a, b = rec.interval
        assert a == pytest.approx(trim, abs=1e-12)
        assert b == pytest.approx(1.0 - trim, abs=1e-12)


class TestReconstructedNonlinearity:
    def test_knot_validation(self):
        with pytest.raises(ValueError):
            ReconstructedNonlinearity(interval=(0, 1), u_knots=[0.5],
                                      f_knots=[1.0])
        with pytest.raises(ValueError):
            ReconstructedNonlinearity(interval=(0, 1),
                                      u_knots=[0.5, 0.5],
                                      f_knots=[1.0, 2.0])
        with pytest.raises(ValueError):
            ReconstructedNonlinearity(interval=(0, 1),
                                      u_knots=[-0.5, 0.5],
                                      f_knots=[1.0, 2.0])

    def test_interpolation(self):
        rec = ReconstructedNonlinearity(interval=(0, 2),
                                        u_knots=[0.0, 1.0, 2.0],
                                        f_knots=[0.0, 2.0, 2.0])
        assert rec(0.5) == pytest.approx(1.0)
        np.testing.assert_allclose(rec([1.0, 1.5]), [2.0, 2.0])


class TestOverlapAndError:
    def make(self, interval, fn, n=50):
        u = np.linspace(*interval, n)
        return ReconstructedNonlinearity(interval=interval, u_knots=u,
                                         f_knots=fn(u))

    def test_known_sup_distance(self):
        r1 = self.make((0.0, 1.0), lambda u: u)
        r2 = self.make((0.5, 2.0), lambda u: u + 0.25 * u**2)
        (a, b), err = overlap_and_error(r1, r2)
        assert (a, b) == (0.5, 1.0)
        # sup of 0.25 u^2 on [0.5, 1] is 0.25, up to interpolation error
        assert err == pytest.approx(0.25, abs=1e-3)

    def test_identical_reconstructions(self):
        r = self.make((0.0, 1.0), np.cos)
        (a, b), err = overlap_and_error(r, r)
        assert (a, b) == (0.0, 1.0)
        assert err == 0.0

    def test_disjoint_raises(self):
        r1 = self.make((0.0, 1.0), lambda u: u)
        r2 = self.make((2.0, 3.0), lambda u: u)
        with pytest.raises(DisjointIntervalsError):
            overlap_and_error(r1, r2)


class TestMonotoneSegmentDataclass:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneSegment(i0=3, i1=3, t_a=0.0, t_b=1.0, sign=1,
                            min_slope=1.0)
        with pytest.raises(ValueError):
            MonotoneSegment(i0=0, i1=3, t_a=0.0, t_b=1.0, sign=1,
                            min_slope=0.0)

    def test_derived_quantities(self):
        seg = MonotoneSegment(i0=0, i1=4, t_a=0.2, t_b=0.8, sign=-1,
                              min_slope=0.5)
        assert seg.min_slope * (seg.t_b - seg.t_a) == pytest.approx(0.3)
