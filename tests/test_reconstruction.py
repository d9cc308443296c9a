import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrinv.forward import ExponentialLaw, LinearLaw, TabulatedLaw
from corrinv.reconstruction import (
    BoundaryProfile,
    EmptyIntervalError,
    MonotoneSegment,
    ReconstructedNonlinearity,
    extract_f,
    find_monotone_segment,
    oscillation,
    overlap_and_error,
)

from conftest import interpolant_score


def profile_from_callable(fn, dfn, flux=None, n=101, t_end=1.0):
    t = np.linspace(0.0, t_end, n)
    v = fn(t)
    w = flux(t) if flux is not None else np.zeros_like(t)
    return BoundaryProfile(t=t, v=v, w=w, dv=dfn(t))


def scan_one(profile, eta):
    """find_monotone_segment on a batch of one profile: its segment, or
    None."""
    [seg] = find_monotone_segment(profile.t, profile.v, profile.dv, [eta])
    return seg


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


def pairwise_best_segment(profile, eta):
    """exhaustive_best_segment, vectorized over the ends of each start for
    long profiles.  The ends of the intervals from start i that qualify
    form one range, since each prefix of such an interval qualifies; their
    scores come at once, and the 1e-15 rule runs over them in order."""
    t, v, dv = profile.t, profile.v, profile.dv
    slope, sign, step = np.abs(dv), np.sign(dv), np.sign(np.diff(v))
    best = None
    for i in range(t.size - 1):
        if not slope[i] >= eta:
            continue
        # whether end j = i + 1 + m extends [i, j - 1]
        extends = ((slope[i + 1:] >= eta) & (sign[i + 1:] == sign[i])
                   & (step[i:] == sign[i]))
        end = i + 1 + (extends.size if extends.all() else np.argmin(extends))
        scores = (np.minimum.accumulate(slope[i:end])[1:]
                  * (t[i + 1:end] - t[i]))
        m = 0
        while True:
            bar = -np.inf if best is None else best[0] + 1e-15
            above = np.flatnonzero(scores[m:] > bar)
            if above.size == 0:
                break
            m += above[0]
            best = (scores[m], i, i + 1 + m)
            m += 1
    return best


def adversarial_rows(rng, K):
    """(v, dv, eta) rows on the grid 0.125 * arange(K), where every score
    is exact and ties are common: a staircase with flat treads, one slope
    magnitude with runs cut by sign changes of v', one slope with runs cut
    by steps back in v, slopes from three values below and above eta, a
    noisy walk, and one run over the whole row with tied slopes."""
    steps = rng.choice([0.0, 1.0, 1.0, 1.0], K - 1)
    flips = np.where(rng.random(K) < 0.05, -1.0, 1.0)
    back = np.where(rng.random(K - 1) < 0.05, -1.0, 1.0)
    walk = np.cumsum(rng.normal(0.0, 1.0, K))
    return [
        (np.append(0.0, np.cumsum(steps)), rng.choice([1.0, 2.0, 4.0], K),
         1.0),
        (np.arange(K, dtype=float), 2.0 * flips, 2.0),
        (np.append(0.0, np.cumsum(back)), np.full(K, 3.0), 1.0),
        (np.arange(K, dtype=float), rng.choice([0.5, 1.0, 2.0], K), 1.0),
        (walk, np.gradient(walk, 0.125), 0.25 * 8.0),
        (np.arange(K, dtype=float), rng.choice([1.0, 2.0, 4.0], K), 1.0),
    ]


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
        assert oscillation(p.v) == pytest.approx(2.0, abs=1e-5)
        flat = profile_from_callable(lambda t: 0 * t, lambda t: 0 * t)
        assert oscillation(flat.v) == 0.0


def tied_profiles():
    """Profiles whose best intervals tie exactly or within 1e-15, with the
    winner of the tie rule (first in (start, end) order).  Binary-fraction
    grids and slopes make every score exact."""
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
    # a later run better by one ulp, less than the rule's 1e-15
    t = np.arange(11) * 0.125
    yield BoundaryProfile(t=t, v=np.arange(11.0), w=np.zeros(11),
                          dv=[4.0] * 5 + [0.0] + [np.nextafter(4.0, 5.0)] * 5
                          ), (0, 4)


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
                assert scan_one(p, eta) is None
                continue
            seg = scan_one(p, eta)
            assert (seg.i0, seg.i1) == (oracle[1], oracle[2])
            assert seg.min_slope * (seg.t_b - seg.t_a) == pytest.approx(
                oracle[0], rel=1e-12)
            checked += 1
        assert checked >= 20  # the random profiles mostly qualify

    @pytest.mark.parametrize("profile,winner", list(tied_profiles()))
    def test_exact_ties_go_to_the_first_interval(self, profile, winner):
        eta = 0.25 * np.max(np.abs(profile.dv))
        oracle = exhaustive_best_segment(profile, eta)
        seg = scan_one(profile, eta)
        assert (oracle[1], oracle[2]) == winner
        assert (seg.i0, seg.i1) == winner
        assert seg.min_slope * (seg.t_b - seg.t_a) == oracle[0]

    # one batched scan over rows built to break it, against the oracle:
    # exhaustive on short rows, pairwise (itself checked against the
    # exhaustive one there) on rows of up to 4001 samples
    @pytest.mark.parametrize("K", [2, 3, 5, 17, 64, 4001])
    def test_adversarial_rows_match_the_oracle(self, K):
        rng = np.random.default_rng(K)
        t = 0.125 * np.arange(K)
        rows = adversarial_rows(rng, K)
        v, dv, eta = (np.array(column) for column in zip(*rows))
        segments = find_monotone_segment(t, v, dv, eta)
        assert len(segments) == len(rows)
        for (vr, dvr, eta_r), seg in zip(rows, segments):
            p = BoundaryProfile(t=t, v=vr, w=np.zeros(K), dv=dvr)
            oracle = pairwise_best_segment(p, eta_r)
            if K <= 64:
                assert exhaustive_best_segment(p, eta_r) == oracle
            if oracle is None:
                assert seg is None
                continue
            assert (seg.i0, seg.i1) == oracle[1:]
            assert seg.min_slope * (seg.t_b - seg.t_a) == oracle[0]
            assert seg.sign == np.sign(dvr[seg.i0])

    def test_rows_are_scanned_as_if_alone(self):
        rng = np.random.default_rng(7)
        profiles = [random_profile(rng, 150) for _ in range(6)]
        t = 0.125 * np.arange(profiles[0].t.size)
        v = np.array([np.resize(p.v, t.size) for p in profiles])
        dv = np.array([np.resize(p.dv, t.size) for p in profiles])
        eta = 0.25 * np.max(np.abs(dv), axis=1)
        together = find_monotone_segment(t, v, dv, eta)
        for r in range(len(profiles)):
            [alone] = find_monotone_segment(t, v[r], dv[r], eta[r:r + 1])
            assert together[r] == alone

    def test_simple_ramp(self):
        p = profile_from_callable(lambda t: t, lambda t: np.ones_like(t))
        seg = scan_one(p, 0.5)
        assert (seg.i0, seg.i1) == (0, p.t.size - 1)
        assert seg.sign == 1
        assert seg.min_slope == pytest.approx(1.0)

    def test_decreasing_branch(self):
        p = profile_from_callable(lambda t: np.cos(np.pi * t),
                                  lambda t: -np.pi * np.sin(np.pi * t))
        seg = scan_one(p, 0.5)
        assert seg.sign == -1
        assert seg.t_a > 0.0 and seg.t_b < 1.0

    def test_threshold_validation(self):
        p = profile_from_callable(lambda t: t, lambda t: np.ones_like(t))
        with pytest.raises(ValueError):
            scan_one(p, 0.0)

    def test_flat_profile_has_no_segment(self):
        p = profile_from_callable(lambda t: 0 * t, lambda t: 0 * t)
        assert scan_one(p, 0.1) is None


class TestExtractF:
    def law_profile(self, law, n=201):
        # v = t, w = law(v): the flux literally is the law along the segment
        t = np.linspace(0.0, 1.0, n)
        return BoundaryProfile(t=t, v=t, w=law(t), dv=np.ones_like(t))

    def test_recovers_law_graph(self):
        law = lambda u: 0.3 * (np.exp(0.5 * u) - np.exp(-0.5 * u))
        p = self.law_profile(law)
        seg = scan_one(p, 0.5)
        rec = extract_f(p, seg, trim=0.1)
        assert rec.interval == pytest.approx((0.1, 0.9))
        u = np.linspace(0.1, 0.9, 200)
        np.testing.assert_allclose(rec(u), law(u), atol=1e-4)

    def test_endpoint_knots_cover_interval(self):
        p = self.law_profile(lambda u: u**2)
        seg = scan_one(p, 0.5)
        rec = extract_f(p, seg, trim=0.123456)
        assert rec.u_knots[0] == pytest.approx(0.123456)
        assert rec.u_knots[-1] == pytest.approx(1.0 - 0.123456)

    def test_trim_swallows_interval(self):
        p = self.law_profile(lambda u: u)
        seg = scan_one(p, 0.5)
        with pytest.raises(EmptyIntervalError):
            extract_f(p, seg, trim=0.5)

    def test_negative_trim(self):
        p = self.law_profile(lambda u: u)
        seg = scan_one(p, 0.5)
        with pytest.raises(ValueError):
            extract_f(p, seg, trim=-0.1)

    def test_decreasing_trace_sorted_knots(self):
        t = np.linspace(0.0, 1.0, 101)
        p = BoundaryProfile(t=t, v=1.0 - t, w=(1.0 - t)**2,
                            dv=-np.ones_like(t))
        seg = scan_one(p, 0.5)
        rec = extract_f(p, seg, trim=0.0)
        assert np.all(np.diff(rec.u_knots) > 0)
        u = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(rec(u), u**2, atol=1e-4)

    @given(trim=st.floats(0.0, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_interval_shrinks_by_trim(self, trim):
        p = self.law_profile(lambda u: np.sin(u))
        seg = scan_one(p, 0.5)
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
        rec = self.make((0.5, 1.0), lambda u: u)
        (a, b), err = overlap_and_error(rec, lambda u: u + 0.25 * u**2)
        assert (a, b) == (0.5, 1.0)
        # sup of 0.25 u^2 on [0.5, 1], taken at u = 1
        assert err == pytest.approx(0.25, rel=1e-15)

    def test_identical_reconstructions(self):
        r = self.make((0.0, 1.0), np.cos)
        (a, b), err = overlap_and_error(r, r)
        assert (a, b) == (0.0, 1.0)
        assert err == 0.0

    @pytest.mark.parametrize("law", [
        ExponentialLaw(lam=0.1, a=0.5),
        LinearLaw(0.7),
        TabulatedLaw([-1.0, 0.0, 0.5, 1.0], [-0.2, 0.0, 0.1, 0.35]),
    ], ids=["exponential", "linear", "tabulated"])
    def test_differs_from_the_interpolant_reference_by_its_error(self, law):
        # a recovered graph: the law at 60 uneven knots, perturbed by 1e-3;
        # the two scores differ by at most the distance on the grid of the
        # reference's interpolant from the law, a rounding for the linear law
        rng = np.random.default_rng(4)
        u = np.sort(rng.uniform(-0.9, 0.8, 60))
        rec = ReconstructedNonlinearity(
            interval=(u[0], u[-1]), u_knots=u,
            f_knots=law(u) + 1e-3 * rng.standard_normal(u.size))
        interval, err = overlap_and_error(rec, law)
        ref_interval, ref_err = interpolant_score(rec, law)
        assert interval == ref_interval == rec.interval
        grid = np.linspace(*rec.interval, 1000)
        knots = np.linspace(*rec.interval, 1001)
        gap = np.max(np.abs(law(grid) - np.interp(grid, knots, law(knots))))
        assert abs(err - ref_err) <= gap + 1e-15


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
