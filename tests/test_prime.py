import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slitkit import prime
from slitkit.errors import DomainError, NumericalOverflowError
from slitkit.prime import (
    BAND_INNER,
    BAND_OUTER,
    AnnulusModulus,
    prime_omega,
    truncation_error_bound,
)


def _assert_within_bound(m, mp_omega, seed=17):
    """prime_omega meets the infinite product within its bound plus 1e-14.

    The points are interior ones, |z| and |a| in (r, 1), and band-edge ones:
    |z/a| at 1/r^2 and r^2, the edge of the band trunc_tol covers, and at the
    edges of the band prime_omega accepts.
    """
    mp = pytest.importorskip("mpmath")
    r = m.r
    rng = np.random.default_rng(seed)
    lo, hi = BAND_INNER * r * r * (1.0 + 1e-9), BAND_OUTER / r * (1.0 - 1e-9)
    mags = [(rng.uniform(r, 1.0), rng.uniform(r, 1.0)) for _ in range(4)]
    mags += [(1.0, r * r * (1.0 + 1e-9)), (r * r * (1.0 + 1e-9), 1.0), (hi, lo), (lo, hi)]
    with mp.workdps(30):
        for zm, am in mags:
            z = zm * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            a = am * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            ref = mp_omega(complex(z), complex(a), r)
            err = float(abs(mp.mpc(complex(prime_omega(z, a, m))) - ref) / abs(ref))
            assert err <= truncation_error_bound(m, zm, am) + 1e-14, (r, zm, am)


def _rel(a, b):
    return np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)


def _random_band_points(r, rng, n, lo=None, hi=None):
    lo = r if lo is None else lo
    hi = 1.0 / r if hi is None else hi
    mod = rng.uniform(lo * 1.001, hi * 0.999, n)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    return mod * np.exp(1j * ang)


class TestModulus:
    def test_rejects_bad_r(self):
        for r in (0.0, 1.0, -0.3, 1.5, math.nan):
            with pytest.raises(DomainError):
                AnnulusModulus(r)

    def test_term_count_grows_with_tighter_tolerance(self):
        loose = AnnulusModulus(0.5, 1e-6)
        tight = AnnulusModulus(0.5, 1e-14)
        assert tight.n_terms > loose.n_terms

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_tolerance_one_meets_its_bound(self, r, mp_omega):
        # The loosest tolerance still keeps a head factor: the tail series
        # converges only for q^(M+1) |z/a| < 1, and M = 0 leaves q |z/a| up
        # to 1 in the band.
        m = AnnulusModulus(r, 1.0)
        assert m.plan[0] >= 1
        _assert_within_bound(m, mp_omega)

    def test_term_cap(self):
        # No cap binds on M + K: at 1e-12 the plan takes 224 + 39 = 263
        # terms at r = 0.9984 and meets the tolerance.  The one limit left is
        # the overflow of the head normalisation, which the error names
        # however many head factors r asks for.
        r = 0.9984
        m = AnnulusModulus(r)
        assert m.plan == (224, 39) and m.n_terms == 263
        assert truncation_error_bound(m, 1.0, r * r * (1.0 + 1e-12)) <= m.trunc_tol
        for r in (0.9985, 0.99855, 0.9987, 0.999, 0.9999):
            with pytest.raises(DomainError, match=rf"r = {r} overflows the normalisation .* head factors, for any trunc_tol"):
                AnnulusModulus(r, 0.5)

    @pytest.mark.parametrize("tol", [1.0, 1e-12, 1e-300, 5e-324])
    def test_every_tolerance_up_to_the_overflow_limit(self, tol):
        # Every positive finite tolerance has a plan below the limit.  From
        # r = 0.998497 the normalisation of the head factors overflows,
        # whatever the tolerance, and it stops at the overflow however many
        # head factors r asks for.
        for r in (0.99836, 0.9984, 0.99849, 0.998496):
            m = AnnulusModulus(r, tol)
            assert prime._worst_bound(r * r, *m.plan) <= tol
            assert math.isfinite(m.normalisation)
        for r in (0.998497, 0.9985, 0.99852, 0.99855, 0.999, 1.0 - 1e-12):
            with pytest.raises(DomainError, match=rf"r = {r} overflows the normalisation .* for any trunc_tol"):
                AnnulusModulus(r, tol)

    def test_plan_table(self):
        # Deterministic work counts at trunc_tol = 1e-12, (M, K) per r.  For
        # scale, the rule r^(2N) <= trunc_tol gives the plain product 6, 16,
        # 20, 39, 62 and 132 factors at r = 0.1, 0.4, 0.5, 0.7, 0.8 and 0.9.
        plans = {0.1: (2, 2), 0.2: (3, 2), 0.4: (4, 3), 0.5: (4, 4), 0.7: (6, 6),
                 0.8: (8, 7), 0.9: (11, 11), 0.97: (21, 20), 0.99: (37, 35),
                 0.9984: (224, 39)}
        assert {r: AnnulusModulus(r).plan for r in plans} == plans

    @settings(max_examples=150, deadline=None)
    @given(
        # The second range holds the r next to the overflow limit.
        r=st.one_of(st.floats(0.01, 0.998496), st.floats(0.9982, 0.998496)),
        e1=st.floats(-15.0, 0.0),
        e2=st.floats(-15.0, 0.0),
    )
    @example(r=0.9984, e1=0.0, e2=-12.0)
    @example(r=0.9983, e1=-13.0, e2=-15.0)
    def test_plan_is_least_tail_for_one_head(self, r, e1, e2):
        # M depends on r alone and K is the least count that meets tol.
        q = r * r
        heads, terms = set(), []
        for tol in (10.0 ** max(e1, e2), 10.0 ** min(e1, e2)):
            head, tail = AnnulusModulus(r, tol).plan
            assert prime._worst_bound(q, head, tail) <= tol
            assert tail == 0 or prime._worst_bound(q, head, tail - 1) > tol
            heads.add(head)
            terms.append(head + tail)
        assert len(heads) == 1
        assert terms[0] <= terms[1]


class TestIdentities:
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7])
    def test_antisymmetry(self, r):
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(11)
        z = _random_band_points(r, rng, 64)
        a = _random_band_points(r, rng, 64)
        assert _rel(prime_omega(a, z, m), -prime_omega(z, a, m)).max() < 1e-12

    @pytest.mark.parametrize("r", [0.1, 0.5])
    def test_conjugation(self, r):
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(12)
        z = _random_band_points(r, rng, 64)
        a = _random_band_points(r, rng, 64)
        lhs = prime_omega(np.conj(z), np.conj(a), m)
        assert _rel(lhs, np.conj(prime_omega(z, a, m))).max() < 1e-12

    @pytest.mark.parametrize("r", [0.1, 0.5])
    def test_inversion(self, r):
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(13)
        z = _random_band_points(r, rng, 64, lo=r, hi=1.0)
        a = _random_band_points(r, rng, 64, lo=r, hi=1.0)
        lhs = prime_omega(1.0 / z, 1.0 / a, m)
        rhs = -prime_omega(z, a, m) / (z * a)
        assert _rel(lhs, rhs).max() < 1e-12

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_quasi_periodicity(self, r):
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(14)
        z = _random_band_points(r, rng, 64, lo=1.0, hi=1.0 / r)
        a = _random_band_points(r, rng, 64, lo=r, hi=1.0)
        lhs = prime_omega(r * r * z, a, m)
        rhs = -(a / z) * prime_omega(z, a, m)
        assert _rel(lhs, rhs).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.sampled_from([0.2, 0.4, 0.6]),
        zm=st.floats(0.01, 0.99),
        am=st.floats(0.01, 0.99),
        zt=st.floats(0.0, 2.0 * math.pi),
        at=st.floats(0.0, 2.0 * math.pi),
    )
    def test_antisymmetry_property(self, r, zm, am, zt, at):
        m = AnnulusModulus(r, 1e-12)
        z = (r + zm * (1.0 - r)) * complex(math.cos(zt), math.sin(zt))
        a = (r + am * (1.0 - r)) * complex(math.cos(at), math.sin(at))
        assert _rel(prime_omega(a, z, m), -prime_omega(z, a, m)) < 1e-12


class TestTruncation:
    def test_bound_controls_observed_tail(self):
        rng = np.random.default_rng(15)
        for r in (0.3, 0.5, 0.7):
            coarse = AnnulusModulus(r, 1e-6)
            fine = AnnulusModulus(r, 1e-15)
            z = _random_band_points(r, rng, 32)
            a = _random_band_points(r, rng, 32)
            observed = _rel(prime_omega(z, a, coarse), prime_omega(z, a, fine))
            bound = max(
                truncation_error_bound(coarse, float(zm), float(am))
                for zm, am in zip(np.abs(z), np.abs(a))
            )
            assert observed.max() < 2.0 * bound

    def test_bound_decreases_in_terms(self, mp_omega):
        # 4, 5, 6 and 8 terms at r = 0.5: M = 4 head factors for every
        # tolerance, the plain product first, then tails
        ms = [AnnulusModulus(0.5, tol) for tol in (1e-1, 1e-3, 1e-6, 1e-12)]
        assert [m.plan for m in ms] == [(4, 0), (4, 1), (4, 2), (4, 4)]
        bounds = [truncation_error_bound(m, 1.0, 0.7) for m in ms]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        for m in ms:
            # trunc_tol holds out to |z/a| = 1/r^2 and r^2
            assert truncation_error_bound(m, 1.0, 0.25 * (1.0 + 1e-12)) <= m.trunc_tol
            _assert_within_bound(m, mp_omega)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99])
    def test_bound_holds_against_infinite_product(self, r, mp_omega):
        _assert_within_bound(AnnulusModulus(r), mp_omega)


class TestDomainChecks:
    def test_rejects_outside_band(self):
        m = AnnulusModulus(0.5, 1e-12)
        with pytest.raises(DomainError):
            prime_omega(3.0 + 0j, 0.7, m)
        with pytest.raises(DomainError):
            prime_omega(0.7, 0.1 + 0j, m)

    def test_rejects_zero_and_nonfinite(self):
        m = AnnulusModulus(0.5, 1e-12)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                prime_omega(complex(bad), 0.7, m)

    def test_overflowing_array_raises(self):
        # 179 head factors and 38 tail terms at r = 0.998: omega at
        # z/a = 0.999i is about exp(900)
        with pytest.raises(NumericalOverflowError):
            prime_omega(np.array([0.9995j]), 1.0 / 0.9995, AnnulusModulus(0.998))


class TestKernels:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_point_matches_array(self, r):
        # A real point gives the same bits alone as inside an array: both
        # take IEEE float division and numpy's exp.  A complex point agrees
        # to rounding only, since Python divides a complex scalar by another
        # algorithm than numpy uses for arrays (3.7e-15 apart at most at
        # r = 0.9 on these points).
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(16)
        z = _random_band_points(r, rng, 256)
        a = _random_band_points(r, rng, 256)
        zr, ar = np.abs(z) * np.sign(z.real), np.abs(a)
        alone = [prime_omega(zz, aa, m) for zz, aa in zip(zr.tolist(), ar.tolist())]
        assert all(type(v) is float for v in alone)
        assert np.array_equal(alone, prime_omega(zr, ar, m))
        together = prime_omega(z, a, m)
        alone = np.array([prime_omega(zz, aa, m) for zz, aa in zip(z.tolist(), a.tolist())])
        assert np.all(np.abs(alone - together) <= 1e-14 * np.abs(together))
