import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitkit.errors import DomainError, PoleError
from slitkit.prime import AnnulusModulus, prime_omega, prime_omega_log_deriv, truncation_error_bound


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

    def test_tolerance_one_means_no_factors(self):
        m = AnnulusModulus(0.5, 1.0)
        assert m.n_terms == 0
        z, a = 0.8 + 0.1j, 0.7 - 0.2j
        assert prime_omega(z, a, m) == z - a

    def test_term_cap(self):
        m = AnnulusModulus(0.99, 1e-12, max_terms=64)
        assert m.n_terms == 64
        assert m.capped


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

    def test_bound_decreases_in_terms(self):
        m = AnnulusModulus(0.5, 1e-12)
        bounds = [truncation_error_bound(m, 1.0, 0.7, n_terms=n) for n in (2, 5, 10, 20)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))


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

    def test_log_deriv_matches_finite_differences(self):
        m = AnnulusModulus(0.5, 1e-12)
        h = 1e-6
        for z, a in ((0.8 + 0.3j, 0.6 - 0.4j), (1.1 + 0.2j, 0.9j), (0.7, 1.2j)):
            z, a = complex(z), complex(a)
            fd = (
                np.log(prime_omega(z + h, a, m)) - np.log(prime_omega(z - h, a, m))
            ) / (2.0 * h)
            assert abs(prime_omega_log_deriv(z, a, m) - fd) < 1e-7 * (1 + abs(fd))

    def test_log_deriv_rejects_z_equal_a(self):
        m = AnnulusModulus(0.5, 1e-12)
        with pytest.raises(PoleError):
            prime_omega_log_deriv(0.6 + 0.2j, 0.6 + 0.2j, m)

    def test_log_deriv_rejects_zero_of_a_factor(self):
        # z = q a zeroes the first factor 1 - q a/z, q = r^2 = 0.25
        m = AnnulusModulus(0.5, 1e-12)
        with pytest.raises(PoleError):
            prime_omega_log_deriv(0.25, 1.0, m)
