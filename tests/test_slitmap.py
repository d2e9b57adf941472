import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitkit.errors import ConvergenceError, DomainError, NumericalOverflowError, PoleError
from slitkit.prime import AnnulusModulus
from slitkit.slitmap import (
    MobiusReal,
    SlitMapParams,
    f_eval,
    f_inverse,
    f_inverse_real_segment,
    f_prime,
    f_prime_at_center,
    mobius_apply,
    mobius_inverse,
    q_of,
    q_prime_at_x0,
    slit_dist_after_mobius,
    slit_endpoint,
)


@pytest.fixture(scope="module")
def params():
    return SlitMapParams(AnnulusModulus(0.5, 1e-12), 0.75)


class TestMapValues:
    def test_zero_at_center(self, params):
        assert abs(f_eval(params, 0.75)) < 1e-13

    def test_value_at_inner_contact(self, params):
        assert abs(f_eval(params, 0.5) - (-0.75)) < 1e-9

    def test_unit_modulus_on_outer_circle(self, params):
        z = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 733))
        assert np.abs(np.abs(f_eval(params, z)) - 1.0).max() < 1e-9

    def test_slit_modulus_on_inner_circle(self, params):
        z = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 733))
        assert np.abs(np.abs(f_eval(params, z)) - 0.75).max() < 1e-9

    def test_real_symmetry(self, params):
        rng = np.random.default_rng(21)
        z = rng.uniform(0.55, 0.95, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
        assert np.abs(f_eval(params, np.conj(z)) - np.conj(f_eval(params, z))).max() < 1e-12

    def test_rejects_outside_extended_annulus(self, params):
        with pytest.raises(DomainError):
            f_eval(params, 2.0 + 0j)
        with pytest.raises(DomainError):
            f_eval(params, 0.1 + 0j)

    @settings(max_examples=40, deadline=None)
    @given(mod=st.floats(0.02, 0.98), ang=st.floats(0.0, 2.0 * math.pi))
    def test_interior_values_inside_disk(self, mod, ang):
        p = SlitMapParams(AnnulusModulus(0.5, 1e-12), 0.75)
        z = (0.5 + mod * 0.5) * complex(math.cos(ang), math.sin(ang))
        assert abs(f_eval(p, z)) <= 1.0 + 1e-12


class TestPolesAndOverflow:
    def test_derivative_rejects_center(self, params):
        with pytest.raises(PoleError):
            f_prime(params, 0.75)
        with pytest.raises(PoleError):
            f_prime(params, np.array([0.6 + 0.1j, 0.75, 0.8j]))

    def test_map_rejects_poles_on_extension_boundary(self, params):
        # the zero 1/x and the factor zero r^2/x of omega(., 1/x)
        for z in (1.0 / 0.75, 0.25 / 0.75):
            with pytest.raises(PoleError):
                f_eval(params, z)

    def test_overflowing_products_raise(self):
        # 256 capped factors, each divided by (1 - q^n)^2 with q near 1
        p = SlitMapParams(AnnulusModulus(0.999, 1e-12), 0.9995)
        with pytest.raises(NumericalOverflowError):
            f_eval(p, 0.9995j)
        with pytest.raises(NumericalOverflowError):
            f_prime(p, 0.9995j)
        with pytest.raises(NumericalOverflowError):
            slit_endpoint(p)


class TestDerivative:
    def test_matches_finite_differences(self, params):
        h = 1e-6
        rng = np.random.default_rng(22)
        pts = rng.uniform(0.55, 0.95, 20) * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
        for z in pts:
            z = complex(z)
            fd = (f_eval(params, z + h) - f_eval(params, z - h)) / (2.0 * h)
            assert abs(f_prime(params, z) - fd) < 1e-6 * (1.0 + abs(fd))

    def test_center_derivative_closed_form(self, params):
        h = 1e-6
        fd = (f_eval(params, 0.75 + h) - f_eval(params, 0.75 - h)) / (2.0 * h)
        d = f_prime_at_center(params)
        assert abs(d - fd.real) < 1e-6 * abs(d)
        assert d > 1.0 / (1.0 - 0.75 ** 2)

    def test_derivative_nonzero_on_annulus(self, params):
        z = np.exp(1j * np.linspace(0.1, 2.0, 50)) * 0.8
        for zz in z:
            assert abs(f_prime(params, complex(zz))) > 1e-6


class TestSlitEndpoint:
    def test_endpoint_radius_and_half_plane(self, params):
        arc = slit_endpoint(params)
        assert abs(arc.radius - 0.75) < 1e-12
        assert abs(abs(arc.endpoint_plus) - 0.75) < 1e-9
        assert arc.endpoint_plus.imag > 0.0

    def test_against_dense_sampling(self, params):
        arc = slit_endpoint(params)
        theta = np.linspace(0.0, 2.0 * math.pi, 200001)
        w = f_eval(params, 0.5 * np.exp(1j * theta))
        dense = float(np.mod(np.angle(w), 2.0 * math.pi).min())
        assert abs(math.atan2(arc.endpoint_plus.imag, arc.endpoint_plus.real) - dense) < 1e-6

    def test_width_shrinks_as_x_grows(self):
        m = AnnulusModulus(0.5, 1e-12)
        widths = []
        for x in (0.75, 0.9, 0.99):
            arc = slit_endpoint(SlitMapParams(m, x))
            th = math.atan2(arc.endpoint_plus.imag, arc.endpoint_plus.real)
            widths.append(2.0 * math.pi - 2.0 * th)
        assert widths[0] > widths[1] > widths[2]


class TestInverse:
    def test_roundtrip(self, params):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0.55, 0.95, 30) * np.exp(1j * rng.uniform(0, 2 * math.pi, 30))
        for z in pts:
            z = complex(z)
            w = f_eval(params, z)
            back = f_inverse(params, w, z * (1.0 + 1e-4))
            assert abs(back - z) < 1e-10

    def test_real_segment_hits_target(self, params):
        for w in np.linspace(-0.75, -1e-3, 25):
            z = f_inverse_real_segment(params, float(w))
            assert 0.5 - 1e-9 < z <= 0.75 + 1e-12
            assert abs(f_eval(params, z) - w) < 1e-10

    def test_real_segment_endpoints(self, params):
        assert abs(f_inverse_real_segment(params, -0.75) - 0.5) < 1e-9
        assert abs(f_inverse_real_segment(params, 0.0) - 0.75) < 1e-12

    def test_rejects_target_outside_segment(self, params):
        with pytest.raises(DomainError):
            f_inverse_real_segment(params, 0.5)
        with pytest.raises(DomainError):
            f_inverse_real_segment(params, -0.9)

    def test_diverging_seed_raises(self, params):
        with pytest.raises((ConvergenceError, DomainError)):
            f_inverse(params, 5.0 + 0j, 0.8)


class TestMobius:
    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(-0.95, 0.95), mod=st.floats(0.0, 0.99), ang=st.floats(0.0, 2 * math.pi))
    def test_roundtrip(self, c, mod, ang):
        t = MobiusReal(c)
        z = mod * complex(math.cos(ang), math.sin(ang))
        assert abs(mobius_apply(mobius_inverse(t), mobius_apply(t, z)) - z) < 1e-12

    def test_fixes_unit_circle(self):
        t = MobiusReal(0.4)
        z = np.exp(1j * np.linspace(0, 2 * math.pi, 100))
        assert np.abs(np.abs(mobius_apply(t, z)) - 1.0).max() < 1e-12

    def test_rejects_bad_parameter(self):
        for c in (1.0, -1.2, math.nan):
            with pytest.raises(DomainError):
                MobiusReal(c)


class TestRecentredQuantities:
    def test_q_at_x0_is_minus_x0(self):
        m = AnnulusModulus(0.25, 1e-12)
        assert abs(q_of(0.8, 0.8, m) - (-0.8)) < 1e-10

    def test_q_prime_positive_and_matches_fd(self):
        m = AnnulusModulus(0.25, 1e-12)
        x0, h = 0.8, 1e-4
        qp = q_prime_at_x0(x0, m)
        fd = (3.0 * q_of(x0, x0, m) - 4.0 * q_of(x0 - h, x0, m) + q_of(x0 - 2 * h, x0, m)) / (2.0 * h)
        assert qp > 0.0
        assert abs(qp - fd) < 1e-6

    def test_slit_dist_matches_dense_sampling(self):
        m = AnnulusModulus(0.25, 1e-12)
        x0 = 0.8
        for x in (0.525, 0.6625, 0.73125):
            d = slit_dist_after_mobius(x, x0, m)
            p = SlitMapParams(m, x)
            c = float(np.real(f_eval(p, x0)))
            t = MobiusReal(c)
            theta = np.linspace(0.0, 2.0 * math.pi, 200001)
            vals = mobius_apply(t, f_eval(p, 0.25 * np.exp(1j * theta)))
            assert abs(d - float(np.abs(vals).min())) < 1e-8

    def test_pair_ordering_enforced(self):
        m = AnnulusModulus(0.25, 1e-12)
        with pytest.raises(DomainError):
            q_of(0.85, 0.8, m)


class TestReflection:
    def test_swap_identity(self):
        m = AnnulusModulus(0.3, 1e-12)
        xs = np.linspace(0.35, 0.95, 8)
        for x in xs:
            for alpha in xs:
                px = SlitMapParams(m, float(x))
                pa = SlitMapParams(m, float(alpha))
                lhs = f_eval(pa, float(x))
                rhs = -f_eval(px, float(alpha))
                assert abs(lhs - rhs) < 1e-10
