import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitkit import slitmap
from slitkit.counterexample import CounterexampleConfig, make_shrinking_arcs
from slitkit.errors import ConvergenceError, DomainError, NumericalOverflowError, PoleError
from slitkit.prime import AnnulusModulus, prime_omega, truncation_error_bound
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
    phi_eval,
    q_of,
    q_prime_at_x0,
    slit_dist_after_mobius,
    slit_endpoint,
    _Phi,
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
            with pytest.raises(PoleError):
                f_prime(params, z)
            with pytest.raises(PoleError):
                f_prime(params, np.array([0.6, z]))

    def test_overflowing_products_raise(self):
        # 179 head factors and 38 tail terms at r = 0.998: both prime
        # functions of f_x reach about exp(900) at z = 0.9995i, x = 0.9995.
        # f_x itself is formed without their normalisations and stays finite
        # there (TestTruncationLimit::test_off_axis_near_limit_meets_its_bound).
        m = AnnulusModulus(0.998)
        for a in (0.9995, 1.0 / 0.9995):
            with pytest.raises(NumericalOverflowError):
                prime_omega(0.9995j, a, m)
            # arrays raise the same error instead of a numpy overflow warning
            with pytest.raises(NumericalOverflowError):
                prime_omega(np.array([0.9995, 0.9995j]), a, m)


def _assert_map_within_bound(m, x, z):
    """f_eval meets the infinite-product map within the sum of the two prime
    functions' truncation bounds plus 1e-14, relative.

    The reference multiplies the ratios of matching factors of omega(z, x)
    and omega(z, 1/x), in which the normalisation cancels, until q^n falls
    below 1e-18 (1 - q): the omitted tail is then below 1e-17 relative.
    """
    mp = pytest.importorskip("mpmath")
    w = f_eval(SlitMapParams(m, x), z)
    with mp.workdps(22):
        q, xm = mp.mpf(m.r) ** 2, mp.mpf(x)
        stop = mp.mpf(1e-18) * (1 - q)
        for zz, ww in zip(np.atleast_1d(z).tolist(), np.atleast_1d(w).tolist()):
            zm = mp.mpc(zz)
            ratio, qn = (zm - xm) / (zm - 1 / xm), q
            while qn > stop:
                ratio *= ((1 - qn * zm / xm) * (1 - qn * xm / zm)
                          / ((1 - qn * zm * xm) * (1 - qn / (zm * xm))))
                qn *= q
            ref = -ratio / xm
            err = float(abs(mp.mpc(ww) - ref) / abs(ref))
            bound = (truncation_error_bound(m, abs(zz), x)
                     + truncation_error_bound(m, abs(zz), 1.0 / x))
            assert err <= bound + 1e-14, (m.r, zz)


def _log_deriv_bound(m, zm, am):
    """The |R'_a| bound of `f_prime` for |z| = zm, |a| = am."""
    head, tail = m.plan
    q = m.r * m.r
    q0, k1 = q ** (head + 1), tail + 1
    rho1, rho2 = q0 * zm / am, q0 * am / zm
    return (rho1 ** k1 / (1.0 - rho1) + rho2 ** k1 / (1.0 - rho2)) / ((1.0 - q ** k1) * zm)


class TestTruncationLimit:
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99])
    def test_default_tolerance_meets_its_bound(self, r):
        # Interior points and points on the edges of the extended annulus
        # r^2/x < |z| < 1/x, where z/x and z x reach r^2 and 1/r^2.
        m = AnnulusModulus(r)
        x = 0.5 * (r + 1.0)
        rng = np.random.default_rng(43)
        mag = rng.uniform(r + 0.1 * (1.0 - r), 1.0 - 0.1 * (1.0 - r), 6)
        mag = np.append(mag, [r * r / x * (1.0 + 1e-9), (1.0 - 1e-9) / x])
        z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, mag.size))
        _assert_map_within_bound(m, x, z)

    @pytest.mark.parametrize("r", [0.99836, 0.9984])
    def test_default_tolerance_meets_its_bound_near_limit(self, r):
        # 218 + 39 and 224 + 39 terms: every tolerance is met below the
        # overflow limit at r = 0.998497, and f_x agrees with the infinite
        # product within its bound at any angle, although the prime
        # functions overflow away from the positive real axis here.
        m = AnnulusModulus(r)
        x = 0.5 * (r + 1.0)
        rng = np.random.default_rng(43)
        mag = rng.uniform(r + 0.1 * (1.0 - r), 1.0 - 0.1 * (1.0 - r), 2)
        _assert_map_within_bound(m, x, mag * np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))

    def test_off_axis_near_limit_meets_its_bound(self):
        # At r = 0.998 both prime functions overflow away from the real axis
        # (TestPolesAndOverflow::test_overflowing_products_raise); f_x, its
        # derivative and the slit endpoint do not.
        m = AnnulusModulus(0.998)
        x = 0.9995
        p = SlitMapParams(m, x)
        z = np.array([0.9995j, -0.9995, m.r * m.r / x * (1.0 + 1e-9) * np.exp(2.5j)])
        _assert_map_within_bound(m, x, z)
        _assert_map_within_bound(m, x, 0.9995j)
        h = 1e-7
        for zz in [*z[:2].tolist(), 0.999 * cmath.exp(2.0j)]:
            cd = (f_eval(p, zz + h) - f_eval(p, zz - h)) / (2.0 * h)
            assert abs(f_prime(p, zz) - cd) < 1e-6 * (1.0 + abs(cd))
        assert np.all(np.isfinite(f_prime(p, z)))
        assert abs(slit_endpoint(p).radius - x) < 1e-12

    @pytest.mark.parametrize("r", [0.99845, 0.99849, 0.998495])
    def test_default_tolerance_evaluates_near_limit(self, r):
        # Up to the overflow limit the default plan gives f_x finite on a
        # polar grid that spans every angle.
        x = 0.5 * (r + 1.0)
        mag = np.linspace(r * (1.0 + 1e-6), x * (1.0 - 1e-6), 20)
        z = mag[:, None] * np.exp(1j * np.linspace(-math.pi, math.pi, 41))
        assert np.all(np.isfinite(f_eval(SlitMapParams(AnnulusModulus(r), x), z)))

    @pytest.mark.parametrize("r", [0.9985, 0.99852, 0.99855])
    def test_named_tolerance_evaluates(self, r):
        # Above the overflow limit the error names no tolerance to retry
        # with: the head normalisation overflows for every one, so neither
        # the default nor the loosest tolerance builds a map.
        for tol in (None, 1.0):
            with pytest.raises(DomainError) as err:
                AnnulusModulus(r) if tol is None else AnnulusModulus(r, tol)
            assert str(err.value).endswith("for any trunc_tol")
            assert ">=" not in str(err.value)


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

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_array_matches_central_difference_and_mpmath(self, r, mp_omega):
        mp = pytest.importorskip("mpmath")
        m = AnnulusModulus(r, 1e-12)
        p = SlitMapParams(m, 0.5 * (r + 1.0))
        rng = np.random.default_rng(42)
        mag = rng.uniform(r + 0.1 * (1.0 - r), 1.0 - 0.1 * (1.0 - r), 8192)
        z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 8192))
        d = f_prime(p, z)
        h = 1e-3 * (1.0 - r)
        cd = (
            f_eval(p, z - 2 * h) - 8.0 * f_eval(p, z - h)
            + 8.0 * f_eval(p, z + h) - f_eval(p, z + 2 * h)
        ) / (12.0 * h)
        assert np.max(np.abs(d - cd) / (1.0 + np.abs(d))) < 1e-8
        # mpmath differentiates, at 30 digits, the function the kernels
        # evaluate: M head factors times the exp of K series terms.  trunc_tol
        # bounds values, not derivatives, so the values alone are held to the
        # infinite product.
        head, tail = m.plan
        with mp.workdps(30):
            x, q = mp.mpf(p.x), mp.mpf(r) ** 2
            c = [q ** ((head + 1) * k) / (k * (1 - q ** k)) for k in range(1, tail + 1)]

            def omega(w, a):
                out = w - a
                for n in range(1, head + 1):
                    out *= (1 - q ** n * w / a) * (1 - q ** n * a / w) / (1 - q ** n) ** 2
                zeta = w / a
                return out * mp.exp(-sum(ck * (zeta ** k + zeta ** -k - 2)
                                         for k, ck in enumerate(c, 1)))

            def f(w):
                return -(omega(w, x) / omega(w, 1 / x)) / x

            for zz, dd in zip(z[::512].tolist(), d[::512].tolist()):
                ref = complex(mp.diff(f, mp.mpc(zz)))
                assert abs(dd - ref) < 1e-12 * (1.0 + abs(ref))
        _assert_map_within_bound(m, p.x, z[::512])

    @pytest.mark.parametrize("trunc_tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_meets_infinite_product_within_derivative_bound(self, r, trunc_tol, mp_omega):
        # f' = f (L(z, x) - L(z, 1/x)) for the log derivatives L of the two
        # prime functions.  Each L is off by at most the bound D that
        # `f_prime` states, and f by the two value bounds, so f' is
        # within |f| (D_x + D_1/x) + |f'| (B_x + B_1/x) of the infinite
        # product's derivative, plus rounding.
        mp = pytest.importorskip("mpmath")
        m = AnnulusModulus(r, trunc_tol)
        x = 0.5 * (r + 1.0)
        p = SlitMapParams(m, x)
        rng = np.random.default_rng(44)
        mag = rng.uniform(r + 0.1 * (1.0 - r), 1.0 - 0.1 * (1.0 - r), 6)
        mag = np.append(mag, [r * r / x * (1.0 + 1e-9), (1.0 - 1e-9) / x])
        z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, mag.size))
        with mp.workdps(30):
            xm = mp.mpf(x)

            def f(w):
                return -(mp_omega(w, xm, r) / mp_omega(w, 1 / xm, r)) / xm

            for zz, dd, ww in zip(z.tolist(), f_prime(p, z).tolist(), f_eval(p, z).tolist()):
                ref = complex(mp.diff(f, mp.mpc(zz)))
                zm = abs(zz)
                bound = (abs(ww) * (_log_deriv_bound(m, zm, x) + _log_deriv_bound(m, zm, 1.0 / x))
                         + abs(ref) * (truncation_error_bound(m, zm, x)
                                       + truncation_error_bound(m, zm, 1.0 / x)))
                assert abs(dd - ref) <= bound + 1e-14 * (1.0 + abs(ref)), (r, zz)

    def test_derivative_nonzero_on_annulus(self, params):
        z = np.exp(1j * np.linspace(0.1, 2.0, 50)) * 0.8
        for zz in z:
            assert abs(f_prime(params, complex(zz))) > 1e-6


class TestFusedKernel:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_real_array_matches_scalar_calls_bit_for_bit(self, r):
        p = SlitMapParams(AnnulusModulus(r, 1e-12), 0.5 * (r + 1.0))
        z = np.linspace(r, p.x, 201)[:-1]
        val, dlog = slitmap._map_log_deriv(p, z)
        assert np.array_equal(val, slitmap._map(p, z))
        pointwise = [slitmap._map_log_deriv(p, zz) for zz in z.tolist()]
        assert np.array_equal(val, [v for v, _ in pointwise])
        assert np.array_equal(dlog, [dl for _, dl in pointwise])


class TestKernelAgreement:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.97, 0.99])
    def test_matches_prime_function_ratio(self, r):
        # The kernel's f_x against -(1/x) omega(z, x)/omega(z, 1/x), and its
        # f_x'/f_x against mpmath's log derivative of that ratio of the
        # truncated prime functions, at interior points and at the edges of
        # the extended annulus.
        mp = pytest.importorskip("mpmath")
        m = AnnulusModulus(r)
        x = 0.5 * (r + 1.0)
        p = SlitMapParams(m, x)
        rng = np.random.default_rng(45)
        mag = rng.uniform(r + 0.1 * (1.0 - r), 1.0 - 0.1 * (1.0 - r), 30)
        mag = np.append(mag, [r * r / x * (1.0 + 1e-9), (1.0 - 1e-9) / x] * 3)
        z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, mag.size))
        val, dlog = slitmap._map_log_deriv(p, z)
        assert np.array_equal(val, f_eval(p, z))
        ref = -(prime_omega(z, x, m) / prime_omega(z, 1.0 / x, m)) / x
        # mpmath differentiates, at 30 digits, the function the kernels
        # evaluate: M head factors times the exp of K series terms.
        head, tail = m.plan
        with mp.workdps(30):
            xm, q = mp.mpf(x), mp.mpf(r) ** 2
            c = [q ** ((head + 1) * k) / (k * (1 - q ** k)) for k in range(1, tail + 1)]

            def omega(w, a):
                out = w - a
                for n in range(1, head + 1):
                    out *= (1 - q ** n * w / a) * (1 - q ** n * a / w) / (1 - q ** n) ** 2
                zeta = w / a
                return out * mp.exp(-sum(ck * (zeta ** k + zeta ** -k - 2)
                                         for k, ck in enumerate(c, 1)))

            def f(w):
                return -(omega(w, xm) / omega(w, 1 / xm)) / xm

            ref_dlog = [complex(mp.diff(f, w) / f(w)) for w in map(mp.mpc, z.tolist())]
        for i, zm in enumerate(mag.tolist()):
            bound = truncation_error_bound(m, zm, x) + truncation_error_bound(m, zm, 1.0 / x)
            assert abs(val[i] - ref[i]) <= (1e-14 + bound) * abs(ref[i]), (r, z[i])
            dbound = _log_deriv_bound(m, zm, x) + _log_deriv_bound(m, zm, 1.0 / x)
            assert abs(dlog[i] - ref_dlog[i]) <= 1e-14 * abs(ref_dlog[i]) + dbound, (r, z[i])


class TestWorkCounts:
    """Passes of slitmap's slit-map kernels."""

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = {"_fx": 0, "_fx_log_deriv": 0}
        for name in counts:
            kernel = getattr(slitmap, name)

            def counting(p, z, name=name, kernel=kernel):
                counts[name] += 1
                return kernel(p, z)

            monkeypatch.setattr(slitmap, name, counting)
        return counts

    def test_scalar_newton_step_is_one_pass(self, params, passes, monkeypatch):
        w = f_eval(params, 0.6 + 0.2j)
        passes["_fx"] = 0
        monkeypatch.setattr(slitmap, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            f_inverse(params, w, 0.62 + 0.19j)
        assert passes == {"_fx": 0, "_fx_log_deriv": 1}

    @pytest.mark.parametrize("steps", [1, 3])
    def test_array_newton_step_is_one_fused_pass(self, params, passes, monkeypatch, steps):
        z = 0.6 * np.exp(1j * np.linspace(0.5, 2.5, 20))
        w = f_eval(params, z)
        passes["_fx"] = 0
        monkeypatch.setattr(slitmap, "NEWTON_MAX_ITER", steps)
        with pytest.raises(ConvergenceError):
            slitmap._newton(params, w, z * 1.05)
        assert passes == {"_fx": 0, "_fx_log_deriv": steps}

    def test_slit_endpoint_root_finder_work(self, passes):
        # 600 seeded (r, x) pairs; the bisection it replaced took 45 steps
        # plus the two bracket ends, 47 h evaluations, on every one of them.
        # Each h evaluation is one kernel pass.
        rng = np.random.default_rng(8)
        rs = rng.uniform(0.02, 0.97, 600)
        xs = rs + (1.0 - rs) * rng.uniform(0.05, 0.95, 600)
        evals = []
        for r, x in zip(rs.tolist(), xs.tolist()):
            p = SlitMapParams(AnnulusModulus(r), x)
            want = _bisected_endpoint_theta(p)
            passes["_fx_log_deriv"] = 0
            got = slit_endpoint(p).preimage_theta
            evals.append(passes["_fx_log_deriv"])
            assert abs(got - want) <= 2e-13
        assert np.median(evals) <= 17
        assert max(evals) <= 47


def _bisected_endpoint_theta(p):
    """The preimage angle of the slit endpoint by plain bisection on the h
    of `slit_endpoint`, so that only the root finder differs."""

    def h(theta):
        z = p.r * cmath.exp(1j * theta)
        return (z * slitmap._fx_log_deriv(p, z)[1]).real

    lo, hi = slitmap.ENDPOINT_THETA_PAD, math.pi - slitmap.ENDPOINT_THETA_PAD
    h_lo = h(lo)
    while hi - lo > slitmap.ENDPOINT_THETA_WIDTH:
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, h(mid)) == math.copysign(1.0, h_lo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBracketRoot:
    def test_zero_at_hi_searches_inside(self):
        # psi(0) = 0 is known and not the crossing sought, as in the last
        # gap of delta_of's scan: psi < 0 at -0.5, psi > 0 on (-0.3, 0)
        def psi(t):
            return -t * (t + 0.3)

        root = slitmap._bracket_root(psi, -0.5, 0.0, psi(-0.5), 0.0, 1e-12)
        assert abs(root + 0.3) <= 1e-12

    def test_exact_zero_is_returned(self):
        calls = []

        def g(t):
            calls.append(t)
            return t - 0.5

        # the first step lands on 0.5, both the false-position point and the
        # midpoint, where g is exactly 0
        assert slitmap._bracket_root(g, 0.0, 1.0, -0.5, 0.5, 1e-12) == 0.5
        assert calls == [0.5]

    def test_lopsided_function_beats_bisection(self):
        # g(1) is about 1e117 and g(0) about -1: plain regula falsi creeps in
        # from 0 for hundreds of steps; the Illinois rule and the ITP
        # truncation keep it under the 40 steps of bisection to 1e-12
        calls = []

        def g(t):
            calls.append(t)
            return math.expm1(300.0 * (t - 0.1))

        root = slitmap._bracket_root(g, 0.0, 1.0, g(0.0), g(1.0), 1e-12)
        assert abs(root - 0.1) <= 1e-12
        assert len(calls) - 2 <= 40

    @pytest.mark.parametrize("power, scale", [(3, 1.0), (9, 1e6)])
    def test_multiple_root_stays_within_bisection_count(self, power, scale):
        # Regula falsi with the Illinois rule alone took 117 and 151
        # evaluations on these, where bisection to 1e-12 takes 40.
        calls = []

        def g(t):
            calls.append(t)
            return scale * (t - 0.3) ** power

        root = slitmap._bracket_root(g, 0.0, 1.0, g(0.0), g(1.0), 1e-12)
        assert abs(root - 0.3) <= 1e-12
        assert len(calls) - 2 <= 40 + slitmap.ITP_N0

    @pytest.mark.parametrize("seed", range(20))
    def test_noisy_function_ends_within_twice_bisection(self, seed):
        rng = np.random.default_rng(seed)
        c, k = rng.uniform(0.05, 0.95), rng.uniform(0.1, 10.0)
        width = 1e-15
        calls = []

        def g(t):
            calls.append(t)
            return k * (t - c) * (1.0 + t * t) + rng.uniform(-1e-13, 1e-13)

        root = slitmap._bracket_root(g, 0.0, 1.0, -k * c, k * (1.0 - c) * 2.0, width)
        bisection_steps = math.ceil(math.log2(1.0 / width))
        assert len(calls) <= 2 * bisection_steps
        # the sign of g is noise within 1e-13 / k of c
        assert abs(root - c) <= 1e-13 / k + width


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

    @pytest.mark.parametrize("r, x", [(0.95, 0.95005), (0.9, 0.9001)])
    def test_stretched_segment_meets_stop_rule(self, r, x):
        # f_x maps [r, x] onto [-x, 0], so |f'| there averages x/(x - r),
        # 2e4 and 9e3 here, and rounding z alone can leave a residual above
        # NEWTON_TOL (1 + |w|).
        p = SlitMapParams(AnnulusModulus(r), x)
        z = f_inverse_real_segment(p, -0.5)
        assert slitmap._converged(f_eval(p, z) + 0.5, -0.5, z, f_prime(p, z))
        w = np.linspace(-x, 0.0, 2001)[:-1]
        z = slitmap._newton(p, w, slitmap._seeds(p, w))
        assert np.all(slitmap._converged(f_eval(p, z) - w, w, z, f_prime(p, z)))

    def test_diverging_seed_raises(self, params):
        with pytest.raises((ConvergenceError, DomainError)):
            f_inverse(params, 5.0 + 0j, 0.8)
        with pytest.raises(DomainError):
            f_inverse(params, -0.3, 2.0)  # seed outside the extended annulus

    def test_checks_domain_once_per_solve(self, params, monkeypatch):
        z = 0.6 * complex(math.cos(1.0), math.sin(1.0))
        w = f_eval(params, z)
        calls = []
        check = slitmap._check_extended_annulus

        def counting(p, v):
            calls.append(v)
            check(p, v)

        monkeypatch.setattr(slitmap, "_check_extended_annulus", counting)
        back = f_inverse(params, w, z * (1.0 + 1e-4))
        assert abs(back - z) < 1e-10
        assert len(calls) == 1


class TestArrayNewton:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.8])
    def test_matches_scalar_inverse(self, r):
        p = SlitMapParams(AnnulusModulus(r, 1e-12), 0.5 * (r + 1.0))
        rng = np.random.default_rng(31)
        mag = rng.uniform(r + 0.2 * (1.0 - r), 1.0 - 0.2 * (1.0 - r), 200)
        z = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
        w = f_eval(p, z)
        # seeds: preimages of points one continuation step away from w
        away = w + slitmap.CONTINUATION_STEP * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
        seeds = np.array([f_inverse(p, a, zz) for a, zz in zip(away, z)])
        got = slitmap._newton(p, w, seeds)
        assert got.shape == (200,)
        assert np.all(np.abs(f_eval(p, got) - w) <= slitmap.NEWTON_TOL * (1.0 + np.abs(w)))
        scalar = np.array([f_inverse(p, ww, s) for ww, s in zip(w, seeds)])
        assert np.abs(got - scalar).max() < 1e-10

    def test_seed_at_center_converges_without_warnings(self, params):
        w = np.array([-0.005, 0.003j, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1/(z - x) at z = x must stay silent
            got = slitmap._newton(params, w, np.full(3, 0.75))
        assert got[2] == 0.75
        for zz, ww in zip(got, w):
            assert abs(zz - f_inverse(params, ww, 0.75)) < 1e-12

    def test_far_seed_raises_scalar_error(self, params):
        z = 0.6 * np.exp(1j * np.linspace(0.5, 2.5, 20))
        w = f_eval(params, z)
        w[7], z[7] = 5.0, 0.8  # f_inverse(params, 5.0, 0.8) leaves the band
        with pytest.raises(DomainError, match="left the annulus of holomorphy"):
            slitmap._newton(params, w, z)

    def test_seed_outside_extended_annulus_raises(self, params):
        w = f_eval(params, np.array([0.6, 0.7]))
        with pytest.raises(DomainError, match="must be finite and lie in"):
            slitmap._newton(params, w, np.array([0.6, 2.0]))

    def test_grid_uses_few_scalar_solves(self, monkeypatch):
        phi = _Phi(0.73125, 0.8, AnnulusModulus(0.25))
        xis = -0.8 + 0.8 * np.arange(1000)[::-1] / 1000.0
        calls = []
        scalar = slitmap.f_inverse

        def counting(p, w, seed):
            calls.append(w)
            return scalar(p, w, seed)

        monkeypatch.setattr(slitmap, "f_inverse", counting)
        _, pres = phi.solve(xis)
        assert calls == []
        assert np.all(np.abs(f_eval(phi.p0, pres) - xis) <= slitmap.NEWTON_TOL * (1.0 + np.abs(xis)))

    @pytest.mark.parametrize("r", [0.02, 0.1, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("near", ["r", "1"])
    def test_table_seeds_reach_every_real_target(self, r, near):
        x = r + 0.02 * (1.0 - r) if near == "r" else 0.99
        p = SlitMapParams(AnnulusModulus(r), x)
        w = np.linspace(-x, 0.0, 2001)
        seeds = slitmap._seeds(p, w)
        assert np.all((seeds >= r) & (seeds <= x))
        assert np.abs(f_eval(p, seeds) - w).max() <= 1e-4
        got = slitmap._newton(p, w, seeds)
        assert np.all(np.abs(f_eval(p, got) - w) <= slitmap.NEWTON_TOL * (1.0 + np.abs(w)))

    @pytest.mark.parametrize("r", [0.02, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("at", [0.02, 0.5, 0.99])
    def test_real_targets_solve_in_float64(self, r, at):
        p = SlitMapParams(AnnulusModulus(r, 1e-12), r + at * (1.0 - r))
        w = np.linspace(-p.x, 0.0, 1001)
        seeds = slitmap._seeds(p, w)
        got = slitmap._newton(p, w, seeds)
        ref = slitmap._newton(p, w.astype(complex), seeds.astype(complex))
        assert got.dtype == np.float64 and ref.dtype == np.complex128
        assert np.all(ref.imag == 0.0)
        # The two differ by the rounding of f_x, ulps of w carried back
        # through 1/f', and by the last ulps of z: about 1e-15 relative where
        # f' is of order 1, but 1e-13 at r = 0.02, x = 0.99, where f' is small
        # near r.  w = 0 is solved by z = x exactly.
        fp = np.abs(f_prime(p, got[:-1]))
        bound = 2.0 * np.spacing(got[:-1]) + 32.0 * slitmap.EPS * (1.0 + np.abs(w[:-1])) / fp
        assert np.all(np.abs(got - ref.real)[:-1] <= bound)
        assert got[-1] == ref[-1] == p.x

    def test_arc_matches_scalar_continuation(self):
        # At n = 5 an arc's half-length 1/(8n) is 2.5 continuation steps.
        cfg = CounterexampleConfig(r=0.25, x0=0.8, m=4)
        phi = _Phi(0.73125, cfg.x0, cfg.modulus())
        for n in (5, 10):
            for arc in make_shrinking_arcs(cfg, -0.55625, n).arcs:
                pts = arc.sample(512)
                anchor = f_inverse_real_segment(phi.p0, -arc.radius)
                ref = np.empty(512, dtype=complex)
                for half in (range(256, 512), range(255, -1, -1)):
                    z = anchor
                    for i in half:
                        z = f_inverse(phi.p0, complex(pts[i]), z)
                        ref[i] = mobius_apply(phi.mob, f_eval(phi.px, z))
                assert np.abs(phi.solve(pts)[0] - ref).max() < 1e-11


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

    def test_phi_at_x0_is_identity(self):
        m = AnnulusModulus(0.25, 1e-12)
        x0 = 0.8
        for xi in (-x0, -x0 / 2.0, -0.01):
            assert abs(phi_eval(x0, x0, m, xi) - xi) < 1e-10

    def test_phi_sends_minus_x0_to_q(self):
        m = AnnulusModulus(0.25, 1e-12)
        x0 = 0.8
        for x in (0.525, 0.6625, 0.79):
            assert abs(phi_eval(x, x0, m, -x0) - q_of(x, x0, m)) < 1e-10

    def test_pair_ordering_enforced(self):
        m = AnnulusModulus(0.25, 1e-12)
        with pytest.raises(DomainError):
            q_of(0.85, 0.8, m)
        with pytest.raises(DomainError):
            phi_eval(0.85, 0.8, m, -0.4)
        with pytest.raises(DomainError):
            slit_dist_after_mobius(0.85, 0.8, m)

    def test_pair_outside_annulus_rejected(self):
        m = AnnulusModulus(0.25, 1e-12)
        for x, x0 in ((0.2, 0.8), (0.5, 1.2), (math.nan, 0.8), (0.5, math.nan)):
            with pytest.raises(DomainError):
                q_of(x, x0, m)

    def test_grid_values_match_pointwise_evaluation(self):
        phi = _Phi(0.73125, 0.8, AnnulusModulus(0.25))
        xis = -0.8 + 0.8 * np.arange(1000)[::-1] / 1000.0
        _, pres = phi.solve(xis)
        assert pres.shape == (1000,) and np.all(np.diff(pres) < 0.0)
        assert np.array_equal(phi(pres), [phi(float(z)) for z in pres])


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
