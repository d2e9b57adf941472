import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitkit import potential, slitmap
from slitkit.errors import DomainError, SingularMatrixError
from slitkit.potential import (
    POTENTIAL_CHUNK_PAIRS,
    DiscreteMeasure,
    PeriodMatrix,
    annulus_harmonic_measure_inner,
    annulus_period,
    annulus_period_matrix,
    competitor_boundary_dist,
    harmonic_measure_upper_bound,
    log_potential,
    radii_solve,
    shrink_mass_bound,
    squeezing_annulus,
    uniform_arc_measure,
    uniform_circle_measure,
)
from slitkit.prime import AnnulusModulus
from slitkit.slitmap import (
    MobiusReal,
    SlitMapParams,
    f_eval,
    mobius_apply,
    slit_dist_after_mobius,
)


class TestMeasures:
    def test_circle_measure_mass_and_support(self):
        mu = uniform_circle_measure(0.5, mass=2.0, n_nodes=256)
        assert abs(mu.total_mass - 2.0) < 1e-14
        assert np.abs(np.abs(mu.nodes) - 0.5).max() < 1e-14

    @pytest.mark.parametrize("n_nodes", [1, 7, 1024, 4096])
    def test_circle_measure_scales_one_cached_ring(self, n_nodes):
        radius = 0.7
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        expected = radius * np.exp(1j * theta)
        for _ in range(2):  # the first call builds the ring, the second reuses it
            mu = uniform_circle_measure(radius, 1.0, n_nodes)
            assert mu.nodes.tobytes() == expected.tobytes()
        ring = potential._unit_ring(n_nodes)
        assert not ring.flags.writeable
        assert not np.shares_memory(mu.nodes, ring)

    def test_arc_measure_angles(self):
        mu = uniform_arc_measure(1.5, 0.2, 0.9, n_nodes=64)
        ang = np.angle(mu.nodes)
        assert ang.min() >= 0.2 - 1e-12
        assert ang.max() <= 0.9 + 1e-12

    @pytest.mark.parametrize("radius, mass, n_nodes", [
        (-1.0, 1.0, 1024), (0.0, 1.0, 1024), (math.nan, 1.0, 1024),
        (1.0, -1.0, 1024), (1.0, math.inf, 1024), (1.0, 1.0, 0),
    ])
    def test_measures_reject_bad_radius_mass_and_nodes(self, radius, mass, n_nodes):
        # uniform_arc_measure(-1.0, 0.0, 1.0) once put the arc on the unit
        # circle, turned by pi.
        with pytest.raises(DomainError):
            uniform_arc_measure(radius, 0.0, 1.0, mass, n_nodes)
        with pytest.raises(DomainError):
            uniform_circle_measure(radius, mass, n_nodes)

    def test_rejects_negative_weights(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([1.0 + 0j]), np.array([-1.0]))


class TestLogPotential:
    def test_constant_inside_circle(self):
        mu = uniform_circle_measure(0.7)
        expected = math.log(1.0 / 0.7)
        for w in (0.0, 0.2 + 0.1j, -0.3j):
            assert abs(log_potential(mu, w) - expected) < 1e-12

    def test_far_field_decay(self):
        mu = uniform_circle_measure(0.7, mass=3.0)
        w = 1e6 + 0j
        assert abs(log_potential(mu, w) - 3.0 * math.log(1.0 / abs(w))) < 1e-5

    def test_rejects_node_hit(self):
        mu = uniform_circle_measure(1.0, n_nodes=4)
        with pytest.raises(DomainError):
            log_potential(mu, mu.nodes[0])

    def test_chunked_batch_matches_single_targets(self):
        mu = uniform_circle_measure(0.7, mass=2.0, n_nodes=4096)
        n_targets = 3 * POTENTIAL_CHUNK_PAIRS // mu.nodes.size + 5
        rng = np.random.default_rng(7)
        w = rng.uniform(-1.5, 1.5, n_targets) + 1j * rng.uniform(-1.5, 1.5, n_targets)
        batch = log_potential(mu, w.reshape(-1, 1))
        assert batch.shape == (n_targets, 1)
        assert np.array_equal(batch[:, 0], [log_potential(mu, t) for t in w])
        w[-1] = mu.nodes[17]  # a node hit in the last chunk
        with pytest.raises(DomainError):
            log_potential(mu, w)

    @pytest.mark.parametrize("w", [complex(math.inf, 0.0), complex(0.3, -math.inf),
                                   complex(math.nan, 0.0), 1e200 + 0j, 1e200j])
    def test_rejects_targets_without_finite_potential(self, w):
        # inf and nan targets once gave -inf and nan.  At |w| = 1e200 the
        # squared distances overflow, so the potential is not finite either.
        mu = uniform_circle_measure(0.7)
        with pytest.raises(DomainError, match="not finite"):
            log_potential(mu, w)
        targets = np.full(3 * POTENTIAL_CHUNK_PAIRS // mu.nodes.size, 0.2 + 0.1j)
        targets[-1] = w
        with pytest.raises(DomainError, match="not finite"):
            log_potential(mu, targets)

    def test_large_finite_target(self):
        # Below about 1e154 the squares stay finite: the potential of a unit
        # mass is log(1/|w|) to rounding.
        mu = uniform_circle_measure(0.7)
        assert abs(log_potential(mu, 1e150j) / -math.log(1e150) - 1.0) < 1e-13


class TestHarmonicMeasure:
    def test_boundary_values(self):
        r = 0.3
        assert abs(annulus_harmonic_measure_inner(r, r) - 1.0) < 1e-14
        assert abs(annulus_harmonic_measure_inner(1.0, r)) < 1e-14

    def test_monotone_in_modulus(self):
        r = 0.3
        vals = [annulus_harmonic_measure_inner(t, r) for t in (0.3, 0.5, 0.8, 1.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_outside_closed_annulus(self):
        with pytest.raises(DomainError):
            annulus_harmonic_measure_inner(0.1, 0.3)
        with pytest.raises(DomainError, match="closed annulus"):
            annulus_harmonic_measure_inner(np.array([0.5, np.nan]), 0.3)


class TestPeriods:
    def test_annulus_matrix_shape_and_symmetry(self):
        pm = annulus_period_matrix(0.4)
        lam = annulus_period(0.4)
        assert pm.entries.shape == (2, 2)
        assert abs(pm.entries[0, 0] - lam) < 1e-15
        assert abs(pm.entries.sum()) < 1e-12

    def test_validation_rejects_asymmetric(self):
        bad = np.array([[1.0, -0.5], [-1.0, 1.0]])
        with pytest.raises(DomainError):
            PeriodMatrix(bad)

    def test_validation_rejects_nonzero_row_sum(self):
        bad = np.array([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(DomainError):
            PeriodMatrix(bad)


class TestRadiiSolve:
    def test_annulus_recovers_zero_modulus(self):
        r = 0.3
        rng = np.random.default_rng(31)
        for _ in range(10):
            z0 = rng.uniform(0.35, 0.95) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            omega = annulus_harmonic_measure_inner(z0, r)
            radii = radii_solve(annulus_period_matrix(r), 0, [omega])
            assert abs(radii[0] - abs(z0)) < 1e-12

    def test_synthetic_roundtrip(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            a, b, c = rng.uniform(0.2, 2.0, 3)
            entries = np.array(
                [
                    [a + b, -a, -b],
                    [-a, a + c, -c],
                    [-b, -c, b + c],
                ]
            )
            pm = PeriodMatrix(entries)
            radii_true = rng.uniform(0.1, 0.9, 2)
            y = np.log(1.0 / radii_true)
            rhs = entries[np.ix_([0, 1], [0, 1])] @ y
            out = radii_solve(pm, 2, rhs)
            assert np.abs(out - radii_true).max() < 1e-12

    def test_singular_minor_raises(self):
        pm = PeriodMatrix(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            radii_solve(pm, 0, [0.5])


class TestSqueezing:
    def test_formula(self):
        assert squeezing_annulus(0.5 + 0j, 0.25) == 0.5
        assert abs(squeezing_annulus(0.3 + 0j, 0.25) - 0.25 / 0.3) < 1e-15

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            squeezing_annulus(1.0 + 0j, 0.25)
        with pytest.raises(DomainError):
            squeezing_annulus(0.25 + 0j, 0.25)
        with pytest.raises(DomainError, match="strictly inside"):
            squeezing_annulus(np.array([0.5, np.nan]), 0.25)
        with pytest.raises(DomainError, match="strictly inside"):
            squeezing_annulus(complex(math.nan, 0.0), 0.25)

    @settings(max_examples=80, deadline=None)
    @given(t=st.floats(0.26, 0.99))
    def test_inversion_symmetry_to_one_ulp(self, t):
        r = 0.25
        s1 = squeezing_annulus(complex(t), r)
        s2 = squeezing_annulus(complex(r / t), r)
        assert abs(s1 - s2) <= np.spacing(max(s1, s2))

    @settings(max_examples=80, deadline=None)
    @given(mod=st.floats(0.26, 0.99), ang=st.floats(0.0, 2 * math.pi))
    def test_lower_bound_sqrt_r(self, mod, ang):
        r = 0.25
        z = mod * complex(math.cos(ang), math.sin(ang))
        assert squeezing_annulus(z, r) >= math.sqrt(r) - 1e-15


class TestBounds:
    def test_shrink_mass_bound_value(self):
        assert abs(shrink_mass_bound(math.e, 1.0) - 1.0) < 1e-15

    def test_shrink_mass_bound_increases_with_diam(self):
        b1 = shrink_mass_bound(1.0, 0.01)
        b2 = shrink_mass_bound(1.0, 0.1)
        assert 0.0 < b1 < b2

    def test_shrink_mass_bound_rejects_diam_at_least_dist(self):
        with pytest.raises(DomainError):
            shrink_mass_bound(1.0, 1.0)

    def test_harmonic_measure_bound_clamps_at_zero(self):
        assert harmonic_measure_upper_bound(2.0, 1.0, 0.5) == 0.0
        val = harmonic_measure_upper_bound(0.5, 1.0, 0.5)
        assert abs(val - 0.5 * math.log(2.0)) < 1e-15


class TestCompetitor:
    @staticmethod
    def _cases(r):
        """(x, z0, inverted, base) with c = f_x(base) > 0, < 0 and = 0 in
        both orientations, base = z0 or r/z0."""
        z0 = r + 0.6 * (1.0 - r)
        for inverted in (False, True):
            base = r / z0 if inverted else z0
            for x in (r + 0.5 * (base - r), base + 0.5 * (1.0 - base), base):
                yield x, z0, inverted, base

    @staticmethod
    def _image_modulus(r, x, base, z):
        p = SlitMapParams(AnnulusModulus(r), x)
        t = MobiusReal(float(np.real(f_eval(p, base))))
        return np.abs(mobius_apply(t, f_eval(p, z)))

    @pytest.mark.parametrize("r", [0.05, 0.4, 0.9])
    def test_matches_dense_sampling(self, r):
        # The inner circle carries the minimum; the unit circle maps to |w| = 1.
        theta = np.linspace(0.0, 2.0 * math.pi, 200001)
        ring = np.exp(2j * np.pi * np.arange(4096) / 4096)
        for x, z0, inverted, base in self._cases(r):
            d = competitor_boundary_dist(r, x, z0, inverted=inverted)
            # the same slit map recentred at base, x on either side of it
            assert d == slit_dist_after_mobius(x, base, AnnulusModulus(r))
            dense = self._image_modulus(r, x, base, r * np.exp(1j * theta)).min()
            sampled = self._image_modulus(r, x, base, np.concatenate([ring, r * ring])).min()
            assert abs(d - dense) < 1e-8
            assert d <= sampled + 1e-12

    def test_work_is_scalar_and_bounded(self, monkeypatch):
        """One scalar f_x for c, and for c > 0 one slit_endpoint: no array
        kernel call and at most 30 kernel evaluations."""
        args = []

        def recording(kernel):
            def wrapped(p, z):
                args.append(z)
                return kernel(p, z)
            return wrapped

        monkeypatch.setattr(slitmap, "_fx", recording(slitmap._fx))
        monkeypatch.setattr(slitmap, "_fx_log_deriv", recording(slitmap._fx_log_deriv))
        for r in (0.05, 0.4, 0.9):
            for z0 in r + (1.0 - r) * np.array([0.1, 0.5, 0.9]):
                for x in r + (1.0 - r) * np.array([0.1, 0.3, 0.5, 0.7, 0.9]):
                    for inverted in (False, True):
                        args.clear()
                        competitor_boundary_dist(r, float(x), float(z0), inverted=inverted)
                        assert all(isinstance(z, (float, complex)) for z in args)
                        n_calls = len(args)
                        base = r / z0 if inverted else z0
                        if base <= x:  # c <= 0: f_x(base) alone
                            assert n_calls == 1
                        else:
                            args.clear()
                            slitmap.slit_endpoint(SlitMapParams(AnnulusModulus(r), float(x)))
                            assert n_calls == 1 + len(args)
                        assert n_calls <= 30

    def test_never_beats_formula(self):
        r = 0.25
        rng = np.random.default_rng(33)
        for t in rng.uniform(0.3, 0.95, 3):
            s = squeezing_annulus(complex(t), r)
            for x in np.linspace(0.3, 0.95, 7):
                assert competitor_boundary_dist(r, float(x), float(t)) <= s + 1e-12

    def test_canonical_parameters_attain(self):
        r = 0.25
        for t in (0.35, 0.5, 0.8):
            s = squeezing_annulus(complex(t), r)
            d1 = competitor_boundary_dist(r, t, t)
            d2 = competitor_boundary_dist(r, r / t, t, inverted=True)
            assert d1 == t and d2 == r / t
            assert max(d1, d2) == s
