import dataclasses
import json
import math

import numpy as np
import pytest

from slitkit.counterexample import (
    ARC_SAMPLES,
    MARGIN_KEYS,
    CounterexampleConfig,
    _Phi,
    _family_diameter,
    certificate_from_json,
    certificate_to_json,
    certify_degenerate,
    delta_of,
    make_shrinking_arcs,
    nondegenerate_evidence,
    revalidate_certificate,
    search_x_star,
)
from slitkit.errors import ConvergenceError, DomainError, GeometryError

GOLDEN_X_STAR = 0.73125
GOLDEN_DELTA = 0.4875
GOLDEN_ZETA = -0.55625
GOLDEN_DIST_GAMMA = 0.798503085935911
GOLDEN_MARGINS = {
    "lemma61_i": 3.3478686500276744e-06,
    "lemma61_ii": 0.486003085935911,
    "phi_gt_zeta": 6.990753653079995e-05,
    "dist_gt_zeta": 0.242253085935911,
    "r_over_x0_lt_zeta": 0.24375,
}


class TestConfig:
    def test_epsilon_defaults_to_largest_admissible(self):
        cfg = CounterexampleConfig(r=0.25, x0=0.8)
        assert abs(cfg.epsilon - (0.8 - 0.25 / 0.8)) < 1e-15

    def test_rejects_x0_below_sqrt_r(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.5)

    def test_rejects_oversized_epsilon(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, epsilon=0.6)

    def test_rejects_low_connectivity(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, m=2)

    def test_rejects_unsorted_n_list(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, n_list=(10, 10))

    def test_rejects_coarse_scan_step(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, xi_scan_step=0.5)


class TestDeltaOf:
    def test_precondition_error_at_x0(self, std_config):
        with pytest.raises(DomainError):
            delta_of(std_config.x0, std_config)

    def test_interior_point_recheck(self, std_config):
        x = 0.79
        d = delta_of(x, std_config)
        assert 0.0 < d < std_config.x0
        phi = _Phi(x, std_config.x0, std_config.modulus())
        xi = -std_config.x0 + 0.5 * d
        assert phi.single(xi) < xi

    def test_ratio_grows_toward_x0(self, std_config):
        ratios = []
        for k in (4, 5, 6, 7):
            x = std_config.x0 - 2.0 ** (-k)
            ratios.append(delta_of(x, std_config) / (std_config.x0 - x))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestSearch:
    def test_golden_pair(self, std_config):
        x_star, delta = search_x_star(std_config)
        assert x_star == pytest.approx(GOLDEN_X_STAR, abs=1e-12)
        assert delta == pytest.approx(GOLDEN_DELTA, abs=1e-12)
        assert delta == pytest.approx(min(std_config.epsilon, delta), abs=0)

    def test_exhausted_grid_raises(self):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, tol=10.0, x_grid_step=0.2,
                                   xi_scan_step=1e-2)
        with pytest.raises(ConvergenceError):
            search_x_star(cfg)


class TestCertificate:
    def test_golden_witness(self, std_certificate):
        cert = std_certificate
        assert cert.passed
        assert cert.x_star == pytest.approx(GOLDEN_X_STAR, abs=1e-12)
        assert cert.delta == pytest.approx(GOLDEN_DELTA, abs=1e-12)
        assert cert.zeta_star == pytest.approx(GOLDEN_ZETA, abs=1e-12)
        assert cert.dist_gamma == pytest.approx(GOLDEN_DIST_GAMMA, abs=1e-10)
        for key in MARGIN_KEYS:
            assert cert.margins[key] == pytest.approx(GOLDEN_MARGINS[key], abs=1e-10)
        assert cert.truncation_report < 1e-11

    def test_margin_inequalities_hold(self, std_config, std_certificate):
        cert = std_certificate
        assert cert.dist_gamma > std_config.x0 - cert.delta + std_config.tol
        assert abs(cert.phi_at_zeta) > abs(cert.zeta_star)
        assert cert.dist_gamma > abs(cert.zeta_star)
        assert std_config.r / std_config.x0 < abs(cert.zeta_star)
        assert cert.q_at_xstar < -std_config.x0

    def test_json_roundtrip(self, std_certificate):
        text = certificate_to_json(std_certificate)
        assert certificate_from_json(text) == std_certificate

    def test_json_rejects_tampered_passed_flag(self, std_certificate):
        doc = json.loads(certificate_to_json(std_certificate))
        doc["passed"] = False
        with pytest.raises(DomainError):
            certificate_from_json(json.dumps(doc))

    def test_json_rejects_missing_field(self, std_certificate):
        doc = json.loads(certificate_to_json(std_certificate))
        del doc["zeta_star"]
        with pytest.raises(DomainError):
            certificate_from_json(json.dumps(doc))

    def test_revalidation_is_stable(self, std_config, std_certificate):
        tighter = revalidate_certificate(
            std_config, std_certificate, std_config.trunc_tol / 100.0
        )
        assert tighter.passed
        for key in MARGIN_KEYS:
            drift = abs(tighter.margins[key] - std_certificate.margins[key])
            assert drift < 10.0 * std_config.tol

    def test_forced_failure_still_reports(self):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, tol=10.0, x_grid_step=0.2,
                                   xi_scan_step=1e-2)
        cert = certify_degenerate(cfg)
        assert not cert.passed
        assert set(cert.margins) == set(MARGIN_KEYS)
        assert -cfg.x0 < cert.zeta_star < -cfg.x0 + cert.delta

    def test_boundary_of_validity_instance(self):
        cfg = CounterexampleConfig(r=0.49, x0=0.71)
        try:
            cert = certify_degenerate(cfg)
        except ConvergenceError:
            return
        assert cert.passed
        for key in MARGIN_KEYS:
            assert 0.0 < cert.margins[key] < 0.05


class TestPhiUniformity:
    def test_derivative_deviation_decreases(self, std_config):
        modulus = std_config.modulus()
        deviations = []
        for k in range(3, 11):
            x = std_config.x0 - 2.0 ** (-k)
            phi = _Phi(x, std_config.x0, modulus)
            grid = np.linspace(-std_config.x0, 0.0, 200)[:-1]
            vals, _ = phi.descending_grid(grid[::-1].copy())
            deriv = np.gradient(vals[::-1], grid)
            deviations.append(float(np.abs(deriv - 1.0).max()))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


class TestArcFamily:
    def test_single_arc_for_minimal_connectivity(self, std_config, std_certificate):
        fam = make_shrinking_arcs(std_config, std_certificate.zeta_star, 10)
        assert len(fam.arcs) == 1
        arc = fam.arcs[0]
        az = abs(std_certificate.zeta_star)
        assert arc.radius == pytest.approx(az + 1.0 / 40.0, abs=1e-15)
        assert arc.theta_max - arc.theta_min == pytest.approx(1.0 / (40.0 * az), abs=1e-15)

    def test_all_points_within_disk(self, std_config, std_certificate):
        for n in (10, 40, 160):
            fam = make_shrinking_arcs(std_config, std_certificate.zeta_star, n)
            for arc in fam.arcs:
                pts = arc.sample(257)
                assert np.abs(pts - std_certificate.zeta_star).max() < 1.0 / n

    def test_diameter_at_most_halves_when_n_doubles(self, std_config, std_certificate):
        def diam(n):
            fam = make_shrinking_arcs(std_config, std_certificate.zeta_star, n)
            pts = np.concatenate([a.sample(128) for a in fam.arcs])
            return float(np.abs(pts[:, None] - pts[None, :]).max())

        assert diam(20) <= 0.5 * diam(10) + 1e-12

    def test_endpoint_diameter_matches_all_pairs(self, std_certificate):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, m=6)
        for n in (10, 40, 160):
            fam = make_shrinking_arcs(cfg, std_certificate.zeta_star, n)
            samples = [arc.sample(ARC_SAMPLES) for arc in fam.arcs]
            pts = np.concatenate(samples)
            all_pairs = max(float(np.abs(pts - p).max()) for p in pts)
            assert _family_diameter(samples) == all_pairs

    def test_geometry_error_when_disk_too_large(self, std_config, std_certificate):
        with pytest.raises(GeometryError):
            make_shrinking_arcs(std_config, std_certificate.zeta_star, 2)

    def test_higher_connectivity_arcs_disjoint(self, std_certificate):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, m=5)
        fam = make_shrinking_arcs(cfg, std_certificate.zeta_star, 50)
        assert len(fam.arcs) == 3
        radii = sorted(a.radius for a in fam.arcs)
        assert all(b - a > 1e-6 for a, b in zip(radii, radii[1:]))

    def test_rejects_positive_center(self, std_config):
        with pytest.raises(DomainError):
            make_shrinking_arcs(std_config, 0.5, 10)


class TestEvidence:
    def test_golden_table(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        assert [row.n for row in table.rows] == [10, 20, 40, 80, 160]
        assert table.n_min == 10
        assert table.degenerate_value == pytest.approx(0.5563199075365308, abs=1e-10)
        assert table.fitted_c == pytest.approx(0.2502289577160399, abs=1e-8)
        first = table.rows[0]
        assert first.dist_boundary == pytest.approx(0.58125, abs=1e-12)
        assert first.dist_phi_image == pytest.approx(0.5813428033081348, abs=1e-10)
        last = table.rows[-1]
        assert last.cn_bound == pytest.approx(0.198388277966682, abs=1e-10)

    def test_first_inequality_margin_positive(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        for row in table.rows:
            assert row.margin_ineq1 > 0.0

    def test_cn_bound_strictly_decreasing_and_small(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        cns = [row.cn_bound for row in table.rows]
        assert all(b < a for a, b in zip(cns, cns[1:]))
        assert cns[-1] < 0.2

    def test_boundary_distance_near_witness(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        az = abs(std_certificate.zeta_star)
        for row in table.rows:
            assert row.dist_boundary <= az + 1.0 / row.n

    def test_image_distance_converges_like_one_over_n(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        for row in table.rows:
            gap = abs(row.dist_phi_image - table.degenerate_value)
            assert gap <= table.fitted_c / row.n + 1e-15

    def test_csv_shape(self, std_config, std_certificate):
        table = nondegenerate_evidence(std_config, std_certificate)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,dist_boundary,dist_phi_image,cn_bound,hm_bound_at_0,margin_ineq1"
        assert len(lines) == 1 + len(table.rows)
        assert table.to_csv() == text

    def test_requires_passing_certificate(self, std_config, std_certificate):
        failing = dataclasses.replace(std_certificate, tol=1e9, passed=False)
        with pytest.raises(DomainError):
            nondegenerate_evidence(std_config, failing)
