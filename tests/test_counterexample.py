import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from slitkit import counterexample, slitmap
from slitkit.counterexample import (
    ARC_SAMPLES,
    MARGIN_KEYS,
    CounterexampleConfig,
    _Phi,
    _family_diameter,
    _shrinking_arcs,
    certificate_from_json,
    certificate_to_json,
    certify_degenerate,
    delta_of,
    nondegenerate_evidence,
    revalidate_certificate,
)
from slitkit.errors import ConvergenceError, DomainError, GeometryError
from slitkit.slitmap import SlitMapParams, phi_eval, slit_endpoint

GOLDEN_X_STAR = 0.73125
GOLDEN_DELTA = 0.4875
GOLDEN_ZETA = -0.55625
GOLDEN_DIST_GAMMA = 0.798503085935911
# sha256 of the reference instance's certificate JSON and of its evidence CSV
# for each connectivity m; the CLI's `certify` and `evidence --m m` output
# for --r 0.25 --x0 0.8 hash the same.
CERTIFICATE_SHA256 = "903c27ae0ca8e1a577daabe63c2a6af2eb8466df8b26b0a246945e1e825e5b2d"
EVIDENCE_SHA256 = {
    3: "844822b3eb75bb5c0c02acf94d54e7a993dc59b213eb1abe7e71f2bac66ac342",
    4: "19e0495d6640ab3c528d351ab425e462cf859d5d24c7881e5cfc7df73b548682",
    5: "f4c6ca07d5607e8354b214990ad7b5d74b4898afa3f53137a8a3dd6986047629",
}
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
        assert cfg.epsilon == cfg.x0 - cfg.r / cfg.x0

    def test_fields(self):
        # epsilon is derived, and the walk's finest gap is a module constant
        assert [f.name for f in dataclasses.fields(CounterexampleConfig)] == [
            "r", "x0", "xi_scan_step", "tol", "n_list", "m", "trunc_tol"]

    def test_rejects_x0_below_sqrt_r(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.5)

    def test_rejects_low_connectivity(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, m=2)

    def test_rejects_unsorted_n_list(self):
        with pytest.raises(DomainError):
            CounterexampleConfig(r=0.25, x0=0.8, n_list=(10, 10))

    @pytest.mark.parametrize("field", ["tol", "xi_scan_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_steps_and_tol(self, field, value):
        # nan passed the old "<= 0" tests: tol = nan gave a failed certificate,
        # and the steps failed later with a bare ValueError or a point error.
        with pytest.raises(DomainError, match="finite"):
            CounterexampleConfig(r=0.25, x0=0.8, **{field: value})

    @pytest.mark.parametrize("field", ["r", "x0", "tol", "xi_scan_step", "trunc_tol"])
    @pytest.mark.parametrize("value", ["0.25", None, 0.25 + 0j, 10 ** 400])
    def test_rejects_values_that_are_not_real_numbers(self, field, value):
        # each used to fail a comparison with a bare TypeError, or the int
        # its float conversion with a bare OverflowError
        with pytest.raises(DomainError, match=f"{field} must be a real number"):
            CounterexampleConfig(**{"r": 0.25, "x0": 0.8, field: value})

    def test_numpy_scalars_are_stored_as_floats(self):
        # rng.uniform draws give np.float64; their arithmetic used to change
        # the last digits of the certificate.
        cfg = CounterexampleConfig(r=np.float64(0.25), x0=np.float64(0.8),
                                   xi_scan_step=np.float64(1e-3), tol=np.float64(1e-6),
                                   trunc_tol=np.float64(1e-12))
        for name in ("r", "x0", "xi_scan_step", "tol", "trunc_tol"):
            assert type(getattr(cfg, name)) is float
        text = certificate_to_json(certify_degenerate(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256

    @pytest.mark.parametrize("trunc_tol", [math.nan, 0.0, 1e-12])
    def test_rejects_truncation_the_product_cannot_meet(self, trunc_tol):
        # At r = 0.999 the head normalisation overflows for every tolerance;
        # nan and 0 are no tolerance.
        with pytest.raises(DomainError, match="trunc_tol"):
            CounterexampleConfig(r=0.999, x0=0.9998, trunc_tol=trunc_tol)


class TestDeltaOf:
    def test_precondition_error_at_x0(self, std_config):
        with pytest.raises(DomainError):
            delta_of(std_config.x0, std_config)

    def test_interior_point_recheck(self, std_config):
        x = 0.79
        d = delta_of(x, std_config)
        assert 0.0 < d < std_config.x0
        xi = -std_config.x0 + 0.5 * d
        assert phi_eval(x, std_config.x0, std_config.modulus(), xi) < xi

    def test_crossing_in_last_gap_before_zero(self):
        # psi(0) = 0 exactly, so a crossing between the last scan point and 0
        # shows in no sign change on the grid
        fine = CounterexampleConfig(r=0.25, x0=0.8, xi_scan_step=1e-3)
        coarse = CounterexampleConfig(r=0.25, x0=0.8, xi_scan_step=0.4)
        assert abs(delta_of(0.65, coarse) - delta_of(0.65, fine)) < 1e-9
        coarse = CounterexampleConfig(r=0.25, x0=0.8, xi_scan_step=0.05)
        assert abs(delta_of(0.79, coarse) - delta_of(0.79, fine)) < 1e-8

    @pytest.mark.parametrize("r, x0, x", [
        (0.25, 0.8, 0.799), (0.6, 0.9, 0.899), (0.25, 0.8, 0.79), (0.1, 0.4, 0.399),
    ])
    def test_matches_mpmath_root_at_every_scan_step(self, r, x0, x, mp_omega):
        # Close to x0, phi_x is within about 1e-7 of the identity and psi'
        # at the crossing is about 5e-8, so an error of the preimage solve
        # moves the crossing 2e7 times as far.  The reference is the root of
        # g(z) = T_x(f_x(z)) - f_{x0}(z) for the infinite product at 40
        # digits, where psi(f_{x0}(z)) = g(z); delta = f_{x0}(z*) + x0.
        mp = pytest.importorskip("mpmath")
        deltas = [delta_of(x, CounterexampleConfig(r=r, x0=x0, xi_scan_step=h))
                  for h in (1e-3, 0.05, 0.005)]
        seed = float(_Phi(x, x0, CounterexampleConfig(r=r, x0=x0).modulus())
                     .solve(np.array([deltas[0] - x0]))[1][0])
        with mp.workdps(40):
            xm, x0m = mp.mpf(x), mp.mpf(x0)

            def f(z, a):
                return -(mp_omega(z, a, r) / mp_omega(z, 1 / a, r)) / a

            c = f(x0m, xm)

            def g(z):
                w = f(z, xm)
                return (w - c) / (1 - c * w) - f(z, x0m)

            z_star = mp.findroot(g, mp.mpf(seed), tol=mp.mpf(10) ** -35)
            assert r < z_star < x0
            ref = float(f(z_star, x0m) + x0m)
        assert max(abs(d - ref) for d in deltas) < 1e-8
        assert max(deltas) - min(deltas) < 1e-8

    def test_ratio_grows_toward_x0(self, std_config):
        ratios = []
        for k in (4, 5, 6, 7):
            x = std_config.x0 - 2.0 ** (-k)
            ratios.append(delta_of(x, std_config) / (std_config.x0 - x))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


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

    @pytest.mark.parametrize("m", sorted(EVIDENCE_SHA256))
    def test_certify_and_evidence_bytes_are_pinned(self, std_config, std_certificate, m):
        text = certificate_to_json(std_certificate)
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256
        cfg = dataclasses.replace(std_config, m=m)
        csv = nondegenerate_evidence(cfg, std_certificate).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == EVIDENCE_SHA256[m]

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
        cfg = CounterexampleConfig(r=0.25, x0=0.8, tol=10.0, xi_scan_step=1e-2)
        cert = certify_degenerate(cfg)
        assert not cert.passed
        assert set(cert.margins) == set(MARGIN_KEYS)
        assert -cfg.x0 < cert.zeta_star < -cfg.x0 + cert.delta

    def test_empty_walk_raises(self):
        # x0 - r = 8.5e-4 leaves no gap (x0 - r)/2^j of at least X_GRID_STEP,
        # and x0 - X_GRID_STEP lies below r, where no phi_x exists
        cfg = CounterexampleConfig(r=0.9984, x0=0.99925)
        assert cfg.x0 - counterexample.X_GRID_STEP < cfg.r
        with pytest.raises(ConvergenceError):
            certify_degenerate(cfg)

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
            vals, _ = phi.solve(grid)
            deriv = np.gradient(vals, grid)
            deviations.append(float(np.abs(deriv - 1.0).max()))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


def shrinking_arcs(cfg, zeta_star, n):
    """`_shrinking_arcs` around the slit of f_{x0}, as `nondegenerate_evidence` calls it."""
    end = slit_endpoint(SlitMapParams(cfg.modulus(), cfg.x0)).endpoint_plus
    return _shrinking_arcs(cfg, zeta_star, n, math.atan2(end.imag, end.real))


class TestArcFamily:
    def test_single_arc_for_minimal_connectivity(self, std_config, std_certificate):
        radii, samples = shrinking_arcs(std_config, std_certificate.zeta_star, 10)
        assert radii.shape == (1,) and samples.shape == (1, ARC_SAMPLES)
        az = abs(std_certificate.zeta_star)
        assert radii[0] == pytest.approx(az + 1.0 / 40.0, abs=1e-15)
        theta = np.angle(-samples[0])
        assert theta[-1] - theta[0] == pytest.approx(1.0 / (40.0 * az), abs=1e-15)

    def test_all_points_within_disk(self, std_config, std_certificate):
        for n in (10, 40, 160):
            _, samples = shrinking_arcs(std_config, std_certificate.zeta_star, n)
            assert np.abs(samples - std_certificate.zeta_star).max() < 1.0 / n

    def test_diameter_at_most_halves_when_n_doubles(self, std_config, std_certificate):
        def diam(n):
            pts = shrinking_arcs(std_config, std_certificate.zeta_star, n)[1].ravel()
            return float(np.abs(pts[:, None] - pts[None, :]).max())

        assert diam(20) <= 0.5 * diam(10) + 1e-12

    def test_endpoint_diameter_matches_all_pairs(self, std_certificate):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, m=6)
        for n in (10, 40, 160):
            _, samples = shrinking_arcs(cfg, std_certificate.zeta_star, n)
            pts = samples.ravel()
            all_pairs = max(float(np.abs(pts - p).max()) for p in pts)
            assert _family_diameter(samples) == all_pairs

    def test_geometry_error_when_disk_too_large(self, std_config, std_certificate):
        # zeta_star = -0.55625 lies 0.44375 from the unit circle and 0.24375
        # from the slit, so the 1/n disk clears both from n = 5.
        with pytest.raises(GeometryError, match=r"reaches the unit circle at n = 2; .* from n = 5$"):
            shrinking_arcs(std_config, std_certificate.zeta_star, 2)

    def test_geometry_error_names_least_clearing_n(self):
        # At (r, x0) = (0.1, 0.4) the certificate passes with zeta_star =
        # -0.325, 0.075 from the slit: the default n_list starts inside the
        # slit's reach, and the 1/n disk clears it from n = floor(1/0.075) + 1.
        cfg = CounterexampleConfig(r=0.1, x0=0.4)
        cert = certify_degenerate(cfg)
        assert cert.passed and cert.zeta_star == -0.325
        with pytest.raises(GeometryError, match=r"reaches the slit at n = 10; .* from n = 14$"):
            nondegenerate_evidence(cfg, cert)
        with pytest.raises(GeometryError, match=r"reaches the slit at n = 13; .* from n = 14$"):
            shrinking_arcs(cfg, cert.zeta_star, 13)
        table = nondegenerate_evidence(dataclasses.replace(cfg, n_list=(14, 20, 40)), cert)
        assert [row.n for row in table.rows] == [14, 20, 40]

    def test_higher_connectivity_arcs_disjoint(self, std_certificate):
        cfg = CounterexampleConfig(r=0.25, x0=0.8, m=5)
        radii, samples = shrinking_arcs(cfg, std_certificate.zeta_star, 50)
        assert radii.shape == (3,) and samples.shape == (3, ARC_SAMPLES)
        radii = np.sort(radii)
        assert np.all(np.diff(radii) > 1e-6)

    def test_rejects_positive_center(self, std_config):
        with pytest.raises(DomainError):
            shrinking_arcs(std_config, 0.5, 10)

    def test_rejects_arcs_that_reach_the_origin(self):
        # At m = 6 and n = 8 the innermost radius is |zeta_star| - 4/80 < 0,
        # though the 1/8 disk around -0.04 clears the slit at radius 0.5.
        cfg = CounterexampleConfig(r=0.01, x0=0.5, m=6)
        with pytest.raises(DomainError, match="arc radius must be positive"):
            shrinking_arcs(cfg, -0.04, 8)


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


class TestWorkCounts:
    def test_pipeline_makes_no_scalar_solve(self, std_config, monkeypatch):
        # delta_of brackets its crossing in the preimage under f_{x0} with
        # unguarded forward maps only, so no stage runs a scalar Newton solve
        # and no root-finder step runs a guarded f_eval.
        per_crossing, guarded_in_steps, stepping = [], [], [False]

        def scalar(p, w, seed):
            raise AssertionError("the certify pipeline ran a scalar Newton solve")

        def march(p, w):
            raise AssertionError("the certify pipeline marched along the real segment")

        def guarded(p, z):
            if stepping[0]:
                guarded_in_steps.append(z)
            return f_eval(p, z)

        root = counterexample._bracket_root

        def counting_root(g, *args):
            per_crossing.append(0)

            def counted(z):
                per_crossing[-1] += 1
                stepping[0] = True
                try:
                    return g(z)
                finally:
                    stepping[0] = False

            return root(counted, *args)

        f_eval = slitmap.f_eval
        # An imported binding in counterexample would bypass the slitmap
        # one, so both namespaces get the guard.
        for module in (slitmap, counterexample):
            monkeypatch.setattr(module, "f_inverse", scalar, raising=False)
            monkeypatch.setattr(module, "f_eval", guarded)
        monkeypatch.setattr(slitmap, "f_inverse_real_segment", march)
        monkeypatch.setattr(counterexample, "_bracket_root", counting_root)
        cert = certify_degenerate(std_config)
        revalidate_certificate(std_config, cert, std_config.trunc_tol / 100.0)
        nondegenerate_evidence(std_config, cert)
        assert per_crossing and max(per_crossing) <= 20
        assert guarded_in_steps == []

    def test_evidence_makes_one_newton_call(self, std_config, std_certificate, monkeypatch):
        sizes = []
        newton = slitmap._newton

        def counting(p, w, z):
            sizes.append(np.size(w))
            return newton(p, w, z)

        monkeypatch.setattr(slitmap, "_newton", counting)
        nondegenerate_evidence(std_config, std_certificate)
        assert sizes == [len(std_config.n_list) * (std_config.m - 2) * ARC_SAMPLES]

    def test_pipeline_builds_one_seed_table_per_modulus(self, std_config):
        slitmap._seed_table.cache_clear()
        cert = certify_degenerate(std_config)
        revalidate_certificate(std_config, cert, std_config.trunc_tol / 100.0)
        nondegenerate_evidence(std_config, cert)
        assert slitmap._seed_table.cache_info().misses <= 2

    def test_newton_passes_per_call(self, std_config, monkeypatch):
        # Hermite seeds leave one Newton step on real grids and two on arcs;
        # each pass is one `_map_log_deriv` call.
        calls, inside = [], [False]
        newton, map_log_deriv = slitmap._newton, slitmap._map_log_deriv

        def counting_newton(p, w, z):
            calls.append([np.iscomplexobj(w), 0])
            inside[0] = True
            try:
                return newton(p, w, z)
            finally:
                inside[0] = False

        def counting_pass(p, z):
            if inside[0]:
                calls[-1][1] += 1
            return map_log_deriv(p, z)

        monkeypatch.setattr(slitmap, "_newton", counting_newton)
        monkeypatch.setattr(slitmap, "_map_log_deriv", counting_pass)
        cert = certify_degenerate(std_config)
        revalidate_certificate(std_config, cert, std_config.trunc_tol / 100.0)
        real = [n for is_complex, n in calls if not is_complex]
        assert real and max(real) <= 2
        calls.clear()
        nondegenerate_evidence(std_config, cert)
        assert len(calls) == 1 and calls[0][0] and calls[0][1] <= 3
