"""The benchmark's checks pass on the program's output and fail on corrupted copies.

Each corruption is small (a margin nudged below tol, a value off by 1e-6 or
by a relative 1e-9), so these tests also pin how sharp every check is.
"""

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import slitkit as sk

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def corrupt(obj, **changes):
    """Stand-in for a frozen result object with some fields replaced."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return types.SimpleNamespace(**{**fields, **changes})


def fails(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


# ------------------------------------------------------- certify pipeline


@pytest.fixture(scope="module")
def pipeline():
    cfg = sk.CounterexampleConfig(r=0.1, x0=0.4, m=3, n_list=(20, 40), xi_scan_step=0.005)
    cert = sk.certify_degenerate(cfg)
    reval = sk.revalidate_certificate(cfg, cert, cfg.trunc_tol / 100.0)
    table = sk.nondegenerate_evidence(cfg, cert)
    return cfg, cert, reval, table, checks.witness_reference(cert)


def test_certificate_checks_pass(pipeline):
    cfg, cert, reval, table, ref = pipeline
    checks.check_certificate(cert, cfg.tol)
    checks.check_revalidation(cert, reval, cfg.tol)
    checks.check_witness(cert, ref)
    checks.check_evidence(table, cert, cfg.x0, cfg.n_list, cfg.m)


def test_margin_below_tol_fails(pipeline):
    cfg, cert, _, _, _ = pipeline
    margins = dict(cert.margins, lemma61_i=0.999 * cfg.tol)
    fails(checks.check_certificate, corrupt(cert, margins=margins), cfg.tol)


def test_witness_value_off_fails(pipeline):
    _, cert, _, _, ref = pipeline
    fails(checks.check_witness, corrupt(cert, phi_at_zeta=cert.phi_at_zeta - 1e-6), ref)
    fails(checks.check_witness, corrupt(cert, dist_gamma=cert.dist_gamma + 1e-6), ref)
    margins = dict(cert.margins, phi_gt_zeta=cert.margins["phi_gt_zeta"] + 1e-6)
    fails(checks.check_witness, corrupt(cert, margins=margins), ref)


def test_revalidation_drift_fails(pipeline):
    cfg, cert, reval, _, _ = pipeline
    margins = dict(reval.margins, dist_gt_zeta=reval.margins["dist_gt_zeta"] + 1e-6)
    fails(checks.check_revalidation, cert, corrupt(reval, margins=margins), cfg.tol)
    fails(checks.check_revalidation, cert, corrupt(reval, zeta_star=cert.zeta_star + 1e-9), cfg.tol)


def test_evidence_corruptions_fail(pipeline):
    cfg, cert, _, table, _ = pipeline
    rows = list(table.rows)

    def with_row(i, **changes):
        changed = rows[:i] + [corrupt(rows[i], **changes)] + rows[i + 1:]
        return types.SimpleNamespace(rows=changed)

    args = (cert, cfg.x0, cfg.n_list, cfg.m)
    fails(checks.check_evidence, with_row(0, margin_ineq1=-1e-6), *args)
    fails(checks.check_evidence, with_row(1, cn_bound=rows[0].cn_bound), *args)
    fails(checks.check_evidence, with_row(0, dist_boundary=rows[0].dist_boundary + 1e-6), *args)
    fails(checks.check_evidence, types.SimpleNamespace(rows=rows[:1]), *args)


# ------------------------------------------------ prime function and maps


R, X = 0.5, 0.7


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    z = rng.uniform(R + 0.01, 0.99, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    a = rng.uniform(R + 0.01, 0.99, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    return sk.AnnulusModulus(R), z, a


def test_prime_checks(points):
    m, z, a = points
    out = sk.prime_omega(z, a, m)
    bound = sk.truncation_error_bound(m, 1.0, R)
    checks.check_prime_omega(z, a, R, out, bound)
    checks.check_prime_omega_mp(z[0], a[0], R, out[0], bound)
    bad = out.copy()
    bad[7] *= 1.0 + 1e-9
    fails(checks.check_prime_omega, z, a, R, bad, bound)
    fails(checks.check_prime_omega_mp, z[7], a[7], R, bad[7], bound)


def test_map_checks(points):
    m, z, _ = points
    p = sk.SlitMapParams(m, X)
    ring = np.exp(1j * np.linspace(0.1, 6.0, 20))
    zf = np.concatenate([ring, R * ring, z])
    outer = np.arange(zf.size) < 20
    inner = (np.arange(zf.size) >= 20) & (np.arange(zf.size) < 40)
    f = sk.f_eval(p, zf)
    bound = sk.truncation_error_bound(m, R, X) + sk.truncation_error_bound(m, R, 1 / X)
    checks.check_slit_map(zf, X, R, f, bound)
    checks.check_slit_map_moduli(f, X, outer, inner, bound)
    checks.check_slit_map_mp(zf[-1], X, R, f[-1], bound)
    bad = f.copy()
    bad[3] *= 1.0 + 1e-9
    fails(checks.check_slit_map, zf, X, R, bad, bound)
    fails(checks.check_slit_map_moduli, bad, X, outer, inner, bound)
    bad = f.copy()
    bad[25] *= 1.0 + 1e-9
    fails(checks.check_slit_map_moduli, bad, X, outer, inner, bound)
    fails(checks.check_inside_disk, np.append(f[40:], 1.0))


def test_derivative_check(points):
    m, z, _ = points
    p = sk.SlitMapParams(m, X)
    fp = sk.f_prime(p, z)
    checks.check_derivative(z, fp, lambda w: sk.f_eval(p, w), 1e-3 * (1 - R))
    bad = fp.copy()
    bad[5] += 1e-5 * (1 + abs(bad[5]))
    fails(checks.check_derivative, z, bad, lambda w: sk.f_eval(p, w), 1e-3 * (1 - R))


# --------------------------------------------- inversions and slit geometry


def test_inverse_root_off_fails():
    m = sk.AnnulusModulus(0.3)
    p = sk.SlitMapParams(m, 0.6)
    w = np.array([-0.1, -0.35, -0.55])
    z = np.array([sk.f_inverse_real_segment(p, wi) for wi in w])
    bound = np.full(3, 2e-12)
    checks.check_real_inverse(z, w, np.full(3, 0.6), np.full(3, 0.3), bound)
    z[1] += 1e-6
    fails(checks.check_real_inverse, z, w, np.full(3, 0.6), np.full(3, 0.3), bound)


def test_phi_and_q_checks():
    r, x, x0 = np.array([0.2, 0.6]), np.array([0.5, 0.75]), np.array([0.7, 0.85])
    ms = [sk.AnnulusModulus(ri) for ri in r]
    phi = np.array([sk.phi_eval(a, b, m, -b) for a, b, m in zip(x, x0, ms)])
    q = np.array([sk.q_of(a, b, m) for a, b, m in zip(x, x0, ms)])
    checks.check_phi_at_minus_x0(phi, q, x, x0, r)
    checks.check_q(q, x, x0, r)
    fails(checks.check_phi_at_minus_x0, phi + [0.0, 1e-6], q, x, x0, r)
    fails(checks.check_q, q + [1e-6, 0.0], x, x0, r)


def test_slit_geometry_checks():
    r, x, x0 = np.array([0.15, 0.8]), np.array([0.5, 0.9]), np.array([0.6, 0.95])
    ms = [sk.AnnulusModulus(ri) for ri in r]
    arcs = [sk.slit_endpoint(sk.SlitMapParams(m, xi)) for m, xi in zip(ms, x)]
    dist = np.array([sk.slit_dist_after_mobius(a, b, m) for a, b, m in zip(x, x0, ms)])
    checks.check_slit_endpoints(arcs, x, r)
    checks.check_recentred_slit_dist(dist, x, x0, r)
    moved = [corrupt(arcs[0], endpoint_plus=arcs[0].endpoint_plus * np.exp(1e-6j)), arcs[1]]
    fails(checks.check_slit_endpoints, moved, x, r)
    fails(checks.check_recentred_slit_dist, dist + [0.0, 1e-6], x, x0, r)


# ------------------------------------------- squeezing, radii, potentials


def test_squeezing_and_radii_checks():
    r, z = 0.25, np.array([0.3 + 0.1j, -0.7j, 0.5])
    s = np.array([sk.squeezing_annulus(zi, r) for zi in z])
    radius = np.array([
        sk.radii_solve(sk.annulus_period_matrix(r), 0,
                       [sk.annulus_harmonic_measure_inner(zi, r)])[0] for zi in z])
    checks.check_squeezing(s, z, r)
    checks.check_radii(radius, z)
    fails(checks.check_squeezing, s + [0, 1e-6, 0], z, r)
    fails(checks.check_radii, radius + [1e-6, 0, 0], z)


def test_potential_checks():
    w = np.array([0.1 + 0.2j, 1.5 - 0.3j, -0.45, 0.62j])
    mu = sk.uniform_circle_measure(0.6, 1.3, 4096)
    out = sk.log_potential(mu, w)
    checks.check_circle_potential(out, w, 0.6, 1.3, 4096)
    fails(checks.check_circle_potential, out + [0, 0, 1e-6, 0], w, 0.6, 1.3, 4096)
    mu = sk.uniform_arc_measure(0.6, 0.4, 2.2, 0.8, 1024)
    out = sk.log_potential(mu, w)
    checks.check_arc_potential(out, w, 0.6, 0.4, 2.2, 0.8, 1024)
    fails(checks.check_arc_potential, out - [1e-6, 0, 0, 0], w, 0.6, 0.4, 2.2, 0.8, 1024)


def test_competitor_checks():
    r, z0 = 0.25, 0.6
    rows = [(x, z0, inv, sk.competitor_boundary_dist(r, x, z0, inverted=inv))
            for x in (z0, r / z0, 0.8) for inv in (False, True)]
    checks.check_competitors(rows, r)
    fails(checks.check_competitors, [rows[0][:3] + (rows[0][3] - 1e-6,)], r)
    fails(checks.check_competitors, [(0.8, z0, False, max(z0, r / z0) + 1e-6)], r)


def test_svg_check():
    doc = sk.plot_map(0.25, 0.75, grid=(3, 4))
    checks.check_svg(doc, 7)
    fails(checks.check_svg, doc[:-20], 7)
    fails(checks.check_svg, doc, 8)


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    # root 0..100 with children 10..30 and 40..90; 40..90 has child 50..60.
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    assert list(spans.self_times(start, end, parent)) == [30, 20, 40, 10]


def test_evals_per_call_counts_nested_map_calls():
    names = ["bench", "slitmap.f_inverse", "slitmap.f_eval", "slitmap.f_prime"]
    # bench > f_inverse > (f_eval, f_prime > f_eval); a stray f_eval under bench.
    name_id = np.array([0, 1, 2, 3, 2, 2])
    parent = np.array([-1, 0, 1, 1, 3, 0])
    start = np.arange(6) * 10
    metrics = spans.layer_metrics(names, name_id, start, start + 5, parent, np.zeros(6))
    assert metrics["slitmap.f_inverse.evals_per_call"] == (2.0, "count")
    assert metrics["slitmap.f_inverse.calls"] == (1, "count")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(RUN + ["--workload", "batch", "--seed", "1", "--seconds", "0",
                                 "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["potential.competitor_boundary_dist.calls"]["value"] > 0
    # plot_map reaches slit_endpoint through svgfig's own imported name.
    assert result["metrics"]["slitmap.slit_endpoint.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(RUN + ["--workload", "queries", "--seed", "2", "--seconds", "0",
                                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["attempted"] == 9 and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(RUN + ["--workload", "batch", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
