"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run under -v to get one PASSED/FAILED line per criterion.  Each test also
prints a verdict line with the measured margin to stderr; pytest surfaces
it for failures, and -s streams it live.
"""

import json
import math
import sys
import time

import numpy as np

from slitkit.counterexample import (
    MARGIN_KEYS,
    CounterexampleConfig,
    certify_degenerate,
    nondegenerate_evidence,
    revalidate_certificate,
)
from slitkit import cli
from slitkit.potential import (
    annulus_harmonic_measure_inner,
    annulus_period_matrix,
    competitor_boundary_dist,
    radii_solve,
    squeezing_annulus,
    PeriodMatrix,
)
from slitkit.prime import AnnulusModulus, prime_omega
from slitkit.slitmap import (
    SlitMapParams,
    f_eval,
    f_prime_at_center,
    q_of,
    q_prime_at_x0,
    slit_endpoint,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict} {name}{suffix}", file=sys.stderr)
    assert ok, f"{name}{suffix}"


def _rel(a, b):
    return np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)


def test_criterion_1_prime_identities():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 0.7):
        m = AnnulusModulus(r, 1e-12)
        rng = np.random.default_rng(101)

        def draw(lo, hi, n=200):
            mod = rng.uniform(lo * 1.0001, hi * 0.9999, n)
            ang = rng.uniform(0.0, 2.0 * math.pi, n)
            return mod * np.exp(1j * ang)

        z, a = draw(r, 1.0 / r), draw(r, 1.0 / r)
        worst = max(worst, float(_rel(prime_omega(a, z, m), -prime_omega(z, a, m)).max()))
        lhs = prime_omega(np.conj(z), np.conj(a), m)
        worst = max(worst, float(_rel(lhs, np.conj(prime_omega(z, a, m))).max()))

        z, a = draw(r, 1.0), draw(r, 1.0)
        lhs = prime_omega(1.0 / z, 1.0 / a, m)
        worst = max(worst, float(_rel(lhs, -prime_omega(z, a, m) / (z * a)).max()))

        z, a = draw(1.0, 1.0 / r), draw(r, 1.0)
        lhs = prime_omega(r * r * z, a, m)
        worst = max(worst, float(_rel(lhs, -(a / z) * prime_omega(z, a, m)).max()))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: prime identities, 200 pairs per r",
        worst < 1e-9 and elapsed < 5.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_figure_scenario():
    start = time.perf_counter()
    p = SlitMapParams(AnnulusModulus(0.5, 1e-12), 0.75)
    theta = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    outer = np.abs(np.abs(f_eval(p, np.exp(1j * theta))) - 1.0).max()
    inner = np.abs(np.abs(f_eval(p, 0.5 * np.exp(1j * theta))) - 0.75).max()
    contact = abs(f_eval(p, 0.5) - (-0.75))
    endpoint = abs(abs(slit_endpoint(p).endpoint_plus) - 0.75)
    elapsed = time.perf_counter() - start
    ok = outer < 1e-9 and inner < 1e-9 and contact < 1e-9 and endpoint < 1e-9
    _report(
        "criterion 2: r=1/2, x=3/4 boundary moduli and slit data",
        ok and elapsed < 1.0,
        f"outer {outer:.1e}, inner {inner:.1e}, contact {contact:.1e}, "
        f"endpoint {endpoint:.1e}, {elapsed:.2f}s",
    )


def test_criterion_3_derivatives():
    h = 1e-6
    worst_rel = 0.0
    lower_ok = True
    for r in np.linspace(0.05, 0.7, 10):
        m = AnnulusModulus(float(r), 1e-12)
        for x in np.linspace(float(r) + 0.05, 0.95, 10):
            p = SlitMapParams(m, float(x))
            d = f_prime_at_center(p)
            fd = np.real(f_eval(p, x + h) - f_eval(p, x - h)) / (2.0 * h)
            worst_rel = max(worst_rel, abs(d - fd) / abs(d))
            lower_ok = lower_ok and d > 1.0 / (1.0 - x * x)
    worst_q = 0.0
    positive_ok = True
    hq = 1e-4
    for r in (0.1, 0.2, 0.3, 0.4, 0.5):
        m = AnnulusModulus(r, 1e-12)
        for x0 in np.linspace(math.sqrt(r) + 0.05, 0.95, 5):
            x0 = float(x0)
            qp = q_prime_at_x0(x0, m)
            fd = (
                3.0 * q_of(x0, x0, m)
                - 4.0 * q_of(x0 - hq, x0, m)
                + q_of(x0 - 2 * hq, x0, m)
            ) / (2.0 * hq)
            worst_q = max(worst_q, abs(qp - fd))
            positive_ok = positive_ok and qp > 0.0
    ok = worst_rel < 1e-6 and lower_ok and worst_q < 1e-5 and positive_ok
    _report(
        "criterion 3: derivative formulas vs finite differences",
        ok,
        f"center worst rel {worst_rel:.1e}, q worst abs {worst_q:.1e}",
    )


def test_criterion_4_reflection_identity():
    m = AnnulusModulus(0.3, 1e-12)
    xs = np.linspace(0.31, 0.99, 20)
    worst = 0.0
    params = {float(x): SlitMapParams(m, float(x)) for x in xs}
    for x in xs:
        for alpha in xs:
            lhs = f_eval(params[float(alpha)], float(x))
            rhs = -f_eval(params[float(x)], float(alpha))
            worst = max(worst, abs(lhs - rhs))
    _report(
        "criterion 4: reflection identity on 20x20 grid",
        worst < 1e-10,
        f"worst residual {worst:.1e}",
    )


def test_criterion_5_squeezing_sweep():
    r = 0.25
    rng = np.random.default_rng(105)
    worst_over = -math.inf
    count = 0
    for t in rng.uniform(0.27, 0.97, 4):
        t = float(t)
        s = squeezing_annulus(complex(t), r)
        for x in np.linspace(0.26, 0.97, 25):
            d = competitor_boundary_dist(r, float(x), t)
            worst_over = max(worst_over, d - s)
            count += 1
    attain_err = 0.0
    for t in rng.uniform(0.27, 0.97, 10):
        t = float(t)
        s = squeezing_annulus(complex(t), r)
        best = max(
            competitor_boundary_dist(r, t, t),
            competitor_boundary_dist(r, r / t, t, inverted=True),
        )
        attain_err = max(attain_err, abs(best - s))
    sym_err = 0.0
    for t in rng.uniform(0.26, 0.99, 200):
        s1 = squeezing_annulus(complex(t), r)
        s2 = squeezing_annulus(complex(r / t), r)
        sym_err = max(sym_err, abs(s1 - s2) / np.spacing(max(s1, s2)))
    ok = count == 100 and worst_over <= 1e-12 and attain_err == 0.0 and sym_err <= 1.0
    _report(
        "criterion 5: competitor sweep never beats the squeezing formula",
        ok,
        f"{count} maps, worst excess {worst_over:.1e}, attainment {attain_err:.1e}, "
        f"symmetry {sym_err:.1f} ulp",
    )


def test_criterion_6_radii_solver():
    r = 0.3
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        z0 = rng.uniform(0.31, 0.99) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        omega = annulus_harmonic_measure_inner(z0, r)
        radii = radii_solve(annulus_period_matrix(r), 0, [omega])
        worst = max(worst, abs(radii[0] - abs(z0)))
    worst_synth = 0.0
    for _ in range(20):
        a, b, c = rng.uniform(0.2, 2.0, 3)
        entries = np.array(
            [[a + b, -a, -b], [-a, a + c, -c], [-b, -c, b + c]]
        )
        pm = PeriodMatrix(entries)
        radii_true = rng.uniform(0.1, 0.9, 2)
        rhs = entries[np.ix_([0, 1], [0, 1])] @ np.log(1.0 / radii_true)
        out = radii_solve(pm, 2, rhs)
        worst_synth = max(worst_synth, float(np.abs(out - radii_true).max()))
    _report(
        "criterion 6: radii solver, annulus and synthetic systems",
        worst < 1e-12 and worst_synth < 1e-12,
        f"annulus {worst:.1e}, synthetic {worst_synth:.1e}",
    )


def test_criterion_7_degenerate_certificate():
    start = time.perf_counter()
    cfg = CounterexampleConfig(r=0.25, x0=0.8)
    cert = certify_degenerate(cfg)
    tighter = revalidate_certificate(cfg, cert, cfg.trunc_tol / 100.0)
    elapsed = time.perf_counter() - start
    margins_ok = all(cert.margins[k] > cfg.tol for k in MARGIN_KEYS)
    drift = max(abs(tighter.margins[k] - cert.margins[k]) for k in MARGIN_KEYS)
    golden_ok = (
        abs(cfg.epsilon - 0.4875) < 1e-12
        and abs(cert.x_star - 0.73125) < 1e-12
        and abs(cert.delta - 0.4875) < 1e-12
        and abs(cert.zeta_star - (-0.55625)) < 1e-12
        and abs(cert.dist_gamma - 0.798503085935911) < 1e-10
    )
    ok = cert.passed and margins_ok and drift < 1e-5 and golden_ok and elapsed < 10.0
    _report(
        "criterion 7: (0.25, 0.8) certificate with revalidation",
        ok,
        f"margins all > 1e-6, drift {drift:.1e}, {elapsed:.2f}s",
    )


def test_criterion_8_nondegenerate_evidence(std_config, std_certificate):
    start = time.perf_counter()
    table = nondegenerate_evidence(std_config, std_certificate)
    elapsed = time.perf_counter() - start
    margins_ok = all(row.margin_ineq1 > 0.0 for row in table.rows)
    cns = [row.cn_bound for row in table.rows]
    cn_ok = all(b < a for a, b in zip(cns, cns[1:])) and cns[-1] < 0.2
    decay_ok = all(
        abs(row.dist_phi_image - table.degenerate_value)
        <= table.fitted_c / row.n + 1e-15
        for row in table.rows
    )
    ok = margins_ok and cn_ok and decay_ok and elapsed < 30.0
    _report(
        "criterion 8: shrinking-arc evidence table",
        ok,
        f"c_160 {cns[-1]:.4f}, fitted C {table.fitted_c:.3f}, {elapsed:.2f}s",
    )


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"cert_{tag}.json"
        code = cli.main(["certify", "--r", "0.25", "--x0", "0.8", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    cert_same = outs[0] == outs[1]
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"evidence_{tag}.csv"
        code = cli.main(["evidence", "--r", "0.25", "--x0", "0.8", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    evidence_same = outs[0] == outs[1]
    _report(
        "criterion 9: byte-identical certify and evidence reruns",
        cert_same and evidence_same,
        f"certificate {'stable' if cert_same else 'differs'}, "
        f"evidence {'stable' if evidence_same else 'differs'}",
    )
