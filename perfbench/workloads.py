"""The benchmark's three workloads.

Each workload builds its inputs from the seed and runs whole rounds of a
fixed set of operations: one caller, closed loop, each operation started
when the previous one returned.  Only the program's calls are timed; input
generation and the checks run between them.  Every operation's output is
checked against ``refmath`` or a required property.

* ``certify``: the counterexample pipeline (certify, revalidate at a 100x
  tighter truncation, shrinking-arc evidence with m = 4) on three (r, x0)
  instances from 6 to 28 product terms.  Thousands of scalar Newton and
  continuation steps at fixed (r, x) parameters and almost no array work.
* ``batch``: array work on seeded random points: prime function, map and
  derivative on r = 0.1 .. 0.9 (6 to 132 terms), potentials of circle and
  arc measures on target grids, a competitor sweep in both orientations and
  a fixed set of figures.  Per-call overhead is negligible.
* ``queries``: a stream of single-point requests, each with fresh (r, x)
  parameters, one of each of nine kinds per round: forward reads, Newton
  inversions and slit geometry.
"""

from __future__ import annotations

import math
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

import checks

TWO_PI = 2.0 * math.pi


def max_rss_kb() -> int:
    """High-water mark of this process's resident set, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Run:
    """Operation counts, latencies, memory and check failures of one run.

    ``peak_rss_kb`` is the high-water mark read right after each operation,
    so checks that run after the last operation do not count.  The mark
    cannot be reset, so a check that raised it would also show in later
    readings; ``check_rss_kb`` sums how far the checks raised it, which keeps
    that visible (it stays near 0 when the operations set the peak).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.breakdown: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_kb = 0
        self.check_rss_kb = 0

    def op(self, name: str, fn, *args, **kwargs):
        """Time one operation; return (output, seconds), output None on failure."""
        self.attempted += 1
        scope = self.tracer.root(name) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.failed += 1
            print(f"operation {name} failed: {exc!r}", file=sys.stderr)
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.peak_rss_kb = max(self.peak_rss_kb, max_rss_kb())
        return out, dt

    def check(self, fn, *args) -> None:
        before = max_rss_kb()
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.problems.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)
        self.check_rss_kb += max_rss_kb() - before


def _annulus_points(rng, r: float, n: int):
    """n points with |z| uniform in the open annulus r < |z| < 1."""
    pad = 0.01 * (1.0 - r)
    mag = rng.uniform(r + pad, 1.0 - pad, n)
    return mag * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def _map_bound(sk, m, x: float, mags) -> float:
    """Truncation bound of f_x = omega(., x)/omega(., 1/x) over |z| in mags."""
    tb = sk.truncation_error_bound
    return max(tb(m, float(s), x) + tb(m, float(s), 1.0 / x) for s in mags)


# ------------------------------------------------------------------ certify


class Certify:
    """Certify, revalidate and gather evidence for three instances per round.

    One operation is the whole pipeline for one instance.  Each round
    shuffles the instances and moves every x0 by a fresh seeded offset of
    at most X0_JITTER, small enough to keep the search walk, and so the work,
    of each instance the same.
    """

    # (r, x0, n_list): 6, 12 and 28 retained product terms.
    INSTANCES = ((0.1, 0.4, (20, 40)), (0.3, 0.7, (10, 20)), (0.6, 0.9, (10, 20)))
    X0_JITTER = 0.002
    M = 4
    XI_SCAN_STEP = 0.005
    REVALIDATE_FACTOR = 100.0

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.rng = np.random.default_rng(seed)

    def _pipeline(self, cfg):
        sk = self.sk
        t0 = time.perf_counter()
        cert = sk.certify_degenerate(cfg)
        t1 = time.perf_counter()
        reval = sk.revalidate_certificate(cfg, cert, cfg.trunc_tol / self.REVALIDATE_FACTOR)
        t2 = time.perf_counter()
        table = sk.nondegenerate_evidence(cfg, cert)
        t3 = time.perf_counter()
        return cert, reval, table, (t1 - t0, t2 - t1, t3 - t2)

    def round(self, run: Run) -> None:
        phases = np.zeros(3)
        for i in self.rng.permutation(len(self.INSTANCES)):
            r, x0, n_list = self.INSTANCES[i]
            x0 += self.rng.uniform(-self.X0_JITTER, self.X0_JITTER)
            cfg = self.sk.CounterexampleConfig(
                r=r, x0=x0, n_list=n_list, m=self.M, xi_scan_step=self.XI_SCAN_STEP)
            out, _ = run.op("certify.instance", self._pipeline, cfg)
            if out is None:
                continue
            cert, reval, table, times = out
            phases += times
            run.check(checks.check_certificate, cert, cfg.tol)
            run.check(checks.check_revalidation, cert, reval, cfg.tol)
            run.check(lambda: checks.check_witness(cert, checks.witness_reference(cert)))
            run.check(checks.check_evidence, table, cert, cfg.x0, cfg.n_list, cfg.m)
        for key, value in zip(("certify_s", "revalidate_s", "evidence_s"), phases):
            run.breakdown[key].append(float(value))

    def finish(self, run: Run) -> None:
        pass


# -------------------------------------------------------------------- batch


class Batch:
    """Array evaluation, potentials, a competitor sweep and figures per round.

    Every program call is one operation.  Points, measures and sweep
    parameters are drawn afresh each round; the figures are a fixed set.
    """

    R_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
    N_EVAL = 8192
    CIRCLES, CIRCLE_TARGETS, CIRCLE_NODES = 4, 256, 4096
    ARCS, ARC_TARGETS, ARC_NODES = 4, 1024, 1024
    SWEEP_R, SWEEP_Z0, SWEEP_RANDOM_X = 0.4, 4, 2
    CANONICAL_GAP = 0.02
    FIGURES = ((0.25, 0.75, (8, 12)), (0.5, 0.8, (10, 16)), (0.8, 0.9, (6, 8)))

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.rng = np.random.default_rng(seed)

    def round(self, run: Run) -> None:
        bd = run.breakdown
        points, seconds = self._evaluate(run)
        bd["eval_points_per_s"].append(points / seconds)
        pairs, seconds = self._potentials(run)
        bd["potential_pairs_per_s"].append(pairs / seconds)
        bd["sweep_s"].append(self._sweep(run))
        bd["figure_s"].append(self._figures(run))

    def _evaluate(self, run: Run):
        sk, rng, n = self.sk, self.rng, self.N_EVAL
        points = seconds = 0.0
        for r in self.R_GRID:
            m = sk.AnnulusModulus(r)
            x = r + (1.0 - r) * rng.uniform(0.1, 0.9)
            p = sk.SlitMapParams(m, x)

            z, a = _annulus_points(rng, r, n), _annulus_points(rng, r, n)
            omega, dt = run.op("batch.prime_omega", sk.prime_omega, z, a, m)
            points, seconds = points + n, seconds + dt
            if omega is not None:
                bound = sk.truncation_error_bound(m, 1.0, r)
                run.check(checks.check_prime_omega, z, a, r, omega, bound)
                run.check(checks.check_prime_omega_mp, z[0], a[0], r, omega[0],
                          sk.truncation_error_bound(m, abs(z[0]), abs(a[0])))

            k = n // 8
            ring = np.exp(1j * rng.uniform(0.0, TWO_PI, 2 * k))
            zf = np.concatenate([ring[:k], r * ring[k:], _annulus_points(rng, r, n - 2 * k)])
            on_outer = np.arange(n) < k
            on_inner = (np.arange(n) >= k) & (np.arange(n) < 2 * k)
            f, dt = run.op("batch.f_eval", sk.f_eval, p, zf)
            points, seconds = points + n, seconds + dt
            if f is not None:
                bound = _map_bound(sk, m, x, (r, 1.0))
                run.check(checks.check_slit_map, zf, x, r, f, bound)
                run.check(checks.check_slit_map_moduli, f, x, on_outer, on_inner, bound)
                run.check(checks.check_slit_map_mp, zf[-1], x, r, f[-1], bound)

            zp = _annulus_points(rng, r, n)
            fp, dt = run.op("batch.f_prime", sk.f_prime, p, zp)
            points, seconds = points + n, seconds + dt
            if fp is not None:
                run.check(checks.check_derivative, zp, fp,
                          lambda w: sk.f_eval(p, w), 1e-3 * (1.0 - r))
        return points, seconds

    def _targets(self, radius: float, n: int):
        """Polar grid of n targets at radii clear of the measure's circle."""
        side = int(math.isqrt(n))
        s = np.where(self.rng.random(side) < 0.5,
                     self.rng.uniform(0.2, 0.9, side), self.rng.uniform(1.1, 2.5, side))
        theta = self.rng.uniform(0.0, TWO_PI) + TWO_PI * np.arange(side) / side
        return (radius * s[:, None] * np.exp(1j * theta[None, :])).ravel()

    def _potentials(self, run: Run):
        sk, rng = self.sk, self.rng
        pairs = seconds = 0.0
        for _ in range(self.CIRCLES):
            radius, mass = rng.uniform(0.3, 1.2), rng.uniform(0.5, 2.0)
            mu = sk.uniform_circle_measure(radius, mass, self.CIRCLE_NODES)
            w = self._targets(radius, self.CIRCLE_TARGETS)
            out, dt = run.op("batch.log_potential", sk.log_potential, mu, w)
            pairs, seconds = pairs + w.size * self.CIRCLE_NODES, seconds + dt
            if out is not None:
                run.check(checks.check_circle_potential, out, w, radius, mass, self.CIRCLE_NODES)
        for _ in range(self.ARCS):
            radius, mass = rng.uniform(0.3, 1.2), rng.uniform(0.5, 2.0)
            t0 = rng.uniform(0.0, math.pi)
            t1 = t0 + rng.uniform(0.5, 2.5)
            mu = sk.uniform_arc_measure(radius, t0, t1, mass, self.ARC_NODES)
            w = self._targets(radius, self.ARC_TARGETS)
            out, dt = run.op("batch.log_potential", sk.log_potential, mu, w)
            pairs, seconds = pairs + w.size * self.ARC_NODES, seconds + dt
            if out is not None:
                run.check(checks.check_arc_potential, out, w, radius, t0, t1, mass,
                          self.ARC_NODES)
        return pairs, seconds

    def _sweep_xs(self, r: float, z0: float):
        """Both canonical competitors plus random x clear of them."""
        xs = [z0, r / z0]
        while len(xs) < 2 + self.SWEEP_RANDOM_X:
            x = self.rng.uniform(r + 0.01, 0.99)
            if min(abs(x - z0), abs(x - r / z0)) > self.CANONICAL_GAP:
                xs.append(x)
        return xs

    def _sweep(self, run: Run) -> float:
        """Competitors at one r, so the sweep's calls cost alike and op_p50_ms
        sits inside their cluster rather than between two."""
        sk, r = self.sk, self.SWEEP_R
        seconds = 0.0
        rows = []
        cells = (np.arange(self.SWEEP_Z0) + self.rng.random(self.SWEEP_Z0)) / self.SWEEP_Z0
        for z0 in r + (1.0 - r) * (0.05 + 0.9 * cells):
            for x in self._sweep_xs(r, z0):
                for inverted in (False, True):
                    d, dt = run.op("batch.competitor_boundary_dist",
                                   sk.competitor_boundary_dist, r, x, z0, inverted=inverted)
                    seconds += dt
                    if d is not None:
                        rows.append((x, z0, inverted, d))
        run.check(checks.check_competitors, rows, r)
        return seconds

    def _figures(self, run: Run) -> float:
        seconds = 0.0
        for r, x, grid in self.FIGURES:
            doc, dt = run.op("batch.plot_map", self.sk.plot_map, r, x, grid=grid)
            seconds += dt
            if doc is not None:
                run.check(checks.check_svg, doc, sum(grid))
        return seconds

    def finish(self, run: Run) -> None:
        pass


# ------------------------------------------------------------------ queries


def kronecker_step(dim: int) -> np.ndarray:
    """Step of the R_d low-discrepancy sequence in dim dimensions.

    The sequence frac(s + j * alpha) covers the unit cube evenly from any
    start s, so every prefix of the request stream sees the same spread of
    parameters while no two requests share them.  alpha_k = g^-(k+1), where
    g is the positive root of g^(d+1) = g + 1.
    """
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return (1.0 / g) ** np.arange(1, dim + 1) % 1.0


def _r(u: float) -> float:
    return 0.1 + 0.7 * u


def _inside(r: float, u: float) -> float:
    return r + (1.0 - r) * (0.02 + 0.96 * u)


def _x(r: float, u: float) -> float:
    return r + (1.0 - r) * (0.05 + 0.9 * u)


def _pair(r: float, u0: float, u1: float):
    """x <= x0 in (r, 1), as q_of, phi_eval and slit_dist_after_mobius need."""
    x0 = r + (1.0 - r) * (0.1 + 0.85 * u0)
    return r + (x0 - r) * (0.1 + 0.9 * u1), x0


class Queries:
    """A stream of single-point requests, one of each kind per round.

    No record of real traffic exists to weight the kinds, so they are taken
    as equally likely: a round is one request of every kind in seeded order.
    Each kind draws its parameters from its own seeded low-discrepancy
    sequence, so no request reuses another's (r, x) while the spread of
    parameters, and so of costs, stays the same from run to run.  r stays in
    [0.1, 0.8] (6 to 62 product terms): the cost of the Newton kinds grows
    steeply as r nears 0.9 (132 terms), and with r up to 0.9 the p99 of a
    30 s run rested on a handful of phi_eval requests at r > 0.85 and moved
    by 15 to 25 % from seed to seed.  The batch workload covers r = 0.9.
    Outputs are kept and checked after the stream, vectorised per kind.
    """

    # kind: parameter dimensions
    KINDS = {
        "prime_omega": 5,
        "f_eval": 4,
        "squeeze_radii": 3,
        "log_potential": 4,
        "f_inverse_real_segment": 3,
        "phi_eval": 3,
        "slit_endpoint": 2,
        "q_of": 3,
        "slit_dist_after_mobius": 3,
    }
    MP_SPOT_CHECKS = 3
    CIRCLE_NODES = 4096

    def __init__(self, sk, seed: int) -> None:
        self.sk = sk
        self.rng = np.random.default_rng(seed)
        self.seq = {k: [self.rng.random(d), kronecker_step(d), 0] for k, d in self.KINDS.items()}
        self.done = defaultdict(list)

    def _draw(self, kind: str):
        start, step, j = self.seq[kind]
        self.seq[kind][2] = j + 1
        return (start + (j + 1) * step) % 1.0

    def _request(self, kind: str, u):
        """(params, zero-argument call) for one request of the given kind."""
        sk = self.sk
        r = _r(u[0])
        if kind == "prime_omega":
            z = _inside(r, u[1]) * np.exp(1j * TWO_PI * u[2])
            a = _inside(r, u[3]) * np.exp(1j * TWO_PI * u[4])
            return (r, z, a), lambda: sk.prime_omega(z, a, sk.AnnulusModulus(r))
        if kind == "f_eval":
            x, z = _x(r, u[1]), _inside(r, u[2]) * np.exp(1j * TWO_PI * u[3])
            return (r, x, z), lambda: sk.f_eval(sk.SlitMapParams(sk.AnnulusModulus(r), x), z)
        if kind == "squeeze_radii":
            z = _inside(r, u[1]) * np.exp(1j * TWO_PI * u[2])

            def call():
                omega = sk.annulus_harmonic_measure_inner(z, r)
                radius = sk.radii_solve(sk.annulus_period_matrix(r), 0, [omega])
                return sk.squeezing_annulus(z, r), radius[0]
            return (r, z), call
        if kind == "log_potential":
            radius, mass = 0.2 + 1.3 * u[0], 0.5 + 1.5 * u[1]
            s = 0.2 + 1.4 * u[2] if u[2] < 0.5 else 1.1 + 2.8 * (u[2] - 0.5)
            w = s * radius * np.exp(1j * TWO_PI * u[3])
            return (radius, mass, w), lambda: sk.log_potential(
                sk.uniform_circle_measure(radius, mass, self.CIRCLE_NODES), w)
        if kind == "f_inverse_real_segment":
            x = _x(r, u[1])
            w = -x * (0.05 + 0.95 * u[2])
            return (r, x, w), lambda: sk.f_inverse_real_segment(
                sk.SlitMapParams(sk.AnnulusModulus(r), x), w)
        if kind == "slit_endpoint":
            x = _x(r, u[1])
            return (r, x), lambda: sk.slit_endpoint(sk.SlitMapParams(sk.AnnulusModulus(r), x))
        x, x0 = _pair(r, u[1], u[2])
        if kind == "phi_eval":
            return (r, x, x0), lambda: sk.phi_eval(x, x0, sk.AnnulusModulus(r), -x0)
        if kind == "q_of":
            return (r, x, x0), lambda: sk.q_of(x, x0, sk.AnnulusModulus(r))
        return (r, x, x0), lambda: sk.slit_dist_after_mobius(x, x0, sk.AnnulusModulus(r))

    def round(self, run: Run) -> None:
        for kind in self.rng.permutation(list(self.KINDS)):
            params, call = self._request(kind, self._draw(kind))
            out, _ = run.op(f"queries.{kind}", call)
            if out is not None:
                self.done[kind].append((params, out))

    def finish(self, run: Run) -> None:
        """Check every request's output, one vectorised pass per kind."""
        for kind, items in self.done.items():
            params = [np.array(col) for col in zip(*(p for p, _ in items))]
            getattr(self, f"_check_{kind}")(run, [o for _, o in items], *params)

    def _check_prime_omega(self, run, out, r, z, a):
        tb, am = self.sk.truncation_error_bound, self.sk.AnnulusModulus
        bound = [tb(am(ri), abs(zi), abs(ai)) for ri, zi, ai in zip(r, z, a)]
        run.check(checks.check_prime_omega, z, a, r, np.array(out), np.array(bound))
        for i in range(min(self.MP_SPOT_CHECKS, len(out))):
            run.check(checks.check_prime_omega_mp, z[i], a[i], r[i], out[i], bound[i])

    def _check_f_eval(self, run, out, r, x, z):
        am = self.sk.AnnulusModulus
        bound = [_map_bound(self.sk, am(ri), xi, (abs(zi),)) for ri, xi, zi in zip(r, x, z)]
        out = np.array(out)
        run.check(checks.check_slit_map, z, x, r, out, np.array(bound))
        run.check(checks.check_inside_disk, out)
        for i in range(min(self.MP_SPOT_CHECKS, len(out))):
            run.check(checks.check_slit_map_mp, z[i], x[i], r[i], out[i], bound[i])

    def _check_squeeze_radii(self, run, out, r, z):
        squeeze, radius = (np.array(col, dtype=float) for col in zip(*out))
        run.check(checks.check_squeezing, squeeze, z, r)
        run.check(checks.check_radii, radius, z)

    def _check_log_potential(self, run, out, radius, mass, w):
        run.check(checks.check_circle_potential, np.array(out), w, radius, mass,
                  self.CIRCLE_NODES)

    def _check_f_inverse_real_segment(self, run, out, r, x, w):
        am = self.sk.AnnulusModulus
        bound = [_map_bound(self.sk, am(ri), xi, (zi,)) for ri, xi, zi in zip(r, x, out)]
        run.check(checks.check_real_inverse, out, w, x, r, np.array(bound))

    def _check_phi_eval(self, run, out, r, x, x0):
        sk = self.sk
        q = [sk.q_of(xi, x0i, sk.AnnulusModulus(ri)) for ri, xi, x0i in zip(r, x, x0)]
        run.check(checks.check_phi_at_minus_x0, out, q, x, x0, r)

    def _check_slit_endpoint(self, run, out, r, x):
        run.check(checks.check_slit_endpoints, out, x, r)

    def _check_q_of(self, run, out, r, x, x0):
        run.check(checks.check_q, out, x, x0, r)

    def _check_slit_dist_after_mobius(self, run, out, r, x, x0):
        run.check(checks.check_recentred_slit_dist, out, x, x0, r)


WORKLOADS = {"certify": Certify, "batch": Batch, "queries": Queries}
