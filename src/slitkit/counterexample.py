"""Search and certification pipeline for the squeezing-function counterexample.

The degenerate stage works inside the unit disk slit along an arc of radius
x0: it compares the identity embedding against the recentered slit map
phi_x = T_x o f_x o f_{x0}^{-1} for x slightly below x0, and certifies a
parameter x_star together with an interval and a witness point zeta_star on
which phi_{x_star} strictly loses against the identity.  A passing
certificate pins down, with explicit margins, a configuration where the
best slit-map competitor fails to realize the boundary distance at zeta_star.

The non-degenerate stage thickens the puncture at zeta_star into families of
m - 2 tiny closed arcs contained in disks of radius 1/n, producing genuinely
m-connected domains, and tabulates the quantities that control the limit:
boundary distances before and after the map, an equilibrium-mass bound for
the shrinking arcs, and the induced harmonic measure bound at the origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .potential import harmonic_measure_upper_bound, shrink_mass_bound
from .prime import AnnulusModulus, truncation_error_bound
from .slitmap import (
    CONTINUATION_STEP,
    MobiusReal,
    SlitMapParams,
    f_eval,
    f_inverse,
    f_inverse_real_segment,
    mobius_apply,
    q_of,
    slit_dist_after_mobius,
    slit_endpoint,
)

MARGIN_KEYS = (
    "lemma61_i",
    "lemma61_ii",
    "phi_gt_zeta",
    "dist_gt_zeta",
    "r_over_x0_lt_zeta",
)

INTERIOR_GRID_POINTS = 1000
BISECT_WIDTH = 1e-12
ARC_SAMPLES = 512


@dataclass(frozen=True)
class CounterexampleConfig:
    """Parameters of one counterexample instance.

    epsilon defaults to its largest admissible value x0 - r/x0.  The grid
    steps control the search walk toward x0 and the scan resolution for the
    comparison interval; tol is the margin every certified inequality must
    clear.
    """

    r: float
    x0: float
    epsilon: float | None = None
    x_grid_step: float = 1e-3
    xi_scan_step: float = 1e-3
    tol: float = 1e-6
    n_list: tuple[int, ...] = (10, 20, 40, 80, 160)
    m: int = 3
    trunc_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise DomainError("r must lie in (0, 1)")
        if not (math.sqrt(self.r) < self.x0 < 1.0):
            raise DomainError("x0 must lie in (sqrt(r), 1)")
        eps_max = self.x0 - self.r / self.x0
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", eps_max)
        if not (0.0 < self.epsilon <= eps_max + 1e-15):
            raise DomainError(f"epsilon must lie in (0, {eps_max}]")
        if self.x_grid_step <= 0.0 or self.xi_scan_step <= 0.0:
            raise DomainError("grid steps must be positive")
        if self.xi_scan_step > CONTINUATION_STEP:
            raise DomainError(f"xi_scan_step must not exceed {CONTINUATION_STEP}")
        if self.tol <= 0.0:
            raise DomainError("tol must be positive")
        n_list = tuple(int(n) for n in self.n_list)
        if not n_list or any(n <= 0 for n in n_list):
            raise DomainError("n_list must be nonempty positive integers")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise DomainError("n_list must be strictly increasing")
        object.__setattr__(self, "n_list", n_list)
        if self.m < 3:
            raise DomainError("connectivity m must be at least 3")
        if self.trunc_tol <= 0.0:
            raise DomainError("trunc_tol must be positive")

    def modulus(self, trunc_tol: float | None = None) -> AnnulusModulus:
        return AnnulusModulus(self.r, self.trunc_tol if trunc_tol is None else trunc_tol)


class _Phi:
    """Evaluator for phi_x = T_x o f_x o f_{x0}^{-1} on the real segment.

    Preimages under f_{x0} are tracked by path continuation, so grids must be
    walked in descending order starting near 0 where the preimage x0 is known.
    """

    def __init__(self, x: float, x0: float, modulus: AnnulusModulus) -> None:
        self.x0 = x0
        self.p0 = SlitMapParams(modulus, x0)
        self.px = SlitMapParams(modulus, x)
        c = float(np.real(f_eval(self.px, x0)))
        self.mob = MobiusReal(c)

    def from_preimage(self, z) -> float:
        return float(np.real(mobius_apply(self.mob, f_eval(self.px, z))))

    def single(self, xi: float) -> float:
        z = f_inverse_real_segment(self.p0, xi)
        return self.from_preimage(z)

    def descending_grid(self, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and preimages along a strictly descending grid in [-x0, 0)."""
        z = f_inverse_real_segment(self.p0, float(xis[0]))
        vals = np.empty(xis.size)
        pres = np.empty(xis.size)
        for i, xi in enumerate(xis):
            z = f_inverse(self.p0, float(xi), z).real
            pres[i] = z
            vals[i] = self.from_preimage(z)
        return vals, pres


def delta_of(x: float, cfg: CounterexampleConfig) -> float:
    """Largest alpha such that phi_x(xi) < xi holds on [-x0, -x0 + alpha).

    Requires q(x) = phi_x(-x0) < -x0, otherwise no such interval exists.
    The sign change of phi_x(xi) - xi is located by an ascending scan with
    step xi_scan_step and refined by bisection; when no crossing occurs
    before 0 the whole interval wins and x0 is returned.
    """
    modulus = cfg.modulus()
    x0 = cfg.x0
    q = q_of(x, x0, modulus)
    if q >= -x0:
        raise DomainError(
            f"delta_of precondition q(x) < -x0 fails: q({x}) = {q}"
        )
    h = cfg.xi_scan_step
    n_steps = math.ceil(x0 / h)
    xis = -x0 + h * np.arange(n_steps + 1)
    xis = xis[xis < 0.0]
    phi = _Phi(x, x0, modulus)
    vals, pres = phi.descending_grid(xis[::-1])
    vals, pres = vals[::-1], pres[::-1]
    psi = vals - xis
    cross = None
    for i in range(1, xis.size):
        if psi[i - 1] < 0.0 <= psi[i]:
            cross = i
            break
    if cross is None:
        return x0
    lo, hi = float(xis[cross - 1]), float(xis[cross])
    z = float(pres[cross - 1])
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        z = f_inverse(phi.p0, mid, z).real
        if phi.from_preimage(z) - mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) + x0


@dataclass(frozen=True)
class _Candidate:
    x: float
    delta: float
    dist_gamma: float
    margin_i: float
    margin_ii: float

    @property
    def weakest(self) -> float:
        return min(self.margin_i, self.margin_ii)


def _interior_margin(phi: _Phi, x0: float, delta: float) -> float:
    """Minimum of xi - phi(xi) over the interior grid of (-x0, -x0 + delta)."""
    j = np.arange(1, INTERIOR_GRID_POINTS + 1)
    grid = -x0 + delta * j / (INTERIOR_GRID_POINTS + 1.0)
    vals, _ = phi.descending_grid(grid[::-1])
    return float(np.min(grid - vals[::-1]))


def _estimate_lipschitz(cfg: CounterexampleConfig, modulus: AnnulusModulus,
                        gaps: list[float]) -> float:
    """Difference-quotient bound for x -> dist(0, Gamma(x)) near x0.

    Uses the grid points of the final decade of the walk (gaps within a
    factor 10 of x_grid_step) and doubles the worst observed quotient.
    """
    lo, hi = cfg.x_grid_step, 10.0 * cfg.x_grid_step
    sample_gaps = sorted(g for g in gaps if lo <= g <= hi)
    if len(sample_gaps) < 3:
        sample_gaps = list(np.geomspace(lo, min(hi, (cfg.x0 - cfg.r) / 2.0), 4))
    pts = [(cfg.x0, cfg.x0)]
    for g in sample_gaps:
        x = cfg.x0 - g
        if x <= cfg.r:
            continue
        pts.append((x, slit_dist_after_mobius(x, cfg.x0, modulus)))
    pts.sort()
    worst = 0.0
    for (xa, da), (xb, db) in zip(pts, pts[1:]):
        worst = max(worst, abs(db - da) / (xb - xa))
    return 2.0 * worst


def _walk_candidates(cfg: CounterexampleConfig):
    """Yield evaluated candidates walking x upward toward x0.

    The walk uses gaps (x0 - r) / 2^j down to x_grid_step, a geometric
    approach to x0.  Candidates failing the q precondition or the Lipschitz
    gate are skipped silently; all others come out with their margins.
    """
    modulus = cfg.modulus()
    gaps = []
    g = (cfg.x0 - cfg.r) / 2.0
    while g >= cfg.x_grid_step:
        gaps.append(g)
        g /= 2.0
    lipschitz = _estimate_lipschitz(cfg, modulus, gaps)
    for g in gaps:
        x = cfg.x0 - g
        if x <= cfg.r:
            continue
        q = q_of(x, cfg.x0, modulus)
        if q >= -cfg.x0:
            continue
        delta_raw = delta_of(x, cfg)
        delta = min(cfg.epsilon, delta_raw)
        if lipschitz * g > delta:
            continue
        dist_gamma = slit_dist_after_mobius(x, cfg.x0, modulus)
        margin_ii = dist_gamma - (cfg.x0 - delta)
        phi = _Phi(x, cfg.x0, modulus)
        margin_i = _interior_margin(phi, cfg.x0, delta)
        yield _Candidate(
            x=x,
            delta=delta,
            dist_gamma=dist_gamma,
            margin_i=margin_i,
            margin_ii=margin_ii,
        )


def _choose_candidate(cfg: CounterexampleConfig) -> tuple[_Candidate | None, bool]:
    """First walk candidate whose interval margins both clear tol.

    Returns (candidate, True) for it, or, when the walk finds none, the
    candidate with the best weakest margin (None for an empty walk) and False.
    """
    best = None
    for cand in _walk_candidates(cfg):
        if cand.margin_i > cfg.tol and cand.margin_ii > cfg.tol:
            return cand, True
        if best is None or cand.weakest > best.weakest:
            best = cand
    return best, False


def search_x_star(cfg: CounterexampleConfig) -> tuple[float, float]:
    """First x on the walk where both certified interval conditions clear tol.

    Returns (x_star, delta) with delta = min(epsilon, delta_of(x_star)).
    Raises ConvergenceError when the grid is exhausted, which signals steps
    too coarse rather than nonexistence.
    """
    cand, qualified = _choose_candidate(cfg)
    if not qualified:
        raise ConvergenceError(
            "search grid exhausted without a qualifying x; refine x_grid_step"
        )
    return cand.x, cand.delta


@dataclass(frozen=True)
class Certificate:
    """Certified witness data for one degenerate counterexample instance.

    passed is true exactly when every margin exceeds tol.
    truncation_report is the worst relative truncation bound over the
    evaluation points the margins were computed at.
    """

    r: float
    x0: float
    epsilon: float
    tol: float
    x_star: float
    delta: float
    zeta_star: float
    q_at_xstar: float
    dist_gamma: float
    phi_at_zeta: float
    margins: dict
    truncation_report: float
    passed: bool

    def __post_init__(self) -> None:
        if not self.r < self.x_star < self.x0:
            raise DomainError("x_star must lie in (r, x0)")
        if not 0.0 < self.delta <= self.epsilon:
            raise DomainError("delta must lie in (0, epsilon]")
        if not -self.x0 < self.zeta_star < -self.x0 + self.delta:
            raise DomainError("zeta_star must lie in (-x0, -x0 + delta)")
        if set(self.margins) != set(MARGIN_KEYS):
            raise DomainError(f"margins must have keys {MARGIN_KEYS}")
        should_pass = all(self.margins[k] > self.tol for k in MARGIN_KEYS)
        if bool(self.passed) != should_pass:
            raise DomainError("passed flag inconsistent with margins and tol")


def _truncation_report(cfg: CounterexampleConfig, x_star: float,
                       modulus: AnnulusModulus) -> float:
    """Worst relative truncation bound over the moduli the margins touch."""
    mags = (cfg.r, 1.0)
    targets = (x_star, 1.0 / x_star, cfg.x0, 1.0 / cfg.x0)
    return max(
        truncation_error_bound(modulus, zm, am) for zm in mags for am in targets
    )


def _select_zeta(x0: float, delta: float, dist_gamma: float, tol: float) -> float:
    """Midpoint of the comparison interval, nudged right until inside dist.

    Stays strictly inside (-x0, -x0 + delta) even when the distance condition
    is unreachable, in which case the corresponding margin simply fails.
    """
    zeta = -x0 + 0.5 * delta
    right = -x0 + delta
    for _ in range(60):
        if abs(zeta) < dist_gamma - tol:
            break
        nxt = 0.5 * (zeta + right)
        if not nxt < right or nxt == zeta:
            break
        zeta = nxt
    return zeta


def _certificate(
    cfg: CounterexampleConfig,
    x_star: float,
    delta: float,
    zeta_star: float,
    modulus: AnnulusModulus,
    margin_i: float | None = None,
    dist_gamma: float | None = None,
) -> Certificate:
    """Certificate for a fixed witness; grid quantities recomputed on demand."""
    phi = _Phi(x_star, cfg.x0, modulus)
    if dist_gamma is None:
        dist_gamma = slit_dist_after_mobius(x_star, cfg.x0, modulus)
    if margin_i is None:
        margin_i = _interior_margin(phi, cfg.x0, delta)
    phi_at_zeta = phi.single(zeta_star)
    margins = {
        "lemma61_i": margin_i,
        "lemma61_ii": dist_gamma - (cfg.x0 - delta),
        "phi_gt_zeta": abs(phi_at_zeta) - abs(zeta_star),
        "dist_gt_zeta": dist_gamma - abs(zeta_star),
        "r_over_x0_lt_zeta": abs(zeta_star) - cfg.r / cfg.x0,
    }
    return Certificate(
        r=cfg.r,
        x0=cfg.x0,
        epsilon=cfg.epsilon,
        tol=cfg.tol,
        x_star=x_star,
        delta=delta,
        zeta_star=zeta_star,
        q_at_xstar=q_of(x_star, cfg.x0, modulus),
        dist_gamma=dist_gamma,
        phi_at_zeta=phi_at_zeta,
        margins=margins,
        truncation_report=_truncation_report(cfg, x_star, modulus),
        passed=all(margins[k] > cfg.tol for k in MARGIN_KEYS),
    )


def certify_degenerate(cfg: CounterexampleConfig) -> Certificate:
    """Run the search and package the counterexample witness with margins.

    The first x on the walk whose interval conditions clear tol becomes
    x_star.  When the walk finds no qualifying x the candidate with the best
    weakest margin is certified anyway; its margins document the failure and
    passed comes out false.
    """
    chosen, _ = _choose_candidate(cfg)
    if chosen is None:
        raise ConvergenceError(
            "no admissible candidate on the search grid; refine x_grid_step"
        )
    zeta = _select_zeta(cfg.x0, chosen.delta, chosen.dist_gamma, cfg.tol)
    return _certificate(
        cfg, chosen.x, chosen.delta, zeta, cfg.modulus(),
        margin_i=chosen.margin_i, dist_gamma=chosen.dist_gamma,
    )


def revalidate_certificate(
    cfg: CounterexampleConfig, cert: Certificate, trunc_tol: float
) -> Certificate:
    """Recompute all margins of an existing witness under a new truncation.

    The witness (x_star, delta, zeta_star) is kept fixed; only evaluations
    are redone.  Drift of the margins under tightened truncation measures
    how far the certificate is from the infinite product.
    """
    return _certificate(
        cfg, cert.x_star, cert.delta, cert.zeta_star, cfg.modulus(trunc_tol)
    )


# Field order of the certificate JSON document.
_JSON_KEYS = (
    "r", "x0", "epsilon", "x_star", "delta", "zeta_star", "dist_gamma",
    "q_at_xstar", "phi_at_zeta", "margins", "tol", "truncation_report", "passed",
)


def certificate_to_json(cert: Certificate) -> str:
    """Serialize a certificate to a stable, human-readable JSON string."""
    doc = {k: getattr(cert, k) for k in _JSON_KEYS}
    doc["margins"] = {k: cert.margins[k] for k in MARGIN_KEYS}
    return json.dumps(doc, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    try:
        fields = {k: doc[k] for k in _JSON_KEYS}
    except KeyError as exc:
        raise DomainError(f"certificate JSON missing field {exc}") from exc
    fields["margins"] = dict(fields["margins"])
    return Certificate(**fields)


@dataclass(frozen=True)
class CircularArc:
    """Closed arc of an origin-centered circle, theta_min <= theta <= theta_max."""

    radius: float
    theta_min: float
    theta_max: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0 or not math.isfinite(self.radius):
            raise DomainError("arc radius must be positive")
        if not self.theta_min < self.theta_max:
            raise DomainError("arc must be non-degenerate")

    def sample(self, n: int) -> np.ndarray:
        theta = np.linspace(self.theta_min, self.theta_max, n)
        return self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class ArcFamily:
    """The m - 2 disjoint closed arcs that thicken the puncture at level n."""

    center: float
    n: int
    arcs: tuple[CircularArc, ...]

    def __post_init__(self) -> None:
        radii = [a.radius for a in self.arcs]
        if len(set(radii)) != len(radii):
            raise GeometryError("arc radii must be pairwise distinct")


def _point_to_arc_dist(pts: np.ndarray, radius: float,
                       theta_min: float, theta_max: float) -> np.ndarray:
    """Distance from points to a closed arc of an origin-centered circle."""
    pts = np.asarray(pts, dtype=complex)
    ang = np.mod(np.angle(pts), 2.0 * np.pi)
    inside = (ang >= theta_min) & (ang <= theta_max)
    radial = np.abs(np.abs(pts) - radius)
    end_a = radius * np.exp(1j * theta_min)
    end_b = radius * np.exp(1j * theta_max)
    corner = np.minimum(np.abs(pts - end_a), np.abs(pts - end_b))
    return np.where(inside, radial, corner)


def make_shrinking_arcs(cfg: CounterexampleConfig, zeta_star: float, n: int) -> ArcFamily:
    """Arc family at level n: m - 2 arcs on circles hugging |zeta_star|.

    Radii are offset from |zeta_star| by j/(2 n (m-1)) with alternating sign
    and the angular width of every arc is 1/(4 n |zeta_star|), centered on
    the ray through zeta_star.  Everything must fit inside the disk of
    radius 1/n around zeta_star, which itself must clear both the slit of
    the reference map and the unit circle.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not (math.isfinite(zeta_star) and -cfg.x0 < zeta_star < 0.0):
        raise DomainError("zeta_star must lie in (-x0, 0)")
    az = abs(zeta_star)
    clearance = 1.0 / n
    if 1.0 - az <= clearance:
        raise GeometryError("disk around zeta_star reaches the unit circle")
    p0 = SlitMapParams(cfg.modulus(), cfg.x0)
    arc0 = slit_endpoint(p0)
    theta_a = math.atan2(arc0.endpoint_plus.imag, arc0.endpoint_plus.real)
    slit_dist = float(
        _point_to_arc_dist(
            np.asarray(complex(zeta_star)), cfg.x0, theta_a, 2.0 * math.pi - theta_a
        )
    )
    if slit_dist <= clearance:
        raise GeometryError("disk around zeta_star reaches the slit")
    width = 1.0 / (4.0 * n * az)
    arcs = []
    for j in range(1, cfg.m - 1):
        sign = 1.0 if j % 2 else -1.0
        rho = az + sign * j / (2.0 * n * (cfg.m - 1))
        arcs.append(
            CircularArc(
                radius=rho,
                theta_min=math.pi - 0.5 * width,
                theta_max=math.pi + 0.5 * width,
            )
        )
    for arc in arcs:
        corners = arc.radius * np.exp(
            1j * np.array([arc.theta_min, arc.theta_max])
        )
        if np.abs(corners - zeta_star).max() >= clearance:
            raise GeometryError("arc family does not fit inside the 1/n disk")
    return ArcFamily(center=zeta_star, n=n, arcs=tuple(arcs))


@dataclass(frozen=True)
class EvidenceRow:
    n: int
    dist_boundary: float
    dist_phi_image: float
    cn_bound: float
    hm_bound_at_0: float
    margin_ineq1: float


@dataclass(frozen=True)
class EvidenceTable:
    """Per-n quantities for the shrinking-arc stage, plus fitted limit data."""

    rows: tuple[EvidenceRow, ...]
    degenerate_value: float
    fitted_c: float
    n_min: int | None

    def to_csv(self) -> str:
        lines = ["n,dist_boundary,dist_phi_image,cn_bound,hm_bound_at_0,margin_ineq1"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.dist_boundary!r},{row.dist_phi_image!r},"
                f"{row.cn_bound!r},{row.hm_bound_at_0!r},{row.margin_ineq1!r}"
            )
        return "\n".join(lines) + "\n"


def _family_diameter(arc_samples: list[np.ndarray]) -> float:
    """Largest distance between samples of arcs that share one angular window.

    |rho e^{ia} - sigma e^{ib}|^2 = rho^2 + sigma^2 - 2 rho sigma cos(a - b)
    grows with |a - b| < pi, and the window is narrower than pi, so the
    farthest pair of samples is a pair of arc endpoints.
    """
    ends = np.array([end for pts in arc_samples for end in (pts[0], pts[-1])])
    return float(np.abs(ends[:, None] - ends[None, :]).max())


def _map_arc_through_phi(phi: _Phi, arc: CircularArc) -> tuple[np.ndarray, np.ndarray]:
    """Sample one arc and push it through phi by continuation from its midpoint.

    Returns (sample points, phi values).  The anchor preimage comes from the
    real segment at -radius, which is the arc's intersection with the ray
    through zeta_star.
    """
    pts = arc.sample(ARC_SAMPLES)
    anchor = f_inverse_real_segment(phi.p0, -arc.radius)
    vals = np.empty(ARC_SAMPLES, dtype=complex)
    mid = ARC_SAMPLES // 2
    z = complex(anchor)
    for i in range(mid, ARC_SAMPLES):
        z = f_inverse(phi.p0, complex(pts[i]), z)
        vals[i] = mobius_apply(phi.mob, f_eval(phi.px, z))
    z = complex(anchor)
    for i in range(mid - 1, -1, -1):
        z = f_inverse(phi.p0, complex(pts[i]), z)
        vals[i] = mobius_apply(phi.mob, f_eval(phi.px, z))
    return pts, vals


def nondegenerate_evidence(cfg: CounterexampleConfig, cert: Certificate) -> EvidenceTable:
    """Tabulate the shrinking-arc quantities for every n in cfg.n_list.

    Needs a passing certificate: the arc families thicken its witness point.
    Each row reports the boundary distance of the thickened domain, the
    sampled boundary distance of its image under phi_{x_star}, the
    equilibrium-mass bound for the arcs, the induced harmonic measure bound
    at 0, and the margin of the first comparison inequality.
    """
    if not cert.passed:
        raise DomainError("non-degenerate evidence requires a passing certificate")
    modulus = cfg.modulus()
    phi = _Phi(cert.x_star, cfg.x0, modulus)
    arc0 = slit_endpoint(phi.p0)
    theta_a = math.atan2(arc0.endpoint_plus.imag, arc0.endpoint_plus.real)
    degenerate_value = min(abs(cert.phi_at_zeta), cert.dist_gamma)
    rows = []
    fitted_c = 0.0
    n_min = None
    for n in cfg.n_list:
        fam = make_shrinking_arcs(cfg, cert.zeta_star, n)
        dist_boundary = min(cfg.x0, min(a.radius for a in fam.arcs))
        all_pts = []
        min_abs_phi = math.inf
        for arc in fam.arcs:
            pts, vals = _map_arc_through_phi(phi, arc)
            all_pts.append(pts)
            min_abs_phi = min(min_abs_phi, float(np.abs(vals).min()))
        dist_phi_image = min(cert.dist_gamma, 1.0, min_abs_phi)
        margin = dist_phi_image - dist_boundary
        diam = _family_diameter(all_pts)
        pts = np.concatenate(all_pts)
        dist_p0 = float(
            min(
                (1.0 - np.abs(pts)).min(),
                _point_to_arc_dist(pts, cfg.x0, theta_a, 2.0 * math.pi - theta_a).min(),
            )
        )
        cn = shrink_mass_bound(dist_p0, diam)
        hm = harmonic_measure_upper_bound(
            dist_z_pn=float(min(a.radius for a in fam.arcs)),
            maxdist_z_p0=1.0,
            cn_bound=cn,
        )
        rows.append(
            EvidenceRow(
                n=n,
                dist_boundary=dist_boundary,
                dist_phi_image=dist_phi_image,
                cn_bound=cn,
                hm_bound_at_0=hm,
                margin_ineq1=margin,
            )
        )
        fitted_c = max(fitted_c, n * abs(dist_phi_image - degenerate_value))
        if n_min is None and margin > 0.0:
            n_min = n
    return EvidenceTable(
        rows=tuple(rows),
        degenerate_value=degenerate_value,
        fitted_c=fitted_c,
        n_min=n_min,
    )
