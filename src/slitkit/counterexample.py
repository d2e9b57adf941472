"""Search and certification pipeline for the squeezing-function counterexample.

The degenerate stage works inside the unit disk slit along an arc of radius
x0: it compares the identity embedding against the recentered slit map
phi_x = T_x o f_x o f_{x0}^{-1} for x slightly below x0 (built by
`slitmap._Phi`, once per candidate x).  One walk toward x0, in gaps x0 - x
halving down to X_GRID_STEP, chooses a parameter x_star; the certificate
holds it together with an interval of length at most epsilon = x0 - r/x0
and a witness point zeta_star on which phi_{x_star} strictly loses against
the identity.  A passing certificate pins down, with explicit margins, a
configuration where the best slit-map competitor fails to realize the
boundary distance at zeta_star.

The non-degenerate stage thickens the puncture at zeta_star into families of
m - 2 tiny closed arcs contained in disks of radius 1/n, producing genuinely
m-connected domains, and tabulates the quantities that control the limit:
boundary distances before and after the map, an equilibrium-mass bound for
the shrinking arcs, and the induced harmonic measure bound at the origin.
The family at level n is two arrays, from `_shrinking_arcs`: its radii and
ARC_SAMPLES points on each arc.

No stage marches along the real segment.  Every phi_x value comes from one
`_Phi.solve` call, one array Newton, per grid (the scan of `delta_of`, the
interior margin, the witness value phi_x(zeta_star)) or per evidence table
(every arc of every n).  No stage runs a scalar Newton solve: `delta_of`
refines its crossing in the preimage under f_{x0}, where each step of
`slitmap._bracket_root` is two evaluations of the unguarded kernel `_fx`,
and the slit endpoint uses the same root finder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .potential import harmonic_measure_upper_bound, shrink_mass_bound
from .prime import DEFAULT_TRUNC_TOL, AnnulusModulus, truncation_error_bound
from .slitmap import _bracket_root, _fx, _Phi, f_eval, mobius_apply, slit_endpoint

MARGIN_KEYS = (
    "lemma61_i",
    "lemma61_ii",
    "phi_gt_zeta",
    "dist_gt_zeta",
    "r_over_x0_lt_zeta",
)

# The walk's finest gap x0 - x.
X_GRID_STEP = 1e-3
INTERIOR_GRID_POINTS = 1000
BISECT_WIDTH = 1e-12
ARC_SAMPLES = 512


@dataclass(frozen=True)
class CounterexampleConfig:
    """Parameters of one counterexample instance.

    xi_scan_step is the scan resolution for the comparison interval, and tol
    is the margin every certified inequality must clear.  The interval's
    length is capped by epsilon, which is not an input: it is the largest
    admissible value x0 - r/x0.
    """

    r: float
    x0: float
    xi_scan_step: float = 1e-3
    tol: float = 1e-6
    n_list: tuple[int, ...] = (10, 20, 40, 80, 160)
    m: int = 3
    trunc_tol: float = DEFAULT_TRUNC_TOL

    def __post_init__(self) -> None:
        # a string, None or a complex number would fail the comparisons
        # below with a bare TypeError.  A numpy scalar passes, and is stored
        # as a float, so its type changes no digit of the output.
        for name in ("r", "x0", "xi_scan_step", "tol", "trunc_tol"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)):
                raise DomainError(f"{name} must be a real number")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:  # an int beyond the float range
                raise DomainError(f"{name} must be a real number in the float range") from None
        if not (0.0 < self.r < 1.0):
            raise DomainError("r must lie in (0, 1)")
        if not (math.sqrt(self.r) < self.x0 < 1.0):
            raise DomainError("x0 must lie in (sqrt(r), 1)")
        # nan fails every comparison, so test "finite and positive" as one.
        for name in ("xi_scan_step", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite")
        n_list = tuple(int(n) for n in self.n_list)
        if not n_list or any(n <= 0 for n in n_list):
            raise DomainError("n_list must be nonempty positive integers")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise DomainError("n_list must be strictly increasing")
        object.__setattr__(self, "n_list", n_list)
        if self.m < 3:
            raise DomainError("connectivity m must be at least 3")
        # AnnulusModulus checks trunc_tol and r, which it rejects from about
        # 0.998497 on, where the head normalisation overflows.
        self.modulus()

    @property
    def epsilon(self) -> float:
        """Largest admissible interval length x0 - r/x0, positive for x0 > sqrt(r)."""
        return self.x0 - self.r / self.x0

    def modulus(self, trunc_tol: float | None = None) -> AnnulusModulus:
        return AnnulusModulus(self.r, self.trunc_tol if trunc_tol is None else trunc_tol)


def delta_of(x: float, cfg: CounterexampleConfig) -> float:
    """Largest alpha such that phi_x(xi) < xi holds on [-x0, -x0 + alpha).

    Requires q(x) = phi_x(-x0) < -x0, otherwise no such interval exists.
    The sign change of psi(xi) = phi_x(xi) - xi is located by an ascending
    scan with step xi_scan_step, whose last gap ends at 0, and refined by
    `slitmap._bracket_root`; when no crossing occurs before 0 the whole
    interval wins and x0 is returned.  f_{x0} is real and increasing on
    [r, x0], so psi(f_{x0}(z)) = g(z) = T_x(f_x(z)) - f_{x0}(z) changes sign
    where psi does: the scan's preimages bracket the crossing in z, and each
    refinement step evaluates g by forward maps only.  The scan's signs are
    those of g too, and g(x0) = 0 exactly (x0 is the preimage of 0).
    """
    x0 = cfg.x0
    phi = _Phi(x, x0, cfg.modulus())
    q = phi.q
    if q >= -x0:
        raise DomainError(
            f"delta_of precondition q(x) < -x0 fails: q({x}) = {q}"
        )
    h = cfg.xi_scan_step
    n_steps = math.ceil(x0 / h)
    xis = -x0 + h * np.arange(n_steps + 1)
    xis = xis[xis < 0.0]
    vals, pres = phi.solve(xis)
    psi = vals - f_eval(phi.p0, pres)
    for i in range(1, xis.size):
        if psi[i - 1] < 0.0 <= psi[i]:
            hi, z_hi, psi_hi = float(xis[i]), float(pres[i]), float(psi[i])
            break
    else:
        # psi(0) = 0 exactly, so the last gap (xis[-1], 0) holds a crossing
        # when psi(xis[-1]) < 0 and psi > 0 just left of 0: when phi_x'(0) < 1.
        # Given psi_hi = 0, the root finder looks for it strictly inside.
        if not (psi[-1] < 0.0 and phi.slope_at_zero() < 1.0):
            return x0
        i, hi, z_hi, psi_hi = xis.size, 0.0, x0, 0.0
    lo, z_lo = float(xis[i - 1]), float(pres[i - 1])
    # BISECT_WIDTH in xi, carried to z by the gap's secant slope.
    width = BISECT_WIDTH * (z_hi - z_lo) / (hi - lo)

    # g runs the unguarded kernel `_fx`.  The bracket ends are scan
    # preimages that `solve` and psi have already evaluated with the guard,
    # and [z_lo, z_hi] lies in [r, x0], inside the annuli of holomorphy of
    # both f_x and f_{x0}, where neither has a pole.
    def g(z: float) -> float:
        return float(mobius_apply(phi.mob, _fx(phi.px, z)) - _fx(phi.p0, z))

    z = _bracket_root(g, z_lo, z_hi, float(psi[i - 1]), psi_hi, width)
    return float(f_eval(phi.p0, z)) + x0


@dataclass(frozen=True)
class _Candidate:
    """phi_x for one x of the walk, with its interval and interval margins."""

    phi: _Phi
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
    vals, _ = phi.solve(grid)
    return float(np.min(grid - vals))


def _candidate(phi: _Phi, delta: float) -> _Candidate:
    """dist_gamma and both Lemma 6.1 margins of phi on (-x0, -x0 + delta)."""
    x0 = phi.p0.x
    dist_gamma = phi.slit_dist()
    return _Candidate(
        phi=phi,
        delta=delta,
        dist_gamma=dist_gamma,
        margin_i=_interior_margin(phi, x0, delta),
        margin_ii=dist_gamma - (x0 - delta),
    )


def _estimate_lipschitz(cfg: CounterexampleConfig, modulus: AnnulusModulus,
                        gaps: list[float]) -> float:
    """Difference-quotient bound for x -> dist(0, Gamma(x)) near x0.

    Uses the grid points of the final decade of the walk (gaps within a
    factor 10 of X_GRID_STEP) and doubles the worst observed quotient.
    The walk is not empty, so every gap is at most (x0 - r)/2 and every x
    is above r.
    """
    lo, hi = X_GRID_STEP, 10.0 * X_GRID_STEP
    sample_gaps = sorted(g for g in gaps if lo <= g <= hi)
    if len(sample_gaps) < 3:
        sample_gaps = list(np.geomspace(lo, min(hi, (cfg.x0 - cfg.r) / 2.0), 4))
    pts = [(cfg.x0, cfg.x0)]
    for g in sample_gaps:
        x = cfg.x0 - g
        pts.append((x, _Phi(x, cfg.x0, modulus).slit_dist()))
    pts.sort()
    worst = 0.0
    for (xa, da), (xb, db) in zip(pts, pts[1:]):
        worst = max(worst, abs(db - da) / (xb - xa))
    return 2.0 * worst


def _choose_candidate(cfg: CounterexampleConfig) -> _Candidate | None:
    """First candidate of the walk toward x0 whose interval margins both clear tol.

    The walk uses gaps (x0 - r) / 2^j down to X_GRID_STEP, a geometric
    approach to x0.  Candidates failing the q precondition or the Lipschitz
    gate are skipped.  When no candidate qualifies, the one with the best
    weakest margin is returned, or None for an empty walk.
    """
    modulus = cfg.modulus()
    gaps = []
    g = (cfg.x0 - cfg.r) / 2.0
    while g >= X_GRID_STEP:
        gaps.append(g)
        g /= 2.0
    if not gaps:
        return None
    lipschitz = _estimate_lipschitz(cfg, modulus, gaps)
    best = None
    for g in gaps:
        x = cfg.x0 - g
        phi = _Phi(x, cfg.x0, modulus)
        if phi.q >= -cfg.x0:
            continue
        delta = min(cfg.epsilon, delta_of(x, cfg))
        if lipschitz * g > delta:
            continue
        cand = _candidate(phi, delta)
        if cand.margin_i > cfg.tol and cand.margin_ii > cfg.tol:
            return cand
        if best is None or cand.weakest > best.weakest:
            best = cand
    return best


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


def _certificate(cfg: CounterexampleConfig, cand: _Candidate,
                 zeta_star: float) -> Certificate:
    """Certificate for the witness zeta_star of an evaluated candidate."""
    phi = cand.phi
    phi_at_zeta = float(phi.solve(np.array([zeta_star]))[0][0])
    margins = {
        "lemma61_i": cand.margin_i,
        "lemma61_ii": cand.margin_ii,
        "phi_gt_zeta": abs(phi_at_zeta) - abs(zeta_star),
        "dist_gt_zeta": cand.dist_gamma - abs(zeta_star),
        "r_over_x0_lt_zeta": abs(zeta_star) - cfg.r / cfg.x0,
    }
    return Certificate(
        r=cfg.r,
        x0=cfg.x0,
        epsilon=cfg.epsilon,
        tol=cfg.tol,
        x_star=phi.px.x,
        delta=cand.delta,
        zeta_star=zeta_star,
        q_at_xstar=phi.q,
        dist_gamma=cand.dist_gamma,
        phi_at_zeta=phi_at_zeta,
        margins=margins,
        truncation_report=_truncation_report(cfg, phi.px.x, phi.p0.modulus),
        passed=all(margins[k] > cfg.tol for k in MARGIN_KEYS),
    )


def certify_degenerate(cfg: CounterexampleConfig) -> Certificate:
    """Run the search and package the counterexample witness with margins.

    The first x on the walk whose interval conditions clear tol becomes
    x_star.  When the walk finds no qualifying x the candidate with the best
    weakest margin is certified anyway; its margins document the failure and
    passed comes out false.
    """
    chosen = _choose_candidate(cfg)
    if chosen is None:
        raise ConvergenceError("no admissible candidate on the search walk toward x0")
    zeta = _select_zeta(cfg.x0, chosen.delta, chosen.dist_gamma, cfg.tol)
    return _certificate(cfg, chosen, zeta)


def revalidate_certificate(
    cfg: CounterexampleConfig, cert: Certificate, trunc_tol: float
) -> Certificate:
    """Recompute all margins of an existing witness under a new truncation.

    The witness (x_star, delta, zeta_star) is kept fixed; only evaluations
    are redone.  Drift of the margins under tightened truncation measures
    how far the certificate is from the infinite product.
    """
    phi = _Phi(cert.x_star, cfg.x0, cfg.modulus(trunc_tol))
    return _certificate(cfg, _candidate(phi, cert.delta), cert.zeta_star)


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


def _shrinking_arcs(cfg: CounterexampleConfig, zeta_star: float, n: int,
                    theta_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Arc family at level n: the m - 2 arcs that thicken the puncture at zeta_star.

    Returns the radii, shape (m - 2,), and ARC_SAMPLES points on each arc,
    shape (m - 2, ARC_SAMPLES).  Radii are offset from |zeta_star| by
    j/(2 n (m-1)) with alternating sign, so they are pairwise distinct, and
    every arc has angular width 1/(4 n |zeta_star|), centered on the ray
    through zeta_star.  Everything must fit inside the disk of radius 1/n
    around zeta_star, which itself must clear the unit circle and the slit
    of the reference map, whose upper endpoint has angle theta_a.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not (math.isfinite(zeta_star) and -cfg.x0 < zeta_star < 0.0):
        raise DomainError("zeta_star must lie in (-x0, 0)")
    az = abs(zeta_star)
    clearance = 1.0 / n
    slit_dist = float(
        _point_to_arc_dist(
            np.asarray(complex(zeta_star)), cfg.x0, theta_a, 2.0 * math.pi - theta_a
        )
    )
    for boundary, dist in (("unit circle", 1.0 - az), ("slit", slit_dist)):
        if dist <= clearance:
            # 1/n < d holds from n = floor(1/d) + 1 on.
            least = math.floor(1.0 / min(1.0 - az, slit_dist)) + 1
            raise GeometryError(
                f"disk of radius 1/n around zeta_star reaches the {boundary} at "
                f"n = {n}; it clears the slit and the unit circle from n = {least}"
            )
    j = np.arange(1, cfg.m - 1)
    radii = az + np.where(j % 2, 1.0, -1.0) * j / (2.0 * n * (cfg.m - 1))
    if radii.min() <= 0.0:
        raise DomainError("arc radius must be positive")
    half_width = 1.0 / (8.0 * n * az)
    theta = np.linspace(math.pi - half_width, math.pi + half_width, ARC_SAMPLES)
    samples = radii[:, None] * np.exp(1j * theta)
    if np.abs(samples[:, [0, -1]] - zeta_star).max() >= clearance:
        raise GeometryError("arc family does not fit inside the 1/n disk")
    return radii, samples


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


def _family_diameter(samples: np.ndarray) -> float:
    """Largest distance between samples of arcs that share one angular window.

    |rho e^{ia} - sigma e^{ib}|^2 = rho^2 + sigma^2 - 2 rho sigma cos(a - b)
    grows with |a - b| < pi, and the window is narrower than pi, so the
    farthest pair of samples is a pair of arc endpoints, samples[:, [0, -1]].
    """
    ends = samples[:, [0, -1]].ravel()
    return float(np.abs(ends[:, None] - ends[None, :]).max())


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
    phi = _Phi(cert.x_star, cfg.x0, cfg.modulus())
    arc0 = slit_endpoint(phi.p0)
    theta_a = math.atan2(arc0.endpoint_plus.imag, arc0.endpoint_plus.real)
    degenerate_value = min(abs(cert.phi_at_zeta), cert.dist_gamma)
    levels = [_shrinking_arcs(cfg, cert.zeta_star, n, theta_a) for n in cfg.n_list]
    least_radius = [float(radii.min()) for radii, _ in levels]
    # samples[k, j] is arc j of the family at level n_list[k]; every arc of
    # every level is mapped by one Newton call.
    samples = np.array([pts for _, pts in levels])
    min_abs_phi = np.abs(phi.solve(samples.ravel())[0]).reshape(samples.shape).min(axis=(1, 2))
    rows = []
    fitted_c = 0.0
    n_min = None
    for n, rho, arc_pts, min_abs in zip(cfg.n_list, least_radius, samples, min_abs_phi):
        dist_boundary = min(cfg.x0, rho)
        dist_phi_image = min(cert.dist_gamma, 1.0, float(min_abs))
        margin = dist_phi_image - dist_boundary
        diam = _family_diameter(arc_pts)
        pts = arc_pts.ravel()
        dist_p0 = float(
            min(
                (1.0 - np.abs(pts)).min(),
                _point_to_arc_dist(pts, cfg.x0, theta_a, 2.0 * math.pi - theta_a).min(),
            )
        )
        cn = shrink_mass_bound(dist_p0, diam)
        hm = harmonic_measure_upper_bound(
            dist_z_pn=rho,
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
