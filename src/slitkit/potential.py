"""Logarithmic potentials, period matrices and the annulus squeezing bound.

The scope is deliberately narrow: discrete measures with nonnegative node
weights, the period matrix apparatus needed to recover conformal radii of
circularly slit disks, and the closed-form squeezing function of the annulus
together with the coarse bounds used by the shrinking-boundary argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SingularMatrixError
from .prime import AnnulusModulus
from .slitmap import MobiusReal, SlitMapParams, _slit_dist, f_eval

NODE_CLEARANCE = 1e-12
MATRIX_TOL = 1e-10
# Most target-node pairs log_potential holds in memory at once.
POTENTIAL_CHUNK_PAIRS = 2**16


@lru_cache(maxsize=4)
def _unit_ring(n: int) -> np.ndarray:
    """The n equally spaced points exp(2 pi i k/n) of the unit circle, built
    once per n and read-only, since its one caller, `uniform_circle_measure`,
    shares them between measures."""
    ring = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    ring.setflags(write=False)
    return ring


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported positive measure: complex nodes with weights >= 0."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if nodes.size == 0:
            raise DomainError("measure needs at least one node")
        if nodes.shape != weights.shape:
            raise DomainError("nodes and weights must have matching length")
        if not (np.all(np.isfinite(nodes.view(float))) and np.all(np.isfinite(weights))):
            raise DomainError("nodes and weights must be finite")
        if np.any(weights < 0.0):
            raise DomainError("weights must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _check_uniform(radius: float, mass: float, n_nodes: int) -> None:
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError("radius must be positive")
    if mass < 0.0 or not math.isfinite(mass):
        raise DomainError("mass must be nonnegative")
    if n_nodes < 1:
        raise DomainError("need at least one node")


def uniform_circle_measure(
    radius: float, mass: float = 1.0, n_nodes: int = 4096
) -> DiscreteMeasure:
    """Equal weights on equally spaced nodes of a circle."""
    _check_uniform(radius, mass, n_nodes)
    nodes = radius * _unit_ring(n_nodes)
    weights = np.full(n_nodes, mass / n_nodes)
    return DiscreteMeasure(nodes, weights)


def uniform_arc_measure(
    radius: float,
    theta_min: float,
    theta_max: float,
    mass: float = 1.0,
    n_nodes: int = 1024,
) -> DiscreteMeasure:
    """Equal weights on equally spaced nodes of a circular arc."""
    _check_uniform(radius, mass, n_nodes)
    if theta_max <= theta_min:
        raise DomainError("arc needs theta_min < theta_max")
    theta = np.linspace(theta_min, theta_max, n_nodes)
    nodes = radius * np.exp(1j * theta)
    weights = np.full(n_nodes, mass / n_nodes)
    return DiscreteMeasure(nodes, weights)


def log_potential(mu: DiscreteMeasure, w):
    """Logarithmic potential sum_k w_k log(1/|w - z_k|) at w (scalar or array).

    Behaves like |mu| log(1/|w|) + O(1/|w|) far from the support, which is the
    normalization the radii solver relies on.  log|w - z_k| is taken as
    0.5 log(dx^2 + dy^2) on real arrays, so a target whose squared distances
    overflow (|w| above about 1e154) has no finite potential; such a target,
    like an infinite or nan one, raises DomainError.
    """
    w_arr = np.asarray(w, dtype=complex)
    flat = w_arr.ravel()
    vals = np.empty(flat.size)
    node_x = mu.nodes.real.copy()
    node_y = mu.nodes.imag.copy()
    # Bounded targets x nodes blocks.  einsum sums each row alone, in the
    # same order in any block, so a target gets the same bits in a batch as
    # on its own; a matrix product would not.
    step = max(1, POTENTIAL_CHUNK_PAIRS // mu.nodes.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, flat.size, step):
            d2 = flat.real[i:i + step, None] - node_x
            dy = flat.imag[i:i + step, None] - node_y
            d2 *= d2
            dy *= dy
            d2 += dy
            if np.any(d2 < NODE_CLEARANCE * NODE_CLEARANCE):
                raise DomainError("potential evaluated on top of a node")
            vals[i:i + step] = np.einsum("ij,j->i", np.log(d2, out=d2), mu.weights)
    vals *= -0.5
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            "potential is not finite: targets must be finite, with |w| below about 1e154"
        )
    if np.isscalar(w) or w_arr.shape == ():
        return float(vals[0])
    return vals.reshape(w_arr.shape)


def annulus_harmonic_measure_inner(z, r: float) -> float:
    """Harmonic measure of the inner circle |z| = r of the annulus at z.

    Equals log|z| / log r: it is 1 on the inner boundary, 0 on the unit
    circle, and harmonic in between.
    """
    if not 0.0 < r < 1.0:
        raise DomainError("r must lie in (0, 1)")
    mag = np.abs(z)
    if not np.all((mag >= r * (1.0 - 1e-12)) & (mag <= 1.0 + 1e-12)):  # nan too
        raise DomainError("point must lie in the closed annulus")
    return np.log(mag) / math.log(r)


def annulus_period(r: float) -> float:
    """Diagonal period entry of the annulus: 1 / log(1/r)."""
    if not 0.0 < r < 1.0:
        raise DomainError("r must lie in (0, 1)")
    return 1.0 / math.log(1.0 / r)


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric period matrix with zero row sums, one row per boundary piece.

    For an (n+1)-connected domain the matrix is (n+1) x (n+1); deleting any
    single row and column must leave an invertible block, which is checked
    lazily by the solver rather than at construction.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise DomainError("period matrix must be square, at least 2 x 2")
        if not np.all(np.isfinite(a)):
            raise DomainError("period matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > MATRIX_TOL * scale:
            raise DomainError("period matrix must be symmetric")
        if np.abs(a.sum(axis=1)).max() > MATRIX_TOL * scale:
            raise DomainError("period matrix rows must sum to zero")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0] - 1


def annulus_period_matrix(r: float) -> PeriodMatrix:
    """Period matrix of the annulus r < |z| < 1 (boundary 0 is the unit circle)."""
    lam = annulus_period(r)
    return PeriodMatrix(np.array([[lam, -lam], [-lam, lam]]))


def radii_solve(periods: PeriodMatrix, m: int, omega_at_z0) -> np.ndarray:
    """Recover slit radii from boundary harmonic measures at the map's zero.

    Deleting row and column m from the period matrix leaves a linear system
    for y_k = log(1/r_k); the right-hand side collects the harmonic measures
    omega_j(z0) of the remaining boundary pieces.  Returns the radii r_k,
    k != m, in increasing index order.
    """
    n = periods.n
    if not 0 <= m <= n:
        raise DomainError(f"deleted index m must lie in [0, {n}]")
    rhs = np.asarray(omega_at_z0, dtype=float).ravel()
    if rhs.shape != (n,):
        raise DomainError(f"expected {n} harmonic measure values, got {rhs.shape}")
    keep = [j for j in range(n + 1) if j != m]
    block = periods.entries[np.ix_(keep, keep)]
    try:
        y = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "period matrix minor is singular; matrix violates its invariants"
        ) from exc
    if not np.all(np.isfinite(y)):
        raise SingularMatrixError("radii solve produced non-finite values")
    return np.exp(-y)


def squeezing_annulus(z, r: float) -> float:
    """Squeezing function of the annulus: max(|z|, r/|z|)."""
    if not 0.0 < r < 1.0:
        raise DomainError("r must lie in (0, 1)")
    mag = np.abs(z)
    if not np.all((mag > r) & (mag < 1.0)):  # also false for nan
        raise DomainError("point must lie strictly inside the annulus")
    return np.maximum(mag, r / mag)


def shrink_mass_bound(dist: float, diam: float) -> float:
    """Upper bound 1/log(dist/diam) for the equilibrium mass of a small set.

    Valid when the set has diameter diam and sits at distance dist > diam
    from the rest of the boundary; tends to 0 as the set shrinks.
    """
    if not (math.isfinite(dist) and math.isfinite(diam)):
        raise DomainError("dist and diam must be finite")
    if not 0.0 < diam < dist:
        raise DomainError("need 0 < diam < dist for the mass bound")
    return 1.0 / math.log(dist / diam)


def harmonic_measure_upper_bound(
    dist_z_pn: float, maxdist_z_p0: float, cn_bound: float
) -> float:
    """Bound on the harmonic measure of a small boundary piece seen from z.

    The potential of the piece's equilibrium mass c_n is at most
    c_n log(1/dist(z, P_n)), and the compensating potential of the outer
    boundary is at least -c_n log(max dist(z, P_0)); the difference, clamped
    at zero, bounds the harmonic measure.
    """
    for name, v in (
        ("dist_z_pn", dist_z_pn),
        ("maxdist_z_p0", maxdist_z_p0),
        ("cn_bound", cn_bound),
    ):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be positive and finite")
    return max(0.0, cn_bound * math.log(maxdist_z_p0 / dist_z_pn))


def competitor_boundary_dist(
    r: float,
    x: float,
    z0: float,
    inverted: bool = False,
) -> float:
    """dist(0, boundary image) for one normalized competitor map.

    The competitor is T(f_x(.)), T the real Mobius map vanishing at
    c = f_x(z0).  Inverted, it is precomposed with z -> r/z, which swaps the
    two boundary circles and so changes only c, to f_x(r/z0).  |T| = 1 on
    the unit circle, the image of |z| = 1, and on the slit circle |w| = x
    < 1, which holds the image of |z| = r, |T(w)| is monotone in Re w; so
    `_slit_dist` gives the least value in closed form.  No competitor can
    beat max(z0, r/z0); the canonical choices x = z0 and (inverted)
    x = r/z0 give c = 0 and attain it exactly.
    """
    m = AnnulusModulus(r)
    if not r < z0 < 1.0:
        raise DomainError("z0 must lie in (r, 1)")
    p = SlitMapParams(m, x)
    base = r / z0 if inverted else z0
    return _slit_dist(p, MobiusReal(float(np.real(f_eval(p, base)))))
