"""Prime function of a concentric annulus.

For the annulus r < |z| < 1 the prime function is evaluated through the
factored product

    omega(z, a) = (z - a) * prod_{n>=1} (1 - q^n z/a)(1 - q^n a/z) / (1 - q^n)^2,

with q = r^2.  Each factor tends to 1 geometrically fast, so truncating the
product after N terms leaves a relative error of order q^(N+1).  This form
stays well conditioned for every r in (0, 1); the alternative expansions in
powers of r alone lose digits as r approaches 1.

Evaluations accept scalars or numpy arrays and broadcast elementwise.
The public functions check their arguments (band, poles, overflow) once per
call; the private kernels `_omega` and `_omega_log_deriv` only do the
arithmetic and expect inputs that a caller has already checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalOverflowError, PoleError

# A factor whose magnitude falls below this is treated as an exact zero when
# deciding whether a log-derivative evaluation sits on a pole.
FACTOR_ZERO = 1e-300

# Evaluations are accepted slightly beyond the annulus of holomorphy that the
# slit maps need, and rejected outside this band.
BAND_INNER = 0.99
BAND_OUTER = 1.01


@dataclass(frozen=True)
class AnnulusModulus:
    """Inner radius of the annulus together with truncation policy.

    Parameters
    ----------
    r : float
        Inner radius, 0 < r < 1.  The outer radius is always 1.
    trunc_tol : float
        Target bound for r^(2N); the product keeps N factors with
        r^(2N) <= trunc_tol.
    max_terms : int
        Hard cap on N.  When the cap binds, `capped` reports it.
    """

    r: float
    trunc_tol: float = 1e-12
    max_terms: int = 256

    def __post_init__(self) -> None:
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r)):
            raise DomainError("annulus radius must be a finite real number")
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"annulus radius must lie in (0, 1), got {self.r}")
        if not (math.isfinite(self.trunc_tol) and self.trunc_tol > 0.0):
            raise DomainError("trunc_tol must be a positive finite number")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")

    @cached_property
    def _requested_terms(self) -> int:
        """Factor count with r^(2N) <= trunc_tol, before max_terms applies."""
        if self.trunc_tol >= 1.0:
            return 0
        return max(0, math.ceil(math.log(self.trunc_tol) / (2.0 * math.log(self.r))))

    @cached_property
    def n_terms(self) -> int:
        """Number of retained product factors N, with r^(2N) <= trunc_tol."""
        return min(self._requested_terms, self.max_terms)

    @property
    def capped(self) -> bool:
        """True when max_terms truncated the requested factor count."""
        return self._requested_terms > self.max_terms


def _check_band(v, m: AnnulusModulus, name: str) -> None:
    # One comparison rejects nan, infinities and zero along with the band.
    mag = np.abs(v)
    lo = BAND_INNER * m.r * m.r
    hi = BAND_OUTER / m.r
    if not np.all((mag > lo) & (mag < hi)):
        raise DomainError(
            f"|{name}| must be finite and lie in ({lo:.6g}, {hi:.6g}) for r = {m.r}"
        )


def _omega(z, a, m: AnnulusModulus):
    """(z - a) times the truncated factor product, for checked z and a."""
    out = z - a
    n = m.n_terms
    if n:
        q = m.r * m.r
        za = z / a
        az = a / z
        rp = 1.0
        t = 1.0
        for _ in range(n):
            rp *= q
            one = 1.0 - rp
            t = t * (1.0 - rp * za) * (1.0 - rp * az) / (one * one)
        out = out * t
    return out


def _omega_log_deriv(z, a, m: AnnulusModulus):
    """Termwise log derivative of `_omega`, for checked z and a off its zeros."""
    out = 1.0 / (z - a)
    n = m.n_terms
    if n:
        q = m.r * m.r
        rp = 1.0
        for _ in range(n):
            rp *= q
            f1 = 1.0 - rp * z / a
            f2 = 1.0 - rp * a / z
            out = out + (-rp / a) / f1 + (rp * a / (z * z)) / f2
    return out


def prime_omega(z, a, m: AnnulusModulus):
    """Evaluate the annulus prime function omega(z, a).

    Both arguments may be scalars or broadcastable numpy arrays.  The result
    is (z - a) times the truncated factor product; with zero retained terms it
    degenerates to z - a exactly.
    """
    _check_band(z, m, "z")
    _check_band(a, m, "a")
    out = _omega(z, a, m)
    if not np.all(np.isfinite(np.abs(out))):
        raise NumericalOverflowError("prime function product overflowed")
    return out


def prime_omega_log_deriv(z, a, m: AnnulusModulus):
    """Logarithmic derivative d/dz log omega(z, a) of the truncated product.

    Differentiating the retained factors termwise gives

        1/(z - a) + sum_n [ (-q^n/a)/(1 - q^n z/a) + (q^n a/z^2)/(1 - q^n a/z) ],

    which is exactly the derivative of the truncated prime function, so finite
    difference checks against `prime_omega` close to machine precision.
    """
    _check_band(z, m, "z")
    _check_band(a, m, "a")
    diff = z - a
    if np.any(np.abs(diff) < FACTOR_ZERO):
        raise PoleError("log derivative evaluated at z = a")
    # q^1..q^N along a leading axis, as the product loop forms them
    rp = np.cumprod(np.full((m.n_terms,) + (1,) * np.ndim(diff), m.r * m.r), axis=0)
    if np.any(np.minimum(abs(1.0 - rp * z / a), abs(1.0 - rp * a / z)) < FACTOR_ZERO):
        raise PoleError("log derivative evaluated at a zero of omega")
    out = _omega_log_deriv(z, a, m)
    if not np.all(np.isfinite(np.abs(out))):
        raise NumericalOverflowError("log derivative overflowed")
    return out


def truncation_error_bound(
    m: AnnulusModulus, z_mag: float, a_mag: float, n_terms: int | None = None
) -> float:
    """Rigorous relative error bound for truncating the factor product.

    Each omitted factor differs from 1 by q^n (2 - u - 1/u) / (1 - q^n)^2 with
    u = z/a, so the omitted tail is controlled by the geometric sum

        S = (2 + p + 1/p) / (1 - q)^2 * q^(N+1) / (1 - q),   p = z_mag / a_mag,

    and |prod_tail - 1| <= exp(S) - 1 <= 2 S whenever S <= log 2.  The factor
    2 is folded into the returned constant, keeping the bound of the form
    C * r^(2(N+1)) / (1 - r^2) and monotone decreasing in N.
    """
    lo = BAND_INNER * m.r * m.r
    hi = BAND_OUTER / m.r
    for name, mag in (("z_mag", z_mag), ("a_mag", a_mag)):
        if not (math.isfinite(mag) and lo < mag < hi):
            raise DomainError(f"{name} must lie in ({lo:.6g}, {hi:.6g})")
    n = m.n_terms if n_terms is None else int(n_terms)
    if n < 0:
        raise DomainError("n_terms must be nonnegative")
    q = m.r * m.r
    p = z_mag / a_mag
    c = 2.0 * (2.0 + p + 1.0 / p) / ((1.0 - q) * (1.0 - q))
    return c * q ** (n + 1) / (1.0 - q)
