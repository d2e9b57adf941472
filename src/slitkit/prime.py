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
call; the private kernels only do the arithmetic and expect inputs that a
caller has already checked:

- `_omega(z, a, m)` returns omega(z, a);
- `_omega_log_deriv(z, a, m)` returns (omega(z, a), d/dz log omega(z, a))
  from one pass over the factors, for callers such as Newton's method that
  need both.  Its value is bit for bit the value of `_omega`, because both
  form the factors and their product in the same order.

The normalisation prod_n (1 - q^n)^-2 does not depend on z or a, so it is
computed once per modulus (`AnnulusModulus.normalisation`) and multiplied in
after the loop.  Moving it out of the loop changes only the rounding: the
truncated product is the same.

trunc_tol alone sets the factor count N.  A modulus that needs more than
MAX_TERMS = 256 factors (r above about 0.947 at trunc_tol = 1e-12) is
rejected with DomainError, which names a tolerance 256 factors meet, just
above r^512; without the limit r near 1 would run loops of billions of
factors.  Loose tolerances near r = 1 can still overflow the normalisation
(r = 0.999 at trunc_tol = 0.6); the callers' finiteness checks then raise
NumericalOverflowError.
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


# Most product factors a modulus may ask for; see the module docstring.
MAX_TERMS = 256


@dataclass(frozen=True)
class AnnulusModulus:
    """Inner radius of the annulus together with truncation policy.

    Parameters
    ----------
    r : float
        Inner radius, 0 < r < 1.  The outer radius is always 1.
    trunc_tol : float
        Target bound for r^(2N); the product keeps the least N with
        r^(2N) <= trunc_tol, and N may not exceed MAX_TERMS.
    """

    r: float
    trunc_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r)):
            raise DomainError("annulus radius must be a finite real number")
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"annulus radius must lie in (0, 1), got {self.r}")
        if not (math.isfinite(self.trunc_tol) and self.trunc_tol > 0.0):
            raise DomainError("trunc_tol must be a positive finite number")
        if self.n_terms > MAX_TERMS:
            # 1 % above r^512 stays above it after rounding to three digits,
            # so the printed tolerance is one that MAX_TERMS factors meet.
            raise DomainError(
                f"r = {self.r} needs {self.n_terms} product factors for "
                f"trunc_tol = {self.trunc_tol:g}, more than {MAX_TERMS}; "
                f"{MAX_TERMS} factors meet trunc_tol >= "
                f"{1.01 * self.r ** (2 * MAX_TERMS):.3g}"
            )

    @cached_property
    def n_terms(self) -> int:
        """Retained factor count N, the least with r^(2N) <= trunc_tol."""
        if self.trunc_tol >= 1.0:
            return 0
        return math.ceil(math.log(self.trunc_tol) / (2.0 * math.log(self.r)))

    @cached_property
    def normalisation(self) -> float:
        """prod_{n=1}^{N} (1 - q^n)^-2 over the retained factors, q = r^2."""
        q = self.r * self.r
        rp = 1.0
        out = 1.0
        for _ in range(self.n_terms):
            rp *= q
            one = 1.0 - rp
            out /= one * one
        return out


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
            t = t * ((1.0 - rp * za) * (1.0 - rp * az))
        out = out * (t * m.normalisation)
    return out


def _omega_log_deriv(z, a, m: AnnulusModulus):
    """`_omega` and its log derivative in z from one pass over the factors.

    z and a must be checked and z off the zeros of omega.  With u = q^n z/a
    and v = q^n a/z the factor 1 - u contributes -u/(z (1 - u)) and the
    factor 1 - v contributes v/(z (1 - v)).  Their sum is
    (v - u)/(z (1 - u)(1 - v)), so each factor pair costs one division by
    the product (1 - u)(1 - v) that the value already forms.
    """
    out = z - a
    dlog = 1.0 / out
    n = m.n_terms
    if n:
        q = m.r * m.r
        za = z / a
        az = a / z
        rp = 1.0
        t = 1.0
        s = 0.0
        for _ in range(n):
            rp *= q
            u = rp * za
            v = rp * az
            fuv = (1.0 - u) * (1.0 - v)
            t = t * fuv
            s = s + (v - u) / fuv
        out = out * (t * m.normalisation)
        dlog = dlog + s / z
    return out, dlog


def prime_omega(z, a, m: AnnulusModulus):
    """Evaluate the annulus prime function omega(z, a).

    Both arguments may be scalars or broadcastable numpy arrays.  The result
    is (z - a) times the truncated factor product; with zero retained terms it
    degenerates to z - a exactly.
    """
    _check_band(z, m, "z")
    _check_band(a, m, "a")
    # Let an overflowing array reach the finiteness check instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _omega(z, a, m)
    if not np.all(np.isfinite(np.abs(out))):
        raise NumericalOverflowError("prime function product overflowed")
    return out


def _hits_factor_zero(z, a, m: AnnulusModulus) -> bool:
    """True if a retained factor 1 - q^n z/a or 1 - q^n a/z is below FACTOR_ZERO.

    |q^n z/a| = 1 at n = -log|z/a| / log q and |q^n a/z| = 1 at the negative
    of that, so only the nearest index in [1, N] can hold a zero.  Testing
    that one factor per point and side, with q^n formed as the product loop
    forms it, needs memory of the size of the points, not N times it.
    """
    rp = np.cumprod(np.full(m.n_terms, m.r * m.r))
    k = np.log(np.abs(z / a)) / math.log(m.r * m.r)
    n_u = np.clip(np.rint(-k), 1, m.n_terms).astype(int) - 1
    n_v = np.clip(np.rint(k), 1, m.n_terms).astype(int) - 1
    return bool(
        np.any(abs(1.0 - rp[n_u] * z / a) < FACTOR_ZERO)
        or np.any(abs(1.0 - rp[n_v] * a / z) < FACTOR_ZERO)
    )


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
    if m.n_terms and _hits_factor_zero(z, a, m):
        raise PoleError("log derivative evaluated at a zero of omega")
    # Only the log derivative is returned; the product beside it may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _omega_log_deriv(z, a, m)[1]
    if not np.all(np.isfinite(np.abs(out))):
        raise NumericalOverflowError("log derivative overflowed")
    return out


def truncation_error_bound(m: AnnulusModulus, z_mag: float, a_mag: float) -> float:
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
    q = m.r * m.r
    p = z_mag / a_mag
    c = 2.0 * (2.0 + p + 1.0 / p) / ((1.0 - q) * (1.0 - q))
    return c * q ** (m.n_terms + 1) / (1.0 - q)
