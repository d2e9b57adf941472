"""Prime function of a concentric annulus.

For the annulus r < |z| < 1 the prime function is the factored product

    omega(z, a) = (z - a) * prod_{n>=1} (1 - q^n zeta)(1 - q^n/zeta) / (1 - q^n)^2,

with q = r^2 and zeta = z/a.  This form stays well conditioned for every r in
(0, 1); the alternative expansions in powers of r alone lose digits as r
approaches 1.  The kernels keep M head factors as they stand and sum the
tail in closed form.  Expanding the logarithm of each tail factor in powers
of zeta and summing over n > M gives, with q0 = q^(M+1),

    log prod_{n>M} (...) = -sum_{k>=1} c_k (zeta^k + zeta^-k - 2),
    c_k = q0^k / (k (1 - q^k)),

which converges geometrically while q0 |zeta| < 1 and q0 / |zeta| < 1.  The
kernels keep K terms of it (DLMF 17.2 and 20.5 for the q-product):

    omega = (z - a) * prod_{n<=M} (...) * exp(-sum_{k<=K} c_k (zeta^k + zeta^-k - 2)).

K = 0 is the plain product of M factors, run by the same code.
`truncation_error_bound` bounds the remainder of the series in closed form.

Evaluations accept scalars or numpy arrays and broadcast elementwise.
The public functions check their arguments (band, poles, overflow) once per
call; the private kernels only do the arithmetic and expect inputs that a
caller has already checked.  Each serves one public function:

- `_omega(z, a, m)` returns omega(z, a), for `prime_omega`;
- `_omega_log_deriv(z, a, m)` returns (omega(z, a), d/dz log omega(z, a))
  from one pass over the head factors and the tail series, whose log
  derivative is -(1/z) sum_k k c_k (zeta^k - zeta^-k), for
  `prime_omega_log_deriv`.  Its value is bit for bit the value of `_omega`,
  because both form the factors, the series and their product in the same
  order.

The slit maps of `slitmap` divide two prime functions, in which the
normalisation and the tail constant cancel; they run kernels of their own
on the same plan and coefficients.

The constants prod_{n<=M} (1 - q^n)^-2 and 2 sum_k c_k do not depend on z or
a, so they are computed once per modulus (`AnnulusModulus.normalisation` and
`AnnulusModulus.tail`).

trunc_tol bounds the relative truncation error of omega(z, a) wherever
r^2 <= |z/a| <= 1/r^2, which holds at every slit-map evaluation.  It bounds
values, not derivatives; `prime_omega_log_deriv` bounds the log derivative.
`AnnulusModulus.plan` is (M, K): M by r alone (`_head`), K the least count
with which M meets trunc_tol; at 1e-12, 2 + 2 terms at r = 0.1, 11 + 11 at
r = 0.9 and 37 + 35 at r = 0.99.  M keeps q0 |z/a| <= 1/2 in the band, so
no tail factor vanishes there and `_hits_factor_zero` tests the head only.

Every trunc_tol is met by some K, so the one limit is r: from about
r = 0.998497 the head normalisation overflows, and the modulus is rejected
with DomainError whatever the tolerance.  Below it, 1e-12 takes 224 + 39
terms at r = 0.9984 and 237 + 39 at r = 0.99849.  Near the limit omega
itself outgrows the float range away from the real axis (r = 0.998 at
z/a = 0.999i), and `prime_omega` then raises NumericalOverflowError; the
slit maps, in which the normalisation cancels, stay finite there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# Default bound on the relative truncation error of omega; it also sets the
# head count M of every modulus (`_head`).
DEFAULT_TRUNC_TOL = 1e-12


def _remainder_bound(q: float, head: int, tail: int, rho1: float, rho2: float) -> float:
    """Bound on the series remainder R after `tail` terms.

    With rho1 = q0 |z/a| and rho2 = q0 |a/z|, both below 1, the omitted
    terms k > K sum in magnitude to at most

        [rho1^(K+1)/(1 - rho1) + rho2^(K+1)/(1 - rho2) + 2 q0^(K+1)/(1 - q0)]
            / ((K + 1)(1 - q^(K+1))),

    because 1/(k (1 - q^k)) decreases in k.
    """
    q0 = q ** (head + 1)
    k1 = tail + 1
    return (
        rho1 ** k1 / (1.0 - rho1) + rho2 ** k1 / (1.0 - rho2)
        + 2.0 * q0 ** k1 / (1.0 - q0)
    ) / (k1 * (1.0 - q ** k1))


def _relative(b: float) -> float:
    """|e^R - 1| <= |R| e^|R| <= b e^b for |R| <= b; inf where that overflows."""
    return b * math.exp(b) if b < 700.0 else math.inf


def _worst_bound(q: float, head: int, tail: int) -> float:
    """The relative bound at |z/a| = 1/q, the worst ratio trunc_tol covers."""
    return _relative(_remainder_bound(q, head, tail, q ** head, q ** (head + 2)))


def _least_tail(r: float, head: int, tol: float) -> int:
    """Least K with which `head` factors meet tol.

    The bound is at most rho^(K+1) (1 + q^(K+1))^2 / ((1 - rho)(K + 1)(1 - q^(K+1)))
    with rho = q^head.  Solving its logarithm for K + 1, once without the
    terms in K + 1 and once with them at the first estimate, lands within a
    term or two of the least K; the exact test then steps to it.
    """
    # log q from log r: r * r underflows for r below 1e-154.
    q, log_q = r * r, 2.0 * math.log(r)
    log_rho = head * log_q
    target = math.log(tol) - math.log1p(tol) + math.log1p(-(q ** head))
    x = max(1.0, target / log_rho)
    qx = q ** x
    x = (target + math.log(x * (1.0 - qx)) - 2.0 * math.log1p(qx)) / log_rho
    tail = max(0, math.ceil(x) - 1)
    while _worst_bound(q, head, tail) > tol:
        tail += 1
    while tail and _worst_bound(q, head, tail - 1) <= tol:
        tail -= 1
    return tail


def _head(r: float) -> int:
    """M for r, the larger of two rules; trunc_tol plays no part.

    - Band: the least M with q0 |z/a| <= 1/2 across the band,
      q0 = r^(2(M+1)).  The largest ratio in the band is
      BAND_OUTER / (BAND_INNER r^3), so it reads
      r^(2M-1) <= BAND_INNER / (2 BAND_OUTER).
    - Balance: with a tail kept, M (K + 1) is about L = log(tol) / log(q),
      so M = round(sqrt(L)) at tol = DEFAULT_TRUNC_TOL makes M and K about
      equal there.
    """
    log_r = math.log(r)
    band = math.ceil(0.5 * (math.log(BAND_INNER / (2.0 * BAND_OUTER)) / log_r + 1.0))
    balance = round(math.sqrt(math.log(DEFAULT_TRUNC_TOL) / (2.0 * log_r)))
    return max(1, band, balance)


@dataclass(frozen=True)
class AnnulusModulus:
    """Inner radius of the annulus together with truncation policy.

    Parameters
    ----------
    r : float
        Inner radius, 0 < r < 1.  The outer radius is always 1.
    trunc_tol : float
        Bound on the relative truncation error of omega(z, a) for
        r^2 <= |z/a| <= 1/r^2.

    `plan` is (M, K), the head factors and tail terms the kernels run: M by
    r alone (`_head`), K the least count with which M meets trunc_tol.  r
    from about 0.998497 is rejected for every trunc_tol, because the head
    factors' normalisation overflows there.
    """

    r: float
    trunc_tol: float = DEFAULT_TRUNC_TOL
    plan: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r)):
            raise DomainError("annulus radius must be a finite real number")
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"annulus radius must lie in (0, 1), got {self.r}")
        if not (math.isfinite(self.trunc_tol) and self.trunc_tol > 0.0):
            raise DomainError("trunc_tol must be a positive finite number")
        head = _head(self.r)
        tail = _least_tail(self.r, head, self.trunc_tol)
        object.__setattr__(self, "plan", (head, tail))
        if math.isinf(self.normalisation):
            raise DomainError(
                f"r = {self.r} overflows the normalisation prod (1 - q^n)^-2 "
                f"of its {head} head factors, for any trunc_tol"
            )

    @property
    def n_terms(self) -> int:
        """Terms per kernel call, M head factors plus K tail terms."""
        return self.plan[0] + self.plan[1]

    @cached_property
    def normalisation(self) -> float:
        """prod_{n=1}^{M} (1 - q^n)^-2 over the head factors, q = r^2.

        inf once a partial product overflows: M grows without bound as r
        nears 1, and the loop stops there.
        """
        q = self.r * self.r
        rp = 1.0
        out = 1.0
        for _ in range(self.plan[0]):
            rp *= q
            one = 1.0 - rp
            out /= one * one
            if out == math.inf:
                break
        return out

    @cached_property
    def tail(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """(c_1 .. c_K, 1 c_1 .. K c_K, 2 sum_k c_k) of the tail series."""
        head, tail = self.plan
        q = self.r * self.r
        q0 = q ** (head + 1)
        coeffs = []
        q0k = qk = 1.0
        for k in range(1, tail + 1):
            q0k *= q0
            qk *= q
            coeffs.append(q0k / (k * (1.0 - qk)))
        coeffs = tuple(coeffs)
        slopes = tuple(k * c for k, c in enumerate(coeffs, 1))
        return coeffs, slopes, 2.0 * sum(coeffs)


def _check_band(v, m: AnnulusModulus, name: str) -> None:
    # One comparison rejects nan, infinities and zero along with the band.
    mag = np.abs(v)
    lo = BAND_INNER * m.r * m.r
    hi = BAND_OUTER / m.r
    if not np.all((mag > lo) & (mag < hi)):
        raise DomainError(
            f"|{name}| must be finite and lie in ({lo:.6g}, {hi:.6g}) for r = {m.r}"
        )


def _exp(x):
    """np.exp, giving a Python scalar back for a Python scalar.

    Scalars and arrays take the same numpy exp, so a point gives the same
    bits alone as inside an array.
    """
    out = np.exp(x)
    return out if isinstance(x, np.ndarray) else type(x)(out)


def _omega(z, a, m: AnnulusModulus):
    """omega(z, a) from the head factors and the tail series, for checked z and a."""
    za = z / a
    az = a / z
    q = m.r * m.r
    rp = 1.0
    t = 1.0
    for _ in range(m.plan[0]):
        rp *= q
        t = t * ((1.0 - rp * za) * (1.0 - rp * az))
    out = (z - a) * (t * m.normalisation)
    coeffs, _, const = m.tail
    if coeffs:
        # Horner in zeta and in 1/zeta: p za = sum_k c_k zeta^k.
        p = pi = coeffs[-1]
        for c in coeffs[-2::-1]:
            p = p * za + c
            pi = pi * az + c
        out = out * _exp(const - (p * za + pi * az))
    return out


def _omega_log_deriv(z, a, m: AnnulusModulus):
    """`_omega` and its log derivative in z from one pass over the terms.

    z and a must be checked and z off the zeros of omega.  With u = q^n z/a
    and v = q^n a/z the factor 1 - u contributes -u/(z (1 - u)) and the
    factor 1 - v contributes v/(z (1 - v)).  Their sum is
    (v - u)/(z (1 - u)(1 - v)), so each factor pair costs one division by
    the product (1 - u)(1 - v) that the value already forms.  The tail
    contributes -(1/z) sum_k k c_k (zeta^k - zeta^-k), summed by Horner
    beside the series itself.
    """
    za = z / a
    az = a / z
    q = m.r * m.r
    rp = 1.0
    t = 1.0
    s = 0.0
    for _ in range(m.plan[0]):
        rp *= q
        u = rp * za
        v = rp * az
        fuv = (1.0 - u) * (1.0 - v)
        t = t * fuv
        s = s + (v - u) / fuv
    diff = z - a
    out = diff * (t * m.normalisation)
    coeffs, slopes, const = m.tail
    if coeffs:
        p = pi = coeffs[-1]
        d = di = slopes[-1]
        for c, kc in zip(coeffs[-2::-1], slopes[-2::-1]):
            p = p * za + c
            pi = pi * az + c
            d = d * za + kc
            di = di * az + kc
        out = out * _exp(const - (p * za + pi * az))
        s = s - (d * za - di * az)
    return out, 1.0 / diff + s / z


def prime_omega(z, a, m: AnnulusModulus):
    """Evaluate the annulus prime function omega(z, a).

    Both arguments may be scalars or broadcastable numpy arrays.  The result
    is (z - a) times the head factors and the exp of the tail series, within
    `truncation_error_bound` of the infinite product: within trunc_tol where
    r^2 <= |z/a| <= 1/r^2.
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
    """True if a head factor 1 - q^n z/a or 1 - q^n a/z is below FACTOR_ZERO.

    |q^n z/a| = 1 at n = -log|z/a| / log q and |q^n a/z| = 1 at the negative
    of that, so only the nearest index in [1, M] can hold a zero.  Testing
    that one factor per point and side, with q^n formed as the product loop
    forms it, needs memory of the size of the points, not M times it.  The
    tail needs no test: M keeps q^n |z/a| and q^n |a/z| at most 1/2 for
    every n > M in the band, so no tail factor comes near 0.
    """
    head = m.plan[0]
    rp = np.cumprod(np.full(head, m.r * m.r))
    k = np.log(np.abs(z / a)) / (2.0 * math.log(m.r))
    n_u = np.clip(np.rint(-k), 1, head).astype(int) - 1
    n_v = np.clip(np.rint(k), 1, head).astype(int) - 1
    return bool(
        np.any(abs(1.0 - rp[n_u] * z / a) < FACTOR_ZERO)
        or np.any(abs(1.0 - rp[n_v] * a / z) < FACTOR_ZERO)
    )


def prime_omega_log_deriv(z, a, m: AnnulusModulus):
    """Logarithmic derivative d/dz log omega(z, a) of the kernel's omega.

    Differentiating the head factors termwise and the tail series gives

        1/(z - a) + sum_{n<=M} [ (-q^n/a)/(1 - q^n z/a) + (q^n a/z^2)/(1 - q^n a/z) ]
                  - (1/z) sum_{k<=K} k c_k ((z/a)^k - (a/z)^k),

    which is exactly the derivative of what `prime_omega` evaluates, so finite
    difference checks against `prime_omega` close to machine precision.

    It is off the infinite product's by R' = (1/z) sum_{k>K} k c_k (zeta^k -
    zeta^-k), the remainder's derivative.  As k c_k <= q0^k / (1 - q^(K+1)),
    with rho1 and rho2 as in `truncation_error_bound`,

        |R'| <= [rho1^(K+1)/(1 - rho1) + rho2^(K+1)/(1 - rho2)] / ((1 - q^(K+1)) |z|).
    """
    _check_band(z, m, "z")
    _check_band(a, m, "a")
    diff = z - a
    if np.any(np.abs(diff) < FACTOR_ZERO):
        raise PoleError("log derivative evaluated at z = a")
    if _hits_factor_zero(z, a, m):
        raise PoleError("log derivative evaluated at a zero of omega")
    # Only the log derivative is returned; the product beside it may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _omega_log_deriv(z, a, m)[1]
    if not np.all(np.isfinite(np.abs(out))):
        raise NumericalOverflowError("log derivative overflowed")
    return out


def truncation_error_bound(m: AnnulusModulus, z_mag: float, a_mag: float) -> float:
    """Rigorous relative error bound of omega(z, a) for |z| = z_mag, |a| = a_mag.

    The kernels compute omega e^(-R), where R is the remainder of the tail
    series after K terms.  `_remainder_bound` bounds |R| by b in closed form,
    with rho1 = q0 p and rho2 = q0 / p for p = z_mag / a_mag; both stay at
    most 1/2 in the band because of how the plan picks M.  The relative
    error |e^(-R) - 1| is then at most b e^b.  With K = 0 the remainder is
    the whole omitted product, and the bound holds for it too.
    """
    lo = BAND_INNER * m.r * m.r
    hi = BAND_OUTER / m.r
    for name, mag in (("z_mag", z_mag), ("a_mag", a_mag)):
        if not (math.isfinite(mag) and lo < mag < hi):
            raise DomainError(f"{name} must lie in ({lo:.6g}, {hi:.6g})")
    head, tail = m.plan
    q = m.r * m.r
    q0 = q ** (head + 1)
    rho1, rho2 = q0 * z_mag / a_mag, q0 * a_mag / z_mag
    return _relative(_remainder_bound(q, head, tail, rho1, rho2))
