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
`prime_omega` checks its arguments (band, overflow) once per call; the one
kernel, `_omega(z, a, m)`, only does the arithmetic.

The slit maps of `slitmap` divide two prime functions.  They run a pair of
kernels of their own on the same plan and coefficients, one for f_x and one
for f_x together with f_x'/f_x, rather than two calls of `_omega`.  In their
single ratio product the normalisations and the tail constants cancel, the
two tails merge into one series, and a start value of sqrt(N), N the head
normalisation, keeps every partial product finite up to the overflow limit
of r below.  Two calls of `_omega` would sum two tails and lose that start
value; on a 2-vCPU Xeon (best of 30 runs) they took 1.04 ms against 0.55 ms
at r = 0.1 and 1.93 ms against 1.32 ms at r = 0.9 for 8,192 complex points,
and 4.0 us against 2.1 us and 10.0 us against 6.9 us for one point.

The constants prod_{n<=M} (1 - q^n)^-2 and 2 sum_k c_k do not depend on z or
a, so they are computed once per modulus (`AnnulusModulus.normalisation` and
`AnnulusModulus.tail`).

trunc_tol bounds the relative truncation error of omega(z, a) wherever
r^2 <= |z/a| <= 1/r^2, which holds at every slit-map evaluation.  It bounds
values, not derivatives; `slitmap.f_prime` bounds the derivative of f_x.
`AnnulusModulus.plan` is (M, K): M by r alone (`_head`), K the least count
with which M meets trunc_tol; at 1e-12, 2 + 2 terms at r = 0.1, 11 + 11 at
r = 0.9 and 37 + 35 at r = 0.99.  M keeps q0 |z/a| <= 1/2 in the band, so
no tail factor vanishes there.

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

from .errors import DomainError, NumericalOverflowError

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
    """Least K with which `head` factors meet tol, counted up from K = 0.

    The bound falls as K grows, and with rho = q^head <= 1/2 it falls at
    least geometrically, so the count stops: at 1e-12 after 2 terms at
    r = 0.1, 11 at r = 0.9 and 35 at r = 0.99.
    """
    q = r * r
    tail = 0
    while _worst_bound(q, head, tail) > tol:
        tail += 1
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
    def tail(self) -> tuple[tuple[float, ...], float]:
        """(c_1 .. c_K, 2 sum_k c_k) of the tail series."""
        head, tail = self.plan
        q = self.r * self.r
        q0 = q ** (head + 1)
        coeffs = []
        q0k = qk = 1.0
        for k in range(1, tail + 1):
            q0k *= q0
            qk *= q
            coeffs.append(q0k / (k * (1.0 - qk)))
        return tuple(coeffs), 2.0 * sum(coeffs)


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

    Scalars and arrays take the same numpy exp, so a real point gives the
    same bits alone as inside an array.  A complex point may not: before the
    exp, the kernels divide a Python complex scalar by Python's complex
    division and an array by numpy's, whose last bits can differ.
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
    coeffs, const = m.tail
    if coeffs:
        # Horner in zeta and in 1/zeta: p za = sum_k c_k zeta^k.
        p = pi = coeffs[-1]
        for c in coeffs[-2::-1]:
            p = p * za + c
            pi = pi * az + c
        out = out * _exp(const - (p * za + pi * az))
    return out


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
