"""Conformal maps from the annulus onto the unit disk with one circular slit.

For a base point x in (r, 1) the canonical map is the prime function ratio

    f_x(z) = -(1/x) * omega(z, x) / omega(z, 1/x).

It sends the annulus r < |z| < 1 onto the unit disk minus a closed arc of the
circle |w| = x, with f_x(x) = 0 and f_x(r) = -x.  The same expression extends
holomorphically to the larger annulus r^2/x < |z| < 1/x, which is how values
on both boundary circles and slightly beyond are obtained.

Public functions check their arguments once per call and then work on the
unchecked prime function kernels `_omega` and `_omega_log_deriv`; private
helpers such as `_log_deriv` expect points that a public caller has checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalOverflowError, PoleError
from .prime import FACTOR_ZERO, AnnulusModulus, _omega, _omega_log_deriv

NEWTON_MAX_ITER = 64
NEWTON_TOL = 1e-12
CONTINUATION_STEP = 0.01
ENDPOINT_THETA_PAD = 1e-9
ENDPOINT_THETA_WIDTH = 1e-13


@dataclass(frozen=True)
class SlitMapParams:
    """Annulus modulus together with the zero location x of the slit map."""

    modulus: AnnulusModulus
    x: float

    def __post_init__(self) -> None:
        if not (isinstance(self.x, (int, float)) and math.isfinite(self.x)):
            raise DomainError("x must be a finite real number")
        if not self.modulus.r < self.x < 1.0:
            raise DomainError(
                f"x must lie in (r, 1) = ({self.modulus.r}, 1), got {self.x}"
            )

    @property
    def r(self) -> float:
        return self.modulus.r

    @property
    def inner_extension(self) -> float:
        """Inner radius r^2/x of the annulus of holomorphy."""
        return self.r * self.r / self.x

    @property
    def outer_extension(self) -> float:
        """Outer radius 1/x of the annulus of holomorphy."""
        return 1.0 / self.x


@dataclass(frozen=True)
class SlitArc:
    """Slit data: radius, endpoint in the upper half plane, its preimage angle."""

    radius: float
    endpoint_plus: complex
    preimage_theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius <= 0.0:
            raise DomainError("slit radius must be positive and finite")
        if self.endpoint_plus.imag <= 0.0:
            raise DomainError("slit endpoint must lie in the open upper half plane")
        if abs(abs(self.endpoint_plus) - self.radius) > 1e-6 * self.radius:
            raise DomainError("slit endpoint does not sit on the reported radius")
        if not 0.0 < self.preimage_theta < math.pi:
            raise DomainError("endpoint preimage angle must lie in (0, pi)")


@dataclass(frozen=True)
class MobiusReal:
    """Disk automorphism T(z) = (z - c)/(1 - c z) with a real coefficient."""

    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and abs(self.c) < 1.0):
            raise DomainError(f"Mobius coefficient must satisfy |c| < 1, got {self.c}")


def mobius_apply(t: MobiusReal, z):
    return (z - t.c) / (1.0 - t.c * z)


def mobius_inverse(t: MobiusReal) -> MobiusReal:
    return MobiusReal(-t.c)


def _check_extended_annulus(p: SlitMapParams, z, slack: float = 1e-12) -> None:
    mag = np.abs(z)
    lo = p.inner_extension * (1.0 - slack)
    hi = p.outer_extension * (1.0 + slack)
    if not np.all((mag > lo) & (mag < hi)):  # also false for nan and inf
        raise DomainError(
            "|z| must be finite and lie in "
            f"({p.inner_extension:.6g}, {p.outer_extension:.6g})"
        )


def f_eval(p: SlitMapParams, z):
    """Evaluate the slit map f_x on scalars or arrays of points."""
    _check_extended_annulus(p, z)
    # r < x < 1 puts r^2/x < |z| < 1/x and both x and 1/x inside the prime
    # function's band, so the kernels need no band checks of their own.
    num = _omega(z, p.x, p.modulus)
    den = _omega(z, 1.0 / p.x, p.modulus)
    if not np.all(np.isfinite(np.abs((num, den)))):
        raise NumericalOverflowError("prime function product overflowed")
    if np.any(np.abs(den) < 1e-300):
        raise PoleError("slit map evaluated at a pole")
    return -(num / den) / p.x


def _log_deriv(p: SlitMapParams, z):
    """f_x'/f_x at points that passed f_eval, away from z = x."""
    return _omega_log_deriv(z, p.x, p.modulus) - _omega_log_deriv(z, 1.0 / p.x, p.modulus)


def f_prime(p: SlitMapParams, z):
    """Derivative of the slit map away from its zero.

    Uses f_x' = f_x * (dlog omega(., x) - dlog omega(., 1/x)); the simple pole
    of the first log derivative at z = x cancels against the zero of f_x, so
    the formula stays accurate arbitrarily close to x, failing only when
    z = x exactly.  Every other zero of either prime function in the annulus
    of holomorphy is a pole of f_x, which f_eval rejects.
    """
    val = f_eval(p, z)
    if np.any(np.abs(z - p.x) < FACTOR_ZERO):
        raise PoleError("log derivative evaluated at z = a")
    return val * _log_deriv(p, z)


def f_prime_at_center(p: SlitMapParams) -> float:
    """Closed form for f_x'(x).

    The value is 1/(1 - x^2) times a product over retained factors, each of
    which exceeds 1, so the result always exceeds 1/(1 - x^2).  With zero
    retained factors the product is empty and the bound is attained.
    """
    x = p.x
    out = 1.0 / (1.0 - x * x)
    q = p.r * p.r
    rp = 1.0
    for _ in range(p.modulus.n_terms):
        rp *= q
        one = 1.0 - rp
        out *= one * one / ((1.0 - rp * x * x) * (1.0 - rp / (x * x)))
    return out


def f_inverse(p: SlitMapParams, w, seed, tol: float = NEWTON_TOL):
    """Invert the slit map by a damped-free Newton iteration from a seed.

    Stops once |f(z) - w| <= tol * (1 + |w|).  Iterates that leave the annulus
    of holomorphy raise a domain error; a good seed (path continuation from a
    known preimage) keeps the orbit inside.
    """
    target = tol * (1.0 + abs(w))
    z = complex(seed)
    band_lo = p.inner_extension * 1.000001
    band_hi = p.outer_extension * 0.999999
    for _ in range(NEWTON_MAX_ITER):
        val = f_eval(p, z)
        res = val - w
        if abs(res) <= target:
            return z
        z = z - res / (f_prime_at_center(p) if z == p.x else val * _log_deriv(p, z))
        mag = abs(z)
        if not (band_lo < mag < band_hi):
            raise DomainError(
                "Newton iterate left the annulus of holomorphy; seed too far"
            )
    raise ConvergenceError(
        f"slit map inversion did not reach tolerance in {NEWTON_MAX_ITER} steps"
    )


def f_inverse_real_segment(p: SlitMapParams, w: float, tol: float = NEWTON_TOL) -> float:
    """Preimage of a real target in [f(r), 0] = [-x, 0] on the segment [r, x].

    Marches the target from 0 toward w in steps of at most CONTINUATION_STEP,
    reseeding Newton with the previous preimage.  f_x is real and monotone on
    [r, x], so the continuation stays on the segment.
    """
    if not (-p.x - 1e-9 <= w <= 1e-9):
        raise DomainError(f"real inversion target must lie in [-x, 0], got {w}")
    z = p.x
    n_steps = max(1, math.ceil(abs(w) / CONTINUATION_STEP))
    for k in range(1, n_steps + 1):
        wk = w * k / n_steps
        z = f_inverse(p, wk, z, tol=tol).real
    return z


def slit_endpoint(p: SlitMapParams) -> SlitArc:
    """Locate the slit endpoint with positive imaginary part.

    On the inner circle z = r e^{i theta} the modulus of f_x is constant, so
    d/dtheta arg f_x = Re(z f_x'(z)/f_x(z)) =: h(theta).  The image point
    sweeps out the slit and reverses direction exactly where f_x' vanishes,
    which is the unique zero of h on (0, pi).  A sign-change bisection on h
    pins the preimage angle; the endpoint is the image of that point.
    """
    r = p.r

    def h(theta: float) -> float:
        z = r * cmath.exp(1j * theta)
        f_eval(p, z)  # checks z and the products; |z| = r < x keeps z off x
        return (z * _log_deriv(p, z)).real

    lo = ENDPOINT_THETA_PAD
    hi = math.pi - ENDPOINT_THETA_PAD
    h_lo = h(lo)
    h_hi = h(hi)
    if h_lo == 0.0:
        root = lo
    elif h_hi == 0.0:
        root = hi
    else:
        if math.copysign(1.0, h_lo) == math.copysign(1.0, h_hi):
            raise ConvergenceError("no sign change bracketing the slit endpoint")
        while hi - lo > ENDPOINT_THETA_WIDTH:
            mid = 0.5 * (lo + hi)
            h_mid = h(mid)
            if h_mid == 0.0:
                lo = hi = mid
                break
            if math.copysign(1.0, h_mid) == math.copysign(1.0, h_lo):
                lo, h_lo = mid, h_mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)

    endpoint = complex(f_eval(p, r * cmath.exp(1j * root)))
    return SlitArc(radius=abs(endpoint), endpoint_plus=endpoint, preimage_theta=root)


def q_of(x: float, x0: float, m: AnnulusModulus) -> float:
    """Image of -x0 under the recentered slit map comparison.

    With c = f_x(x0) and T the real Mobius map vanishing at c, the composition
    T(f_x(f_{x0}^{-1}(.))) sends -x0 to T(f_x(r)) = T(-x) = -(x + c)/(1 + c x),
    so no inversion is needed.
    """
    _require_pair(x, x0, m)
    c = float(np.real(f_eval(SlitMapParams(m, x), x0)))
    return mobius_apply(MobiusReal(c), -x)


def q_prime_at_x0(x0: float, m: AnnulusModulus) -> float:
    """Derivative at x = x0 of x -> q(x); equals (1 - x0^2) f_{x0}'(x0) - 1.

    Strictly positive for every x0 in (r, 1) because f_{x0}'(x0) strictly
    exceeds 1/(1 - x0^2).
    """
    p = SlitMapParams(m, x0)
    return (1.0 - x0 * x0) * f_prime_at_center(p) - 1.0


def phi_eval(x: float, x0: float, m: AnnulusModulus, xi: float) -> float:
    """Evaluate phi_x(xi) = T_x(f_x(f_{x0}^{-1}(xi))) for real xi in [-x0, 0].

    The preimage is found by monotone path continuation along the real
    segment, so single-point evaluations are self-contained.
    """
    _require_pair(x, x0, m)
    p0 = SlitMapParams(m, x0)
    px = SlitMapParams(m, x)
    c = float(np.real(f_eval(px, x0)))
    z = f_inverse_real_segment(p0, xi)
    return float(np.real(mobius_apply(MobiusReal(c), f_eval(px, z))))


def slit_dist_after_mobius(x: float, x0: float, m: AnnulusModulus) -> float:
    """Distance from 0 to the recentered slit T_x(Gamma_x).

    T_x moves the slit of f_x so the composite map vanishes at the preimage
    of x0.  On the circle |w| = x the modulus |T_x(w)| is strictly decreasing
    in Re w when the coefficient is positive, so the minimum over the slit is
    attained at its endpoints, whose images have equal modulus.
    """
    _require_pair(x, x0, m)
    px = SlitMapParams(m, x)
    c = float(np.real(f_eval(px, x0)))
    arc = slit_endpoint(px)
    return abs(mobius_apply(MobiusReal(c), arc.endpoint_plus))


def _require_pair(x: float, x0: float, m: AnnulusModulus) -> None:
    if not (m.r < x < 1.0 and m.r < x0 < 1.0):
        raise DomainError("both x and x0 must lie in (r, 1)")
    if x > x0:
        raise DomainError("expected x <= x0")
