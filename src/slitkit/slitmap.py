"""Conformal maps from the annulus onto the unit disk with one circular slit.

For a base point x in (r, 1) the canonical map is the prime function ratio

    f_x(z) = -(1/x) * omega(z, x) / omega(z, 1/x).

It sends the annulus r < |z| < 1 onto the unit disk minus a closed arc of the
circle |w| = x, with f_x(x) = 0 and f_x(r) = -x.  The same expression extends
holomorphically to the larger annulus r^2/x < |z| < 1/x, which is how values
on both boundary circles and slightly beyond are obtained.

The recentred comparison map phi_x = T_x o f_x o f_{x0}^{-1}, with T_x the
real Mobius map vanishing at f_x(x0), lives here as `_Phi`; `q_of`,
`phi_eval` and `slit_dist_after_mobius` read single values from it, and the
certify pipeline in `counterexample` builds one per candidate x.
`_slit_dist` gives the distance from 0 to T(slit) for any real Mobius map T,
for `_Phi` and for `potential.competitor_boundary_dist`.

Public functions check their arguments once per call; private helpers
expect checked points.  f_x is the ratio of two prime functions, but their
normalisations and tail constants cancel, so it is evaluated as one product:

    f_x = (1 - z/x)/(z - 1/x) * prod_{n<=M} (1 - (q^n/x) z)(1 - (q^n x)/z)
                                          / ((1 - (q^n x) z)(1 - (q^n/x)/z))
          * exp(sum_{k<=K} d_k (z^-k - z^k)),   d_k = c_k (x^-k - x^k),

with M, K and c_k those of `prime`.  The merged series is exactly the
difference of the two prime functions' truncated tails, so their truncation
bounds hold unchanged.  Two unchecked kernels evaluate it from 1/z, the
constants that `SlitMapParams.terms` caches per modulus and x, and one exp:

- `_fx(p, z)` returns f_x, for callers that need values only;
- `_fx_log_deriv(p, z)` returns (f_x, f_x'/f_x) from one pass over the head
  factor pairs and the series.

`_map` and `_map_log_deriv` run them with the pole check, and `f_prime` and
every Newton step use `_map_log_deriv`.  `slit_endpoint` reads only
f_x'/f_x from `_fx_log_deriv`, after checking f_x at its two bracket ends,
which bound the kernel at every point between.  Its sign change is found by
`_bracket_root`, the one bracketed root finder (ITP steps: Illinois false
position, truncated toward the midpoint and projected into a radius of it
that keeps the count within ITP_N0 of bisection's), which
`counterexample.delta_of` uses too.

Scalar Newton (`f_inverse`) checks its seed once; `_newton` runs the same
iteration on arrays, in float64 for real targets and seeds and in complex128
otherwise.  Both stop by one rule, `_converged`.  Grids, arcs and the
certificate's single points are solved by `_Phi.solve` in one `_newton`
call, seeded by `_seeds`: the inverse of f_x by cubic Hermite interpolation
in a table of f_x and f_x' on [r, x] (`_seed_table`, built once per
modulus and x).  From these seeds Newton takes one step on the real grids
of the certificate and two on its arcs.  Only the public single-point
requests `f_inverse_real_segment` and `phi_eval` still march: `f_inverse`
continued along the real segment from x in steps of CONTINUATION_STEP.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .prime import AnnulusModulus, _exp

NEWTON_MAX_ITER = 64
NEWTON_TOL = 1e-12
CONTINUATION_STEP = 0.01
SEED_TABLE_POINTS = 64
STOP_ULPS = 4
EPS = float(np.finfo(float).eps)
ENDPOINT_THETA_PAD = 1e-9
ENDPOINT_THETA_WIDTH = 1e-13
# `_bracket_root`: truncation factor, over the first bracket's width, and the
# steps it may take beyond bisection's count.  Picked on the slit endpoint's
# h over 600 seeded (r, x): 16 evaluations at the median, 22 at most.
ITP_K1 = 5.0
ITP_N0 = 3
# `f_prime` treats |z - x| below this as z = x, the zero of f_x.
FACTOR_ZERO = 1e-300


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

    @functools.cached_property
    def terms(self) -> tuple[float, float, float, tuple[tuple[float, float], ...],
                             tuple[float, ...], tuple[float, ...]]:
        """(1/x, s, s/x, head, d, kd): the constants of the slit-map kernels.

        head holds (q^n/x, q^n x) for the M head factors, d the merged tail
        coefficients d_k = c_k (x^-k - x^k) and kd their multiples k d_k.
        d_k is formed as -c_k x^-k expm1(2k log x), which keeps its digits as
        x nears 1.  s = sqrt(N), N the head normalisation of the modulus,
        starts both products of the kernels and cancels in their ratio.
        """
        m = self.modulus
        x = self.x
        q = m.r * m.r
        rp = 1.0
        head = []
        for _ in range(m.plan[0]):
            rp *= q
            head.append((rp / x, rp * x))
        log_x = math.log(x)
        d = tuple(-c * x ** -k * math.expm1(2.0 * k * log_x)
                  for k, c in enumerate(m.tail[0], 1))
        kd = tuple(k * dk for k, dk in enumerate(d, 1))
        s = math.sqrt(m.normalisation)
        return 1.0 / x, s, s / x, tuple(head), d, kd


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


def _check_extended_annulus(p: SlitMapParams, z) -> None:
    mag = np.abs(z)
    lo = p.inner_extension * (1.0 - 1e-12)
    hi = p.outer_extension * (1.0 + 1e-12)
    if not np.all((mag > lo) & (mag < hi)):  # also false for nan and inf
        raise DomainError(
            "|z| must be finite and lie in "
            f"({p.inner_extension:.6g}, {p.outer_extension:.6g})"
        )


def f_eval(p: SlitMapParams, z):
    """Evaluate the slit map f_x on scalars or arrays of points."""
    _check_extended_annulus(p, z)
    return _map(p, z)


def _fx(p: SlitMapParams, z):
    """f_x at checked points: the product of the module docstring, formed as
    num/den times the exp of the merged tail series."""
    inv_x, s, s_x, head, d, _ = p.terms
    w = 1.0 / z
    num = (p.x - z) * s_x
    den = (z - inv_x) * s
    for a, b in head:
        num = num * ((1.0 - a * z) * (1.0 - b * w))
        den = den * ((1.0 - b * z) * (1.0 - a * w))
    val = num / den
    if d:
        # Horner in z and in 1/z: pz z = sum_k d_k z^k.
        pz = pw = d[-1]
        for c in d[-2::-1]:
            pz = pz * z + c
            pw = pw * w + c
        val = val * _exp(pw * w - pz * z)
    return val


def _fx_log_deriv(p: SlitMapParams, z):
    """`_fx` and f_x'/f_x from one pass over the factor pairs and the tail.

    z must be checked and off z = x.  With u = (q^n/x) z, v = (q^n x)/z in
    the numerator pair, fn = (1 - u)(1 - v), and u' = (q^n x) z,
    v' = (q^n/x)/z, fd = (1 - u')(1 - v') in the denominator's, the pair
    contributes ((v - u)/fn - (v' - u')/fd)/z, formed with one division by
    fn fd from the factors the value already forms.  The tail contributes
    -(1/z) sum_k k d_k (z^k + z^-k) and the prefactor
    (x - 1/x)/((z - x)(z - 1/x)).  Its value is bit for bit that of `_fx`,
    which forms the same factors in the same order.
    """
    inv_x, s, s_x, head, d, kd = p.terms
    w = 1.0 / z
    num = (p.x - z) * s_x
    den = (z - inv_x) * s
    t = 0.0
    for a, b in head:
        u, v, u2, v2 = a * z, b * w, b * z, a * w
        fn = (1.0 - u) * (1.0 - v)
        fd = (1.0 - u2) * (1.0 - v2)
        num = num * fn
        den = den * fd
        t = t + ((v - u) * fd - (v2 - u2) * fn) / (fn * fd)
    val = num / den
    if d:
        pz = pw = d[-1]
        qz = qw = kd[-1]
        for c, kc in zip(d[-2::-1], kd[-2::-1]):
            pz = pz * z + c
            pw = pw * w + c
            qz = qz * z + kc
            qw = qw * w + kc
        val = val * _exp(pw * w - pz * z)
        t = t - (qz * z + qw * w)
    return val, (p.x - inv_x) / ((z - p.x) * (z - inv_x)) + t * w


def _map(p: SlitMapParams, z):
    """f_x at points inside the extended annulus, with a pole check.

    The kernel needs no checks of its own beyond `_check_extended_annulus`.
    A pole divides by zero: a Python scalar raises ZeroDivisionError, an
    array gives inf or nan with numpy silenced; both become PoleError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            val = _fx(p, z)
    except ZeroDivisionError:
        raise PoleError("slit map evaluated at a pole") from None
    _check_finite(val)
    return val


def _map_log_deriv(p: SlitMapParams, z):
    """(f_x, f_x'/f_x) at points inside the extended annulus other than z = x.

    The checks are those of `_map`.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            val, dlog = _fx_log_deriv(p, z)
    except ZeroDivisionError:
        raise PoleError("slit map evaluated at a pole") from None
    _check_finite(val)
    return val, dlog


def _check_finite(val) -> None:
    """Raise PoleError unless every value of f_x is finite.

    Started from s = sqrt(N), the kernels' products and all their partial
    products stay between about exp(-0.54 L - 28) and exp(0.86 L) in the
    extended annulus, L = log N <= 709.8 for every accepted modulus (the
    28 from points 1e-12 inside its edges); without s they would fall to
    about exp(-L) on the positive real axis, into the subnormal range.  The
    merged tail stays small, so a value that is not finite comes from a pole.
    """
    if not np.all(np.isfinite(val)):
        raise PoleError("slit map evaluated at a pole")


def f_prime(p: SlitMapParams, z):
    """Derivative of the slit map away from its zero.

    Uses f_x' = f_x * (dlog omega(., x) - dlog omega(., 1/x)); the simple pole
    of the first log derivative at z = x cancels against the zero of f_x, so
    the formula stays accurate arbitrarily close to x, failing only when
    z = x exactly.  Every other zero of either prime function in the annulus
    of holomorphy is a pole of f_x, which the checks of `_map` reject.

    trunc_tol bounds values only.  The log derivative of the truncated
    omega(z, a) is off the infinite product's by the derivative of the tail
    series' remainder, R'_a = (1/z) sum_{k>K} k c_k (zeta^k - zeta^-k) with
    zeta = z/a and q0 = q^(M+1), K and c_k those of `prime`.  As
    k c_k <= q0^k / (1 - q^(K+1)), with rho1 = q0 |z/a| and rho2 = q0 |a/z|
    as in `truncation_error_bound`,

        |R'_a| <= [rho1^(K+1)/(1 - rho1) + rho2^(K+1)/(1 - rho2)] / ((1 - q^(K+1)) |z|).

    f_x is off by at most the sum B of the two `truncation_error_bound`s for
    a = x and a = 1/x, so to first order

        |f_x' - exact| <= |f_x| (|R'_x| + |R'_{1/x}|) + B |f_x'|.
    """
    _check_extended_annulus(p, z)
    if np.any(np.abs(z - p.x) < FACTOR_ZERO):
        raise PoleError("log derivative evaluated at z = a")
    val, dlog = _map_log_deriv(p, z)
    return val * dlog


def f_prime_at_center(p: SlitMapParams) -> float:
    """Closed form f_x'(x) = -1/(x omega(x, 1/x)).

    The product in omega(z, x) = (z - x) P(z) is normalised so that P(x) = 1,
    which makes d/dz omega(z, x) = 1 at z = x.  Written out with the
    constants of `_fx`, the value is 1/(1 - x^2) times the product of
    (1 - q^n)^2 / ((1 - q^n x^2)(1 - q^n/x^2)) over the head factors, each of
    which exceeds 1, times exp(sum_k d_k (x^-k - x^k)) = exp(sum_k c_k
    (x^-k - x^k)^2) for the tail series, which exceeds 1 too, so the result
    always exceeds 1/(1 - x^2).
    """
    inv_x, _, _, head, d, _ = p.terms
    x = p.x
    out = 1.0 / (1.0 - x * x)
    for a, b in head:
        out *= (1.0 - a * x) * (1.0 - b * inv_x) / ((1.0 - b * x) * (1.0 - a * inv_x))
    return out * math.exp(sum(dk * (inv_x ** k - x ** k) for k, dk in enumerate(d, 1)))


def _converged(res, w, z, deriv):
    """Newton's stop rule, for scalars and arrays alike.

    A residual res = f(z) - w is small enough when it is at most
    NEWTON_TOL (1 + |w|), or at most STOP_ULPS ulps of z times |f'(z)|: the
    residual that rounding z alone can leave.  The second bound matters only
    where f_x stretches: near x = r, f_x maps [r, x] onto [-x, 0] and |f'|
    averages x/(x - r), 2e4 at r = 0.95, x = 0.95005, where NEWTON_TOL alone
    cannot be met.  nan is never small enough.
    """
    size = abs(res)
    return (size <= NEWTON_TOL * (1.0 + abs(w))) | (
        size <= STOP_ULPS * EPS * abs(z) * abs(deriv))


def f_inverse(p: SlitMapParams, w, seed):
    """Invert the slit map by a damped-free Newton iteration from a seed.

    Stops at the first iterate that is `_converged`.  Only the seed gets the
    full domain check; an iterate that leaves a narrower band raises a
    domain error.  A good seed (path continuation from a known preimage)
    avoids that.
    """
    z = complex(seed)
    _check_extended_annulus(p, z)
    band_lo = p.inner_extension * 1.000001
    band_hi = p.outer_extension * 0.999999
    for _ in range(NEWTON_MAX_ITER):
        if z == p.x:  # f_x(x) = 0
            val, deriv = 0.0, f_prime_at_center(p)
        else:
            val, dlog = _map_log_deriv(p, z)
            deriv = val * dlog
        res = val - w
        if _converged(res, w, z, deriv):
            return z
        z = z - res / deriv
        if not band_lo < abs(z) < band_hi:  # also false for nan and inf
            raise DomainError(
                "Newton iterate left the annulus of holomorphy; seed too far"
            )
    raise ConvergenceError(
        f"slit map inversion did not reach tolerance in {NEWTON_MAX_ITER} steps"
    )


def _newton(p: SlitMapParams, w, z):
    """`f_inverse` on 1-D arrays: Newton for every target w from its seed z at once.

    Each point stops at the first iterate that meets f_inverse's stop rule,
    and later steps touch only the points still moving.  The seed check, the
    band test on every iterate, the errors and their messages are those of
    f_inverse.  Returns a new array of the common type of w, z and float:
    float64 for real targets and seeds, whose iterates stay real because f_x
    is real on the real axis, and complex128 otherwise.
    """
    w = np.asarray(w)
    z = np.array(z, dtype=np.result_type(w, z, float))
    _check_extended_annulus(p, z)
    band_lo = p.inner_extension * 1.000001
    band_hi = p.outer_extension * 0.999999
    live = np.arange(z.size)
    # A zero derivative or an overflowing step gives inf or nan, which the
    # band test rejects, instead of a numpy warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            zl, wl = z[live], w[live]
            val, dlog = _map_log_deriv(p, zl)
            deriv = val * dlog
            at_x = zl == p.x
            if at_x.any():
                deriv[at_x] = f_prime_at_center(p)
            res = val - wl
            moving = ~_converged(res, wl, zl, deriv)
            if not moving.any():
                return z
            live, zl = live[moving], zl[moving]
            zl = zl - res[moving] / deriv[moving]
            mag = np.abs(zl)
            if not np.all((mag > band_lo) & (mag < band_hi)):
                raise DomainError(
                    "Newton iterate left the annulus of holomorphy; seed too far"
                )
            z[live] = zl
    raise ConvergenceError(
        f"slit map inversion did not reach tolerance in {NEWTON_MAX_ITER} steps"
    )


@functools.lru_cache(maxsize=8)
def _seed_table(p: SlitMapParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, f_x, f_x') on SEED_TABLE_POINTS Chebyshev points of [r, x].

    The last point is x itself, where f_x = 0 and f_x' is
    `f_prime_at_center`; `_map_log_deriv` gives the others in one call.  The
    table depends only on p, so it is built once per modulus and x and kept
    for the next grid or arc.  Its arrays are read-only.
    """
    theta = np.pi * np.arange(SEED_TABLE_POINTS) / (SEED_TABLE_POINTS - 1)
    points = p.r + (p.x - p.r) * 0.5 * (1.0 - np.cos(theta))
    points[-1] = p.x
    val, dlog = _map_log_deriv(p, points[:-1])
    values = np.append(val, 0.0)
    derivs = np.append(val * dlog, f_prime_at_center(p))
    for a in (points, values, derivs):
        a.setflags(write=False)
    return points, values, derivs


def _seeds(p: SlitMapParams, w) -> np.ndarray:
    """Newton seeds for targets w on or near the image [-x, 0] of [r, x].

    f_x is real and increasing on [r, x], from f(r) = -x to f(x) = 0.  Its
    inverse g is read off `_seed_table` by cubic Hermite interpolation in
    Re w, with slopes 1/f_x', and clipped to [r, x].  A complex target adds
    the first-order step i Im(w) g'(Re w), so real targets get real seeds
    and complex targets complex ones.
    """
    points, values, derivs = _seed_table(p)
    w = np.asarray(w)
    v = np.clip(w.real, values[0], 0.0)
    k = np.clip(np.searchsorted(values, v) - 1, 0, values.size - 2)
    h = values[k + 1] - values[k]
    t = (v - values[k]) / h
    # g = points[k] + s0 t + c2 t^2 + c3 t^3 on the segment, s0 and s1 its
    # slopes dg/dt = h/f' at the two ends.
    s0, s1 = h / derivs[k], h / derivs[k + 1]
    d = points[k + 1] - points[k]
    c2 = 3.0 * d - 2.0 * s0 - s1
    c3 = s0 + s1 - 2.0 * d
    seeds = np.clip(points[k] + t * (s0 + t * (c2 + t * c3)), p.r, p.x)
    if not np.iscomplexobj(w):
        return seeds
    dg = (s0 + t * (2.0 * c2 + 3.0 * t * c3)) / h
    return seeds + 1j * w.imag * dg


def f_inverse_real_segment(p: SlitMapParams, w: float) -> float:
    """Preimage of a real target in [f(r), 0] = [-x, 0] on the segment [r, x].

    Marches the target from 0 toward w in steps of at most CONTINUATION_STEP,
    reseeding Newton with the previous preimage.  f_x is real and monotone on
    [r, x], so the continuation stays on the segment.
    """
    if not (-p.x - 1e-9 <= w <= 1e-9):
        raise DomainError(f"real inversion target must lie in [-x, 0], got {w}")
    n_steps = max(1, math.ceil(abs(w) / CONTINUATION_STEP))
    z = p.x
    for k in range(1, n_steps + 1):
        z = f_inverse(p, w * k / n_steps, z)
    return z.real


def _bracket_root(g, lo: float, hi: float, g_lo: float, g_hi: float,
                  width: float) -> float:
    """A sign change of g in [lo, hi], to within width.

    g_lo = g(lo) must be nonzero and g_hi = g(hi) zero or of the other sign.
    g_hi = 0 asks for a sign change strictly inside, as when g has a known
    zero at hi that is not the one sought.  Each step is an ITP step
    (interpolate, truncate, project; Oliveira and Takahashi, ACM TOMS 47(1),
    2021):

    - interpolate: the false-position point, from g values that the Illinois
      rule halves at an end kept twice in a row, so that one end cannot stick;
    - truncate: move it toward the midpoint by ITP_K1 (hi - lo)^2 / (hi0 - lo0),
      with hi0 - lo0 the first bracket, so that steps land on both sides of a
      smooth root;
    - project: keep it within the radius of the midpoint that still lets
      bisection finish in ITP_N0 steps more than bisection from the first
      bracket would take.

    So no g needs more than ITP_N0 evaluations beyond bisection's count,
    and smooth simple roots converge superlinearly.  Returns an exact zero of
    g at once, else the midpoint of a bracket at most width wide.
    """
    sign = math.copysign(1.0, g_lo)
    g_lo, g_hi = sign * g_lo, sign * g_hi  # now g_lo > 0 >= g_hi
    k1 = ITP_K1 / (hi - lo)
    steps = max(0, math.ceil(math.log2((hi - lo) / width))) + ITP_N0
    # The projection radius plus half the bracket; it halves every step.
    slack = 0.5 * width * 2.0 ** steps
    kept = 0  # +1: lo was kept by the last step, -1: hi was
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fp = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        toward = mid - fp
        delta = k1 * (hi - lo) ** 2
        t = fp + math.copysign(delta, toward) if delta <= abs(toward) else mid
        radius = slack - 0.5 * (hi - lo)
        if abs(t - mid) > radius:
            t = mid - math.copysign(radius, toward)
        slack *= 0.5
        g_t = sign * g(t)
        if g_t == 0.0:
            return t
        if g_t > 0.0:
            lo, g_lo = t, g_t
            if kept == -1:
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = t, g_t
            if kept == 1:
                g_lo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


def slit_endpoint(p: SlitMapParams) -> SlitArc:
    """Locate the slit endpoint with positive imaginary part.

    On the inner circle z = r e^{i theta} the modulus of f_x is constant, so
    d/dtheta arg f_x = Re(z f_x'(z)/f_x(z)) =: h(theta).  The image point
    sweeps out the slit and reverses direction exactly where f_x' vanishes,
    which is the unique zero of h on (0, pi).  `_bracket_root` pins the
    preimage angle from the sign change of h; the endpoint is the image of
    that point.
    """
    r = p.r
    lo = ENDPOINT_THETA_PAD
    hi = math.pi - ENDPOINT_THETA_PAD
    # f_eval checks the kernel at both bracket ends only.  h divides by
    # z - x, z - 1/x and every head factor pair, and forms the products num
    # and den of `_fx`.  For z = r e^{i theta} each of these is a product of
    # factors |1 - t e^{+-i theta}| or |e^{i theta} - t| with t > 0, which
    # grow with theta on [0, pi], so all are smallest at lo and largest at
    # hi.  |f_x| = x on |z| = r ties |num| to |den|, so a finite f_x at lo
    # has both nonzero there and a finite f_x at hi has both finite: the two
    # ends cover every point the root finder visits.
    for theta in (lo, hi):
        f_eval(p, r * cmath.exp(1j * theta))

    def h(theta: float) -> float:
        z = r * cmath.exp(1j * theta)
        return (z * _fx_log_deriv(p, z)[1]).real

    h_lo = h(lo)
    h_hi = h(hi)
    if h_lo == 0.0:
        root = lo
    elif h_hi == 0.0:
        root = hi
    else:
        if math.copysign(1.0, h_lo) == math.copysign(1.0, h_hi):
            raise ConvergenceError("no sign change bracketing the slit endpoint")
        root = _bracket_root(h, lo, hi, h_lo, h_hi, ENDPOINT_THETA_WIDTH)

    endpoint = complex(f_eval(p, r * cmath.exp(1j * root)))
    return SlitArc(radius=abs(endpoint), endpoint_plus=endpoint, preimage_theta=root)


def _slit_dist(p: SlitMapParams, t: MobiusReal) -> float:
    """min |T(w)| over the slit of f_x: the distance from 0 to T(slit).

    On the circle |w| = x, with u = Re w, |T(w)|^2 = (x^2 - 2cu + c^2) /
    (1 - 2cu + c^2 x^2) has u-derivative -2c (1 - x^2)(1 - c^2) over the
    squared denominator, so |T| falls as Re w grows when c > 0 and rises
    when c < 0.  The slit is an arc of |w| = x, symmetric in the real axis,
    through f_x(r) = -x.  So for c > 0 the minimum is |T| at its endpoints,
    whose images have equal modulus, and for c <= 0 it is |T(-x)| =
    |x + c|/(1 + c x), which needs no `slit_endpoint`.
    """
    c = t.c
    if c > 0.0:
        return abs(mobius_apply(t, slit_endpoint(p).endpoint_plus))
    return abs(p.x + c) / (1.0 + c * p.x)


class _Phi:
    """The recentred comparison map phi_x = T_x o f_x o f_{x0}^{-1}.

    T_x is the real Mobius map vanishing at c = f_x(x0), so phi_x fixes 0
    and sends the slit disk of f_{x0} onto the unit disk minus the recentred
    slit T_x(Gamma_x).  c is computed once, on construction.  `solve` takes
    preimages under f_{x0} from one `_newton` call seeded by `_seeds`, for a
    grid, an arc or a single point alike.
    """

    def __init__(self, x: float, x0: float, modulus: AnnulusModulus) -> None:
        if x > x0:
            raise DomainError("expected x <= x0")
        self.p0 = SlitMapParams(modulus, x0)
        self.px = SlitMapParams(modulus, x)
        self.mob = MobiusReal(float(np.real(f_eval(self.px, x0))))

    @property
    def q(self) -> float:
        """phi_x(-x0) = T_x(f_x(r)) = T_x(-x); needs no inversion."""
        return mobius_apply(self.mob, -self.px.x)

    def slit_dist(self) -> float:
        """Distance from 0 to the recentred slit, by `_slit_dist`.

        For x < x0 the coefficient c = f_x(x0) is positive and the distance
        is |T_x| at a slit endpoint; for x = x0, c = 0 and it is x.
        """
        return _slit_dist(self.px, self.mob)

    def slope_at_zero(self) -> float:
        """phi_x'(0) = f_x'(x0) / ((1 - c^2) f_{x0}'(x0)), for x < x0.

        The preimage of 0 under f_{x0} is x0, and T_x'(c) = 1/(1 - c^2).
        """
        c = self.mob.c
        fx = float(f_prime(self.px, self.p0.x))
        return fx / ((1.0 - c * c) * f_prime_at_center(self.p0))

    def __call__(self, z):
        """T_x(f_x(z)) at real preimages z under f_{x0}, scalar or array."""
        return np.real(mobius_apply(self.mob, f_eval(self.px, z)))

    def solve(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Values and preimages at points of, or near, the segment [-x0, 0].

        One `_newton` call from `_seeds`.  Real points, in any order, give
        real values and preimages; complex points give complex ones.
        """
        pres = _newton(self.p0, points, _seeds(self.p0, points))
        return mobius_apply(self.mob, f_eval(self.px, pres)), pres


def q_of(x: float, x0: float, m: AnnulusModulus) -> float:
    """Image of -x0 under the recentred comparison map, T_x(-x) = -(x + c)/(1 + c x)."""
    return _Phi(x, x0, m).q


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
    segment (`f_inverse_real_segment`), so single-point evaluations are
    self-contained.
    """
    phi = _Phi(x, x0, m)
    return float(phi(f_inverse_real_segment(phi.p0, xi)))


def slit_dist_after_mobius(x: float, x0: float, m: AnnulusModulus) -> float:
    """Distance from 0 to the recentred slit T_x(Gamma_x)."""
    return _Phi(x, x0, m).slit_dist()
