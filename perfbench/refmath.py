"""Independent reference values for the benchmark's output checks.

Nothing here imports slitkit.  The prime function of the annulus r < |z| < 1
is evaluated from its factored product

    omega(z, a) = (z - a) prod_{n>=1} (1 - q^n z/a)(1 - q^n a/z) / (1 - q^n)^2,   q = r^2,

in two independent implementations:

* ``mp_*``: mpmath at MP_DIGITS significant digits, keeping factors until
  q^n < 10^-(MP_DIGITS + 4).  At r = 0.9 that is about 390 factors where the
  program keeps 132.
* ``np_*``: numpy in double precision, keeping factors until q^n < 1e-20, and
  broadcasting over z, a, r and x together.  It serves the checks that need
  thousands of points: whole batch arrays, dense sampling of the inner circle,
  and every request of a query stream.

The slit map is f_x(z) = -(1/x) omega(z, x) / omega(z, 1/x).  The module also
gives the closed form of the potential of N equal point masses on a circle,
the squeezing function of the annulus, and the dense-sampling oracles for the
slit endpoint and the recentred slit distance.
"""

from __future__ import annotations

import math

import numpy as np

MP_DIGITS = 32
NP_TAIL = 1e-20


def _mp():
    """mpmath, imported on first use so it stays out of the timed set-up."""
    import mpmath

    return mpmath


def _terms(r: float, tail: float) -> int:
    return max(1, math.ceil(math.log(tail) / (2.0 * math.log(r))))


# ---------------------------------------------------------------- mpmath


def mp_prime_omega(z, a, r: float) -> complex:
    """omega(z, a) for the annulus of inner radius r, rounded to a complex."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return complex(_mp_omega(mp.mpc(z), mp.mpc(a), mp.mpf(r)))


def _mp_omega(z, a, r):
    mp = _mp()
    q = r * r
    za = z / a
    az = a / z
    qn = mp.mpf(1)
    out = z - a
    for _ in range(_terms(float(r), 10.0 ** -(MP_DIGITS + 4))):
        qn *= q
        one = 1 - qn
        out *= (1 - qn * za) * (1 - qn * az) / (one * one)
    return out


def _mp_slit_map(z, x, r):
    return -(_mp_omega(z, x, r) / _mp_omega(z, 1 / x, r)) / x


def mp_slit_map(z, x: float, r: float) -> complex:
    """f_x(z) at MP_DIGITS digits, rounded to a complex."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        return complex(_mp_slit_map(mp.mpc(z), mp.mpf(x), mp.mpf(r)))


def _mp_recentre(x, x0, r):
    """Coefficient c = f_x(x0) of the Mobius map T(w) = (w - c)/(1 - c w)."""
    mp = _mp()
    return mp.re(_mp_slit_map(mp.mpc(x0), x, r))


def mp_q(x: float, x0: float, r: float) -> float:
    """q(x) = T_x(f_x(r)) = T_x(-x), the image of -x0 under phi_x."""
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        x, x0, r = mp.mpf(x), mp.mpf(x0), mp.mpf(r)
        c = _mp_recentre(x, x0, r)
        return float(-(x + c) / (1 + c * x))


def mp_phi(x: float, x0: float, r: float, xi: float) -> float:
    """phi_x(xi) = T_x(f_x(f_{x0}^{-1}(xi))) for xi strictly inside (-x0, 0).

    f_{x0} is real and increasing on [r, x0] with f_{x0}(r) = -x0 and
    f_{x0}(x0) = 0, so the preimage is bracketed and found by bisection on
    the mpmath map itself, then polished by the secant method.
    """
    mp = _mp()
    with mp.workdps(MP_DIGITS):
        x, x0, r, xi = mp.mpf(x), mp.mpf(x0), mp.mpf(r), mp.mpf(xi)

        def g(t):
            return mp.re(_mp_slit_map(mp.mpc(t), x0, r)) - xi

        lo, hi = r, x0
        for _ in range(40):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        t = mp.findroot(g, (lo, hi), solver="secant")
        c = _mp_recentre(x, x0, r)
        w = mp.re(_mp_slit_map(mp.mpc(t), x, r))
        return float((w - c) / (1 - c * w))


def mp_recentred_slit_dist(x: float, x0: float, r: float) -> float:
    """min over the inner circle of |T_x(f_x(r e^{i theta}))| at MP_DIGITS.

    The image of the inner circle is the slit, traversed back and forth, so
    this minimum is the distance from 0 to the recentred slit.  A dense
    double-precision scan brackets the minimiser and a golden-section search
    on the mpmath map refines it.
    """
    mp = _mp()
    c0 = float(np_slit_map(np.asarray(complex(x0)), x, r).real)

    def objective(theta):
        w = np_slit_map(r * np.exp(1j * theta), x, r)
        return np.abs((w - c0) / (1.0 - c0 * w))

    theta = float(dense_min(objective, [0.0], [2.0 * math.pi], levels=2)[0][0])
    step = 2.0 * math.pi / 1024
    with mp.workdps(MP_DIGITS):
        xm, x0m, rm = mp.mpf(x), mp.mpf(x0), mp.mpf(r)
        c = _mp_recentre(xm, x0m, rm)

        def h(t):
            w = _mp_slit_map(rm * mp.expj(t), xm, rm)
            return abs((w - c) / (1 - c * w))

        lo, hi = mp.mpf(theta) - step, mp.mpf(theta) + step
        inv = (mp.sqrt(5) - 1) / 2
        a, b = hi - inv * (hi - lo), lo + inv * (hi - lo)
        ha, hb = h(a), h(b)
        for _ in range(70):
            if ha < hb:
                hi, b, hb = b, a, ha
                a = hi - inv * (hi - lo)
                ha = h(a)
            else:
                lo, a, ha = a, b, hb
                b = lo + inv * (hi - lo)
                hb = h(b)
        return float(min(ha, hb))


# ----------------------------------------------------------------- numpy


def np_prime_omega(z, a, r):
    """omega(z, a), broadcasting over z, a and r; factors until q^n < NP_TAIL."""
    z = np.asarray(z, dtype=complex)
    a = np.asarray(a, dtype=complex)
    r = np.asarray(r, dtype=float)
    q = r * r
    za = z / a
    az = a / z
    qn = np.ones_like(q)
    out = z - a
    for _ in range(_terms(float(r.max()), NP_TAIL)):
        qn = qn * q
        one = 1.0 - qn
        out = out * ((1.0 - qn * za) * (1.0 - qn * az) / (one * one))
    return out


def np_slit_map(z, x, r):
    """f_x(z), broadcasting over z, x and r."""
    x = np.asarray(x, dtype=float)
    return -(np_prime_omega(z, x, r) / np_prime_omega(z, 1.0 / x, r)) / x


def dense_min(objective, lo, hi, n: int = 1024, levels: int = 5):
    """Minimise smooth functions of one angle by nested dense sampling.

    lo and hi are arrays of k brackets; objective maps a (k, n) array of
    angles to a (k, n) array of values, one problem per row.  Each level
    samples every bracket evenly and shrinks it to the two cells around the
    best sample, so the brackets narrow by n/2 per level.  Returns the
    arrays (argmin, min).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = np.arange(lo.size)
    for _ in range(levels):
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, n)[None, :]
        v = objective(t)
        i = np.argmin(v, axis=1)
        best_t, best_v = t[rows, i], v[rows, i]
        lo, hi = t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, n - 1)]
        n = 65
    return best_t, best_v


def slit_endpoint_by_sampling(x, r):
    """Endpoints of the slits in the upper half plane, from the inner circle.

    f_x maps the inner circle onto the arc x e^{i phi}, phi_a <= phi <=
    2 pi - phi_a, so the endpoint is the image point of least argument in
    [0, 2 pi).  x and r are arrays with one slit map per entry.
    """
    x = np.asarray(x, dtype=float)[:, None]
    r = np.asarray(r, dtype=float)[:, None]

    def arg(theta):
        w = np_slit_map(r * np.exp(1j * theta), x, r)
        return np.mod(np.angle(w), 2.0 * math.pi)

    zero = np.zeros(x.shape[0])
    theta, _ = dense_min(arg, zero, zero + 2.0 * math.pi)
    return np_slit_map(r[:, 0] * np.exp(1j * theta), x[:, 0], r[:, 0])


def recentred_slit_dist_by_sampling(x, x0, r):
    """min over the inner circle of |T_x(f_x(r e^{i theta}))|, c = f_x(x0).

    x, x0 and r are arrays with one recentred map per entry.
    """
    x = np.asarray(x, dtype=float)[:, None]
    r = np.asarray(r, dtype=float)[:, None]
    c = np_slit_map(np.asarray(x0, dtype=complex)[:, None], x, r).real

    def dist(theta):
        w = np_slit_map(r * np.exp(1j * theta), x, r)
        return np.abs((w - c) / (1.0 - c * w))

    zero = np.zeros(x.shape[0])
    return dense_min(dist, zero, zero + 2.0 * math.pi)[1]


# ------------------------------------------------- potentials, squeezing


def circle_potential(w, radius: float, mass: float, n_nodes: int):
    """Potential of n_nodes equal masses evenly spaced on |z| = radius.

    The nodes are radius * e^{2 pi i k / N}, and prod_k (w - z_k) = w^N - R^N,
    so the potential is -(M/N) log|w^N - R^N|.  It is evaluated as
    N log max(|w|, R) + log|1 - u^N| with |u| <= 1, which neither overflows
    nor underflows for N in the thousands.
    """
    w = np.asarray(w, dtype=complex)
    outside = np.abs(w) >= radius
    safe_w = np.where(outside, w, 1.0)
    u = np.where(outside, radius / safe_w, w / radius)
    lead = n_nodes * np.log(np.where(outside, np.abs(w), radius))
    return -(mass / n_nodes) * (lead + np.log(np.abs(1.0 - u ** n_nodes)))


def arc_potential(w, radius: float, theta_min: float, theta_max: float,
                  mass: float, n_nodes: int, chunk: int = 64):
    """Potential of n_nodes equal masses at evenly spaced angles of an arc.

    Summed directly, a few targets at a time so the reference never holds a
    full targets x nodes array.
    """
    w = np.asarray(w, dtype=complex).ravel()
    nodes = radius * np.exp(1j * np.linspace(theta_min, theta_max, n_nodes))
    out = np.empty(w.size)
    for s in range(0, w.size, chunk):
        d = np.abs(w[s:s + chunk, None] - nodes[None, :])
        out[s:s + chunk] = -(mass / n_nodes) * np.log(d).sum(axis=1)
    return out


def squeezing(z, r):
    """Squeezing function of the annulus r < |z| < 1: max(|z|, r/|z|)."""
    mag = np.abs(z)
    return np.maximum(mag, r / mag)
