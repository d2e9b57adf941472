"""Correctness checks on the program's outputs.

Every check compares an output with an independent computation from
``refmath`` or with a property the output must have, and raises CheckError
on the first violation.  None compares with a stored copy of earlier output.
Outputs are read by attribute, so a check accepts the program's own result
objects or any stand-in with the same fields.

Tolerances.  Values that pass through the truncated prime product may differ
from the references by the program's own truncation bound, which the checks
take from ``slitkit.prime.truncation_error_bound``; ROUNDING covers double
rounding on top of it.  The slit map is a ratio of two truncated products
with relative errors e1 and e2, |e1| <= b1 and |e2| <= b2, so its own relative
error (1 + e1)/(1 + e2) - 1 is at most (b1 + b2)/(1 - b2); the map checks are
given b = b1 + b2 and allow b/(1 - b) (``map_tol``).  Scalars derived from the map (inverse images, slit
endpoints, recentred distances) must agree to AGREE, which is far above the
truncation error at the default tolerance (below 1e-9 even at r = 0.9) and
far below the 1e-6 perturbations the checks must catch.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

import refmath

ROUNDING = 1e-14
AGREE = 1e-8
POTENTIAL_TOL = 1e-9
FD_TOL = 1e-6


class CheckError(Exception):
    """An output of the program failed a correctness check."""


def require(ok, message: str) -> None:
    if not bool(ok):
        raise CheckError(message)


def map_tol(bound):
    """Relative tolerance of the slit map for a summed truncation bound."""
    bound = np.asarray(bound, dtype=float)
    return bound / (1.0 - bound) + ROUNDING


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.max()) if values.size else 0.0


# ------------------------------------------------ prime function and maps


def check_prime_omega(z, a, r, out, bound) -> None:
    """prime_omega agrees with the reference within the truncation bound.

    ``bound`` is the relative truncation bound for each point (a scalar
    bound covering all points is allowed).
    """
    ref = refmath.np_prime_omega(z, a, r)
    rel = np.abs(np.asarray(out) - ref) / np.abs(ref)
    excess = rel - (np.asarray(bound) + ROUNDING)
    require(np.all(excess <= 0.0),
            f"prime_omega off the reference by {_worst(rel):.3e} relative, "
            f"bound {_worst(bound):.3e}")


def check_prime_omega_mp(z, a, r: float, out, bound: float) -> None:
    """One prime_omega value against the mpmath reference."""
    ref = refmath.mp_prime_omega(z, a, r)
    rel = abs(complex(out) - ref) / abs(ref)
    require(rel <= bound + ROUNDING,
            f"prime_omega({z}, {a}; r={r}) off mpmath by {rel:.3e}, bound {bound:.3e}")


def check_slit_map(z, x, r, out, bound) -> None:
    """f_eval agrees with the reference map within the truncation bound.

    ``bound`` is the sum of the bounds of the two products of the map.
    """
    ref = refmath.np_slit_map(z, x, r)
    rel = np.abs(np.asarray(out) - ref) / np.maximum(np.abs(ref), 1e-300)
    require(np.all(rel <= map_tol(bound)),
            f"f_eval off the reference by {_worst(rel):.3e} relative, "
            f"bound {_worst(bound):.3e}")


def check_slit_map_mp(z, x: float, r: float, out, bound: float) -> None:
    ref = refmath.mp_slit_map(z, x, r)
    rel = abs(complex(out) - ref) / abs(ref)
    require(rel <= map_tol(bound),
            f"f_eval({z}; x={x}, r={r}) off mpmath by {rel:.3e}, bound {bound:.3e}")


def check_slit_map_moduli(out, x: float, on_outer, on_inner, bound: float) -> None:
    """|f| = 1 on the outer circle, |f| = x on the inner one, |f| < 1 inside."""
    mag = np.abs(np.asarray(out))
    tol = map_tol(bound)
    outer = np.abs(mag[on_outer] - 1.0)
    require(np.all(outer <= tol), f"|f| on |z| = 1 is off 1 by {_worst(outer):.3e}")
    inner = np.abs(mag[on_inner] - x) / x
    require(np.all(inner <= tol), f"|f| on |z| = r is off x by {_worst(inner):.3e}")
    check_inside_disk(np.asarray(out)[~(on_outer | on_inner)])


def check_inside_disk(out) -> None:
    """Images of interior points lie strictly inside the unit disk."""
    mag = np.abs(np.asarray(out))
    require(np.all(mag < 1.0), f"|f| reaches {_worst(mag):.17g} inside the annulus")


def check_derivative(z, fprime, f, h: float) -> None:
    """f_prime agrees with the fourth-order central difference of f.

    ``f`` evaluates the program's map on an array; the stencil is
    (8 (f(z+h) - f(z-h)) - (f(z+2h) - f(z-2h))) / (12 h), whose error is of
    order h^4 f^(5), far below FD_TOL for h a thousandth of the annulus width.
    """
    z = np.asarray(z)
    fd = (8.0 * (f(z + h) - f(z - h)) - (f(z + 2 * h) - f(z - 2 * h))) / (12.0 * h)
    err = np.abs(np.asarray(fprime) - fd) / (1.0 + np.abs(fd))
    require(np.all(err <= FD_TOL),
            f"f_prime off the central difference by {_worst(err):.3e}")


# --------------------------------------------- inversions and slit geometry


def check_real_inverse(z, w, x, r, bound) -> None:
    """f_inverse_real_segment returns real preimages in [r, x] that map to w.

    The program's map differs from the reference by at most map_tol(bound)
    relative, and |w| < 1, so on top of the solver's residual (AGREE) the
    reference image of the program's root may miss w by that much.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    require(np.all((z >= r * (1 - 1e-12)) & (z <= x * (1 + 1e-12))),
            "real preimage outside the segment [r, x]")
    err = np.abs(refmath.np_slit_map(z, x, r) - w) / (1.0 + np.abs(w))
    require(np.all(err <= AGREE + map_tol(bound)),
            f"f(f_inverse(w)) misses w by {_worst(err):.3e}")


def check_phi_at_minus_x0(phi, q_program, x, x0, r) -> None:
    """phi_eval(-x0) equals q(x), computed by q_of and by the reference.

    q_of needs no inversion (phi_x(-x0) = T_x(f_x(r)) = T_x(-x)), so it
    reaches the same value as phi_eval along an independent path.
    """
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    c = refmath.np_slit_map(np.asarray(x0, dtype=complex), x, r).real
    q_ref = -(x + c) / (1.0 + c * x)
    err = np.abs(phi - np.asarray(q_program, dtype=float))
    require(np.all(err <= AGREE), f"phi_eval(-x0) differs from q_of by {_worst(err):.3e}")
    err = np.abs(phi - q_ref)
    require(np.all(err <= AGREE),
            f"phi_eval(-x0) differs from the reference q by {_worst(err):.3e}")


def check_q(q, x, x0, r) -> None:
    """q_of equals T_x(-x) with c = f_x(x0) from the reference map."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    c = refmath.np_slit_map(np.asarray(x0, dtype=complex), x, r).real
    err = np.abs(np.asarray(q, dtype=float) + (x + c) / (1.0 + c * x))
    require(np.all(err <= AGREE), f"q_of off the reference by {_worst(err):.3e}")


def check_slit_endpoints(arcs, x, r) -> None:
    """slit_endpoint agrees with dense sampling of the inner circle."""
    x = np.asarray(x, dtype=float)
    ends = np.array([complex(a.endpoint_plus) for a in arcs])
    radii = np.array([float(a.radius) for a in arcs])
    ref = refmath.slit_endpoint_by_sampling(x, r)
    err = np.abs(ends - ref)
    require(np.all(err <= AGREE), f"slit endpoint off dense sampling by {_worst(err):.3e}")
    err = np.abs(radii - x)
    require(np.all(err <= AGREE), f"slit radius off x by {_worst(err):.3e}")
    require(np.all(ends.imag > 0.0), "slit endpoint not in the upper half plane")


def check_recentred_slit_dist(dist, x, x0, r) -> None:
    """slit_dist_after_mobius agrees with dense sampling of the inner circle."""
    ref = refmath.recentred_slit_dist_by_sampling(x, x0, r)
    err = np.abs(np.asarray(dist, dtype=float) - ref)
    require(np.all(err <= AGREE),
            f"recentred slit distance off dense sampling by {_worst(err):.3e}")


# ------------------------------------------- squeezing, radii, potentials


def check_squeezing(s, z, r) -> None:
    err = np.abs(np.asarray(s, dtype=float) - refmath.squeezing(z, r))
    require(np.all(err <= ROUNDING), f"squeezing off max(|z|, r/|z|) by {_worst(err):.3e}")


def check_radii(radius, z) -> None:
    err = np.abs(np.asarray(radius, dtype=float) - np.abs(z))
    require(np.all(err <= 1e-12), f"radii_solve off |z0| by {_worst(err):.3e}")


def check_circle_potential(out, w, radius, mass, n_nodes) -> None:
    ref = refmath.circle_potential(w, radius, mass, n_nodes)
    err = np.abs(np.asarray(out, dtype=float) - ref) / (1.0 + np.abs(ref))
    require(np.all(err <= POTENTIAL_TOL),
            f"circle potential off the closed form by {_worst(err):.3e}")


def check_arc_potential(out, w, radius, theta_min, theta_max, mass, n_nodes) -> None:
    ref = refmath.arc_potential(w, radius, theta_min, theta_max, mass, n_nodes)
    err = np.abs(np.asarray(out, dtype=float).ravel() - ref) / (1.0 + np.abs(ref))
    require(np.all(err <= POTENTIAL_TOL),
            f"arc potential off direct summation by {_worst(err):.3e}")


def check_competitors(rows, r: float) -> None:
    """No competitor beats max(z0, r/z0); the canonical ones attain it.

    ``rows`` holds (x, z0, inverted, dist).  The canonical competitors are
    x = z0 and, inverted, x = r/z0; their boundary images are circles of
    radius z0 and r/z0, so sampling finds their distance exactly.
    """
    for x, z0, inverted, dist in rows:
        formula = max(z0, r / z0)
        require(dist <= formula + AGREE,
                f"competitor x={x}, z0={z0}, inverted={inverted} reaches {dist} "
                f"> squeezing {formula}")
        canonical = r / z0 if inverted else z0
        if x == canonical:
            require(abs(dist - canonical) <= AGREE,
                    f"canonical competitor x={x}, z0={z0} gives {dist}, not {canonical}")


def check_svg(doc: str, n_curves: int) -> None:
    """The figure parses as XML and draws the image of every grid curve."""
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        raise CheckError(f"figure is not well-formed XML: {exc}") from exc
    require(root.tag.endswith("svg"), f"figure root element is {root.tag}")
    images = [e for e in root.iter() if e.get("class") == "grid-image"]
    require(len(images) == n_curves,
            f"figure draws {len(images)} image curves, expected {n_curves}")


# ------------------------------------------------------- certify pipeline


MARGIN_KEYS = ("lemma61_i", "lemma61_ii", "phi_gt_zeta", "dist_gt_zeta", "r_over_x0_lt_zeta")


def check_certificate(cert, tol: float) -> None:
    """The certificate passed and every margin clears tol."""
    require(cert.passed, "certificate did not pass")
    require(set(cert.margins) == set(MARGIN_KEYS), f"margin keys {sorted(cert.margins)}")
    for key in MARGIN_KEYS:
        require(cert.margins[key] > tol, f"margin {key} = {cert.margins[key]} not above tol {tol}")
    require(cert.r < cert.x_star < cert.x0, "x_star outside (r, x0)")
    require(-cert.x0 < cert.zeta_star < -cert.x0 + cert.delta,
            "zeta_star outside (-x0, -x0 + delta)")


def witness_reference(cert) -> dict:
    """mpmath recomputation of the witness quantities of a certificate."""
    return {
        "phi_at_zeta": refmath.mp_phi(cert.x_star, cert.x0, cert.r, cert.zeta_star),
        "q_at_xstar": refmath.mp_q(cert.x_star, cert.x0, cert.r),
        "dist_gamma": refmath.mp_recentred_slit_dist(cert.x_star, cert.x0, cert.r),
    }


def check_witness(cert, ref: dict) -> None:
    """The reference witness values match and satisfy the strict inequalities.

    The certified inequalities are q(x*) < -x0, |phi(zeta*)| > |zeta*|,
    dist > |zeta*|, dist > x0 - delta and |zeta*| > r/x0; the margins the
    certificate reports must be these differences.
    """
    for key, value in ref.items():
        err = abs(getattr(cert, key) - value)
        require(err <= AGREE, f"certificate {key} = {getattr(cert, key)} off mpmath {value}")
    zeta = abs(cert.zeta_star)
    implied = {
        "lemma61_ii": ref["dist_gamma"] - (cert.x0 - cert.delta),
        "phi_gt_zeta": abs(ref["phi_at_zeta"]) - zeta,
        "dist_gt_zeta": ref["dist_gamma"] - zeta,
        "r_over_x0_lt_zeta": zeta - cert.r / cert.x0,
    }
    require(ref["q_at_xstar"] < -cert.x0, f"q(x*) = {ref['q_at_xstar']} is not below -x0")
    for key, value in implied.items():
        require(value > 0.0, f"inequality {key} fails at the witness: {value}")
        err = abs(cert.margins[key] - value)
        require(err <= AGREE, f"margin {key} = {cert.margins[key]} but mpmath gives {value}")


def check_revalidation(cert, reval, tol: float) -> None:
    """Revalidation keeps the witness, passes, and drifts only by truncation."""
    check_certificate(reval, tol)
    for key in ("x_star", "delta", "zeta_star"):
        require(getattr(reval, key) == getattr(cert, key), f"revalidation moved {key}")
    drift = max(abs(reval.margins[k] - cert.margins[k]) for k in MARGIN_KEYS)
    require(drift <= AGREE, f"revalidated margins drift by {drift:.3e}")


def shrinking_arc_family(zeta: float, n: int, m: int):
    """Radii and angular half-width of the m - 2 arcs at level n.

    Re-derived from the construction: radii |zeta| +- j / (2 n (m - 1)) with
    alternating sign, angular width 1 / (4 n |zeta|) centred on the ray
    through zeta (angle pi).
    """
    az = abs(zeta)
    radii = [az + (1.0 if j % 2 else -1.0) * j / (2.0 * n * (m - 1)) for j in range(1, m - 1)]
    return radii, 0.5 / (4.0 * n * az)


def check_evidence(table, cert, x0: float, n_list, m: int) -> None:
    """Evidence rows: positive margins, shrinking mass bound, arcs in 1/n disks."""
    rows = list(table.rows)
    require([row.n for row in rows] == list(n_list), "evidence rows do not follow n_list")
    for row in rows:
        require(row.margin_ineq1 > 0.0, f"margin_ineq1 = {row.margin_ineq1} at n = {row.n}")
        radii, half = shrinking_arc_family(cert.zeta_star, row.n, m)
        theta = math.pi + np.linspace(-half, half, 257)
        for rho in radii:
            reach = np.abs(rho * np.exp(1j * theta) - cert.zeta_star).max()
            require(reach < 1.0 / row.n,
                    f"arc of radius {rho} leaves the 1/n disk at n = {row.n}")
        expect = min(x0, min(radii))
        require(abs(row.dist_boundary - expect) <= ROUNDING,
                f"dist_boundary {row.dist_boundary} at n = {row.n}, arcs give {expect}")
    cn = [row.cn_bound for row in rows]
    require(all(b < a for a, b in zip(cn, cn[1:])), f"cn_bound not strictly decreasing: {cn}")
