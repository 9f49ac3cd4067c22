"""Navier-series oracle for simply supported beams, independent of the FE code.

For SS supports the continuum problem the element discretizes has a
closed-form modal solution: with alpha = n pi / L (n odd),

    u = U cos(alpha x),   w = W sin(alpha x),   phi = Phi cos(alpha x)

satisfies w = 0 and the natural conditions N = M = S = 0 at both ends,
and each mode decouples into a 3x3 solve built from the Gram matrix of
{1, z, f} and the shear rigidity.  The rigidities here come from
adaptive quadrature of a modulus profile written out again below, so
nothing of ``fgcbeam`` except its input conventions is shared.

The FE solution converges to these values as O(1/ne^2); the harness
uses them to check solves for which no recorded reference exists.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def _fraction(kind, interfaces, p, z):
    """Ceramic volume fraction V(z); an interface belongs to the layer above."""
    h1, h2, h3, h4 = interfaces
    if kind == "A":
        return ((z - h1) / (h4 - h1)) ** p
    layer = 0 if z < h2 else (1 if z < h3 else 2)
    if kind == "B":
        if layer == 0:
            return ((z - h1) / (h2 - h1)) ** p
        return 1.0 if layer == 1 else ((h4 - z) / (h4 - h3)) ** p
    if layer == 1:
        return ((z - h2) / (h3 - h2)) ** p
    return 0.0 if layer == 0 else 1.0


def _interfaces(kind, scheme, h):
    if kind == "A":
        return (-h / 2, -h / 2, h / 2, h / 2)
    a, b, c = scheme
    t = a + b + c
    h2 = -h / 2 + h * a / t
    return (-h / 2, h2, h2 + h * b / t, h / 2)


def _f(z, h):
    return z * (1.0 - 1.5 * (z / h) ** 2 + 0.4 * (z / h) ** 4)


def _g(z, h):
    return 1.0 - 4.5 * (z / h) ** 2 + 2.0 * (z / h) ** 4


def rigidities(case):
    """(D, A55s): 3x3 Gram matrix of {1, z, f} under E(z), and the shear rigidity."""
    kind, h, p = case["kind"], case["h"], case["p"]
    E_m, E_c, nu = case["E_m"], case["E_c"], case["nu"]
    zs = _interfaces(kind, case["scheme"], h)
    E = lambda z: E_m + (E_c - E_m) * _fraction(kind, zs, p, z)
    moments = {
        "A": lambda z: 1.0, "B": lambda z: z, "D": lambda z: z * z,
        "Bs": lambda z: _f(z, h), "Ds": lambda z: z * _f(z, h),
        "Hs": lambda z: _f(z, h) ** 2,
        "As": lambda z: _g(z, h) ** 2 / (2.0 * (1.0 + nu)),
    }
    r = {}
    for name, m in moments.items():
        total = 0.0
        for lo, hi in zip(zs, zs[1:]):
            if hi > lo:
                total += quad(lambda z: E(z) * m(z), lo, hi, epsabs=0.0,
                              epsrel=1e-13, limit=400)[0]
        r[name] = total
    D = np.array([[r["A"], r["B"], r["Bs"]],
                  [r["B"], r["D"], r["Ds"]],
                  [r["Bs"], r["Ds"], r["Hs"]]])
    return D, r["As"], E


def _modes(D, A55s, L, inv_R, n, rhs_w):
    """Modal amplitudes (U, W, Phi) for odd mode numbers n, load rhs_w on W."""
    a = n * math.pi / L
    # unknowns scaled as (a U, a^2 W, a Phi) keep every 3x3 well conditioned
    T = np.zeros((n.size, 3, 3))
    T[:, 0, 0] = -1.0
    T[:, 0, 1] = inv_R / a**2
    T[:, 1, 1] = 1.0
    T[:, 2, 2] = -1.0
    K = np.einsum("nij,jk,nkl->nil", T.transpose(0, 2, 1), D, T)
    K[:, 2, 2] += A55s / a**2
    rhs = np.zeros((n.size, 3))
    rhs[:, 1] = rhs_w / a**2
    y = np.linalg.solve(K, rhs[..., None])[..., 0]
    return y[:, 0] / a, y[:, 1] / a**2, y[:, 2] / a


def navier(case, n_modes=200001):
    """Continuum (w, sigma_x(L/2, +h/2), tau_xz(0, 0)) of an SS case, dimensional.

    Stresses are None for a point load, whose series converge too slowly.

    ``case`` holds kind, scheme, p, h, L, R_over_L, E_m, E_c, nu, load
    ('udl' or 'point_mid') and magnitude.
    """
    if case["bc"] != "SS" or case["load"] not in ("udl", "point_mid"):
        raise ValueError("the Navier oracle covers SS supports under udl or point_mid")
    D, A55s, E = rigidities(case)
    L, h, q = case["L"], case["h"], case["magnitude"]
    inv_R = 0.0 if math.isinf(case["R_over_L"]) else 1.0 / (case["R_over_L"] * L)
    n = np.arange(1, n_modes + 1, 2, dtype=float)
    s = np.where(n % 4 == 1, 1.0, -1.0)  # sin(n pi / 2) for odd n
    a = n * math.pi / L
    if case["load"] == "udl":
        rhs = 4.0 * q / (a * L)
    else:
        rhs = 2.0 * q * s / L
    U, W, Phi = _modes(D, A55s, L, inv_R, n, rhs)
    # smallest terms first; 1e5 modes leave the sums converged to ~1e-14
    w = float(np.sum((W * s)[::-1]))
    if case["load"] != "udl":
        return w, None, None
    eps0 = float(np.sum(((-a * U + W * inv_R) * s)[::-1]))
    eps1 = float(np.sum((a * a * W * s)[::-1]))
    eps2 = float(np.sum((-a * Phi * s)[::-1]))
    gamma0 = float(np.sum(Phi[::-1]))
    sigma = E(h / 2) * (eps0 + (h / 2) * eps1 + _f(h / 2, h) * eps2)
    tau = E(0.0) / (2.0 * (1.0 + case["nu"])) * gamma0
    return w, sigma, tau
