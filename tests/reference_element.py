"""Reference element kernel: the per-Gauss-point ``np.outer`` loop.

This is the scalar formulation the vectorised kernel in
``fgcbeam.element`` replaced, kept as the oracle that it, the band
assembly and stress recovery must match bit for bit.  Shape functions
are evaluated in NumPy float64 scalar arithmetic, the stiffness sums
seven outer-product terms per Gauss point, and the band takes one
strided slice add per upper entry of ``Ke``.  Like the program's, the
element functions take a ``Mesh`` and read its ``Le`` and ``inv_R``.
``dense_from_band`` expands a band to the dense matrix for tests that
need one.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_GAUSS_X, _GAUSS_W = leggauss(4)


def lagrange_shape(xi, Le):
    N = np.array([1.0 - xi / Le, xi / Le])
    dN = np.array([-1.0 / Le, 1.0 / Le])
    return N, dN


def hermite_shape(xi, Le):
    x, L = xi, Le
    N = np.array([
        1.0 - 3.0 * x**2 / L**2 + 2.0 * x**3 / L**3,
        x - 2.0 * x**2 / L + x**3 / L**2,
        3.0 * x**2 / L**2 - 2.0 * x**3 / L**3,
        -(x**2) / L + x**3 / L**2,
    ])
    dN = np.array([
        -6.0 * x / L**2 + 6.0 * x**2 / L**3,
        1.0 - 4.0 * x / L + 3.0 * x**2 / L**2,
        6.0 * x / L**2 - 6.0 * x**2 / L**3,
        -2.0 * x / L + 3.0 * x**2 / L**2,
    ])
    d2N = np.array([
        -6.0 / L**2 + 12.0 * x / L**3,
        -4.0 / L + 6.0 * x / L**2,
        6.0 / L**2 - 12.0 * x / L**3,
        -2.0 / L + 6.0 * x / L**2,
    ])
    return N, dN, d2N


def strain_displacement(xi, mesh):
    N, dN = lagrange_shape(xi, mesh.Le)
    Nb, _, d2Nb = hermite_shape(xi, mesh.Le)
    r = mesh.inv_R
    B0 = np.array([dN[0], r * Nb[0], r * Nb[1], 0.0,
                   dN[1], r * Nb[2], r * Nb[3], 0.0])
    B1 = np.array([0.0, -d2Nb[0], -d2Nb[1], 0.0,
                   0.0, -d2Nb[2], -d2Nb[3], 0.0])
    B2 = np.array([0.0, 0.0, 0.0, dN[0], 0.0, 0.0, 0.0, dN[1]])
    Bs = np.array([0.0, 0.0, 0.0, N[0], 0.0, 0.0, 0.0, N[1]])
    return B0, B1, B2, Bs


def element_stiffness(rig, mesh):
    K = np.zeros((8, 8))
    for x, w in zip(_GAUSS_X, _GAUSS_W):
        xi = 0.5 * mesh.Le * (x + 1.0)
        wi = 0.5 * mesh.Le * w
        B0, B1, B2, Bs = strain_displacement(xi, mesh)
        K += wi * (
            rig.A11 * np.outer(B0, B0)
            + rig.B11 * (np.outer(B0, B1) + np.outer(B1, B0))
            + rig.B11s * (np.outer(B0, B2) + np.outer(B2, B0))
            + rig.D11 * np.outer(B1, B1)
            + rig.D11s * (np.outer(B1, B2) + np.outer(B2, B1))
            + rig.H11s * np.outer(B2, B2)
            + rig.A55s * np.outer(Bs, Bs)
        )
    return K


def dense_from_band(ab):
    """The dense symmetric matrix held in LAPACK upper band storage ``ab``."""
    half_band, n = ab.shape[0] - 1, ab.shape[1]
    K = np.zeros((n, n))
    for k in range(half_band + 1):
        i = np.arange(n - k)
        K[i, i + k] = K[i + k, i] = ab[half_band - k, k:]
    return K


def assemble_banded(mesh, rig, half_band=7):
    ab = np.zeros((half_band + 1, mesh.ndof))
    Ke = element_stiffness(rig, mesh)
    stop = 4 * mesh.ne
    for j in range(8):
        for i in range(j + 1):
            ab[half_band + i - j, j:j + stop:4] += Ke[i, j]
    return ab
