"""Two-node curved beam element: 4 DOFs per node [u0, w0, w0,x, phi_x].

Axial displacement and shear rotation are interpolated with linear
Lagrange functions, the deflection with C1 Hermite cubics.  The element
DOF vector is node-interleaved:

    [u0_1, w0_1, w0,x_1, phi_1, u0_2, w0_2, w0,x_2, phi_2]

Generalized strains (membrane eps0 = u0' + w0/R, bending
eps1 = -w0'', shear-warp eps2 = phi', shear gamma0 = phi) map from the
DOFs through the four strain-displacement rows (B0, B1, B2, Bs).  All
integrands are polynomials of degree <= 6, so a fixed 4-point Gauss
rule (exact to degree 7, numpy's ``leggauss(4)`` stored bit for bit)
integrates the stiffness exactly; the consistent load of a uniform q is
written out in closed form.  Every element of a ``Mesh`` has its length
``Le`` and curvature ``inv_R``.

The shape functions are evaluated in one place, ``_lagrange`` and
``_hermite``, in Python floats.  One builder, ``strain_rows``, turns
them into the rows at any set of points as a (n, 4, 8) array; the
stiffness (at the Gauss points), the solver's band fill (through
``element_stiffness``) and stress recovery all take their rows from it,
and displacement recovery takes the shape values directly.  The stiffness
keeps the term and point order of a per-point ``np.outer`` loop, so
results are bit-identical to that loop, not merely close.  This is
deliberate: a closed form ``Ke = sum_k rig_k Le^a (1/R)^b C_k`` or a
matrix-product reformulation rounds differently, which changes printed
outputs in their last digits and moves near-zero stresses (a
cantilever's mid-span profile) by parts in 1e8.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .section import SectionRigidities

if TYPE_CHECKING:
    from .solver import Mesh

# float.hex of numpy's leggauss(4), 4 nodes then 4 weights: stored, so that no command
# imports numpy.polynomial
_GAUSS_X, _GAUSS_W = np.array([float.fromhex(t) for t in (
    "-0x1.b8e6dbcf63985p-1 -0x1.5c23fd9dd3dfcp-2 0x1.5c23fd9dd3dfcp-2 0x1.b8e6dbcf63985p-1"
    " 0x1.64340f7e7b666p-2 0x1.4de5f840c24cdp-1 0x1.4de5f840c24cdp-1 0x1.64340f7e7b666p-2"
).split()]).reshape(2, 4)


def _lagrange(x: float, L: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Linear shape functions (1 - x/L, x/L) and their derivatives, in Python floats."""
    return (1.0 - x / L, x / L), (-1.0 / L, 1.0 / L)


def _hermite(x: float, L: float) -> tuple[tuple[float, ...], ...]:
    """Hermite cubics on [0, L] and their first two derivatives, in Python floats.

    Ordering [translation_1, slope_1, translation_2, slope_2] with the
    nodal properties N1(0) = 1, N2'(0) = 1, N3(L) = 1, N4'(L) = 1.
    """
    x2, x3, L2, L3 = x**2, x**3, L**2, L**3
    return (
        (1.0 - 3.0 * x2 / L2 + 2.0 * x3 / L3,
         x - 2.0 * x2 / L + x3 / L2,
         3.0 * x2 / L2 - 2.0 * x3 / L3,
         -x2 / L + x3 / L2),
        (-6.0 * x / L2 + 6.0 * x2 / L3,
         1.0 - 4.0 * x / L + 3.0 * x2 / L2,
         6.0 * x / L2 - 6.0 * x2 / L3,
         -2.0 * x / L + 3.0 * x2 / L2),
        (-6.0 / L2 + 12.0 * x / L3,
         -4.0 / L + 6.0 * x / L2,
         6.0 / L2 - 12.0 * x / L3,
         -2.0 / L + 6.0 * x / L2),
    )


def strain_rows(xs, mesh: Mesh) -> np.ndarray:
    """Rows (B0, B1, B2, Bs) at each local coordinate in xs: shape (len(xs), 4, 8).

    Every entry is computed in Python floats by ``_lagrange`` and
    ``_hermite``, which ``postproc`` also uses for displacements; array
    powers would round differently.
    """
    Le, r = float(mesh.Le), float(mesh.inv_R)
    flat = []
    for x in xs:
        (l0, l1), (dl0, dl1) = _lagrange(float(x), Le)
        (n0, n1, n2, n3), _, (c0, c1, c2, c3) = _hermite(float(x), Le)
        flat += (dl0, r * n0, r * n1, 0.0, dl1, r * n2, r * n3, 0.0,
                 0.0, -c0, -c1, 0.0, 0.0, -c2, -c3, 0.0,
                 0.0, 0.0, 0.0, dl0, 0.0, 0.0, 0.0, dl1,
                 0.0, 0.0, 0.0, l0, 0.0, 0.0, 0.0, l1)
    return np.array(flat).reshape(-1, 4, 8)


# The seven terms of the bilinear form in summation order: the row pair
# (a, b) of (B0, B1, B2, Bs), and whether the term adds B_b B_a^T.
_LEFT = np.array([0, 0, 0, 1, 1, 2, 3])
_RIGHT = np.array([0, 1, 2, 1, 2, 2, 3])
_CROSS = np.array([False, True, True, False, True, False, False])[:, None, None]


def element_stiffness(rigs: Sequence[SectionRigidities], mesh: Mesh) -> np.ndarray:
    """Symmetric element stiffness by 4-point Gauss integration.

    Returns the (M, 8, 8) stack of the 8x8 ``Ke`` of each of the M
    ``SectionRigidities`` in ``rigs``.  At each Gauss point the integrand
    is the sum, left to right, of

        A11 B0B0 + B11 (B0B1 + B1B0) + B11s (B0B2 + B2B0) + D11 B1B1
        + D11s (B1B2 + B2B1) + H11s B2B2 + A55s BsBs

    (outer products), and the points are summed in order, from 0.  The
    seven products of all four points are formed as one (M, 4, 7, 8, 8)
    array; every step is elementwise or a sum in index order, so each
    slice is bit-identical to a per-point loop of ``np.outer`` calls for
    its rigidities alone, and exactly symmetric.  A product or sum beyond
    float64 raises a ``FloatingPointError`` before numpy can warn.
    """
    half = 0.5 * mesh.Le
    B = strain_rows(half * (_GAUSS_X + 1.0), mesh)
    with np.errstate(over="raise", invalid="raise"):
        P = B.take(_LEFT, axis=1)[:, :, :, None] * B.take(_RIGHT, axis=1)[:, :, None, :]
        P = np.where(_CROSS, P + P.swapaxes(2, 3), P)
        P = P * np.array([[r.A11, r.B11, r.B11s, r.D11, r.D11s, r.H11s, r.A55s]
                          for r in rigs])[:, None, :, None, None]
        S = P.sum(axis=2)                   # over a non-contiguous axis numpy adds in order
        S *= (half * _GAUSS_W)[:, None, None]
        return np.add.reduce(S, axis=1, initial=0.0)


def element_load_udl(q: float, Le: float) -> np.ndarray:
    """Work-equivalent nodal loads of a uniform transverse load q (N/m)."""
    return np.array([0.0, q * Le / 2.0, q * Le**2 / 12.0, 0.0,
                     0.0, q * Le / 2.0, -q * Le**2 / 12.0, 0.0])
