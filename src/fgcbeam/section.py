"""Cross-sectional rigidities of the graded beam section.

The kinematics use a quintic parabolic shear function

    f(z) = z (1 - (3/2)(z/h)^2 + (2/5)(z/h)^4),   g(z) = f'(z),

whose derivative vanishes at z = +-h/2, so the transverse shear stress
satisfies the traction-free surface condition without a shear
correction factor.

``rigidity_pass`` integrates the graded stiffness of a list of sections
against the moments {1, z, z^2, f, z f, f^2} (axial) and g^2 (shear)
layer by layer.  Within every layer the modulus is E_m + (E_c - E_m) * s**p
with s an affine function of z running 0 -> 1, so the integral splits into
a polynomial part (Gauss-Legendre) and a weighted part with weight s**p
(Gauss-Jacobi).  Both rules are exact for the polynomial factors
involved (degree <= 10), for every p that ``Layup`` accepts (0 <= p <= 800).

The sections of one node count are the rows of (k, n) arrays, and each
integral is a row sum.  Every step is elementwise, and numpy sums a
contiguous row in the pairwise order of a 1-D sum, so each section gets
the bits of its lone pass; ``compute_rigidities`` is the one-row case.

The 8-point Gauss-Legendre rule and the Gauss-Jacobi rules of the paper's
p are stored bit for bit; any other p takes scipy's ``roots_jacobi``
algorithm without ``scipy.special`` (``_gauss_jacobi``), its eigenvalues
from numpy's ``eigvalsh``, so its nodes are scipy's to the bit.  The
module needs numpy and ``materials`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .materials import Layup, MaterialPair, stiffness_coeffs

# Highest polynomial moment degree is 10 (f^2); n points integrate
# degree 2n-1 exactly, 8 leaves margin.
_NPOINTS = 8

# float.hex of numpy's leggauss(_NPOINTS): 8 nodes, then 8 weights.  Stored, so that no
# command imports numpy.polynomial.
_LEGENDRE_HEX = (
    "-0x1.ebab1cb0acc66p-1 -0x1.97e4ab249f41ep-1 -0x1.0d129583284b4p-1 -0x1.77ac94f3c7344p-3"
    " 0x1.77ac94f3c7344p-3 0x1.0d129583284b4p-1 0x1.97e4ab249f41ep-1 0x1.ebab1cb0acc66p-1"
    " 0x1.9ea1d04ca03aep-4 0x1.c76fb531d2b94p-3 0x1.413c50a25560ep-2 0x1.736360b19933dp-2"
    " 0x1.736360b19933dp-2 0x1.413c50a25560ep-2 0x1.c76fb531d2b94p-3 0x1.9ea1d04ca03aep-4")

# Gauss-Legendre nodes s in (0, 1) (row 0) and weights (row 1) for the integral of phi(s) ds.
_GL = np.array([float.fromhex(t) for t in _LEGENDRE_HEX.split()]).reshape(2, _NPOINTS)
_GL = np.array([0.5 * (_GL[0] + 1.0), 0.5 * _GL[1]])

# float.hex of roots_jacobi(_NPOINTS, 0.0, p) for the paper's p: 8 nodes, then 8 weights.
_JACOBI_HEX = {
    0.0: "-0x1.ebab1cb0acc67p-1 -0x1.97e4ab249f41ep-1 -0x1.0d129583284b4p-1 -0x1.77ac94f3c7346p-3"
         " 0x1.77ac94f3c7346p-3 0x1.0d129583284b4p-1 0x1.97e4ab249f41ep-1 0x1.ebab1cb0acc67p-1"
         " 0x1.9ea1d04ca0346p-4 0x1.c76fb531d2b9fp-3 0x1.413c50a25561bp-2 0x1.736360b199344p-2"
         " 0x1.736360b199344p-2 0x1.413c50a25561bp-2 0x1.c76fb531d2b9fp-3 0x1.9ea1d04ca0346p-4",
    1.0: "-0x1.d24b79f6f42d3p-1 -0x1.6c2b407d6ea60p-1 -0x1.b49538c30d5edp-2 -0x1.722b58ae40885p-4"
         " 0x1.06486de6465c8p-2 0x1.248c5166f60afp-1 0x1.a27c106adee1bp-1 0x1.edcb1a17aa69cp-1"
         " 0x1.afe846f5003b5p-7 0x1.24568ed7e20dep-4 0x1.743d28e734a60p-3 0x1.4466cc9ad01d4p-2"
         " 0x1.b25eb749abef5p-2 0x1.ccd2e195679c0p-2 0x1.753938a8fca01p-2 0x1.6cf5cef7c9bf1p-3",
    2.0: "-0x1.b6cb0dda2eb46p-1 -0x1.4359a84f91d3ep-1 -0x1.5b3e38b395c7ap-2 -0x1.6ecf63c16ad14p-7"
         " 0x1.444bf5efefea3p-2 0x1.37d55b80a4a18p-1 0x1.ab1c19bc52dd7p-1 0x1.ef8411a4be152p-1"
         " 0x1.eb46c8f5db21dp-9 0x1.253e046c320e6p-5 0x1.1a9296f9425fbp-3 0x1.4e5a0e5166c66p-2"
         " 0x1.185c12e4c9fd8p-1 0x1.5d538fe70bd21p-1 0x1.3aa59be52e474p-1 0x1.45de855b288efp-2",
    5.0: "-0x1.632c79141addap-1 -0x1.b3aeb8601c0e1p-2 -0x1.0bc421e48007fp-3 0x1.5a3023f4b27d6p-3"
         " 0x1.cd0f13397aa98p-2 0x1.61795a6659596p-1 0x1.bd7c0b9371ac9p-1 0x1.f328d8f8d0e06p-1"
         " 0x1.61622370add09p-11 0x1.23e1525e10563p-6 0x1.32190ebcb71e3p-3 0x1.49245526334ccp-1"
         " 0x1.b1ef678806fbap+0 0x1.77e5307b574ddp+1 0x1.a62b19bf6890fp+1 0x1.ed09b0b48d105p+0",
    10.0: "-0x1.d1f0ec57d16b1p-2 -0x1.5dc556aee5f95p-3 0x1.a632a2b872ad0p-4 0x1.6f6a7fab29cdep-2"
          " 0x1.2b6cf12dd6ba2p-1 0x1.8a2d255020474p-1 0x1.cf18ecfb27f28p-1 0x1.f69daa5942798p-1"
          " 0x1.6080e918f23abp-11 0x1.5ff74ff0543b7p-5 0x1.6c2105ff90e71p-1 0x1.4d791ca26e0b4p+2"
          " 0x1.4b82516cfa4b3p+4 0x1.85035442e4592p+5 0x1.0c381f32e6d20p+6 0x1.5e869bb6e57bdp+5",
}


def shear_functions(z, h) -> tuple[np.ndarray, np.ndarray]:
    """Shear shape function f(z) = z (1 - (3/2)(z/h)^2 + (2/5)(z/h)^4), odd, and its
    slope g(z) = f'(z) = 1 - (9/2)(z/h)^2 + 2(z/h)^4, exactly 0 at z = +-h/2.

    The section quadrature and the stress recovery both call it.  (z/h)**4 is a
    Python float power per height: numpy's array ``**`` rounds some powers
    differently on hosts whose SIMD code it dispatches to, so this gives every
    height the bits of a scalar call on every host.
    """
    z = np.asarray(z, dtype=float)
    zh = z / h
    zh4 = np.array([t ** 4 for t in zh.ravel().tolist()]).reshape(zh.shape)
    # as written: 1.5 * zh * zh is (1.5 * zh) * zh, which a shared zh * zh would round differently
    return z * (1.0 - 1.5 * zh * zh + 0.4 * zh4), 1.0 - 4.5 * zh * zh + 2.0 * zh4


@dataclass(frozen=True)
class SectionRigidities:
    """Thickness-integrated stiffness moments, per unit width.

    A11 (N/m): membrane;  B11 (N): membrane-bending;  D11 (N m): bending;
    B11s (N), D11s (N m), H11s (N m): couplings with the shear function;
    A55s (N/m): transverse shear rigidity (integral of C55 g^2).
    """

    A11: float
    B11: float
    D11: float
    B11s: float
    D11s: float
    H11s: float
    A55s: float


def _jacobi_values(n: int, a: float, b: float, xs: list[float]) -> list[float]:
    """P_n^(a,b)(x) / binom(n + a, n) at each x, for n >= 2.

    The forward recurrence of scipy's ``eval_jacobi`` for an integer degree, term for
    term and in its order, in Python floats.
    """
    steps = []
    for k in range(1, n):
        k = float(k)
        t = 2 * k + a + b
        steps.append((t * (t + 1) * (t + 2), 2 * k * (k + b) * (t + 2),
                      2 * (k + a + 1) * (k + a + b + 1) * t))
    values = []
    for x in xs:
        d = (a + b + 2) * (x - 1) / (2 * (a + 1))
        v = d + 1
        for c_v, c_d, c in steps:
            d = (c_v * (x - 1) * v + c_d * d) / c
            v = d + v
        values.append(v)
    return values


def _gauss_jacobi(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s in (0,1) and weights for integral of s**p * phi(s) ds, for p > 0.

    This is scipy's ``roots_jacobi(_NPOINTS, 0, p)`` without ``scipy.special``: the
    eigenvalues of the tridiagonal Jacobi matrix (Golub and Welsch), then one Newton
    step on P_n^(0,p).  numpy's ``eigvalsh`` (LAPACK ``dsyevd``) and scipy's ``dsbevd``
    both hand an already tridiagonal matrix's diagonal and off-diagonal unchanged to
    ``dsterf``, so the eigenvalues are ``dsbevd``'s bit for bit.  With alpha = 0 scipy's band
    terms simplify exactly, and the matrix and the Newton step take scipy's operations
    in scipy's order, so the nodes are scipy's to the bit.  The weights are
    1 / (P_(n-1)(x) P_n'(x)), scaled to sum to 1/(p+1): no log rescaling, beta function
    or 2**(p+1) factor, which would overflow float64 near p ~ 1020.
    """
    n = _NPOINTS
    J = np.zeros((n, n))
    J[0, 0] = p / (2 + p)
    for k in range(1, n):
        t = 2.0 * k + p
        J[k, k - 1] = 2.0 / t * math.sqrt(k * (k + p) / (t + 1)) * (
            1.0 if k == 1 else math.sqrt(k * (k + p) / (t - 1)))
        J[k, k] = p * p / (t * (t + 2))
    x = np.linalg.eigvalsh(J).tolist()       # reads the lower triangle
    # P_n' = (n + p + 1)/2 * P_(n-1)^(1,p+1), whose binomial factor binom(n, n-1) is n
    dp = [0.5 * (n + p + 1) * (n * v) for v in _jacobi_values(n - 1, 1.0, p + 1, x)]
    x = [xi - v / d for xi, v, d in zip(x, _jacobi_values(n, 0.0, p, x), dp)]
    w = [1.0 / (v * d) for v, d in zip(_jacobi_values(n - 1, 0.0, p, x), dp)]
    scale = 1.0 / ((p + 1) * math.fsum(w))
    return np.array([0.5 * (xi + 1.0) for xi in x]), np.array([wi * scale for wi in w])


@lru_cache(maxsize=128)
def _jacobi_rule(p: float) -> np.ndarray:
    """Nodes s in (0,1) (row 0) and weights (row 1) for integral of s**p * phi(s) ds."""
    if p not in _JACOBI_HEX:
        return np.array(_gauss_jacobi(p))
    x, w = np.array([float.fromhex(t) for t in _JACOBI_HEX[p].split()]).reshape(2, _NPOINTS)
    return np.array([0.5 * (x + 1.0), w * 0.5 ** (p + 1.0)])


def _segments(mat: MaterialPair, layup: Layup) -> list[tuple]:
    """The section's quadrature in segments of ``_NPOINTS`` nodes: (a, b, t, e, rule) with
    nodes z = a + b s and coefficients c = t w e, where s and w are the rule's rows, its
    nodes and weights, so that sum_i c_i * m(z_i) = integral of E(z) * m(z) dz (exact for
    polynomial m up to degree 2 * _NPOINTS - 1).

    Per layer of ``layup.layers``, of thickness t, the ceramic fraction is a constant or
    s**p with s running 0 -> 1 up the layer ("up", z = lo + t s) or down it
    ("down", z = hi - t s, which hi + (-t) s rounds alike); the constant part
    of E uses Gauss-Legendre and the graded part Gauss-Jacobi with weight s**p.
    """
    dE = mat.E_c - mat.E_m
    segments = []
    for _, lo, hi, grade in layup.layers:
        t = hi - lo
        graded = grade == "up" or grade == "down"
        # constant part: the metal baseline of a graded layer, or the layer's own modulus
        segments.append((lo, t, t, mat.E_m if graded else mat.E_m + dE * grade, _GL))
        if graded:
            # graded ceramic excess, weight s**p
            rule = _jacobi_rule(layup.p)
            segments.append((lo, t, t, dE, rule) if grade == "up" else (hi, -t, t, dE, rule))
    return segments


def _modulus_nodes(members: list[tuple[MaterialPair, Layup, list[tuple]]]
                   ) -> tuple[np.ndarray, ...]:
    """Quadrature nodes z and coefficients c of sections (mat, layup, their ``_segments``),
    one row of ``_NPOINTS`` per segment, and each segment's section h and nu as a column:
    a section of n nodes is n / ``_NPOINTS`` consecutive rows."""
    a, b, t, e, h, nu = np.array([(a, b, t, e, layup.h, mat.nu) for mat, layup, segments in members
                                  for a, b, t, e, _ in segments]).T[:, :, None]
    s, w = np.array([segment[4] for _, _, segments in members
                     for segment in segments]).swapaxes(0, 1)
    return a + b * s, t * w * e, h, nu


def _integrals(members: list[tuple[MaterialPair, Layup, list[tuple]]]
               ) -> list[SectionRigidities | OverflowError]:
    """The rigidities of k sections (mat, layup, their ``_segments``) of n nodes each.

    Every step is elementwise over the nodes, and each rigidity is the sum of a
    section's n consecutive nodes, a contiguous row of a (k, n) array.  If
    anything overflows and k > 1, each section is integrated again alone, which gives
    it the result of its lone pass: its rigidities, or an ``OverflowError`` that names
    geometry.h or the larger modulus's key, whichever is the larger factor of E h^3.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            z, c, h, nu = _modulus_nodes(members)
            c11, c55 = stiffness_coeffs(c, nu)
            f, g = shear_functions(z, h)
            # c11 z z is (c11 z) z, and so on: each product as written, from its shared factor
            cz, cf, cg = c11 * z, c11 * f, c55 * g
            terms = np.array((c11, cz, cz * z, cf, cz * f, cf * f, cg * g))
            # each (term, section) row in the pairwise order of a 1-D sum
            sums = terms.reshape(7, len(members), -1).sum(axis=2)
            return [SectionRigidities(*v) for v in sums.T.tolist()]
    except FloatingPointError as err:
        if len(members) > 1:
            return [_integrals([member])[0] for member in members]
        (mat, layup, _), = members
        E, key = max((mat.E_m, "material.E_m"), (mat.E_c, "material.E_c"))
        # the rigidities scale as E h and E h^3: name the key of the larger factor of E h^3
        key = key if E ** (1 / 3) >= layup.h else "geometry.h"
        error = OverflowError(f"{key}: E = {E:g} Pa and h = {layup.h:g} m give section "
                              f"rigidities (A11 ~ E h, D11 ~ E h^3) beyond float64: {err}")
        error.__cause__ = err
        return [error]


def rigidity_pass(sections: list[tuple[MaterialPair, Layup]]
                  ) -> tuple[list[SectionRigidities], OverflowError | None]:
    """The rigidities of each (material, layup) section, in input order, up to the first
    that overflows, and that section's ``OverflowError``, or None.

    The sections of one node count are integrated together (``_integrals``), and each
    gets the bits of its lone ``compute_rigidities``.
    """
    groups: dict[int, list] = {}
    for i, (mat, layup) in enumerate(sections):
        segments = _segments(mat, layup)
        groups.setdefault(len(segments), []).append((i, (mat, layup, segments)))
    results = [None] * len(sections)
    for members in groups.values():
        for (i, _), result in zip(members, _integrals([member for _, member in members])):
            results[i] = result
    for i, result in enumerate(results):
        if isinstance(result, OverflowError):
            return results[:i], result
    return results, None


def compute_rigidities(mat: MaterialPair, layup: Layup) -> SectionRigidities:
    """Integrate the seven rigidities over the section (unit width): the one-section
    ``rigidity_pass``.

    Only the layers of ``layup.layers`` contribute.  The result is linear in
    (E_m, E_c) and the (A11, B11, B11s; B11, D11, D11s; B11s, D11s,
    H11s) block is positive semi-definite by construction.  A rigidity
    beyond the float64 range raises an ``OverflowError``, before numpy can
    warn, that names geometry.h or the larger modulus's key, whichever is
    the larger factor of E h^3.
    """
    (rig,) = _integrals([(mat, layup, _segments(mat, layup))])
    if isinstance(rig, OverflowError):
        raise rig
    return rig
