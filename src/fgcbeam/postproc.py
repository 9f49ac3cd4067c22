"""Field recovery and nondimensional reporting.

The deflection, the generalized strains, the stresses at any heights and
through-thickness stress profiles are recovered from solved DOF vectors.
Axial stress follows

    sigma_x(x, z) = C11(z) (eps0 + z eps1 + f(z) eps2)

and the transverse shear stress is constitutive,

    tau_xz(x, z) = C55(z) g(z) gamma0(x),

which vanishes identically at z = +-h/2 because g does.

Nondimensional quantities normalize by the metal modulus and the
uniform load:

    w_bar     = 100 E_m h^3 / (q L^4) * w0      (midspan for SS/CC, tip for CF)
    sigma_bar = (h / q L) * sigma_x             (reported at x = L/2)
    tau_bar   = (h / q L) * tau_xz              (reported at x = 0)

The bending strain eps1 = -w0'' is element-wise linear and jumps across
element interfaces; evaluation exactly on an interior node averages the
two adjacent elements (symmetric cases make the limits equal, and the
left end support, where tau is reported, uses the only element
available).

Recovery multiplies the Hermite or strain rows at a station x by the
DOFs d of one solution, an (ndof,) array, or of an (M, ndof) stack on
one mesh:
``_deflections(d, mesh, x)`` gives w0 and ``_strains(d, mesh, xs)`` the
generalized strains.  Every product is ``np.vecdot`` (a dot product per
row), whose bits, unlike a ``gemm``'s, do not depend on how many
solutions a stack holds; the case engine always passes a stack.  The
gathered DOFs are copied to contiguous rows (``take``), so a 1-D ``d``
and each row of a stack are summed in one order.  ``table_scales``
rejects a load magnitude q <= 0, or one that leaves a scale infinite,
with a ``ConfigError`` that names load.magnitude; ``CaseConfig`` calls it
once per uniform-load case, when the case is built.

The factors C11(z), f(z) and C55(z) g(z) come from one kernel,
``_stress_factors``: the case engine makes one two-point call (z = h/2
and z = 0) per section, and a profile makes one call per station.  It
takes E(z) at all its heights from one ``materials.effective_moduli``
pass over the layers.  Its powers (V = s**p, and (z/h)**4 in
``section.shear_functions``) are Python float powers, so every z gets the
bits of a scalar call on every host.  A profile is built as columns
(``_profile_columns``), which the CLI formats as they are.
"""

from __future__ import annotations

import math

import numpy as np

from .element import _hermite, strain_rows
from .materials import (_Z_SNAP, ConfigError, Layup, MaterialPair, effective_moduli,
                        stiffness_coeffs)
from .section import shear_functions
from .solver import BoundaryCondition, Mesh

_NODE_SNAP = 1e-9  # fraction of L within which x counts as a node


def _locate(mesh: Mesh, x: float) -> tuple[int, float]:
    """Element index and local coordinate for a position x in [0, L]."""
    L, ne, Le = mesh.L, mesh.ne, mesh.Le
    if not -_NODE_SNAP * L <= x <= L * (1 + _NODE_SNAP):      # NaN fails too
        raise ValueError(f"x = {x} outside the beam [0, {L}]")
    x = min(max(x, 0.0), L)
    e = min(int(x / Le), ne - 1)
    return e, x - e * Le


def _deflections(d: np.ndarray, mesh: Mesh, x: float) -> np.ndarray:
    """w0 at x from DOFs (..., ndof): the Hermite row Nb times the element's w0 DOFs,
    shape (...)."""
    e, xi = _locate(mesh, x)
    Nb = _hermite(float(xi), float(mesh.Le))[0]
    return np.vecdot(Nb, d[..., mesh.element_dofs(e)].take([1, 2, 5, 6], axis=-1))


def _strains(d: np.ndarray, mesh: Mesh, xs) -> list[np.ndarray]:
    """Generalized strains (eps0, eps1, eps2, gamma0) at each x in xs from DOFs
    (..., ndof): one (..., 4) array per x.  Inside an element they are its strain rows
    times its DOFs; at an interior node, the average of both adjacent elements'.  One
    ``strain_rows`` call gives every row."""
    stations = []
    for x in xs:
        e, xi = _locate(mesh, x)
        node = int(round(x / mesh.Le))
        interior = abs(x - node * mesh.Le) <= _NODE_SNAP * mesh.L and 0 < node < mesh.ne
        stations.append(((node - 1, mesh.Le), (node, 0.0)) if interior else ((e, xi),))
    rows = iter(strain_rows([xi for station in stations for _, xi in station], mesh))
    eps = [[np.vecdot(next(rows), d[..., mesh.element_dofs(e)][..., None, :]) for e, _ in station]
           for station in stations]
    return [ep[0] if len(ep) == 1 else 0.5 * (ep[0] + ep[1]) for ep in eps]


def _stress_factors(mat: MaterialPair, layup: Layup, z,
                    sides) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C11, f, C55 g) at the heights z, each with its side (None, '', 'below' or 'above'):
    the factors that turn a station's strains into stresses there.  E(z) is one
    ``effective_moduli`` pass; f and g are ``section.shear_functions``."""
    z = np.asarray(z, dtype=float)
    E = np.array(effective_moduli(mat, layup, z.tolist(), [side or None for side in sides]))
    C11, C55 = stiffness_coeffs(E, mat.nu)
    f, g = shear_functions(z, layup.h)
    return C11, f, C55 * g


def _stresses(eps, factors, z):
    """(sigma_x, tau_xz) at the heights z from a station's strains and ``_stress_factors``."""
    eps0, eps1, eps2, gamma0 = eps
    C11, f, C55g = factors
    return C11 * (eps0 + z * eps1 + f * eps2), C55g * gamma0


def deflection_point(bc: BoundaryCondition, L: float) -> float:
    """Reporting station for the deflection: midspan, or the tip for CF."""
    return L if bc is BoundaryCondition.CF else L / 2.0


def table_scales(E_m: float, L: float, h: float, q: float) -> tuple[float, float]:
    """Factors (100 E_m h^3 / (q L^4), h / (q L)) that turn a deflection and a
    stress into their table form; defined for a uniform load magnitude q > 0 that
    leaves both finite, and a ConfigError naming load.magnitude otherwise."""
    if q <= 0:
        raise ConfigError("load.magnitude: nondimensionalization requires a positive load "
                          "magnitude q")
    scales = 100.0 * E_m * h**3 / (q * L**4), h / (q * L)
    if not all(map(math.isfinite, scales)):   # a float quotient overflows to inf, unraised
        raise ConfigError(f"load.magnitude: q = {q:g} puts a table scale beyond float64: "
                          f"100 E_m h^3 / (q L^4) = {scales[0]:g}, h / (q L) = {scales[1]:g}")
    return scales


def _profile_columns(d: np.ndarray, mesh: Mesh, mat: MaterialPair, layup: Layup, x: float,
                     n_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                              list[str]]:
    """Stress profile over z in [-h/2, h/2] at station x of the DOFs d on mesh, as columns:
    z, z/h, sigma_x and tau_xz (arrays) and side (a list), from one ``_stress_factors`` call.

    The grid is uniform with both surfaces included; every interior layer interface is
    sampled twice, once per adjacent layer, since sigma_x jumps wherever E(z) does.  Rows
    run bottom to top, 'below' before 'above' at an interface, and side is '' elsewhere.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples across the thickness")
    h = layup.h
    h1, h4, eps = -h / 2, h / 2, _Z_SNAP * h
    inner = []    # the bottom of each layer above the first, off the surfaces and unrepeated
    for _, zi, _, _ in layup.layers[1:]:
        if h1 + eps < zi < h4 - eps and all(abs(zi - zj) > eps for zj in inner):
            inner.append(zi)
    grid = np.linspace(h1, h4, n_samples)
    # replace grid points that collide with an interface by the two-sided pair
    grid = grid[np.all(np.abs(grid[:, None] - np.array(inner)) > eps, axis=1)]
    at = np.repeat(np.searchsorted(grid, inner), 2)     # each pair goes in z order
    z = np.insert(grid, at, np.repeat(inner, 2))
    sides = np.insert(np.full(len(grid), "", object), at,
                      ["below", "above"] * len(inner)).tolist()
    sigma, tau = _stresses(_strains(d, mesh, [x])[0],
                           _stress_factors(mat, layup, z, sides), z)
    return z, z / h, sigma, tau, sides
