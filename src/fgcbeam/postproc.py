"""Field recovery and nondimensional reporting.

Displacements, generalized strains, point stresses, stress resultants
and through-thickness stress profiles are recovered from a solved
displacement vector.  Axial stress follows

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import GeneralizedStrains, hermite_shape, lagrange_shape, strain_rows
from .materials import Layup, MaterialPair, effective_modulus, stiffness_coeffs
from .section import SectionRigidities, f_shear, g_shear
from .solver import BoundaryCondition, Solution

_NODE_SNAP = 1e-9  # fraction of L within which x counts as a node


@dataclass(frozen=True)
class StressResultants:
    """Axial force, bending moment, shear-warp moment, shear force."""

    N_x: float
    M_x: float
    S_x: float
    Q_xz: float


@dataclass(frozen=True)
class StressSample:
    """Pointwise stress state at (x, z), dimensional (Pa)."""

    x: float
    z: float
    sigma_x: float
    tau_xz: float


@dataclass(frozen=True)
class ProfileRow:
    """One row of a through-thickness profile.

    side is '' for ordinary grid points, 'below'/'above' for the pair
    of one-sided samples straddling a layer interface.
    """

    z: float
    z_over_h: float
    sigma_x: float
    tau_xz: float
    side: str = ""


def _locate(sol: Solution, x: float) -> tuple[int, float]:
    """Element index and local coordinate for a position x in [0, L]."""
    L, ne, Le = sol.mesh.L, sol.mesh.ne, sol.mesh.Le
    if x < -_NODE_SNAP * L or x > L * (1 + _NODE_SNAP):
        raise ValueError(f"x = {x} outside the beam [0, {L}]")
    x = min(max(x, 0.0), L)
    e = min(int(x / Le), ne - 1)
    return e, x - e * Le


def displacement_at(sol: Solution, x: float) -> tuple[float, float, float, float]:
    """Interpolated (u0, w0, dw0/dx, phi_x) at x."""
    e, xi = _locate(sol, x)
    Le = sol.mesh.Le
    de = sol.d[sol.mesh.element_dofs(e)]
    N, _ = lagrange_shape(xi, Le)
    Nb, dNb, _ = hermite_shape(xi, Le)
    u = N[0] * de[0] + N[1] * de[4]
    phi = N[0] * de[3] + N[1] * de[7]
    wdofs = de[[1, 2, 5, 6]]
    w = float(Nb @ wdofs)
    dw = float(dNb @ wdofs)
    return float(u), w, dw, float(phi)


def _element_strains(sol: Solution, e: int, xi: float) -> np.ndarray:
    de = sol.d[sol.mesh.element_dofs(e)]
    B0, B1, B2, Bs = strain_rows((xi,), sol.mesh.element_geometry())[0]
    return np.array([B0 @ de, B1 @ de, B2 @ de, Bs @ de])


def strains_at(sol: Solution, x: float) -> GeneralizedStrains:
    """Generalized strains at x, averaging both elements at interior nodes."""
    mesh = sol.mesh
    e, xi = _locate(sol, x)
    snap = _NODE_SNAP * mesh.L
    node = int(round(x / mesh.Le))
    if abs(x - node * mesh.Le) <= snap and 0 < node < mesh.ne:
        left = _element_strains(sol, node - 1, mesh.Le)
        right = _element_strains(sol, node, 0.0)
        eps = 0.5 * (left + right)
    else:
        eps = _element_strains(sol, e, xi)
    return GeneralizedStrains(*map(float, eps))


def _stresses(eps: GeneralizedStrains, mat: MaterialPair, layup: Layup, z: float,
              side: str | None) -> tuple[float, float]:
    """(sigma_x, tau_xz) at height z from the generalized strains of a station."""
    E = effective_modulus(mat, layup, z, side=side)
    C11, C55 = stiffness_coeffs(E, mat.nu)
    h = layup.h
    sigma = C11 * (eps.eps0 + z * eps.eps1 + float(f_shear(z, h)) * eps.eps2)
    tau = C55 * float(g_shear(z, h)) * eps.gamma0
    return sigma, tau


def stress_at(sol: Solution, mat: MaterialPair, layup: Layup, x: float, z: float,
              side: str | None = None) -> StressSample:
    """Recover (sigma_x, tau_xz) at a point; ``side`` resolves interface z."""
    sigma, tau = _stresses(strains_at(sol, x), mat, layup, z, side)
    return StressSample(x=x, z=z, sigma_x=sigma, tau_xz=tau)


def resultants_at(sol: Solution, rig: SectionRigidities, x: float) -> StressResultants:
    """Stress resultants from the rigidity matrix times the strains."""
    vals = rig.resultant_matrix() @ strains_at(sol, x).as_array()
    return StressResultants(*map(float, vals))


def deflection_point(bc: BoundaryCondition, L: float) -> float:
    """Reporting station for the deflection: midspan, or the tip for CF."""
    return L if bc is BoundaryCondition.CF else L / 2.0


def nondimensionalize(value: float, kind: str, mat: MaterialPair,
                      L: float, h: float, q: float) -> float:
    """Scale a dimensional deflection or stress to its table form.

    kind: 'deflection' -> 100 E_m h^3 / (q L^4) * w
          'sigma' or 'tau' -> (h / (q L)) * stress
    Defined for a uniform load magnitude q > 0.
    """
    if q <= 0:
        raise ValueError("nondimensionalization requires a positive load magnitude q")
    if kind == "deflection":
        return 100.0 * mat.E_m * h**3 / (q * L**4) * value
    if kind in ("sigma", "tau"):
        return h / (q * L) * value
    raise ValueError(f"kind must be 'deflection', 'sigma' or 'tau', got {kind!r}")


def thickness_profile(sol: Solution, mat: MaterialPair, layup: Layup, x: float,
                      n_samples: int) -> list[ProfileRow]:
    """Stress profile over z in [-h/2, h/2] at station x.

    The grid is uniform with both surfaces included; every interior
    layer interface is sampled twice (once per adjacent layer) since
    sigma_x jumps wherever E(z) does.  Rows are ordered bottom to top,
    'below' before 'above' at an interface.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples across the thickness")
    h = layup.h
    h1, h2, h3, h4 = layup.interfaces
    eps = 1e-12 * h
    grid = list(np.linspace(h1, h4, n_samples))
    inner = [zi for zi in (h2, h3) if h1 + eps < zi < h4 - eps]
    # replace grid points that collide with an interface by the two-sided pair
    pts: list[tuple[float, str]] = [(z, "") for z in grid
                                    if all(abs(z - zi) > eps for zi in inner)]
    seen = set()
    for zi in inner:
        if any(abs(zi - zj) <= eps for zj in seen):
            continue
        seen.add(zi)
        pts.append((zi, "below"))
        pts.append((zi, "above"))
    pts.sort(key=lambda t: (t[0], 0 if t[1] in ("", "below") else 1))
    strains = strains_at(sol, x)
    rows = []
    for z, side in pts:
        sigma, tau = _stresses(strains, mat, layup, z, side or None)
        rows.append(ProfileRow(z=z, z_over_h=z / h, sigma_x=sigma, tau_xz=tau, side=side))
    return rows
