"""Power-law graded material models for FG sandwich beam sections.

Three through-thickness layouts are supported:

* Type A: a single layer graded from metal (bottom) to ceramic (top),
  with ceramic volume fraction V(z) = ((z + h/2)/h)**p.
* Type B: graded face sheets over a fully ceramic core.  Each face is
  graded from metal at the outer surface to ceramic at the core
  interface.
* Type C: homogeneous face sheets (metal bottom, ceramic top) with a
  core graded from metal to ceramic.

Effective properties follow the rule of mixtures
P(z) = P_m + (P_c - P_m) * V(z), with Poisson's ratio held constant.
The layer rule and the grade are one kernel, ``Layup._fractions``, which
takes a whole list of heights in one pass, each V = s**p a Python float
power; ``effective_moduli`` mixes its fractions, and the stress recovery
calls it once per station.  All functions here are pure and safe to call
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Malformed or inconsistent case configuration; the message starts with the INI key."""


class LayupKind(enum.Enum):
    """Section layout family: single graded layer or sandwich variant."""

    A = "A"  # single FG layer
    B = "B"  # FG faces, ceramic core
    C = "C"  # homogeneous faces, FG core


#: Ceramic fraction of layers 0, 1 and 2 (bottom to top) of each kind: a constant, or
#: s**p with s running 0 -> 1 across the layer, upward ("up") or downward ("down").
#: Type A is Type C with zero-thickness faces.
LAYER_GRADES = {
    LayupKind.A: (0.0, "up", 1.0),
    LayupKind.B: ("up", 1.0, "down"),
    LayupKind.C: (0.0, "up", 1.0),
}


@dataclass(frozen=True)
class MaterialPair:
    """Metal/ceramic phase pair with a shared Poisson's ratio.

    E_m, E_c : Young's moduli of the metal and ceramic phases (Pa)
    nu       : Poisson's ratio, assumed constant through the thickness
    """

    E_m: float
    E_c: float
    nu: float

    def __post_init__(self):
        for name, E in (("E_m", self.E_m), ("E_c", self.E_c)):
            if not 0 < E < math.inf:
                raise ConfigError(f"material.{name}: phase modulus must be positive and finite, "
                                  f"got {E}")
        if not 0.0 <= self.nu < 0.5:
            raise ConfigError(f"material.nu: Poisson's ratio must satisfy 0 <= nu < 0.5, "
                              f"got {self.nu}")


#: Al / alumina pair used by the embedded benchmark tables (E in Pa).
DEFAULT_MATERIAL = MaterialPair(E_m=70e9, E_c=380e9, nu=0.3)


#: Fraction of h within which z counts as lying on an interface or a surface.
_Z_SNAP = 1e-12

# Highest power-law index: the range over which the tests hold the section's Gauss-Jacobi
# rules to scipy's nodes and to an mpmath rule.  The computed rules carry no 2**(p+1) factor,
# which overflowed float64 near p ~ 1020; beyond this cap a graded layer is numerically pure
# metal outside a skin of relative thickness 1/p.
_P_MAX = 800.0


@dataclass(frozen=True)
class Layup:
    """Thickness layout of the section.

    kind   : LayupKind (A, B or C)
    scheme : bottom-face : core : top-face thickness ratios, e.g. (1, 8, 1).
             Ignored for Type A, which is laid out as the scheme (0, 1, 0).
    p      : power-law index controlling the gradation (0 <= p <= 800)
    h      : total thickness (m)

    Construction checks h > 0, 0 <= p <= ``_P_MAX`` and the ratios (nonnegative with a
    positive sum), each error naming its INI key.  The derived ``layers``
    tuple lists, bottom to top, one (n, lo, hi, grade) entry per layer of
    positive ratio and positive thickness: n is 0, 1 or 2 (bottom face,
    core, top face), lo and hi are the layer's bounds, the bottom face
    starting at -h/2 and the top face ending at +h/2, and grade is
    ``LAYER_GRADES[kind][n]``.  A zero ratio leaves no layer, even where
    rounding leaves a sliver below +h/2.  ``_fractions`` picks the entry
    that holds a given z.
    """

    kind: LayupKind
    scheme: tuple[float, float, float]
    p: float
    h: float
    layers: tuple[tuple[int, float, float, float | str], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ConfigError(f"geometry.h: thickness must be positive and finite, got {self.h}")
        if not 0 <= self.p <= _P_MAX:
            raise ConfigError(f"layup.p: power-law index must satisfy 0 <= p <= {_P_MAX:g}, "
                              f"got {self.p}")
        a, b, c = ratios = (0.0, 1.0, 0.0) if self.kind is LayupKind.A else self.scheme
        if not (min(a, b, c) >= 0 and 0 < a + b + c < math.inf):
            raise ConfigError(f"layup.scheme: ratios must be finite and nonnegative with a "
                              f"positive sum, got {tuple(ratios)}")
        total = a + b + c
        h1 = -self.h / 2
        h2 = h1 + self.h * a / total
        hh = (h1, h2, h2 + self.h * b / total, self.h / 2)
        grades = LAYER_GRADES[self.kind]
        object.__setattr__(self, "layers", tuple((n, hh[n], hh[n + 1], grades[n]) for n in range(3)
                                                 if ratios[n] > 0 and hh[n + 1] > hh[n]))

    @staticmethod
    def single_layer(p: float, h: float) -> "Layup":
        """Type A layup (scheme is irrelevant and stored as zeros)."""
        return Layup(LayupKind.A, (0.0, 0.0, 0.0), p, h)

    def _fractions(self, zs, sides) -> tuple[list[int], list[float]]:
        """The picked layer's n and the ceramic volume fraction V(z) in [0, 1] for each
        height z of zs with its side of sides, in one pass.

        A z within 1e-12 h of a surface belongs to that surface's layer, the first or the
        last entry of ``layers``, whatever the side.  Elsewhere layers are the half-open
        intervals [lo, hi), so a z exactly on an interface belongs to the layer above it.
        A side of 'below' or 'above' forces the choice at an interface (a stress jump is
        sampled from both sides): the lowest layer that ends, or starts, within 1e-12 h
        of z.  The picked layer's ``layers`` entry grades V.  The first z outside the
        section, or a side other than None, 'below' or 'above', raises a ValueError."""
        top, eps, p, layers = self.h / 2, _Z_SNAP * self.h, self.p, self.layers
        outside, bottom, surface = top + eps, -top + eps, top - eps
        ns, vs = [], []
        for z, side in zip(zs, sides):
            if z < -outside or z > outside:
                raise ValueError(f"z = {z} outside the section [{-top}, {top}]")
            if side is not None and side not in ("below", "above"):
                raise ValueError(f"side must be 'below', 'above' or None, got {side!r}")
            if z <= bottom:
                layer = layers[0]
            elif z >= surface:
                layer = layers[-1]
            else:
                layer = None
                if side is not None:
                    end = 2 if side == "below" else 1      # the layer's top, or its bottom, meets z
                    for entry in layers:
                        if abs(z - entry[end]) <= eps:
                            layer = entry
                            break
                if layer is None:
                    for layer in layers:        # a z above every layer's top ends on the last
                        if z < layer[2]:
                            break
            n, lo, hi, grade = layer
            # z may lie up to 1e-12 h outside the picked layer: clamp it in (a NaN stays NaN)
            z = lo if z < lo else hi if z > hi else z
            ns.append(n)
            vs.append(((z - lo) / (hi - lo)) ** p if grade == "up" else
                      ((hi - z) / (hi - lo)) ** p if grade == "down" else grade)
        return ns, vs


def effective_moduli(mat: MaterialPair, layup: Layup, zs, sides) -> list[float]:
    """Young's modulus E(z) by the rule of mixtures (Pa) at each height z of zs, with its
    side of sides: one ``Layup._fractions`` pass over all of them."""
    E_m, dE = mat.E_m, mat.E_c - mat.E_m
    return [E_m + dE * v for v in layup._fractions(zs, sides)[1]]


def stiffness_coeffs(E: float, nu: float) -> tuple[float, float]:
    """Plane stiffness coefficients (C11, C55) of an isotropic point, or of
    an array of moduli E.

    C11 = E couples axial stress to axial strain; C55 = E / (2(1 + nu))
    is the shear modulus coupling transverse shear stress and strain.
    Nothing is checked: ``MaterialPair`` owns the rules for E and nu, and the
    section passes quadrature coefficients t w (E_c - E_m), which are
    negative wherever E_c < E_m.
    """
    return E, E / (2.0 * (1.0 + nu))
