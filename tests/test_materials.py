"""Material gradation laws: volume fraction, rule of mixtures, stiffness.

The volume fraction V(z) and the layer that holds z come from ``Layup._fractions``, and
E(z) from ``effective_moduli``: both take a list of heights with a side for each.
"""

import math

import numpy as np
import pytest

from fgcbeam import (
    DEFAULT_MATERIAL,
    ConfigError,
    Layup,
    LayupKind,
    LoadCase,
    MaterialPair,
    Mesh,
    stiffness_coeffs,
)
from fgcbeam.materials import _P_MAX, effective_moduli

from conftest import layer_edges

MAT = DEFAULT_MATERIAL
P_GRID = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]


class TestMaterialPair:
    def test_default_values(self):
        assert MAT.E_m == 70e9 and MAT.E_c == 380e9 and MAT.nu == 0.3

    @pytest.mark.parametrize("kwargs", [
        dict(E_m=-1.0, E_c=380e9, nu=0.3),
        dict(E_m=70e9, E_c=0.0, nu=0.3),
        dict(E_m=70e9, E_c=380e9, nu=0.5),
        dict(E_m=70e9, E_c=380e9, nu=-0.1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MaterialPair(**kwargs)


class TestLayup:
    def test_type_a_interfaces_collapse(self):
        # the inner interfaces fall on the surfaces: one graded layer spans the section
        lay = Layup.single_layer(p=2.0, h=0.4)
        assert lay.layers == ((1, -0.2, 0.2, "up"),)

    @pytest.mark.parametrize("scheme,expected", [
        ((1, 1, 1), (-0.5, -0.5 + 1 / 3, -0.5 + 2 / 3, 0.5)),
        ((1, 8, 1), (-0.5, -0.4, 0.4, 0.5)),
        ((2, 2, 1), (-0.5, -0.1, 0.3, 0.5)),
        ((2, 1, 1), (-0.5, 0.0, 0.25, 0.5)),
    ])
    def test_interfaces_reproduce_scheme(self, scheme, expected):
        lay = Layup(LayupKind.B, scheme, p=1.0, h=1.0)
        assert layer_edges(lay) == pytest.approx(expected, abs=1e-15)
        assert [n for n, *_ in lay.layers] == [0, 1, 2]
        thick = np.array([hi - lo for _, lo, hi, _ in lay.layers])
        ratios = thick / thick.sum() * sum(scheme)
        assert ratios == pytest.approx(scheme, abs=1e-12)

    def test_ordering_invariant(self):
        for scheme in [(1, 0, 1), (0, 1, 0), (3, 4, 3)]:
            layers = Layup(LayupKind.C, scheme, 1.0, 2.0).layers
            bounds = [b for _, lo, hi, _ in layers for b in (lo, hi)]
            assert bounds == sorted(bounds)
            assert bounds[0] == -1.0 and bounds[-1] == 1.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Layup.single_layer(p=-0.5, h=1.0)
        with pytest.raises(ValueError):
            Layup.single_layer(p=1.0, h=0.0)
        with pytest.raises(ValueError):
            Layup(LayupKind.B, (0, 0, 0), p=1.0, h=1.0)
        with pytest.raises(ValueError):
            Layup(LayupKind.B, (1, -1, 1), p=1.0, h=1.0)


NON_FINITE_INPUTS = [
    (Mesh, dict(L=math.nan, ne=4), "L"),
    (Mesh, dict(L=math.inf, ne=4), "L"),
    (Mesh, dict(L=1.0, ne=4, inv_R=math.nan), "inv_R"),
    (Mesh, dict(L=1.0, ne=4, inv_R=math.inf), "inv_R"),
    (MaterialPair, dict(E_m=math.inf, E_c=380e9, nu=0.3), "E_m"),
    (MaterialPair, dict(E_m=70e9, E_c=math.nan, nu=0.3), "E_c"),
    (MaterialPair, dict(E_m=70e9, E_c=380e9, nu=math.nan), "Poisson"),
    (Layup, dict(kind=LayupKind.A, scheme=(0, 0, 0), p=1.0, h=math.inf), "h"),
    (Layup, dict(kind=LayupKind.A, scheme=(0, 0, 0), p=1.0, h=math.nan), "h"),
    (Layup, dict(kind=LayupKind.A, scheme=(0, 0, 0), p=math.nan, h=1.0), "p"),
    (Layup, dict(kind=LayupKind.B, scheme=(1, 1, 1), p=math.inf, h=1.0), "p"),
    (Layup, dict(kind=LayupKind.B, scheme=(1, math.nan, 1), p=1.0, h=1.0), "scheme"),
    (Layup, dict(kind=LayupKind.C, scheme=(1, math.inf, 1), p=1.0, h=1.0), "scheme"),
    (LoadCase, dict(kind="udl", magnitude=math.nan), "magnitude"),
    (LoadCase, dict(kind="point_end", magnitude=-math.inf), "magnitude"),
]


@pytest.mark.parametrize("cls,kwargs,field", NON_FINITE_INPUTS,
                         ids=[f"{c.__name__}-{k}" for c, _, k in NON_FINITE_INPUTS])
def test_non_finite_library_input_rejected(cls, kwargs, field):
    """A NaN or infinite field raises a ConfigError naming it, not a NaN solve later; inv_R,
    which no INI key sets, raises a plain ValueError."""
    with pytest.raises(ValueError if field == "inv_R" else ConfigError, match=rf"\b{field}\b"):
        cls(**kwargs)


def test_straight_beam_curvature_stays_valid():
    assert Mesh(L=1.0, ne=4, inv_R=0.0).inv_R == 0.0


class TestVolumeFraction:
    def test_linear_law_midplane(self):
        lay = Layup.single_layer(p=1.0, h=1.0)
        assert lay._fractions([0.0], [None])[1] == [pytest.approx(0.5, abs=1e-15)]

    @pytest.mark.parametrize("p", P_GRID)
    def test_top_surface_fully_ceramic(self, p):
        lay = Layup.single_layer(p=p, h=0.3)
        assert lay._fractions([0.15], [None])[1] == [pytest.approx(1.0, abs=1e-15)]

    @pytest.mark.parametrize("p", P_GRID)
    def test_fg_core_top_face_fully_ceramic(self, p):
        lay = Layup(LayupKind.C, (1, 8, 1), p=p, h=1.0)
        assert lay._fractions(np.linspace(0.4, 0.5, 7).tolist(), [None] * 7)[1] == [1.0] * 7

    def test_fg_faces_interface_value(self):
        lay = Layup(LayupKind.B, (1, 1, 1), p=2.0, h=1.0)
        h2 = lay.layers[1][1]
        assert lay._fractions([h2], [None])[1] == [pytest.approx(1.0, abs=1e-15)]

    def test_out_of_range_rejected(self):
        lay = Layup.single_layer(p=1.0, h=1.0)
        for z in (-0.5001, 0.5001, 2.0):
            with pytest.raises(ValueError):
                lay._fractions([z], [None])

    @pytest.mark.parametrize("kind,scheme", [
        ("A", None), ("B", (1, 1, 1)), ("B", (2, 2, 1)), ("C", (1, 8, 1))])
    @pytest.mark.parametrize("p", P_GRID)
    def test_bounds(self, kind, scheme, p):
        lay = (Layup.single_layer(p, 1.0) if kind == "A"
               else Layup(LayupKind(kind), scheme, p, 1.0))
        z = np.linspace(-0.5, 0.5, 201).tolist()
        v = np.array(lay._fractions(z, [None] * len(z))[1])
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        E = np.array(effective_moduli(MAT, lay, z, [None] * len(z)))
        assert np.all(E >= MAT.E_m - 1e-6) and np.all(E <= MAT.E_c + 1e-6)

    def test_p_zero_fully_ceramic(self):
        lay = Layup.single_layer(p=0.0, h=1.0)
        assert lay._fractions(np.linspace(-0.5, 0.5, 11).tolist(), [None] * 11)[1] == [1.0] * 11

    def test_large_p_limit_metal(self):
        lay = Layup.single_layer(p=_P_MAX, h=1.0)
        assert lay._fractions([0.0], [None])[1] == [pytest.approx(0.5**_P_MAX, abs=1e-300)]
        assert max(lay._fractions(np.linspace(-0.5, -0.01, 9).tolist(), [None] * 9)[1]) < 1e-3
        with pytest.raises(ConfigError, match="^layup.p: "):
            Layup.single_layer(p=math.nextafter(_P_MAX, math.inf), h=1.0)

    @pytest.mark.parametrize("scheme", [(1, 1, 1), (1, 2, 1), (3, 4, 3)])
    def test_symmetric_fg_faces_mirror(self, scheme):
        lay = Layup(LayupKind.B, scheme, p=3.0, h=1.0)
        z = np.linspace(0.0, 0.5, 23)
        upper = lay._fractions(z.tolist(), [None] * 23)[1]
        lower = lay._fractions((-z).tolist(), [None] * 23)[1]
        assert upper == pytest.approx(lower, abs=1e-14)

    @pytest.mark.parametrize("kind,scheme", [("B", (1, 1, 1)), ("B", (2, 2, 1)),
                                             ("C", (1, 8, 1)), ("C", (2, 2, 1))])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 5.0])
    def test_interface_continuity(self, kind, scheme, p):
        lay = Layup(LayupKind(kind), scheme, p, 1.0)
        for _, z, _, _ in lay.layers[1:]:
            # approach limits agree too (V has slope ~ (d/t)^p near an
            # interface for p < 1, so the tolerance must track it)
            d = 1e-9
            below, above, before, after = lay._fractions([z, z, z - d, z + d],
                                                         ["below", "above", None, None])[1]
            assert below == pytest.approx(above, abs=1e-14)
            t_min = min(hi - lo for _, lo, hi, _ in lay.layers)
            tol = 2.0 * max(p, 1.0) * (d / t_min) ** min(p, 1.0) + 1e-12
            assert before == pytest.approx(below, abs=tol)
            assert after == pytest.approx(above, abs=tol)

    def test_fg_core_p0_jump_is_two_sided(self):
        # the one genuinely discontinuous case: FG core at p = 0
        lay = Layup(LayupKind.C, (1, 8, 1), p=0.0, h=1.0)
        h2 = lay.layers[1][1]
        assert lay._fractions([h2, h2], ["below", "above"])[1] == [0.0, 1.0]

    @pytest.mark.parametrize("kind", [LayupKind.B, LayupKind.C])
    @pytest.mark.parametrize("scheme", [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (0, 1, 1), (1, 0, 1), (1, 2, 0), (2, 1, 0)])
    def test_zero_thickness_layer_never_picked(self, kind, scheme):
        # each surface belongs to the outermost layer of positive ratio on its side; with
        # 1-2-0 and 2-1-0, rounding leaves h3 a few ulps below h4, a sliver of no layer
        lay = Layup(kind, scheme, p=2.0, h=1.0)
        thickness = {n: hi - lo for n, lo, hi, _ in lay.layers}
        for z in layer_edges(lay):
            for side in (None, "below", "above"):
                (n,), (v,) = lay._fractions([z], [side])
                assert scheme[n] > 0 and thickness[n] > 0, (z, side)
                assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("kind,scheme", [(LayupKind.B, (1, 1, 1)),
                                             (LayupKind.C, (1, 8, 1))])
    def test_snap_window_stays_inside_the_picked_layer(self, kind, scheme):
        # the layer rule snaps z within 1e-12 h of an interface to the forced side, so z can
        # lie just outside the picked layer; V must still be a real number in [0, 1]
        lay = Layup(kind, scheme, p=0.5, h=1.0)
        for _, zi, _, _ in lay.layers[1:]:
            for z in (zi - 1e-14, zi + 1e-14):
                for side in ("below", "above"):
                    (v,) = lay._fractions([z], [side])[1]
                    assert isinstance(v, float) and 0.0 <= v <= 1.0, (zi, z, side, v)
                    assert effective_moduli(MAT, lay, [z], [side])[0] <= MAT.E_c

    def test_top_surface_of_a_section_without_top_face(self):
        core = Layup(LayupKind.C, (1, 0, 0), p=2.0, h=1.0)       # all metal
        sides = [None, "above", "below"]
        for scheme in ((1, 1, 0), (1, 2, 0), (2, 1, 0)):
            faces = Layup(LayupKind.B, scheme, p=2.0, h=1.0)    # ceramic core on top
            assert faces._fractions([0.5] * 3, sides)[1] == [1.0] * 3, scheme
            assert core._fractions([0.5] * 3, sides)[1] == [0.0] * 3

    def test_layer_thinner_than_the_snap_window(self):
        # inside, a side picks the lowest layer ending (below) or starting (above) within
        # 1e-12 h of z; at a surface every side picks that surface's layer
        sides = [None, "below", "above"]
        bottom = Layup(LayupKind.C, (1e-13, 1, 1), p=2.0, h=1.0)
        assert bottom._fractions([-0.5] * 3, sides)[0] == [0, 0, 0]
        core = Layup(LayupKind.C, (1, 1e-13, 1), p=2.0, h=1.0)
        for _, z, _, _ in core.layers[1:]:
            assert core._fractions([z] * 2, sides[1:])[0] == [0, 1], z
        top = Layup(LayupKind.C, (1, 1, 1e-13), p=2.0, h=1.0)
        assert top._fractions([0.5] * 3, sides)[0] == [2, 2, 2]

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_layer_monotone(self, p):
        lay = Layup.single_layer(p, 1.0)
        v = np.array(lay._fractions(np.linspace(-0.5, 0.5, 101).tolist(), [None] * 101)[1])
        assert np.all(np.diff(v) >= -1e-15)


class TestEffectiveModulus:
    def test_fully_ceramic_at_p0(self):
        lay = Layup.single_layer(p=0.0, h=1.0)
        E = effective_moduli(MAT, lay, np.linspace(-0.5, 0.5, 7).tolist(), [None] * 7)
        assert E == [pytest.approx(380e9)] * 7

    def test_arithmetic_mean_at_midplane(self):
        lay = Layup.single_layer(p=1.0, h=1.0)
        assert effective_moduli(MAT, lay, [0.0], [None]) == [pytest.approx(225e9)]

    def test_ceramic_core(self):
        lay = Layup(LayupKind.B, (1, 1, 1), p=5.0, h=1.0)
        E = effective_moduli(MAT, lay, np.linspace(-1 / 6 + 1e-9, 1 / 6 - 1e-9, 5).tolist(),
                             [None] * 5)
        assert E == [pytest.approx(380e9)] * 5


class TestStiffnessCoeffs:
    def test_ceramic(self):
        C11, C55 = stiffness_coeffs(380e9, 0.3)
        assert C11 == 380e9
        assert C55 == pytest.approx(380e9 / 2.6, rel=1e-15)

    def test_metal(self):
        C11, C55 = stiffness_coeffs(70e9, 0.3)
        assert C11 == 70e9
        assert C55 == pytest.approx(26.923076923e9, rel=1e-9)

    def test_unit(self):
        assert stiffness_coeffs(1.0, 0.0) == (1.0, 0.5)
