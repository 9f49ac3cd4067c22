"""Shear function and cross-sectional rigidity integrals.

Frozen expected values come from symbolic integration of the quintic
shear function:

    f(h/2)        = (h/2)(1 - 3/8 + 1/40)            = 13/40 h = 0.325 h
    int g^2 dz    = (1 - 3/4 + 97/320 - 9/224 + 1/576) h = 1297/2520 h
    int z f dz    = (1/12 - 3/160 + 1/1120) h^3      = 11/168 h^3

The general-layup oracle is adaptive quadrature (scipy) of the graded
stiffness against each moment, layer by layer, independent of the
fixed-rule implementation.
"""

import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

from fgcbeam import (
    DEFAULT_MATERIAL,
    ConfigError,
    Layup,
    LayupKind,
    MaterialPair,
    compute_rigidities,
    shear_functions,
)
from fgcbeam.benchmarks import ALL_CELLS
from fgcbeam.materials import _P_MAX, effective_moduli
from fgcbeam.section import SectionRigidities, _modulus_nodes

from conftest import layer_edges

MAT = DEFAULT_MATERIAL
INT_G2 = 1297.0 / 2520.0          # integral of g(z)^2 over the thickness, h = 1
INT_ZF = 11.0 / 168.0             # integral of z f(z), h = 1


def oracle_rigidities(mat: MaterialPair, layup: Layup) -> SectionRigidities:
    """Adaptive-quadrature reference, split at the layer interfaces."""
    h = layup.h
    edges = layer_edges(layup)

    def f(z):
        return shear_functions(z, h)[0]

    moments = [lambda z: 1.0, lambda z: z, lambda z: z * z, f, lambda z: z * f(z),
               lambda z: f(z) ** 2]
    vals = np.zeros(7)
    with warnings.catch_warnings():
        # the requested tolerance sits at the roundoff floor; quad warns
        # but still delivers ~1e-13 relative accuracy
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            if b - a <= 0:
                continue
            for i, m in enumerate(moments):
                vals[i] += quad(lambda z: effective_moduli(mat, layup, [z], [None])[0] * m(z),
                                a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            vals[6] += quad(
                lambda z: effective_moduli(mat, layup, [z], [None])[0]
                / (2 * (1 + mat.nu)) * shear_functions(z, h)[1] ** 2,
                a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    return SectionRigidities(*vals)


def assert_rigidities_close(got: SectionRigidities, ref: SectionRigidities,
                            mat: MaterialPair, h: float, rtol: float = 1e-10):
    """Componentwise check, scaled by each component's natural magnitude.

    B11/B11s vanish identically for symmetric layups, so a bare relative
    comparison is ill-posed there; the absolute floor is rtol times
    E_c h^k with k the moment order of the component.
    """
    scale = {"A11": mat.E_c * h, "B11": mat.E_c * h**2, "D11": mat.E_c * h**3,
             "B11s": mat.E_c * h**2, "D11s": mat.E_c * h**3,
             "H11s": mat.E_c * h**3, "A55s": mat.E_c * h}
    for name, s in scale.items():
        a, b = getattr(got, name), getattr(ref, name)
        assert abs(a - b) <= rtol * max(abs(b), s * 1e-3), (
            f"{name}: {a} vs oracle {b}")


def rigidity_matrix(rig: SectionRigidities) -> np.ndarray:
    """4x4 map from the strains (eps0, eps1, eps2, gamma0) to (N_x, M_x, S_x, Q_xz)."""
    return np.array([[rig.A11, rig.B11, rig.B11s, 0.0],
                     [rig.B11, rig.D11, rig.D11s, 0.0],
                     [rig.B11s, rig.D11s, rig.H11s, 0.0],
                     [0.0, 0.0, 0.0, rig.A55s]])


class TestShearFunctions:
    def test_f_zero_at_midplane(self):
        assert shear_functions(0.0, 1.0)[0] == 0.0

    @pytest.mark.parametrize("h", [1.0, 0.25, 3.0])
    def test_f_at_top_surface(self, h):
        assert shear_functions(h / 2, h)[0] == pytest.approx(0.325 * h, rel=1e-15)

    def test_f_odd(self, rng):
        h = 0.7
        for z in rng.uniform(0, h / 2, 10):
            f_minus, f_plus = shear_functions(-z, h)[0], shear_functions(z, h)[0]
            assert f_minus == pytest.approx(-f_plus, rel=1e-14)

    def test_g_at_midplane(self):
        assert shear_functions(0.0, 1.0)[1] == 1.0

    @pytest.mark.parametrize("h", [1.0, 0.02, 5.0])
    def test_g_exactly_zero_at_surfaces(self, h):
        assert shear_functions(h / 2, h)[1] == 0.0
        assert shear_functions(-h / 2, h)[1] == 0.0

    def test_g_is_derivative_of_f(self, rng):
        h = 1.3
        d = 1e-6 * h
        for z in rng.uniform(-h / 2 + d, h / 2 - d, 10):
            fd = (shear_functions(z + d, h)[0] - shear_functions(z - d, h)[0]) / (2 * d)
            assert fd == pytest.approx(shear_functions(z, h)[1], abs=5e-10)

    def test_array_call_equals_scalar_calls_on_every_fixture_section(self):
        # numpy's array ** dispatches to SIMD code that rounds some (z/h)**4 unlike
        # libm pow; each node must get the bits of a scalar call, on every host
        sections = {(cell.config.material, cell.config.layup) for cell in ALL_CELLS}
        assert len(sections) == 30
        for mat, layup in sections:
            z, _ = _modulus_nodes(mat, layup)
            f, g = shear_functions(z, layup.h)
            scalar = np.array([shear_functions(zi, layup.h) for zi in z.tolist()])
            assert f.tobytes() == scalar[:, 0].tobytes()
            assert g.tobytes() == scalar[:, 1].tobytes()


class TestHomogeneousSection:
    def test_classical_moments(self):
        for h in (1.0, 0.12):
            rig = compute_rigidities(MAT, Layup.single_layer(p=0.0, h=h))
            E = MAT.E_c
            assert rig.A11 == pytest.approx(E * h, rel=1e-14)
            assert rig.D11 == pytest.approx(E * h**3 / 12, rel=1e-13)
            assert abs(rig.B11) <= 1e-14 * E * h**2
            assert abs(rig.B11s) <= 1e-14 * E * h**2

    def test_shear_rigidity_unit_section(self):
        # E = 1, nu = 0.3, h = 1: A55s = (1/2.6) * 1297/2520
        rig = compute_rigidities(MaterialPair(1.0, 1.0, 0.3),
                                 Layup.single_layer(p=0.0, h=1.0))
        assert rig.A55s == pytest.approx(INT_G2 / 2.6, rel=1e-12)
        # confirm the frozen constant with a 50-point quadrature
        x, w = leggauss(50)
        z = 0.5 * x
        g = shear_functions(z, 1.0)[1]
        assert np.sum(0.5 * w * g ** 2) == pytest.approx(INT_G2, rel=1e-14)

    def test_shear_warp_coupling_unit_section(self):
        rig = compute_rigidities(MaterialPair(1.0, 1.0, 0.3),
                                 Layup.single_layer(p=0.0, h=1.0))
        assert rig.D11s == pytest.approx(INT_ZF, rel=1e-12)

    def test_d11s_scales_with_h_cubed(self):
        h = 0.37
        rig = compute_rigidities(MAT, Layup.single_layer(p=0.0, h=h))
        assert rig.D11s == pytest.approx(MAT.E_c * h**3 * INT_ZF, rel=1e-12)


class TestGradedSection:
    @pytest.mark.parametrize("kind,scheme", [
        ("A", None), ("B", (1, 1, 1)), ("B", (2, 2, 1)), ("C", (1, 8, 1))])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_matches_adaptive_oracle(self, kind, scheme, p):
        layup = (Layup.single_layer(p, 1.0) if kind == "A"
                 else Layup(LayupKind(kind), scheme, p, 1.0))
        got = compute_rigidities(MAT, layup)
        ref = oracle_rigidities(MAT, layup)
        assert_rigidities_close(got, ref, MAT, layup.h)

    def test_matches_oracle_thin_section(self):
        layup = Layup(LayupKind.B, (2, 1, 1), p=3.3, h=0.02)
        got = compute_rigidities(MAT, layup)
        ref = oracle_rigidities(MAT, layup)
        assert_rigidities_close(got, ref, MAT, layup.h)

    def test_symmetric_sandwich_no_coupling(self):
        for p in (0.5, 1.0, 4.0, 10.0):
            rig = compute_rigidities(MAT, Layup(LayupKind.B, (1, 1, 1), p, 1.0))
            assert abs(rig.B11) <= 1e-12 * MAT.E_c
            assert abs(rig.B11s) <= 1e-12 * MAT.E_c

    def test_membrane_rigidity_decreases_with_p(self):
        vals = [compute_rigidities(MAT, Layup.single_layer(p, 1.0)).A11
                for p in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_linear_in_moduli(self):
        layup = Layup(LayupKind.C, (1, 8, 1), p=2.0, h=1.0)
        base = compute_rigidities(MAT, layup)
        beta = 3.75
        scaled = compute_rigidities(
            MaterialPair(beta * MAT.E_m, beta * MAT.E_c, MAT.nu), layup)
        for name in ("A11", "B11", "D11", "B11s", "D11s", "H11s", "A55s"):
            assert getattr(scaled, name) == pytest.approx(
                beta * getattr(base, name), rel=1e-13, abs=1e-9)

    @pytest.mark.parametrize("kind,scheme,p", [
        ("A", None, 2.0), ("B", (2, 2, 1), 5.0), ("C", (1, 8, 1), 0.5)])
    def test_gram_matrix_positive_semidefinite(self, kind, scheme, p):
        layup = (Layup.single_layer(p, 1.0) if kind == "A"
                 else Layup(LayupKind(kind), scheme, p, 1.0))
        rig = compute_rigidities(MAT, layup)
        eigs = np.linalg.eigvalsh(rigidity_matrix(rig)[:3, :3])
        assert np.all(eigs >= -1e-10 * eigs.max())

    def test_positivity(self):
        rig = compute_rigidities(MAT, Layup(LayupKind.B, (1, 2, 1), 5.0, 1.0))
        assert rig.A11 > 0 and rig.D11 > 0 and rig.H11s > 0 and rig.A55s > 0

    def test_zero_thickness_layer_contributes_nothing(self):
        # 1-0-1 sandwich with empty core: faces meet at z = 0
        rig = compute_rigidities(MAT, Layup(LayupKind.B, (1, 0, 1), 2.0, 1.0))
        ref = oracle_rigidities(MAT, Layup(LayupKind.B, (1, 0, 1), 2.0, 1.0))
        assert_rigidities_close(rig, ref, MAT, 1.0)

    @pytest.mark.parametrize("kind,scheme", [("B", (1, 1, 1)), ("C", (1, 8, 1))])
    def test_swapped_phases_match_oracle(self, kind, scheme):
        # E_c < E_m is a valid pair whose graded quadrature coefficients
        # t w (E_c - E_m) are negative, so stiffness_coeffs checks no sign
        mat = MaterialPair(380e9, 70e9, 0.3)
        layup = Layup(LayupKind(kind), scheme, 2.0, 1.0)
        assert (_modulus_nodes(mat, layup)[1] < 0).any()
        assert_rigidities_close(compute_rigidities(mat, layup), oracle_rigidities(mat, layup),
                                mat, layup.h)

    def test_huge_p_rejected(self):
        # Layup owns the cap; at the cap the Jacobi rule still integrates s**p exactly:
        # a single layer's A11 is E_m h + (E_c - E_m) h / (p + 1)
        with pytest.raises(ConfigError, match="^layup.p: "):
            Layup.single_layer(p=1e6, h=1.0)
        rig = compute_rigidities(MAT, Layup.single_layer(p=_P_MAX, h=1.0))
        assert rig.A11 == pytest.approx(MAT.E_m + (MAT.E_c - MAT.E_m) / (_P_MAX + 1), rel=1e-13)
