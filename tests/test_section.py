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
    section,
    shear_functions,
)
from fgcbeam.benchmarks import ALL_CELLS
from fgcbeam.materials import _P_MAX, effective_moduli
from fgcbeam.section import SectionRigidities, _modulus_nodes, _segments, rigidity_pass

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
        # and so must each node of a section pass's node array
        groups = {}
        for mat, layup in {(cell.config.material, cell.config.layup) for cell in ALL_CELLS}:
            segments = _segments(mat, layup)
            groups.setdefault(len(segments), []).append((mat, layup, segments))
        assert sorted(len(group) for group in groups.values()) == [5, 5, 20]
        for group in groups.values():
            z, _, h, _ = _modulus_nodes(group)
            f, g = shear_functions(z, h)
            scalar = np.array([[shear_functions(zi, hi) for zi in row]
                               for hi, row in zip(h[:, 0].tolist(), z.tolist())])
            assert f.tobytes() == scalar[..., 0].tobytes()
            assert g.tobytes() == scalar[..., 1].tobytes()


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
        assert (_modulus_nodes([(mat, layup, _segments(mat, layup))])[1] < 0).any()
        assert_rigidities_close(compute_rigidities(mat, layup), oracle_rigidities(mat, layup),
                                mat, layup.h)

    def test_huge_p_rejected(self):
        # Layup owns the cap; at the cap the Jacobi rule still integrates s**p exactly:
        # a single layer's A11 is E_m h + (E_c - E_m) h / (p + 1)
        with pytest.raises(ConfigError, match="^layup.p: "):
            Layup.single_layer(p=1e6, h=1.0)
        rig = compute_rigidities(MAT, Layup.single_layer(p=_P_MAX, h=1.0))
        assert rig.A11 == pytest.approx(MAT.E_m + (MAT.E_c - MAT.E_m) / (_P_MAX + 1), rel=1e-13)


def lone_rigidities(mat: MaterialPair, layup: Layup) -> list[str]:
    """The seven rigidities of one section as float.hex, from 1-D numpy arrays: each
    layer's nodes by its own formula (z = lo + t s up a layer, hi - t s down it),
    concatenated, and each moment a 1-D ``sum``."""
    dE, zs, cs = mat.E_c - mat.E_m, [], []
    gl_s, gl_w = section._GL
    for _, lo, hi, grade in layup.layers:
        t, graded = hi - lo, grade in ("up", "down")
        zs.append(lo + t * gl_s)
        cs.append(t * gl_w * (mat.E_m if graded else mat.E_m + dE * grade))
        if graded:
            s, w = section._jacobi_rule(layup.p)
            zs.append(lo + t * s if grade == "up" else hi - t * s)
            cs.append(t * w * dE)
    z, c = np.concatenate(zs), np.concatenate(cs)
    c11, c55 = c, c / (2.0 * (1.0 + mat.nu))
    f, g = shear_functions(z, layup.h)
    return [float(v.sum()).hex() for v in (c11, c11 * z, c11 * z * z, c11 * f, c11 * z * f,
                                            c11 * f * f, c55 * g * g)]


def hexes(rig: SectionRigidities) -> list[str]:
    return [v.hex() for v in (rig.A11, rig.B11, rig.D11, rig.B11s, rig.D11s, rig.H11s,
                              rig.A55s)]


def seeded_sections(n: int, seed: int) -> list[tuple[MaterialPair, Layup]]:
    """n sections of kinds A, B and C, some schemes with a zero ratio (8 to 40 nodes in one
    list), p = 0, the paper's p, random p in (0, 800] and p = 800, random moduli, nu and h."""
    rng = np.random.default_rng(seed)
    schemes = [(1, 1, 1), (1, 2, 1), (2, 2, 1), (1, 8, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1),
               (0, 1, 0), (0.5, 3, 0)]
    sections = []
    for i in range(n):
        kind = LayupKind(("A", "B", "C")[i % 3])
        p = [0.0, 1.0, 2.0, 5.0, 10.0, _P_MAX, float(_P_MAX * (1.0 - rng.random()))][i % 7]
        scheme = tuple(float(r) for r in schemes[int(rng.integers(len(schemes)))])
        E_m, E_c = (float(E) for E in 10.0 ** rng.uniform(9.0, 12.0, 2))
        mat = MaterialPair(E_m, E_c, float(rng.uniform(0.0, 0.49)))
        sections.append((mat, Layup(kind, scheme, p, float(10.0 ** rng.uniform(-3.0, 1.0)))))
    return sections


class TestSectionPass:
    """``rigidity_pass``: the sections of one node count as the rows of (k, n) arrays."""

    def test_equals_the_per_section_loop_bit_for_bit(self):
        sections = seeded_sections(210, seed=39)
        counts = {len(_segments(mat, layup)) for mat, layup in sections}
        assert {2, 3, 4, 5} <= counts        # 16, 24, 32 and 40 nodes in one call
        rigs, error = rigidity_pass(sections)
        assert error is None and len(rigs) == len(sections)
        for rig, (mat, layup) in zip(rigs, sections):
            assert hexes(rig) == hexes(compute_rigidities(mat, layup)) == lone_rigidities(mat,
                                                                                          layup)

    def test_fixture_sections_equal_the_loop(self):
        sections = list(dict.fromkeys((c.config.material, c.config.layup) for c in ALL_CELLS))
        rigs, error = rigidity_pass(sections)
        assert error is None
        assert [hexes(r) for r in rigs] == [lone_rigidities(*s) for s in sections]

    @pytest.mark.parametrize("at", [0, 57, 209])
    def test_an_overflowing_section_ends_the_pass_with_the_loops_error(self, at):
        # h = 1e100 puts D11 ~ E h^3 beyond float64; a second one later is not the one raised
        sections = seeded_sections(210, seed=41)
        for i in (at, min(at + 90, 209)):
            mat, layup = sections[i]
            sections[i] = mat, Layup(layup.kind, layup.scheme, layup.p, 1e100 * (i + 1))
        rigs, error = rigidity_pass(sections)
        loop = []
        with pytest.raises(OverflowError) as lone:
            for mat, layup in sections:
                loop.append(compute_rigidities(mat, layup))
        assert len(rigs) == len(loop) == at
        assert [hexes(r) for r in rigs] == [hexes(r) for r in loop]
        assert type(error) is OverflowError and str(error) == str(lone.value)
        assert isinstance(error.__cause__, FloatingPointError)
        assert f"h = {1e100 * (at + 1):g} m" in str(error)

    def test_empty_pass(self):
        assert rigidity_pass([]) == ([], None)
