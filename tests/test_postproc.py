"""Field recovery, stress sampling, resultants and nondimensional values."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fgcbeam import (
    DEFAULT_MATERIAL,
    BoundaryCondition,
    Layup,
    LayupKind,
    LoadCase,
    MaterialPair,
    compute_rigidities,
    solve_static,
    stiffness_coeffs,
    table_scales,
)
from fgcbeam.materials import effective_moduli
from fgcbeam.postproc import (_deflections, _locate, _profile_columns, _strains,
                              _stress_factors, _stresses)
from fgcbeam.section import shear_functions
from fgcbeam.studies import evaluate_case

import reference_element
from conftest import layer_edges, make_case, random_case
from test_section import rigidity_matrix

MAT = DEFAULT_MATERIAL


def solve_cfg(cfg):
    """The solved (DOFs, mesh) pair of a case, and its rigidities."""
    rig = compute_rigidities(cfg.material, cfg.layup)
    return (solve_static(cfg.mesh, rig, cfg.bc, cfg.load), cfg.mesh), rig


def reference_strains(sol, e, xi):
    """Strains of element e at local coordinate xi from the reference element's rows."""
    d, mesh = sol
    de = d[mesh.element_dofs(e)]
    return np.array([B @ de for B in reference_element.strain_displacement(xi, mesh)])


class TestDisplacementAt:
    """Deflection recovery, ``_deflections``: w0 from the Hermite row at a station."""

    def test_symmetric_case_zero_midspan_slope(self):
        cfg = make_case("B", scheme=(1, 1, 1), p=2.0, bc="SS")
        sol, _ = solve_cfg(cfg)
        slopes = np.abs(sol[0][2::4])          # the dw0/dx DOF of every node
        assert slopes[cfg.ne // 2] <= 1e-10 * slopes.max()
        w = [float(_deflections(*sol, x)) for x in np.linspace(0, cfg.L, 33)]
        assert w == pytest.approx(w[::-1], rel=1e-10, abs=0)

    def test_cantilever_max_deflection_at_tip(self):
        cfg = make_case("C", scheme=(1, 8, 1), p=1.0, bc="CF")
        sol, _ = solve_cfg(cfg)
        w = [abs(_deflections(*sol, x)) for x in np.linspace(0, cfg.L, 101)]
        assert np.argmax(w) == 100

    def test_clamped_ends_zero(self):
        cfg = make_case("A", p=1.0, bc="CC")
        sol, _ = solve_cfg(cfg)
        assert _deflections(*sol, 0.0) == 0.0
        assert _deflections(*sol, cfg.L) == 0.0

    def test_out_of_range(self):
        sol, _ = solve_cfg(make_case("A", p=1.0))
        with pytest.raises(ValueError):
            _deflections(*sol, -0.1)
        with pytest.raises(ValueError):
            _deflections(*sol, 5.1)

    def test_nan_station_rejected(self):
        cfg = make_case("A", p=1.0)
        sol, _ = solve_cfg(cfg)
        for recover in (lambda x: _deflections(*sol, x),
                        lambda x: _strains(*sol, [x]),
                        lambda x: _profile_columns(*sol, MAT, cfg.layup, x, 5)):
            with pytest.raises(ValueError, match="outside the beam"):
                recover(math.nan)

    def test_nodal_values_match_dof_vector(self):
        cfg = make_case("A", p=2.0, bc="CF", ne=8)
        sol, _ = solve_cfg(cfg)
        for node in (0, 3, 8):
            w = _deflections(*sol, node * cfg.mesh.Le)
            assert w == pytest.approx(sol[0][4 * node + 1], rel=1e-12, abs=0)


class TestStrainsAt:
    def test_zero_load_zero_strains(self):
        cfg = make_case("A", p=1.0, load=LoadCase("point_mid", 0.0))
        sol, _ = solve_cfg(cfg)
        assert _strains(*sol, [1.7])[0] == pytest.approx(np.zeros(4), abs=1e-20)

    def test_no_membrane_strain_without_coupling(self):
        # homogeneous straight SS beam: B11 = 0 and 1/R = 0
        cfg = make_case("A", p=0.0, bc="SS")
        sol, _ = solve_cfg(cfg)
        eps0, eps1, _, _ = _strains(*sol, [cfg.L / 2])[0]
        assert abs(eps0) <= 1e-12 * abs(eps1) * cfg.h

    def test_bending_strain_is_minus_w_second_derivative(self):
        cfg = make_case("A", p=2.0, bc="CF", ne=8)
        sol, _ = solve_cfg(cfg)
        x = 0.9 * cfg.mesh.Le  # inside the first element
        d = 1e-4
        w = [_deflections(*sol, x + k * d) for k in (-1, 0, 1)]
        w_xx = (w[0] - 2 * w[1] + w[2]) / d**2
        assert _strains(*sol, [x])[0][1] == pytest.approx(-w_xx, rel=1e-5)

    def test_interior_node_average(self):
        cfg = make_case("C", scheme=(1, 8, 1), p=2.0, bc="CF", ne=4)
        sol, _ = solve_cfg(cfg)
        mesh = cfg.mesh
        x = 2 * mesh.Le
        left = reference_strains(sol, 1, mesh.Le)
        right = reference_strains(sol, 2, 0.0)
        assert _strains(*sol, [x])[0] == pytest.approx(0.5 * (left + right))

    def test_element_strains_bit_equal_to_reference_rows(self, rng):
        # inside an element, and at both ends, the strains are the reference rows
        # times its DOFs; at an interior node, the mean of both elements'
        for _ in range(20):
            cfg = random_case(rng)
            sol, _ = solve_cfg(cfg)
            mesh = cfg.mesh
            for e in rng.integers(0, cfg.ne, 3):
                xs = [0.0, mesh.L, e * mesh.Le, float(rng.uniform(e * mesh.Le, (e + 1) * mesh.Le))]
                for x, got in zip(xs, _strains(*sol, xs)):
                    if x == e * mesh.Le and 0 < e:
                        want = 0.5 * (reference_strains(sol, e - 1, mesh.Le)
                                      + reference_strains(sol, e, 0.0))
                    else:
                        want = reference_strains(sol, *_locate(mesh, x))
                    assert got.tobytes() == want.tobytes()


class TestStressAt:
    """Point stresses: a station's ``_strains`` through ``_stress_factors`` and ``_stresses``."""

    def test_shear_vanishes_on_surfaces_exactly(self):
        cfg = make_case("B", scheme=(2, 2, 1), p=5.0, R_over_L=10.0)
        sol, _ = solve_cfg(cfg)
        z = np.array([cfg.h / 2, -cfg.h / 2])
        factors = _stress_factors(MAT, cfg.layup, z, [None, None])
        for eps in _strains(*sol, [0.0, 1.3, cfg.L / 2, cfg.L]):
            assert _stresses(eps, factors, z)[1].tolist() == [0.0, 0.0]

    def test_reference_stresses_ceramic(self):
        cfg = make_case("A", p=0.0, L_over_h=5)
        sol, _ = solve_cfg(cfg)
        q, L, h = 1.0, cfg.L, cfg.h
        eps_mid, eps_end = _strains(*sol, [L / 2, 0.0])
        sig = _stresses(eps_mid, _stress_factors(MAT, cfg.layup, [h / 2], [None]), h / 2)[0][0]
        tau = _stresses(eps_end, _stress_factors(MAT, cfg.layup, [0.0], [None]), 0.0)[1][0]
        stress_scale = table_scales(MAT.E_m, L, h, q)[1]
        assert stress_scale * sig == pytest.approx(3.8136, rel=1e-3)
        assert stress_scale * tau == pytest.approx(0.7534, rel=1e-3)

    def test_reference_shear_sandwich(self):
        cfg = make_case("B", scheme=(1, 1, 1), p=5.0, L_over_h=5)
        sol, _ = solve_cfg(cfg)
        eps = _strains(*sol, [0.0])[0]
        tau = _stresses(eps, _stress_factors(MAT, cfg.layup, [0.0], [None]), 0.0)[1][0]
        assert table_scales(MAT.E_m, cfg.L, cfg.h, 1.0)[1] * tau == pytest.approx(
            1.0280, rel=1e-3)

    def test_constitutive_shear_profile_shape(self, rng):
        cfg = make_case("C", scheme=(1, 8, 1), p=3.0)
        sol, _ = solve_cfg(cfg)
        z = np.concatenate(([0.0], rng.uniform(-0.49, 0.49, 12)))
        sides = [None] * len(z)
        eps = _strains(*sol, [1.0])[0]
        tau = _stresses(eps, _stress_factors(MAT, cfg.layup, z, sides), z)[1]
        C = np.array(effective_moduli(MAT, cfg.layup, z.tolist(), sides)) / (2 * (1 + MAT.nu))
        expected = C * shear_functions(z, cfg.h)[1] / C[0]
        assert tau / tau[0] == pytest.approx(expected, rel=1e-12)

    def test_out_of_section_rejected(self):
        cfg = make_case("A", p=1.0)
        with pytest.raises(ValueError):
            _stress_factors(MAT, cfg.layup, [0.51], [None])


def resultants_at(sol, rig, x):
    """(N_x, M_x, S_x, Q_xz): the rigidity matrix times the recovered strains."""
    return rigidity_matrix(rig) @ _strains(*sol, [x])[0]


class TestResultantsAt:
    def test_zero_load(self):
        cfg = make_case("A", p=1.0, load=LoadCase("point_mid", 0.0))
        sol, rig = solve_cfg(cfg)
        assert list(resultants_at(sol, rig, 2.0)) == [0.0, 0.0, 0.0, 0.0]

    def test_shear_force_is_a55s_times_rotation(self):
        cfg = make_case("B", scheme=(1, 2, 1), p=2.0, bc="CF")
        sol, rig = solve_cfg(cfg)
        for x in (0.0, 1.1, 4.0):
            Q_xz = resultants_at(sol, rig, x)[3]
            phi = _strains(*sol, [x])[0][3]
            assert Q_xz == pytest.approx(rig.A55s * phi, rel=1e-13)

    @pytest.mark.parametrize("kind,scheme,p", [
        ("A", None, 2.0), ("B", (2, 2, 1), 5.0), ("C", (1, 8, 1), 1.0)])
    def test_matches_thickness_integration(self, kind, scheme, p):
        # oracle: 50-point Gauss rule per layer on the recovered sigma_x
        cfg = make_case(kind, scheme, p, R_over_L=12.0)
        sol, rig = solve_cfg(cfg)
        x = 0.6 * cfg.L
        h = cfg.h
        edges = layer_edges(cfg.layup)
        xg, wg = leggauss(50)
        eps = _strains(*sol, [x])[0]
        n = m = s = 0.0
        for a, b in zip(edges, edges[1:]):
            z = 0.5 * (b - a) * xg + 0.5 * (a + b)
            w = 0.5 * (b - a) * wg
            sig = _stresses(eps, _stress_factors(MAT, cfg.layup, z, [None] * len(z)), z)[0]
            n += np.sum(w * sig)
            m += np.sum(w * sig * z)
            s += np.sum(w * sig * shear_functions(z, h)[0])
        N_x, M_x, S_x, _ = resultants_at(sol, rig, x)
        scale = abs(cfg.load.magnitude) * cfg.L
        assert abs(N_x - n) <= 1e-8 * max(abs(n), 1e-6 * scale)
        assert abs(M_x - m) <= 1e-8 * max(abs(m), 1e-6 * scale * h)
        assert abs(S_x - s) <= 1e-8 * max(abs(s), 1e-6 * scale * h)


class TestNondimensionalize:
    def test_invariance_under_load_scaling(self):
        base = evaluate_case(make_case("A", p=2.0, load=LoadCase("udl", 1.0)))
        scaled = evaluate_case(make_case("A", p=2.0, load=LoadCase("udl", 10.0)))
        assert scaled.w_bar == pytest.approx(base.w_bar, rel=1e-10)
        assert scaled.sigma_bar == pytest.approx(base.sigma_bar, rel=1e-10)
        assert scaled.tau_bar == pytest.approx(base.tau_bar, rel=1e-10)

    def test_invariance_under_modulus_scaling(self):
        cfg = make_case("B", scheme=(1, 1, 1), p=5.0)
        beta = 7.0
        mat2 = MaterialPair(beta * MAT.E_m, beta * MAT.E_c, MAT.nu)
        import dataclasses
        cfg2 = dataclasses.replace(cfg, material=mat2)
        base, scaled = evaluate_case(cfg), evaluate_case(cfg2)
        assert scaled.w_bar == pytest.approx(base.w_bar, rel=1e-10)
        assert scaled.sigma_bar == pytest.approx(base.sigma_bar, rel=1e-10)

    def test_reference_value_thin_beam(self):
        res = evaluate_case(make_case("A", p=10.0, L_over_h=20))
        assert res.w_bar == pytest.approx(9.6868, rel=1e-3)

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            table_scales(MAT.E_m, 5.0, 1.0, 0.0)

    def test_scales_are_the_table_formulas(self):
        E_m, L, h, q = 70e9, 8.0, 0.4, 2.5
        assert table_scales(E_m, L, h, q) == pytest.approx(
            (100 * E_m * h**3 / (q * L**4), h / (q * L)), rel=1e-15)


class TestThicknessProfile:
    """Profile columns, ``_profile_columns``: z, z/h, sigma_x, tau_xz and side."""

    def test_surface_rows_have_zero_shear(self):
        cfg = make_case("C", scheme=(1, 8, 1), p=2.0)
        sol, _ = solve_cfg(cfg)
        _, zh, _, tau, _ = _profile_columns(*sol, MAT, cfg.layup, cfg.L / 2, 21)
        assert zh[0] == -0.5 and zh[-1] == 0.5
        assert tau[0] == 0.0 and tau[-1] == 0.0

    def test_homogeneous_profiles(self):
        cfg = make_case("A", p=0.0)
        sol, _ = solve_cfg(cfg)
        x = cfg.L / 4  # station where both bending and shear are active
        z, _, sig, tau, _ = _profile_columns(*sol, MAT, cfg.layup, x, 41)
        # with constant C the profile is exactly eps0 + z eps1 + f(z) eps2,
        # affine in z up to the small shear-warp term
        eps0, eps1, eps2, _ = _strains(*sol, [x])[0]
        C11 = MAT.E_c
        model = C11 * (eps0 + z * eps1 + shear_functions(z, cfg.h)[0] * eps2)
        assert np.allclose(sig, model, rtol=0, atol=1e-12 * np.max(np.abs(sig)))
        coef = np.polyfit(z, sig, 1)
        assert np.allclose(np.polyval(coef, z), sig,
                           rtol=0, atol=2e-2 * np.max(np.abs(sig)))
        # tau proportional to g(z)
        g = shear_functions(z, cfg.h)[1]
        mask = np.abs(g) > 1e-3
        ratios = tau[mask] / g[mask]
        assert np.max(np.abs(tau)) > 0
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_symmetric_sandwich_antisymmetric_sigma(self):
        cfg = make_case("B", scheme=(1, 1, 1), p=2.0)
        sol, _ = solve_cfg(cfg)
        _, zh, sigma, _, sides = _profile_columns(*sol, MAT, cfg.layup, cfg.L / 2, 41)
        sig = {round(v, 9): s for v, s, side in zip(zh.tolist(), sigma.tolist(), sides)
               if side == ""}
        smax = max(abs(v) for v in sig.values())
        for zh, v in sig.items():
            assert v == pytest.approx(-sig[round(-zh, 9)], abs=1e-9 * smax)

    def test_interface_rows_are_two_sided(self):
        cfg = make_case("C", scheme=(1, 8, 1), p=0.0)  # E jumps at z = -0.4 h
        sol, _ = solve_cfg(cfg)
        z, _, sigma, _, sides = _profile_columns(*sol, MAT, cfg.layup, cfg.L / 2, 15)
        assert [side for side in sides if side] == ["below", "above", "below", "above"]
        lo = [s for zi, s, side in zip(z, sigma, sides) if side and abs(zi + 0.4 * cfg.h) < 1e-12]
        assert len(lo) == 2
        assert lo[1] / lo[0] == pytest.approx(MAT.E_c / MAT.E_m, rel=1e-12)

    def test_shear_continuous_in_fg_faces(self):
        cfg = make_case("B", scheme=(2, 2, 1), p=3.0)
        sol, _ = solve_cfg(cfg)
        z, _, _, tau, sides = _profile_columns(*sol, MAT, cfg.layup, 1.0, 11)
        marked = {}
        for zi, t, side in zip(z.tolist(), tau.tolist(), sides):
            if side:
                marked.setdefault(round(zi, 12), []).append(t)
        assert marked
        for pair in marked.values():
            assert pair[0] == pytest.approx(pair[1], rel=1e-12)

    def test_grid_collision_with_interface(self):
        # n = 11 puts a grid point exactly on the -0.4 h interface
        cfg = make_case("C", scheme=(1, 8, 1), p=1.0)
        sol, _ = solve_cfg(cfg)
        z, _, _, _, sides = _profile_columns(*sol, MAT, cfg.layup, cfg.L / 2, 11)
        assert [side for zi, side in zip(z, sides) if abs(zi + 0.4) < 1e-12] == ["below", "above"]

    def test_minimum_samples(self):
        cfg = make_case("A", p=1.0)
        sol, _ = solve_cfg(cfg)
        with pytest.raises(ValueError):
            _profile_columns(*sol, MAT, cfg.layup, 1.0, 1)

    @pytest.mark.parametrize("kind,scheme", [("A", None), ("B", (2, 2, 1)),
                                             ("C", (1, 8, 1))])
    def test_rows_equal_pointwise_stress_at(self, kind, scheme):
        # the profile makes one stress-factor call for all its rows; every row must still be
        # bit-identical to a one-height call at its z and side
        for p in (2.0, 2.7):
            cfg = make_case(kind, scheme, p=p, R_over_L=10.0, ne=8)
            sol, _ = solve_cfg(cfg)
            for x in (0.0, cfg.L / 2, cfg.L / 8, 0.3 * cfg.L, cfg.L):
                z, _, sigma, tau, sides = _profile_columns(*sol, MAT, cfg.layup, x, 201)
                eps = _strains(*sol, [x])[0]
                for row in zip(z.tolist(), sigma.tolist(), tau.tolist(), sides):
                    zi, side = row[0], row[3]
                    point = _stresses(eps, _stress_factors(MAT, cfg.layup, [zi], [side]), zi)
                    assert row[1:3] == (point[0][0], point[1][0])


def reference_thickness_profile(sol, mat, layup, x, n_samples):
    """The profile as it was computed before the array kernel: each row's factors from a
    one-height effective_moduli call, stiffness_coeffs and shear_functions."""
    h = layup.h
    h1, h4 = -h / 2, h / 2
    eps = 1e-12 * h
    grid = list(np.linspace(h1, h4, n_samples))
    inner = [zi for zi in layer_edges(layup) if h1 + eps < zi < h4 - eps]
    pts = [(z, "") for z in grid if all(abs(z - zi) > eps for zi in inner)]
    seen = set()
    for zi in inner:
        if any(abs(zi - zj) <= eps for zj in seen):
            continue
        seen.add(zi)
        pts.append((zi, "below"))
        pts.append((zi, "above"))
    pts.sort(key=lambda t: (t[0], 0 if t[1] in ("", "below") else 1))
    eps0, eps1, eps2, gamma0 = _strains(*sol, [x])[0].tolist()
    rows = []
    for z, side in pts:
        C11, C55 = stiffness_coeffs(effective_moduli(mat, layup, [z], [side or None])[0], mat.nu)
        f, g = map(float, shear_functions(z, h))
        C55g = C55 * g
        rows.append((z, z / h, C11 * (eps0 + z * eps1 + f * eps2), C55g * gamma0, side))
    return rows


def profile_bits(rows):
    return [tuple(v if isinstance(v, str) else float(v).hex() for v in row) for row in rows]


class TestProfileBitIdentity:
    """``_profile_columns`` against the per-sample computation it replaced, bit for bit."""

    def assert_same(self, cfg, x, n_samples):
        sol, _ = solve_cfg(cfg)
        z, zh, sigma, tau, sides = _profile_columns(*sol, cfg.material, cfg.layup, x, n_samples)
        got = list(zip(z.tolist(), zh.tolist(), sigma.tolist(), tau.tolist(), sides))
        want = reference_thickness_profile(sol, cfg.material, cfg.layup, x, n_samples)
        assert profile_bits(got) == profile_bits(want)
        return got

    def test_random_cases_with_continuous_p(self, rng):
        for _ in range(60):
            cfg = random_case(rng)
            mat = MaterialPair(float(rng.uniform(5e10, 3e11)), float(rng.uniform(5e10, 4e11)),
                               float(rng.uniform(0.0, 0.45)))
            layup = dataclasses.replace(cfg.layup, p=float(rng.uniform(0.0, 20.0)))
            cfg = dataclasses.replace(cfg, material=mat, layup=layup)
            x = float(rng.choice([0.0, cfg.L / 2, cfg.L, rng.uniform(0.0, cfg.L)]))
            self.assert_same(cfg, x, int(rng.integers(2, 302)))

    @pytest.mark.parametrize("kind", ["B", "C"])
    @pytest.mark.parametrize("scheme", [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    def test_zero_thickness_layers(self, kind, scheme):
        cfg = make_case(kind, scheme, p=2.5, R_over_L=8.0, ne=8)
        for n_samples in (2, 11, 201):
            self.assert_same(cfg, 0.3 * cfg.L, n_samples)

    @pytest.mark.parametrize("kind", ["B", "C"])
    def test_interfaces_closer_than_the_snap_are_sampled_once(self, kind):
        # a core of 5e-14 h keeps its layer, but its two interfaces lie within the snap
        # tolerance (1e-12 h) of each other, so the profile has one two-sided pair there
        cfg = make_case(kind, (1, 1e-13, 1), p=2.5, ne=8)
        assert len(cfg.layup.layers) == 3
        for n_samples in (2, 11, 201):
            rows = self.assert_same(cfg, 0.3 * cfg.L, n_samples)
            assert [row[4] for row in rows if row[4]] == ["below", "above"]

    def test_interior_node_station(self):
        cfg = make_case("B", (2, 2, 1), p=3.7, bc="CF", ne=8)
        self.assert_same(cfg, 3 * cfg.mesh.Le, 201)

    def test_grid_point_on_an_interface(self):
        # 21 samples over h = 1 put grid points on z = -0.4 and z = +0.4
        cfg = make_case("C", (1, 8, 1), p=0.0, ne=8)
        rows = self.assert_same(cfg, cfg.L / 4, 21)
        assert len(rows) == 23
        assert [side for z, *_, side in rows if abs(abs(z) - 0.4) < 1e-12] == ["below", "above"] * 2


class TestRandomizedSurfaceCondition:
    def test_many_random_cases(self, rng):
        for _ in range(25):
            cfg = random_case(rng)
            sol, _ = solve_cfg(cfg)
            x = float(rng.uniform(0, cfg.L))
            z = np.array([cfg.h / 2, -cfg.h / 2])
            factors = _stress_factors(cfg.material, cfg.layup, z, [None, None])
            tau = _stresses(_strains(*sol, [x])[0], factors, z)[1]
            assert tau.tolist() == [0.0, 0.0]
