"""Band assembly, boundary conditions and the static solve.

Dense checks expand the program's band with
``reference_element.dense_from_band`` and delete constrained rows and
columns with ``eliminate``.
"""

import concurrent.futures
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from fgcbeam import (
    DEFAULT_MATERIAL,
    BoundaryCondition,
    Layup,
    LoadCase,
    Mesh,
    SingularSystemError,
    assemble_load,
    compute_rigidities,
    solve_static,
    table_scales,
)
from fgcbeam import solver as solver_module
from fgcbeam.benchmarks import ALL_CELLS
from fgcbeam.element import element_stiffness
from fgcbeam.postproc import _deflections
from fgcbeam.solver import (
    HALF_BAND,
    _constrain,
    _fill_band,
    _solve_bands,
    backward_error,
)

import reference_element
from reference_element import dense_from_band
from conftest import make_case, make_layup, random_case

MAT = DEFAULT_MATERIAL
RIG = compute_rigidities(MAT, Layup.single_layer(1.0, 1.0))


def solve_case(cfg):
    rig = compute_rigidities(cfg.material, cfg.layup)
    return solve_static(cfg.mesh, rig, cfg.bc, cfg.load)


def band(mesh, rig):
    """The program's global stiffness in band storage."""
    return _fill_band(mesh, element_stiffness([rig], mesh)[0])


def dense(mesh, rig):
    return dense_from_band(band(mesh, rig))


def eliminate(K, F, bc, mesh):
    """The dense system without the constrained rows and columns, and its free DOFs."""
    free = np.setdiff1d(np.arange(mesh.ndof), bc.constrained_dofs(mesh))
    return K[np.ix_(free, free)], F[free], free


def dense_by_element_loop(mesh, rig):
    """Direct-stiffness assembly, one element at a time (reference)."""
    K = np.zeros((mesh.ndof, mesh.ndof))
    Ke = element_stiffness([rig], mesh)[0]
    for e in range(mesh.ne):
        K[mesh.element_dofs(e), mesh.element_dofs(e)] += Ke
    return K


def w_bar_of(cfg):
    d = solve_case(cfg)
    x = cfg.L if cfg.bc is BoundaryCondition.CF else cfg.L / 2
    w = _deflections(d, cfg.mesh, x)
    return table_scales(cfg.material.E_m, cfg.L, cfg.h, cfg.load.magnitude)[0] * w


class TestMesh:
    def test_counts_and_coords(self):
        mesh = Mesh(L=5.0, ne=4)
        assert mesh.ndof == 20 and mesh.n_nodes == 5
        assert mesh.Le == 1.25
        assert mesh.element_dofs(3) == slice(12, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(L=0.0, ne=4)
        with pytest.raises(ValueError):
            Mesh(L=1.0, ne=0)
        with pytest.raises(ValueError):
            Mesh(L=1.0, ne=4, inv_R=-0.1)
        assert Mesh(L=1.0, ne=np.int64(16)).ne == 16      # numpy integers have __index__


class TestAssemble:
    def test_single_element_equals_element_matrix(self):
        mesh = Mesh(L=1.0, ne=1)
        K = dense(mesh, RIG)
        Ke = element_stiffness([RIG], mesh)[0]
        assert np.array_equal(K, Ke)

    def test_symmetry_and_band(self):
        mesh = Mesh(L=5.0, ne=4)
        K = dense(mesh, RIG)
        assert K.shape == (20, 20)
        assert np.max(np.abs(K - K.T)) == 0.0
        n = mesh.ndof
        for i in range(n):
            for j in range(n):
                if abs(i - j) >= 8:
                    assert K[i, j] == 0.0

    @pytest.mark.parametrize("ne", [1, 2, 5, 9])
    def test_band_holds_the_element_loop_sum(self, ne):
        # one Ke, and a stack of M = 3, which gives the band of the block-diagonal matrix of
        # the M systems: block m holds system m's element loop sum bit for bit, and every
        # coupling entry is 0
        mesh = Mesh(L=3.0, ne=ne, inv_R=0.1)
        stack = [RIG, compute_rigidities(MAT, make_layup("B", (1, 2, 1), 2.0)),
                 compute_rigidities(MAT, make_layup("C", (1, 8, 1), 5.0))]
        n = mesh.ndof
        for rigs in (stack[:1], stack):
            ab = _fill_band(mesh, element_stiffness(rigs, mesh))
            assert ab.shape == (HALF_BAND + 1, len(rigs) * n) and ab.flags.f_contiguous
            for m, rig in enumerate(rigs):
                K = dense_by_element_loop(mesh, rig)
                block = ab[:, m * n:(m + 1) * n]
                for i in range(n):
                    for j in range(i, min(i + HALF_BAND + 1, n)):
                        assert block[HALF_BAND + i - j, j].tobytes() == K[i, j].tobytes()
                for k in range(1, HALF_BAND + 1):      # K[i, j], i in block m - 1, j in block m
                    assert (block[HALF_BAND - k, :k] == 0.0).all()
                assert np.array_equal(dense_from_band(block), K)

    def test_axial_rigid_mode_survives_assembly(self):
        mesh = Mesh(L=5.0, ne=6)
        K = dense(mesh, RIG)
        d = np.zeros(mesh.ndof)
        d[0::4] = 1.0
        assert np.linalg.norm(K @ d) <= 1e-12 * np.linalg.norm(K, 2)


class TestAssembleLoad:
    def test_udl_total(self):
        mesh = Mesh(L=5.0, ne=8)
        F = assemble_load(mesh, LoadCase("udl", 3.0))
        assert F[1::4].sum() == pytest.approx(3.0 * 5.0, rel=1e-14)

    def test_zero_udl(self):
        assert np.all(assemble_load(Mesh(L=1, ne=4), LoadCase("udl", 0.0)) == 0.0)

    def test_point_end(self):
        mesh = Mesh(L=2.0, ne=8)
        F = assemble_load(mesh, LoadCase("point_end", 11.0))
        assert F[4 * 8 + 1] == 11.0 and np.count_nonzero(F) == 1

    def test_point_mid(self):
        mesh = Mesh(L=2.0, ne=8)
        F = assemble_load(mesh, LoadCase("point_mid", 11.0))
        assert F[4 * 4 + 1] == 11.0 and np.count_nonzero(F) == 1

    def test_point_mid_odd_ne_rejected(self):
        with pytest.raises(ValueError):
            assemble_load(Mesh(L=2.0, ne=7), LoadCase("point_mid", 1.0))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            LoadCase("pressure", 1.0)


class TestApplyBcs:
    @pytest.mark.parametrize("bc,reduced", [("SS", 65), ("CC", 60), ("CF", 64)])
    def test_reduced_dimensions_ne16(self, bc, reduced):
        mesh = Mesh(L=5.0, ne=16)
        fixed = BoundaryCondition(bc).constrained_dofs(mesh)
        assert mesh.ndof - len(set(fixed)) == reduced
        assert all(mesh.ndof > i >= 0 for i in fixed)

    def test_ss_constrains_w_ends_and_axial_anchor(self):
        mesh = Mesh(L=1.0, ne=4)
        fixed = BoundaryCondition.SS.constrained_dofs(mesh)
        assert sorted(fixed) == [0, 1, 4 * 4 + 1]

    def test_cf_clamps_left_only(self):
        mesh = Mesh(L=1.0, ne=4)
        assert sorted(BoundaryCondition.CF.constrained_dofs(mesh)) == [0, 1, 2, 3]


class TestSolveStatic:
    def test_reference_value_ss_ceramic(self):
        assert w_bar_of(make_case("A", p=0.0, L_over_h=5)) == pytest.approx(
            3.1652, rel=1e-3)

    def test_reference_value_cc_fg_core(self):
        cfg = make_case("C", scheme=(1, 8, 1), p=5.0, L_over_h=5, bc="CC")
        assert w_bar_of(cfg) == pytest.approx(2.5036, rel=2e-3)

    def test_reference_value_curved(self):
        cfg = make_case("A", p=2.0, L_over_h=5, R_over_L=10.0)
        assert w_bar_of(cfg) == pytest.approx(8.0578, rel=2e-3)

    def test_linearity_in_load(self):
        cfg1 = make_case("B", scheme=(2, 2, 1), p=2.0, load=LoadCase("udl", 1.0))
        cfg2 = make_case("B", scheme=(2, 2, 1), p=2.0, load=LoadCase("udl", 2.0))
        d1, d2 = solve_case(cfg1), solve_case(cfg2)
        assert np.allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-18)

    def test_constrained_dofs_exactly_zero(self):
        cfg = make_case("A", p=1.0, bc="CC")
        d = solve_case(cfg)
        for i in BoundaryCondition.CC.constrained_dofs(cfg.mesh):
            assert d[i] == 0.0

    def test_residual_bound(self):
        cfg = make_case("B", scheme=(1, 2, 1), p=5.0, bc="CF", R_over_L=8.0)
        rig = compute_rigidities(cfg.material, cfg.layup)
        mesh = cfg.mesh
        d = solve_static(mesh, rig, cfg.bc, cfg.load)
        K = dense(mesh, rig)
        F = assemble_load(mesh, cfg.load)
        K_red, F_red, free = eliminate(K, F, cfg.bc, mesh)
        res = np.linalg.norm(K_red @ d[free] - F_red)
        assert res <= 1e-10 * np.linalg.norm(F_red)

    def test_singular_system_names_dof(self):
        # SS without the axial anchor leaves u0 = const strain free
        mesh = Mesh(L=5.0, ne=4)
        ab = band(mesh, RIG)
        F = assemble_load(mesh, LoadCase("udl", 1.0))
        _constrain(ab, F, [1, 4 * mesh.ne + 1])
        _, error = _solve_bands(ab, F[None])
        assert isinstance(error, SingularSystemError)
        assert re.search(r"node \d+, dof", str(error))

    def test_fully_constrained_single_element(self):
        d = solve_static(Mesh(L=1.0, ne=1), RIG, BoundaryCondition.CC, LoadCase("udl", 1.0))
        assert np.all(d == 0.0)


class TestSolverInvariants:
    @pytest.mark.parametrize("bc", ["SS", "CC", "CF"])
    def test_reduced_stiffness_spd(self, bc):
        cfg = make_case("A", p=2.0, R_over_L=5.0, bc=bc, ne=8)
        rig = compute_rigidities(cfg.material, cfg.layup)
        mesh = cfg.mesh
        K_red, _, _ = eliminate(dense(mesh, rig),
                                assemble_load(mesh, cfg.load), cfg.bc, mesh)
        assert np.min(np.linalg.eigvalsh(K_red)) > 0.0

    def test_cc_deflection_monotone_in_mesh(self):
        vals = [w_bar_of(make_case("A", p=1.0, L_over_h=5, bc="CC", ne=ne))
                for ne in (2, 4, 8, 16, 32)]
        assert all(b >= a - 1e-12 * abs(b) for a, b in zip(vals, vals[1:]))

    def test_reactions_balance_udl(self):
        cfg = make_case("B", scheme=(2, 1, 1), p=5.0, bc="SS", ne=10)
        rig = compute_rigidities(cfg.material, cfg.layup)
        mesh = cfg.mesh
        d = solve_static(mesh, rig, cfg.bc, cfg.load)
        K = dense(mesh, rig)
        F = assemble_load(mesh, cfg.load)
        reactions = K @ d - F
        w_fixed = [1, 4 * mesh.ne + 1]
        total = sum(reactions[i] for i in w_fixed)
        q, L = cfg.load.magnitude, cfg.L
        assert total == pytest.approx(-q * L, rel=1e-8)

    def test_nearly_straight_matches_straight(self):
        base = make_case("A", p=2.0, L_over_h=5, R_over_L=math.inf)
        near = make_case("A", p=2.0, L_over_h=5, R_over_L=1e9)
        assert w_bar_of(near) == pytest.approx(w_bar_of(base), rel=1e-6)

    def test_superposition_of_loads(self):
        kw = dict(kind="B", scheme=(1, 1, 1), p=2.0, bc="CF", ne=8)
        d_udl = solve_case(make_case(load=LoadCase("udl", 2.0), **kw))
        d_pt = solve_case(make_case(load=LoadCase("point_end", 5.0), **kw))
        mesh = make_case(**kw).mesh
        rig = compute_rigidities(MAT, make_layup("B", (1, 1, 1), 2.0))
        K = dense(mesh, rig)
        F = (assemble_load(mesh, LoadCase("udl", 2.0))
             + assemble_load(mesh, LoadCase("point_end", 5.0)))
        K_red, F_red, free = eliminate(K, F, BoundaryCondition.CF, mesh)
        d_sum = np.zeros(mesh.ndof)
        d_sum[free] = np.linalg.solve(K_red, F_red)
        assert np.allclose(d_udl + d_pt, d_sum, rtol=1e-10, atol=1e-16)


class TestBandedSolve:
    def test_constrained_dofs_become_identity(self):
        mesh = Mesh(L=5.0, ne=4)
        ab = band(mesh, RIG)
        F = assemble_load(mesh, LoadCase("udl", 1.0))
        fixed = BoundaryCondition.CC.constrained_dofs(mesh)
        _constrain(ab, F, fixed)
        K = dense_by_element_loop(mesh, RIG)
        for i in range(mesh.ndof):
            for j in range(i, min(i + HALF_BAND + 1, mesh.ndof)):
                want = float(i == j) if i in fixed or j in fixed else K[i, j]
                assert ab[HALF_BAND + i - j, j] == want
        assert not F[fixed].any()

    def test_matches_dense_solve_on_random_cases(self, rng):
        # Two backward-stable solves agree to about cond(K) * eps, which
        # reaches 1e-5 at ne = 256; the measured gap stays 100x below it.
        eps = np.finfo(float).eps
        for _ in range(30):
            cfg = random_case(rng)
            rig = compute_rigidities(cfg.material, cfg.layup)
            mesh = cfg.mesh
            d = solve_static(mesh, rig, cfg.bc, cfg.load)
            K_red, F_red, free = eliminate(dense_by_element_loop(mesh, rig),
                                           assemble_load(mesh, cfg.load), cfg.bc, mesh)
            d_ref = np.zeros(mesh.ndof)
            d_ref[free] = np.linalg.solve(K_red, F_red)
            lam = np.linalg.eigvalsh(K_red)                 # K_red is SPD
            bound = lam[-1] / lam[0] * eps * np.linalg.norm(d_ref)
            assert np.linalg.norm(d - d_ref) <= bound

    def test_every_fixture_case_solves_on_refined_meshes(self):
        cases = dict.fromkeys(cell.config for cell in ALL_CELLS)
        for cfg in cases:
            rig = compute_rigidities(cfg.material, cfg.layup)
            for ne in (24, 32, 64, 256, 1024):
                mesh = Mesh(L=cfg.L, ne=ne, inv_R=cfg.inv_R)
                d = solve_static(mesh, rig, cfg.bc, cfg.load)
                assert np.isfinite(d).all()
        assert len(cases) == 420

    def test_fixture_solutions_bit_equal_to_reference_band(self):
        # the two-slab band fill and the vectorised Ke change no bit of K or d
        cases = dict.fromkeys(cell.config for cell in ALL_CELLS)
        for cfg in cases:
            rig = compute_rigidities(cfg.material, cfg.layup)
            for ne in (16, 1024):
                mesh = Mesh(L=cfg.L, ne=ne, inv_R=cfg.inv_R)
                ab = reference_element.assemble_banded(mesh, rig)
                assert band(mesh, rig).tobytes() == ab.tobytes()
                F = assemble_load(mesh, cfg.load)
                _constrain(ab, F, cfg.bc.constrained_dofs(mesh))
                d = solve_static(mesh, rig, cfg.bc, cfg.load)
                assert d.tobytes() == _solve_bands(ab, F[None])[0][0].tobytes()
        assert len(cases) == 420

    def test_gate_rejects_perturbed_solution(self, monkeypatch):
        cfg = make_case("C", scheme=(1, 8, 1), p=2.0, bc="CF", R_over_L=8.0, ne=256)
        rig = compute_rigidities(cfg.material, cfg.layup)
        mesh = cfg.mesh
        ab = band(mesh, rig)
        F = assemble_load(mesh, cfg.load)
        _constrain(ab, F, cfg.bc.constrained_dofs(mesh))
        d = _solve_bands(ab, F[None])[0][0]
        bound = mesh.ndof * np.finfo(float).eps
        assert backward_error(ab, d[None], F[None])[0] <= bound
        noise = np.random.default_rng(7).standard_normal(mesh.ndof)
        perturbed = d * (1.0 + 1e-8 * noise)
        assert backward_error(ab, perturbed[None], F[None])[0] > 100 * bound

        real_solve = solver_module.dpbsv

        def perturbed_solve(ab, F):
            x, info = real_solve(ab, F)
            return x * (1.0 + 1e-8 * noise), info

        monkeypatch.setattr(solver_module, "dpbsv", perturbed_solve)
        with pytest.raises(SingularSystemError, match="backward error"):
            solve_static(mesh, rig, cfg.bc, cfg.load)

    def test_backward_error_against_dense_norms(self, rng):
        # ||K||_inf is the largest dense row sum: a row's band entries left of the
        # diagonal are its column's upper part, those right of it the mirrored entries;
        # the M blocks' bands side by side are the band of their block-diagonal matrix
        M, n = 3, 23
        ab = rng.standard_normal((M, HALF_BAND + 1, n))
        for k in range(1, HALF_BAND + 1):
            ab[:, HALF_BAND - k, :k] = 0.0      # outside the block: a coupling entry
        d, F = rng.standard_normal((2, M, n))
        got = backward_error(np.concatenate(ab, axis=1), d, F)
        for m in range(M):
            K = dense_from_band(ab[m])
            scale = np.abs(K).sum(axis=1).max() * np.abs(d[m]).max() + np.abs(F[m]).max()
            assert got[m] == pytest.approx(np.abs(K @ d[m] - F[m]).max() / scale, rel=1e-12)

    def test_non_finite_solution_rejected(self):
        mesh = Mesh(L=1.0, ne=2)
        ab = band(mesh, RIG)
        F = assemble_load(mesh, LoadCase("udl", 1.0))
        d = np.full(mesh.ndof, np.nan)
        assert not backward_error(ab, d[None], F[None])[0] <= 1.0


class TestBlockDiagonalSolve:
    """``solve_batch`` solves a mesh group as the one band of its block-diagonal matrix.

    If anything in the group fails (a pivot, the gate, or an element stiffness
    beyond float64), each job is solved again alone, so every job keeps the bits
    and the verdict of its lone ``solve_static``.
    """

    CONFIGS = [make_case("A", p=1.0, bc="SS"), make_case("B", scheme=(1, 2, 1), p=2.0, bc="CC"),
               make_case("C", scheme=(1, 8, 1), p=5.0, bc="CF"),
               make_case("B", scheme=(2, 2, 1), p=0.5, bc="SS", load=LoadCase("point_mid", 2.0)),
               make_case("A", p=10.0, bc="CF", load=LoadCase("point_end", 1.5))]

    @staticmethod
    def broken(rig, fault):
        """rig with a negative A11 (a failed pivot), an A11 whose element stiffness
        overflows, or a NaN D11 (a NaN solution, which the gate rejects)."""
        if fault in ("pivot", "overflow"):
            return dataclasses.replace(rig, A11=-rig.A11 if fault == "pivot" else 1e308)
        return dataclasses.replace(rig, D11=math.nan) if fault == "gate" else rig

    @staticmethod
    def lone(mesh, job):
        try:
            return solve_static(mesh, *job), None
        except (SingularSystemError, ArithmeticError) as err:
            return None, str(err)

    @pytest.mark.parametrize("faults", [
        ["ok", "pivot", "ok"], ["ok", "gate", "ok"], ["pivot", "ok", "gate", "pivot", "ok"],
        ["ok", "pivot", "ok", "pivot", "ok"], ["ok", "ok", "ok", "gate", "pivot"],
        ["gate", "gate", "ok"], ["ok", "overflow", "gate", "ok", "pivot"],
        ["overflow", "ok"], ["ok", "pivot"]])
    def test_each_job_gets_its_lone_bits_and_verdict(self, faults):
        mesh = self.CONFIGS[0].mesh
        jobs = [(self.broken(compute_rigidities(cfg.material, cfg.layup), fault), cfg.bc, cfg.load)
                for cfg, fault in zip(self.CONFIGS, faults)]
        D, errors = solver_module.solve_batch(mesh, jobs)
        for m, job in enumerate(jobs):
            d, message = self.lone(mesh, job)
            assert (errors[m] and str(errors[m])) == message
            if faults[m] == "ok":
                assert message is None and D[m].tobytes() == d.tobytes()
            elif faults[m] == "pivot":
                assert re.search(r"not positive definite at node \d+, dof u0", message)
            elif faults[m] == "overflow":
                assert isinstance(errors[m], FloatingPointError)
            else:
                assert message.startswith("solve rejected: backward error nan")

    def test_gate_judges_every_system_of_the_stack(self, monkeypatch):
        # a finite solution that the gate rejects crosses no coupling, so the gate
        # itself must find a rejected system behind passing ones
        cfg = self.CONFIGS[0]
        noise = np.random.default_rng(7).standard_normal(cfg.mesh.ndof)
        real = solver_module.dpbsv

        def dpbsv(ab, F):       # perturbs each solution under a downward load
            x, info = real(ab, F)
            x[F.sum(axis=1) < 0] *= 1.0 + 1e-8 * noise
            return x, info

        monkeypatch.setattr(solver_module, "dpbsv", dpbsv)
        jobs = [(RIG, cfg.bc, cfg.load)] * 2 + [(RIG, cfg.bc, LoadCase("udl", -1.0))]
        _, errors = solver_module.solve_batch(cfg.mesh, jobs)
        assert errors[:2] == [None, None]
        assert str(errors[2]).startswith("solve rejected: backward error")
        assert str(errors[2]) == self.lone(cfg.mesh, jobs[2])[1]

    def test_pivot_error_names_the_systems_own_node(self):
        # a failed pivot at global column info of the (8, M n) band is system
        # (info - 1) // n's, at its DOF (info - 1) % n
        cfg = self.CONFIGS[1]
        rig = compute_rigidities(cfg.material, cfg.layup)
        rig = dataclasses.replace(rig, A55s=-rig.A55s)
        jobs = [(RIG, cfg.bc, cfg.load)] * 3 + [(rig, cfg.bc, cfg.load)]
        _, errors = solver_module.solve_batch(cfg.mesh, jobs)
        assert errors[:3] == [None] * 3
        assert str(errors[3]) == ("stiffness is not positive definite at node 2, dof phi_x; "
                                  "check boundary conditions and mesh")

    @pytest.mark.parametrize("ne", [1, 2, 16])
    def test_one_store_constrains_each_job_as_its_lone_band(self, ne, monkeypatch):
        # job m's DOF k is the group band's DOF m ndof + k.  At ne = 1 CC fixes all 8 DOFs
        # of its block, so constrained DOFs of adjacent blocks lie within HALF_BAND of each
        # other, and a row past a block's last column stores over coupling entries
        configs = [make_case(kind, p=p, bc=bc, ne=ne, load=LoadCase(load, f))
                   for kind, p, bc, load, f in [("A", 1.0, "CC", "udl", 1.0),
                                                ("C", 5.0, "CC", "udl", 2.0),
                                                ("B", 2.0, "SS", "udl", 0.5),
                                                ("A", 0.0, "CF", "point_end", 3.0),
                                                ("B", 0.5, "CC", "udl", 1.5),
                                                ("C", 10.0, "CF", "udl", 1.0),
                                                ("A", 2.0, "SS", "udl", 4.0)]]
        mesh = configs[0].mesh
        jobs = [(compute_rigidities(cfg.material, cfg.layup), cfg.bc, cfg.load)
                for cfg in configs]
        seen, real = [], solver_module._solve_bands

        def solve(ab, F):
            seen.append((ab.copy(order="A"), F.copy()))
            return real(ab, F)

        monkeypatch.setattr(solver_module, "_solve_bands", solve)
        D, errors = solver_module.solve_batch(mesh, jobs)
        assert errors == [None] * len(jobs) and len(seen) == 1
        (ab, F), n = seen[0], mesh.ndof
        lone = []
        for rig, bc, load in jobs:
            ab_m, F_m = band(mesh, rig), assemble_load(mesh, load)
            _constrain(ab_m, F_m, bc.constrained_dofs(mesh))
            lone.append((ab_m, F_m))
        assert ab.shape == (HALF_BAND + 1, len(jobs) * n) and ab.flags.f_contiguous
        assert ab.tobytes("F") == np.concatenate([a for a, _ in lone], axis=1).tobytes("F")
        assert F.tobytes() == np.array([f for _, f in lone]).tobytes()
        for m in range(1, len(jobs)):               # K[i, j], i in block m - 1, j in block m
            for k in range(1, HALF_BAND + 1):
                assert (ab[HALF_BAND - k, m * n:m * n + k] == 0.0).all()
        for m, job in enumerate(jobs):
            assert D[m].tobytes() == solve_static(mesh, *job).tobytes()

    @pytest.mark.parametrize("faults,calls", [
        (["ok"] * 5, 1), (["ok", "pivot", "ok"], 4), (["pivot", "ok", "ok"], 4),
        (["ok", "ok", "pivot"], 4), (["ok", "pivot", "ok", "pivot", "ok"], 6),
        (["ok", "overflow"], 1)])
    def test_dpbsv_calls_per_group(self, faults, calls, monkeypatch):
        # a passing group makes one dpbsv and one gate dsbmv call; a failing group makes
        # one dpbsv for the group and one for each job solved again alone (an element
        # overflow fails the group, and then its own job, before any call)
        counted = {"dpbsv": [], "residual": []}
        for name, sizes in counted.items():
            def call(*args, real=getattr(solver_module, name), sizes=sizes):
                sizes.append(len(args[-1]))
                return real(*args)

            monkeypatch.setattr(solver_module, name, call)
        jobs = [(self.broken(RIG, fault), cfg.bc, cfg.load)
                for cfg, fault in zip(self.CONFIGS, faults)]
        solver_module.solve_batch(self.CONFIGS[0].mesh, jobs)
        group = [] if "overflow" in faults else [len(jobs)]
        assert counted["dpbsv"] == group + [1] * (calls - len(group))
        if faults == ["ok"] * len(jobs):
            assert counted["residual"] == [len(jobs)]

    def test_concurrent_groups_keep_their_serial_bits(self):
        # the LAPACK binding keeps no state between calls, and ctypes releases the
        # interpreter lock inside LAPACK, so threads overlap in the library itself
        groups = {}
        for cfg in dict.fromkeys(cell.config for cell in ALL_CELLS):
            rig = compute_rigidities(cfg.material, cfg.layup)
            groups.setdefault(cfg.mesh, []).append((rig, cfg.bc, cfg.load))
        serial = {mesh: solver_module.solve_batch(mesh, jobs)[0].tobytes()
                  for mesh, jobs in groups.items()}
        work = list(groups.items()) * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(lambda item: solver_module.solve_batch(*item), work,
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * len(groups) == 52
        for (mesh, _), (D, errors) in zip(work, results):
            assert D.tobytes() == serial[mesh] and errors == [None] * len(errors)
