"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
on a passing run (pytest shows captured output automatically on
failure).  Tolerances are fixed here and match the benchmark fixture
classes: 0.1 percent for straight-beam tables, 0.2 percent for curved,
plus the numeric bounds stated inline.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fgcbeam import (
    DEFAULT_MATERIAL,
    Layup,
    LayupKind,
    LoadCase,
    MaterialPair,
    compute_rigidities,
    solve_static,
)
from fgcbeam.benchmarks import ALL_CELLS, benchmark_compare
from fgcbeam.element import element_stiffness
from fgcbeam.postproc import _strains, _stress_factors, _stresses
from fgcbeam.section import shear_functions
from fgcbeam.solver import _fill_band
from fgcbeam.studies import convergence_study, evaluate_case

from conftest import SCHEMES, layer_edges, make_case, random_case
from reference_element import dense_from_band
from test_section import assert_rigidities_close, oracle_rigidities, rigidity_matrix

MAT = DEFAULT_MATERIAL


def verdict(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def gate(tables, expected_cells, expected_skips):
    report = benchmark_compare(tables=tables)
    assert len(report.results) == expected_cells
    assert report.n_skipped == expected_skips
    return report


def expected_of(table, row, col):
    return next(c.expected for c in ALL_CELLS
                if (c.table, c.row, c.col) == (table, row, col))


def test_criterion_1_single_layer_straight_table():
    report = gate(["T6"], 30, 0)
    assert expected_of("T6", "L/h=5,p=0", "w_bar") == 3.1652
    assert expected_of("T6", "L/h=20,p=10", "sigma_bar") == 38.2826
    worst = max(r.rel_err for r in report.results)
    verdict("1 (T6, straight single-layer, 0.1%)", report.ok,
            f"{report.n_pass}/30 cells, worst rel err {worst:.2e}")


def test_criterion_2_single_layer_curved_tables():
    report = gate(["T7", "T8"], 180, 1)
    assert expected_of("T7", "L/h=5,p=1", "R/L=5") == 6.2480
    assert expected_of("T8", "L/h=5,p=5", "R/L=5") == 0.6107
    worst = max(r.rel_err for r in report.results if r.status != "skip")
    verdict("2 (T7/T8, curved single-layer, 0.2%)", report.ok,
            f"{report.n_pass}/{180 - 1} gated cells, worst rel err {worst:.2e}, "
            f"1 misprinted cell skipped")


def test_criterion_3_fg_face_straight_tables():
    report = gate(["T9", "T10", "T11"], 120, 0)
    assert expected_of("T9", "L/h=5,p=10", "1-1-1") == 12.5612
    assert expected_of("T11", "L/h=5,p=5", "1-1-1") == 1.0280
    worst = max(r.rel_err for r in report.results)
    verdict("3 (T9-T11, straight FG-face sandwich, 0.1%)", report.ok,
            f"{report.n_pass}/120 cells, worst rel err {worst:.2e}")


def test_criterion_4_fg_face_curved_tables():
    report = gate(["T12", "T15", "T16"], 360, 14)
    assert expected_of("T15", "CC,L/h=5,p=0", "R/L=5") == 0.8170
    assert expected_of("T15", "CF,L/h=5,p=1", "R/L=5") == 58.0282
    worst = max(r.rel_err for r in report.results if r.status != "skip")
    verdict("4 (T12/T15/T16, curved FG-face sandwich, 0.2%)", report.ok,
            f"{report.n_pass}/{360 - 14} gated cells, worst rel err {worst:.2e}, "
            f"14 misprinted T12 cells skipped")


def test_criterion_5_fg_core_tables():
    report = gate(["T17", "T18", "T19"], 230, 32)
    assert expected_of("T17", "CC,L/h=5", "p=5") == 2.5036
    assert expected_of("T19", "L/h=5,p=1", "R/L=10") == 6.7083
    assert expected_of("T18", "p=2", "sigma,L/h=5") == 6.5497
    assert expected_of("T18", "p=2", "tau,L/h=5") == 0.6647
    worst = max(r.rel_err for r in report.results if r.status != "skip")
    verdict("5 (T17-T19, FG-core sandwich, 0.2%)", report.ok,
            f"{report.n_pass}/{230 - 32} gated cells, worst rel err {worst:.2e}, "
            f"32 off-protocol p=0 cells skipped")


def test_criterion_6_convergence_pattern():
    ne_list = [2, 4, 8, 12, 16, 24, 32]
    cc = convergence_study(
        make_case("B", SCHEMES["1-1-1"], p=1.0, L_over_h=20, bc="CC"), ne_list)
    vals = [value for _, value in cc.rows]
    change = (vals[-1] - vals[4]) / vals[-1]
    ok_cc = cc.monotone and change < 3e-3
    ss = convergence_study(
        make_case("B", SCHEMES["1-1-1"], p=1.0, L_over_h=5, bc="SS"), [2, 32])
    ss_vals = [value for _, value in ss.rows]
    drift = abs(ss_vals[1] - ss_vals[0]) / abs(ss_vals[1])
    ok_ss = drift < 1e-4
    verdict("6 (mesh convergence pattern)", ok_cc and ok_ss,
            f"CC monotone={cc.monotone}, 16->32 change {change:.2e} < 3e-3; "
            f"SS sandwich ne2->ne32 drift {drift:.2e} < 1e-4")


def test_criterion_7a_surface_traction(rng):
    checked = 0
    for _ in range(100):
        cfg = random_case(rng)
        rig = compute_rigidities(cfg.material, cfg.layup)
        d = solve_static(cfg.mesh, rig, cfg.bc, cfg.load)
        x = float(rng.uniform(0.0, cfg.L))
        z = np.array([cfg.h / 2, -cfg.h / 2])
        factors = _stress_factors(cfg.material, cfg.layup, z, [None, None])
        top, bot = _stresses(_strains(d, cfg.mesh, [x])[0], factors, z)[1]
        assert top == 0.0 and bot == 0.0
        checked += 1
    verdict("7a (surface shear exactly zero)", checked == 100,
            f"{checked} random solved cases, tau(x, +-h/2) == 0.0 exactly")


def test_criterion_7b_stiffness_symmetry(rng):
    worst = 0.0
    for _ in range(10):
        cfg = random_case(rng)
        rig = compute_rigidities(cfg.material, cfg.layup)
        Ke = element_stiffness([rig], cfg.mesh)[0]
        K = dense_from_band(_fill_band(cfg.mesh, Ke))
        for M in (Ke, K):
            dev = np.max(np.abs(M - M.T)) / np.max(np.abs(M))
            worst = max(worst, dev)
    verdict("7b (stiffness symmetry)", worst <= 1e-12,
            f"worst relative asymmetry {worst:.2e} <= 1e-12")


def test_criterion_7c_rigid_modes(rng):
    worst = 0.0
    for kind, scheme, p in [("A", None, 2.0), ("B", SCHEMES["2-2-1"], 5.0),
                            ("C", SCHEMES["1-8-1"], 0.5)]:
        cfg = make_case(kind, scheme, p, L_over_h=8.0, ne=6)
        rig = compute_rigidities(cfg.material, cfg.layup)
        mesh = cfg.mesh
        K = dense_from_band(_fill_band(mesh, element_stiffness([rig], mesh)[0]))
        norm = np.linalg.norm(K, 2)
        x = np.linspace(0.0, mesh.L, mesh.n_nodes)
        modes = np.zeros((3, mesh.ndof))
        modes[0, 0::4] = 1.0                       # axial translation
        modes[1, 1::4] = 1.0                       # transverse translation
        modes[2, 1::4] = x                         # rotation w = x
        modes[2, 2::4] = 1.0
        for d in modes:
            energy = abs(d @ K @ d)
            worst = max(worst, energy / (norm * (d @ d)))
    verdict("7c (strain-free modes, straight beams)", worst <= 1e-12,
            f"worst normalized rigid-mode energy {worst:.2e} <= 1e-12")


def test_criterion_7d_rigidities_vs_adaptive_oracle():
    combos = 0
    for kind, scheme in [("A", None), ("B", SCHEMES["1-1-1"]),
                         ("C", SCHEMES["1-8-1"])]:
        for p in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            layup = (Layup.single_layer(p, 1.0) if kind == "A"
                     else Layup(LayupKind(kind), scheme, p, 1.0))
            got = compute_rigidities(MAT, layup)
            ref = oracle_rigidities(MAT, layup)
            assert_rigidities_close(got, ref, MAT, layup.h, rtol=1e-10)
            combos += 1
    verdict("7d (rigidities vs adaptive quadrature, 1e-10)", combos == 18,
            f"{combos} (p, layup) combinations within 1e-10 of the oracle")


def test_criterion_7e_nondimensional_invariance():
    worst = 0.0
    for kind, scheme, p in [("A", None, 1.0), ("B", SCHEMES["1-2-1"], 5.0),
                            ("C", SCHEMES["1-8-1"], 2.0)]:
        base = evaluate_case(make_case(kind, scheme, p, load=LoadCase("udl", 1.0)))
        qs = evaluate_case(make_case(kind, scheme, p, load=LoadCase("udl", 13.0)))
        import dataclasses
        cfg_es = dataclasses.replace(
            make_case(kind, scheme, p),
            material=MaterialPair(4.5 * MAT.E_m, 4.5 * MAT.E_c, MAT.nu))
        es = evaluate_case(cfg_es)
        for other in (qs, es):
            for a, b in [(base.w_bar, other.w_bar),
                         (base.sigma_bar, other.sigma_bar),
                         (base.tau_bar, other.tau_bar)]:
                worst = max(worst, abs(a - b) / abs(a))
    verdict("7e (q- and E-scaling invariance)", worst <= 1e-10,
            f"worst relative drift {worst:.2e} <= 1e-10")


def test_criterion_7f_straight_limit():
    worst = 0.0
    for kind, scheme, p, bc in [("A", None, 2.0, "SS"),
                                ("B", SCHEMES["1-1-1"], 5.0, "CC"),
                                ("C", SCHEMES["1-8-1"], 1.0, "CF")]:
        straight = evaluate_case(make_case(kind, scheme, p, bc=bc,
                                           R_over_L=math.inf))
        nearly = evaluate_case(make_case(kind, scheme, p, bc=bc, R_over_L=1e9))
        worst = max(worst, abs(straight.w_bar - nearly.w_bar) / abs(straight.w_bar))
    verdict("7f (R/L = 1e9 matches straight)", worst <= 1e-6,
            f"worst relative deviation {worst:.2e} <= 1e-6")


def test_criterion_8_resultant_cross_check(rng):
    xg, wg = leggauss(50)
    worst = 0.0
    for _ in range(20):
        # integer indices keep the fixed 50-point oracle itself exact
        cfg = random_case(rng, udl_only=True)
        if cfg.layup.p != int(cfg.layup.p):
            import dataclasses
            cfg = dataclasses.replace(
                cfg, layup=dataclasses.replace(cfg.layup, p=float(int(cfg.layup.p))))
        rig = compute_rigidities(cfg.material, cfg.layup)
        d = solve_static(cfg.mesh, rig, cfg.bc, cfg.load)
        x = float(rng.uniform(0.0, cfg.L))
        eps = _strains(d, cfg.mesh, [x])[0]
        h = cfg.h
        n = m = s = 0.0
        edges = layer_edges(cfg.layup)
        for a, b in zip(edges, edges[1:]):
            if b - a <= 0:
                continue
            z = 0.5 * (b - a) * xg + 0.5 * (a + b)
            w = 0.5 * (b - a) * wg
            sig = _stresses(eps, _stress_factors(cfg.material, cfg.layup, z, [None] * len(z)),
                            z)[0]
            n += np.sum(w * sig)
            m += np.sum(w * sig * z)
            s += np.sum(w * sig * shear_functions(z, h)[0])
        N_x, M_x, S_x, _ = rigidity_matrix(rig) @ eps
        scale = cfg.load.magnitude * cfg.L
        for got, ref, sc in ((N_x, n, scale), (M_x, m, scale * h),
                             (S_x, s, scale * h)):
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-6 * abs(sc)))
    verdict("8 (resultants vs thickness integration, 1e-8)", worst <= 1e-8,
            f"20 random cases, worst scaled deviation {worst:.2e} <= 1e-8")
