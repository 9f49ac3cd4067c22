"""The batched case engine against the per-case pipeline it replaced."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from fgcbeam import (
    LoadCase,
    MaterialPair,
    compute_rigidities,
    deflection_point,
    element,
    section,
    solve_static,
    solver,
    studies,
)
from fgcbeam.benchmarks import ALL_CELLS, benchmark_compare
from fgcbeam.postproc import _deflections, _strains, _stress_factors, _stresses
from fgcbeam.studies import CaseResults, evaluate_case, evaluate_cases

from conftest import make_case, random_case


def reference_evaluate_case(cfg):
    """One case through solve_static and the recovery kernels, one solution and one point
    at a time, as before batching."""
    rig = compute_rigidities(cfg.material, cfg.layup)
    d = solve_static(cfg.mesh, rig, cfg.bc, cfg.load)
    L, h = cfg.L, cfg.h
    x_w = deflection_point(cfg.bc, L)
    w = float(_deflections(d, cfg.mesh, x_w))
    if cfg.load.kind == "udl":
        q = cfg.load.magnitude
        eps = _strains(d, cfg.mesh, [L / 2.0])[0]
        sigma = _stresses(eps, _stress_factors(cfg.material, cfg.layup, [h / 2.0], [None]),
                          h / 2.0)[0][0]
        eps = _strains(d, cfg.mesh, [0.0])[0]
        tau = _stresses(eps, _stress_factors(cfg.material, cfg.layup, [0.0], [None]), 0.0)[1][0]
        return CaseResults(
            config=cfg, d=d, x_deflection=x_w, w=w,
            w_bar=100.0 * cfg.material.E_m * h**3 / (q * L**4) * w,
            sigma_bar=h / (q * L) * sigma,
            tau_bar=h / (q * L) * tau,
        )
    return CaseResults(config=cfg, d=d, x_deflection=x_w, w=w,
                       w_bar=None, sigma_bar=None, tau_bar=None)


def _bits(value):
    return None if value is None else float(value).hex()


def assert_bit_equal(got: CaseResults, want: CaseResults):
    assert got.config == want.config
    assert got.d.tobytes() == want.d.tobytes()
    for key in ("x_deflection", "w", "w_bar", "sigma_bar", "tau_bar"):
        assert _bits(getattr(got, key)) == _bits(getattr(want, key)), key


FIXTURE_CONFIGS = list(dict.fromkeys(cell.config for cell in ALL_CELLS))


def test_fixture_configs_bit_equal_to_per_case_pipeline():
    assert len(FIXTURE_CONFIGS) == 420
    for got, cfg in zip(evaluate_cases(FIXTURE_CONFIGS), FIXTURE_CONFIGS):
        assert_bit_equal(got, reference_evaluate_case(cfg))


def test_random_cases_bit_equal_to_per_case_pipeline(rng):
    configs = [random_case(rng) for _ in range(50)]
    assert max(c.ne for c in configs) == 256
    assert {c.load.kind for c in configs} == {"udl", "point_end", "point_mid"}
    for got, cfg in zip(evaluate_cases(configs), configs):
        assert_bit_equal(got, reference_evaluate_case(cfg))


def test_duplicate_configs_each_get_their_own_result():
    a = make_case("B", scheme=(2, 2, 1), p=5.0, R_over_L=5.0, bc="CC")
    b = make_case("C", scheme=(1, 8, 1), p=2.0, bc="CF", load=LoadCase("point_mid", 3.0))
    configs = [a, b, a, a, b]
    results = evaluate_cases(configs)
    for got, cfg in zip(results, configs):
        assert_bit_equal(got, reference_evaluate_case(cfg))
    assert results[0].d is not results[2].d


def test_empty_list():
    assert evaluate_cases([]) == []


def test_single_case_is_the_one_case_list():
    cfg = make_case("A", p=1.0, bc="SS")
    assert_bit_equal(evaluate_case(cfg), evaluate_cases([cfg])[0])


def _fails_in_section(monkeypatch):
    # a section whose rigidities overflow (E h^3 beyond float64), under a point load,
    # which has no table scales to overflow when the case is built
    return make_case("B", p=1.0, h=1e100, load=LoadCase("point_mid", 1.0))


def _fails_in_solve(monkeypatch):
    # D11 ~ E h^3 underflows to zero: the stiffness is singular
    return make_case("A", p=1.0, h=1e-200, L_over_h=5e200, load=LoadCase("point_mid", 1.0))


def _fails_in_recovery(monkeypatch):
    bad, real = make_case("A", p=4.0), studies._uniform_load_bars

    def bars(cfg, *args):
        if cfg == bad:
            raise FloatingPointError("overflow in the table values")
        return real(cfg, *args)

    monkeypatch.setattr(studies, "_uniform_load_bars", bars)
    return bad


FAILS_IN = {"section": _fails_in_section, "solve": _fails_in_solve,
            "recovery": _fails_in_recovery}


@pytest.mark.parametrize("stage", sorted(FAILS_IN))
def test_first_failing_case_in_input_order_is_raised(stage, monkeypatch):
    """A case that fails at any stage is raised ahead of a later case whose section
    overflows, which the batch computes before any solve."""
    good = make_case("A", p=2.0)
    bad = FAILS_IN[stage](monkeypatch)
    later = make_case("A", p=1.0, h=1e120, load=LoadCase("point_mid", 1.0))
    configs = [good, bad, make_case("A", p=3.0), good, later, good]
    with pytest.raises(ArithmeticError) as other:
        evaluate_case(later)
    with pytest.raises(Exception) as alone:
        evaluate_case(bad)
    with pytest.raises(Exception) as batched:
        evaluate_cases(configs)
    assert type(batched.value) is type(alone.value)
    assert str(batched.value) == str(alone.value) != str(other.value)


def test_shared_work_per_call(monkeypatch):
    """benchmark_compare: one section pass of one row per section, one Ke stack per mesh."""
    calls = {"pass": 0, "rig": 0, "ke": 0}
    real_rig, real_ke = section.rigidity_pass, element.element_stiffness

    def rig(sections):
        calls["pass"] += 1
        calls["rig"] += len(sections)
        return real_rig(sections)

    def ke(*args):
        calls["ke"] += 1
        return real_ke(*args)

    monkeypatch.setattr(studies, "rigidity_pass", rig)
    monkeypatch.setattr(solver, "element_stiffness", ke)
    assert benchmark_compare().n_fail == 0
    configs = FIXTURE_CONFIGS
    assert calls["pass"] == 1
    assert calls["rig"] == len({(c.material, c.layup) for c in configs}) == 30
    assert calls["ke"] == len({c.mesh for c in configs}) <= 13


def test_one_mesh_group_with_mixed_sections_supports_and_loads():
    # the group shares one Ke stack, its stations and each load vector
    configs = [make_case(kind, p=p, bc=bc, load=load)
               for kind in ("A", "C") for p in (0.0, 5.0) for bc in ("SS", "CC", "CF")
               for load in (LoadCase("udl", 1.0), LoadCase("udl", 2.5),
                            LoadCase("point_mid", 1.0))]
    assert len({c.mesh for c in configs}) == 1
    for got, cfg in zip(evaluate_cases(configs), configs):
        assert_bit_equal(got, reference_evaluate_case(cfg))


def count_solves(monkeypatch):
    """The element counts of every job handed to solve_batch, by studies or by
    solve_static."""
    solves = []
    real = solver.solve_batch

    def counting(mesh, jobs):
        solves.extend([mesh.ne] * len(jobs))
        return real(mesh, jobs)

    monkeypatch.setattr(solver, "solve_batch", counting)
    monkeypatch.setattr(studies, "solve_batch", counting)
    return solves


@pytest.mark.parametrize("load,ne_list,message", [
    (LoadCase("udl", 1.0), [2, 4, 8, 16, 0], "mesh.ne: need at least one element, got ne = 0"),
    (LoadCase("point_mid", 1.0), [2, 4, 5],
     "mesh.ne: mid-span point load needs an even element count, got ne = 5"),
], ids=["ne_0", "odd_ne_point_mid"])
def test_convergence_study_checks_every_element_count_before_any_solve(
        load, ne_list, message, monkeypatch):
    solves = count_solves(monkeypatch)
    cfg = make_case("C", scheme=(1, 8, 1), p=2.0, load=load)
    with pytest.raises(ValueError) as err:
        studies.convergence_study(cfg, ne_list)
    assert str(err.value) == message
    assert solves == []


@pytest.mark.parametrize("fall,monotone", [(0.0, True), (1e-14, True), (1e-6, False)])
def test_convergence_study_flags_a_fall_beyond_round_off(fall, monotone, monkeypatch):
    # the last deflection falls by `fall` relative to the largest; round-off (1e-14)
    # passes, and a fall of 1e-6, far above it, makes the sequence not monotone
    values = iter([2.0, 3.0, 3.0 * (1.0 - fall)])
    monkeypatch.setattr(studies, "evaluate_cases",
                        lambda configs: [SimpleNamespace(w_bar=next(values)) for _ in configs])
    result = studies.convergence_study(make_case("A", p=1.0), [2, 4, 8])
    assert result.monotone is monotone
    assert [ne for ne, _ in result.rows] == [2, 4, 8]


def test_earliest_failed_solve_is_raised_after_every_group(monkeypatch):
    # groups solve in turn, each as one band: cases 0 and 2 (ne = 4), then
    # case 1 (ne = 8).  Every band fails but case 0's lone one: the group of cases 0
    # and 2 fails, so each is solved again alone, and case 1's failure, the earliest
    # case's, is raised
    real, calls = solver._solve_bands, []

    def solve(ab, F):
        calls.append((len(F), F.shape[-1]))
        D, error = real(ab, F)
        if len(calls) != 2:
            error = solver.SingularSystemError(f"failed at n = {F.shape[-1]}")
        return D, error

    monkeypatch.setattr(solver, "_solve_bands", solve)
    configs = [make_case("A", p=2.0, ne=4), make_case("B", p=1.0, ne=8),
               make_case("C", p=1.0, ne=4)]
    with pytest.raises(solver.SingularSystemError, match="failed at n = 36"):
        evaluate_cases(configs)
    assert calls == [(2, 20), (1, 20), (1, 20), (1, 36)]


def test_element_overflow_is_ordered_by_case():
    # case 2's element stiffness overflows (E h^3 / Le^4 beyond float64) in the first
    # group, which case 0 opens; case 1's solve fails in the later group, and its error,
    # the earliest case's, is raised
    point = LoadCase("point_mid", 1.0)
    good = make_case("A", p=2.0, L_over_h=1e-3, ne=8, load=point)
    overflow = replace(good, material=MaterialPair(E_m=1e300, E_c=1e300, nu=0.3))
    singular = make_case("A", p=1.0, h=1e-200, L_over_h=5e200, load=point)   # D11 = 0
    assert overflow.mesh == good.mesh != singular.mesh
    with pytest.raises(FloatingPointError):
        evaluate_case(overflow)
    with pytest.raises(solver.SingularSystemError) as alone:
        evaluate_case(singular)
    with pytest.raises(solver.SingularSystemError) as batched:
        evaluate_cases([good, singular, overflow])
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("ne", [1, 2, 3, 5])
@pytest.mark.parametrize("bc,load", [("SS", LoadCase("udl", 2.0)), ("CC", LoadCase("udl", 1.0)),
                                     ("CF", LoadCase("udl", 1.5)),
                                     ("CF", LoadCase("point_end", 3.0))])
def test_coarse_meshes_bit_equal_to_per_case_pipeline(ne, bc, load):
    # ne = 1 and 3 put L/2 inside an element, ne = 2 on the only interior node
    cfg = make_case("C", scheme=(1, 2, 1), p=2.0, R_over_L=4.0, bc=bc, load=load, ne=ne)
    assert_bit_equal(evaluate_case(cfg), reference_evaluate_case(cfg))


def test_results_do_not_depend_on_the_batch():
    # at ne = 9, x = L/2 lies inside an element, where w comes from four gathered DOFs
    for bc, ne, p in (("CF", 16, 5.0), ("SS", 9, 3.0)):
        cfg = make_case("B", scheme=(2, 2, 1), p=p, R_over_L=5.0, bc=bc, ne=ne)
        other = make_case("A", p=1.0, R_over_L=5.0, bc="SS", load=LoadCase("udl", 3.0), ne=ne)
        configs = [replace(c, ne=ne) for c in FIXTURE_CONFIGS]
        assert other.mesh == cfg.mesh and cfg not in configs
        assert sum(c.mesh == cfg.mesh for c in configs) >= 30
        runs = [evaluate_cases([cfg])[0], evaluate_cases([other, cfg])[1],
                evaluate_cases(configs[:200] + [cfg] + configs[200:])[200]]
        for res in runs:
            assert res.d.tobytes() == runs[0].d.tobytes()
            for key in ("w", "w_bar", "sigma_bar", "tau_bar"):
                assert _bits(getattr(res, key)) == _bits(getattr(runs[0], key)), key
