"""Case evaluation, mesh-convergence studies and parameter sweeps.

``evaluate_cases`` runs the full pipeline for a list of configurations
and reports, per case,

    w_bar     at x = L/2 (SS, CC) or x = L (CF)
    sigma_bar at (L/2, +h/2)
    tau_bar   at (0, 0)

Nondimensional values are defined for the uniform load case; point-load
cases report the dimensional deflection only.

Parametric studies repeat sections and meshes, so the work is shared in
three layers, all within one call:

    section  one ``compute_rigidities`` per distinct (material, layup),
             and for uniform-load cases one stress-factor call for z = h/2 and 0;
    solver   the cases are grouped by ``Mesh``; one ``element_stiffness``
             call per group gives every ``Ke``, and ``solve_batch`` fills,
             constrains, factors and gates one band per case;
    postproc the recovery rows of the deflection point and of the two
             stress stations are built once per group.

Each case's arithmetic is that of evaluating it alone, so results are
bit-identical to ``evaluate_case``, which is the one-case list.  Nothing
is cached across calls.  Every function here is deterministic and
stateless, so independent studies can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import CaseConfig, with_parameter
from .postproc import (
    _interpolate,
    _shape_station,
    _station_strains,
    _strain_station,
    _stress_factors,
    _stresses,
    deflection_point,
    table_scales,
)
from .section import compute_rigidities
from .solver import SingularSystemError, Solution, check_load, solve_batch


@dataclass(frozen=True)
class CaseResults:
    """Headline results of one case."""

    config: CaseConfig
    solution: Solution
    x_deflection: float
    w: float                      # dimensional deflection at the station (m)
    w_bar: float | None           # None for point-load cases
    sigma_bar: float | None
    tau_bar: float | None


def evaluate_case(cfg: CaseConfig) -> CaseResults:
    """Solve one case and report the table quantities."""
    return _evaluate_batch([cfg])[0]


def evaluate_cases(configs: list[CaseConfig]) -> list[CaseResults]:
    """Solve every case and report the table quantities, in input order.

    If the batch fails, the cases are evaluated again one at a time in
    input order, so the first failing case raises the error that
    ``evaluate_case`` gives for it.
    """
    try:
        return _evaluate_batch(configs)
    except (ValueError, SingularSystemError):
        for cfg in configs:
            evaluate_case(cfg)
        raise


def _evaluate_batch(configs: list[CaseConfig]) -> list[CaseResults]:
    """The shared-work pipeline of the module docstring; the first error found is raised."""
    rigs, factors, groups = {}, {}, {}
    for i, cfg in enumerate(configs):
        section = cfg.material, cfg.layup
        rig = rigs.get(section)
        if rig is None:
            rig = rigs[section] = compute_rigidities(*section)
        groups.setdefault(cfg.mesh(), []).append((i, cfg, rig))
    results = [None] * len(configs)
    for mesh, members in groups.items():
        w_rows, stations = {}, None
        jobs = [(rig, cfg.bc, cfg.load) for _, cfg, rig in members]
        for (i, cfg, _), sol in zip(members, solve_batch(mesh, jobs)):
            x_w = deflection_point(cfg.bc, cfg.L)
            if x_w not in w_rows:
                w_rows[x_w] = _shape_station(mesh, x_w)
            w = _interpolate(sol.d, w_rows[x_w])[1]
            if cfg.load.kind != "udl":
                results[i] = CaseResults(config=cfg, solution=sol, x_deflection=x_w, w=w,
                                         w_bar=None, sigma_bar=None, tau_bar=None)
                continue
            if stations is None:
                stations = _strain_station(mesh, mesh.L / 2.0), _strain_station(mesh, 0.0)
            section = cfg.material, cfg.layup
            stress = factors.get(section)
            if stress is None:        # (C11, f, C55 g) at z = h/2, then at z = 0
                cols = _stress_factors(*section, [cfg.h / 2.0, 0.0], (None, None))
                stress = factors[section] = list(zip(*(c.tolist() for c in cols)))
            results[i] = _uniform_load_results(cfg, sol, x_w, w, stations, stress)
    return results


def _uniform_load_results(cfg, sol, x_w, w, stations, factors) -> CaseResults:
    """Nondimensional deflection, sigma at (L/2, h/2) and tau at (0, 0)."""
    w_scale, stress_scale = table_scales(cfg.material.E_m, cfg.L, cfg.h, cfg.load.magnitude)
    sigma = _stresses(_station_strains(sol.d, stations[0]), factors[0], cfg.h / 2.0)[0]
    tau = _stresses(_station_strains(sol.d, stations[1]), factors[1], 0.0)[1]
    return CaseResults(config=cfg, solution=sol, x_deflection=x_w, w=w, w_bar=w_scale * w,
                       sigma_bar=stress_scale * sigma, tau_bar=stress_scale * tau)


@dataclass(frozen=True)
class ConvergenceResult:
    """(ne, deflection) per mesh size; ``monotone`` flags a clean sequence."""

    rows: tuple[tuple[int, float], ...]
    quantity: str                  # 'w_bar' or 'w'
    monotone: bool


def convergence_study(cfg: CaseConfig, ne_list: list[int]) -> ConvergenceResult:
    """Re-solve the case across mesh sizes and report the deflection.

    Every element count is checked before the first solve, by ``Mesh`` (ne < 1) and
    ``check_load`` (an odd ne under a mid-span point load), with their ValueErrors.
    """
    if not ne_list:
        raise ValueError("ne_list must not be empty")
    quantity = "w_bar" if cfg.load.kind == "udl" else "w"
    configs = [replace(cfg, ne=ne) for ne in ne_list]
    for c in configs:
        check_load(c.mesh(), c.bc, c.load)
    results = evaluate_cases(configs)
    vals = [getattr(res, quantity) for res in results]
    scale = max(abs(v) for v in vals) or 1.0
    monotone = all(b >= a - 1e-12 * scale for a, b in zip(vals, vals[1:]))
    return ConvergenceResult(rows=tuple(zip(ne_list, vals)), quantity=quantity,
                             monotone=monotone)


def sweep(cfg: CaseConfig, param: str, values: list) -> list[tuple[str, CaseResults]]:
    """Evaluate the base case with one parameter swept over values.

    Rows are (value as given, e.g. 'inf' or '1-2-1', results), in input
    order.  Every value is validated (a bad one rejects the whole sweep
    before any solve).
    """
    if not values:
        raise ValueError("a sweep needs at least one value")
    configs = [with_parameter(cfg, param, v) for v in values]
    return [(str(v), res) for v, res in zip(values, evaluate_cases(configs))]
