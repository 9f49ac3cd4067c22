"""Case evaluation, mesh-convergence studies and parameter sweeps.

``evaluate_cases`` runs the full pipeline for a list of configurations
and reports, per case,

    w_bar     at x = L/2 (SS, CC) or x = L (CF)
    sigma_bar at (L/2, +h/2)
    tau_bar   at (0, 0)

Nondimensional values are defined for the uniform load case; point-load
cases report the dimensional deflection only.  A ``CaseConfig`` checks
every input rule when it is built and carries its table scales, so
evaluation checks no input.

Parametric studies repeat sections and meshes, so the work is shared in
three layers, all within one call:

    section  one ``rigidity_pass`` over the distinct (material, layup)
             sections, numbered once per case, and for uniform-load cases
             one stress-factor call per section for z = h/2 and 0;
    solver   the cases are grouped by ``Mesh``, and ``solve_batch`` solves
             each group as one block-diagonal band (one ``Ke`` stack, one
             band), or, if anything in it fails, each of its cases alone;
    postproc w and the strains at (L/2, h/2) and (0, 0) of a whole group
             at once, with the ``np.vecdot`` kernels of ``postproc``.

Each case's arithmetic is that of evaluating it alone, so results are
bit-identical to ``evaluate_case``, which is the one-case list.  No
result is cached across calls.  Every function here is deterministic and
stateless, so independent studies can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import CaseConfig, with_parameter
from .postproc import (
    _deflections,
    _strains,
    _stress_factors,
    _stresses,
    deflection_point,
)
from .section import rigidity_pass
from .solver import solve_batch


#: The format of every printed result value: 10 significant digits.
PRINTED = "%.9e"


def printed(x: float) -> str:
    """x as every command prints a result value, in the ``PRINTED`` format.  The bench gate
    judges this value, so a printed row's rel_err follows from its own strings."""
    return PRINTED % x


@dataclass(frozen=True)
class CaseResults:
    """Headline results of one case; ``d`` is its solved DOF array, on ``config.mesh``."""

    config: CaseConfig
    d: np.ndarray
    x_deflection: float
    w: float                      # dimensional deflection at the station (m)
    w_bar: float | None           # None for point-load cases
    sigma_bar: float | None
    tau_bar: float | None


def evaluate_case(cfg: CaseConfig) -> CaseResults:
    """Solve one case and report the table quantities."""
    return evaluate_cases([cfg])[0]


def evaluate_cases(configs: list[CaseConfig]) -> list[CaseResults]:
    """Solve every case and report the table quantities, in input order.

    Each ``CaseConfig`` checked itself when it was built, so this only groups,
    solves and recovers.  The sections are computed in input order, and the
    first one that overflows ends the list there: the cases before it are
    solved and recovered, so an earlier case's failure comes first.  Every
    group is solved, and the earliest case's failed solve or element
    overflow raises.  No case is solved twice, except in a failing group,
    whose cases are each solved again alone.
    """
    sections: dict = {}                  # each distinct section's number, in input order
    numbers = [sections.setdefault((cfg.material, cfg.layup), len(sections)) for cfg in configs]
    rigs, last = rigidity_pass(list(sections))
    groups, jobs = {}, []
    for i, (cfg, k) in enumerate(zip(configs, numbers)):
        if k == len(rigs):                # its section overflowed: raised after the cases before it
            configs = configs[:i]
            break
        jobs.append((rigs[k], cfg.bc, cfg.load))
        groups.setdefault(cfg.mesh, []).append(i)
    stacks, failures = [], []
    for mesh, members in groups.items():
        d, errors = solve_batch(mesh, [jobs[i] for i in members])
        failures += [(i, err) for i, err in zip(members, errors) if err is not None]
        stacks.append((mesh, members, d))
    if failures:
        raise min(failures)[1]           # each case index appears once
    results, factors = [None] * len(configs), {}
    for mesh, members, d in stacks:
        x_w = [deflection_point(configs[i].bc, mesh.L) for i in members]
        w_at = {x: _deflections(d, mesh, x).tolist() for x in set(x_w)}
        udl, strains = [m for m, i in enumerate(members) if configs[i].scales is not None], {}
        if udl:                           # the udl cases' strains at x = L/2 and x = 0
            eps = (s.tolist() for s in _strains(d[udl], mesh, (mesh.L / 2.0, 0.0)))
            strains = dict(zip(udl, zip(*eps)))
        for m, (i, x) in enumerate(zip(members, x_w)):
            cfg, w = configs[i], w_at[x][m]
            bars = (_uniform_load_bars(cfg, w, strains[m], factors, numbers[i])
                    if m in strains else (None, None, None))
            results[i] = CaseResults(cfg, d[m], x, w, *bars)
    if last is not None:
        raise last
    return results


def _uniform_load_bars(cfg, w, strains, factors, k) -> tuple[float, float, float]:
    """w_bar, sigma_bar at (L/2, h/2) and tau_bar at (0, 0) from the generalized strains
    at x = L/2 and x = 0; ``factors`` caches the stress factors of each section, by its
    number k."""
    if k not in factors:              # (C11, f, C55 g) at z = h/2, then at z = 0
        cols = _stress_factors(cfg.material, cfg.layup, [cfg.h / 2.0, 0.0], (None, None))
        factors[k] = list(zip(*(c.tolist() for c in cols)))
    (top, mid), (eps_mid, eps_end), (w_scale, stress_scale) = factors[k], strains, cfg.scales
    sigma = _stresses(eps_mid, top, cfg.h / 2.0)[0]
    tau = _stresses(eps_end, mid, 0.0)[1]
    return w_scale * w, stress_scale * sigma, stress_scale * tau


@dataclass(frozen=True)
class ConvergenceResult:
    """(ne, deflection) per mesh size; ``monotone`` flags a clean sequence."""

    rows: tuple[tuple[int, float], ...]
    quantity: str                  # 'w_bar' or 'w'
    monotone: bool


def convergence_study(cfg: CaseConfig, ne_list: list[int]) -> ConvergenceResult:
    """Re-solve the case across mesh sizes and report the deflection; every element
    count is checked (its ``CaseConfig`` is built) before the first solve."""
    if not ne_list:
        raise ValueError("ne_list must not be empty")
    quantity = "w_bar" if cfg.load.kind == "udl" else "w"
    results = evaluate_cases([replace(cfg, ne=ne) for ne in ne_list])
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
