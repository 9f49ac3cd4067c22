"""Case evaluation, mesh-convergence studies and parameter sweeps.

``evaluate_case`` runs the full pipeline for one configuration:
rigidities, assembly, solve, then the three reported quantities

    w_bar     at x = L/2 (SS, CC) or x = L (CF)
    sigma_bar at (L/2, +h/2)
    tau_bar   at (0, 0)

Nondimensional values are defined for the uniform load case; point-load
cases report the dimensional deflection only.  Every function here is
deterministic and stateless, so independent studies can run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import CaseConfig, with_parameter
from .postproc import deflection_point, displacement_at, nondimensionalize, stress_at
from .section import compute_rigidities
from .solver import Solution, solve_static


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
    rig = compute_rigidities(cfg.material, cfg.layup)
    sol = solve_static(cfg.mesh(), rig, cfg.bc, cfg.load)
    L, h = cfg.L, cfg.h
    x_w = deflection_point(cfg.bc, L)
    w = displacement_at(sol, x_w)[1]
    if cfg.load.kind == "udl":
        q = cfg.load.magnitude
        sigma = stress_at(sol, cfg.material, cfg.layup, L / 2.0, h / 2.0).sigma_x
        tau = stress_at(sol, cfg.material, cfg.layup, 0.0, 0.0).tau_xz
        return CaseResults(
            config=cfg, solution=sol, x_deflection=x_w, w=w,
            w_bar=nondimensionalize(w, "deflection", cfg.material, L, h, q),
            sigma_bar=nondimensionalize(sigma, "sigma", cfg.material, L, h, q),
            tau_bar=nondimensionalize(tau, "tau", cfg.material, L, h, q),
        )
    return CaseResults(config=cfg, solution=sol, x_deflection=x_w, w=w,
                       w_bar=None, sigma_bar=None, tau_bar=None)


@dataclass(frozen=True)
class ConvergenceRow:
    ne: int
    value: float


@dataclass(frozen=True)
class ConvergenceResult:
    """Deflection per mesh size; ``monotone`` flags a clean sequence."""

    rows: tuple[ConvergenceRow, ...]
    quantity: str                  # 'w_bar' or 'w'
    monotone: bool


def convergence_study(cfg: CaseConfig, ne_list: list[int]) -> ConvergenceResult:
    """Re-solve the case across mesh sizes and report the deflection."""
    if not ne_list:
        raise ValueError("ne_list must not be empty")
    rows = []
    quantity = "w_bar" if cfg.load.kind == "udl" else "w"
    for ne in ne_list:
        if ne < 1:
            raise ValueError(f"element counts must be >= 1, got {ne}")
        res = evaluate_case(replace(cfg, ne=ne))
        rows.append(ConvergenceRow(ne=ne, value=res.w_bar if quantity == "w_bar" else res.w))
    vals = [r.value for r in rows]
    scale = max(abs(v) for v in vals) or 1.0
    monotone = all(b >= a - 1e-12 * scale for a, b in zip(vals, vals[1:]))
    return ConvergenceResult(rows=tuple(rows), quantity=quantity, monotone=monotone)


@dataclass(frozen=True)
class SweepRow:
    value: str                    # swept value as given (e.g. 'inf', '1-2-1')
    results: CaseResults


def sweep(cfg: CaseConfig, param: str, values: list) -> list[SweepRow]:
    """Evaluate the base case with one parameter swept over values.

    Every value is validated (a bad one rejects the whole sweep before
    any solve); rows keep the input order.
    """
    configs = [(str(v), with_parameter(cfg, param, v)) for v in values]
    return [SweepRow(value=label, results=evaluate_case(c)) for label, c in configs]
