"""The three workloads: inputs from the seed, one op, and the output check.

Every workload is a closed loop with one client.  A pass is a list of
ops; ``run.py`` makes ``passes(seconds)`` of them, a count fixed by the
run length alone, and times each op.  The seed picks the order and
which cases run the largest meshes, never how many ops run or how many
of them fail today, so neither count depends on the seed or on the
machine's speed.  A workload is built from the seed and ``cases.json``
alone; ``set_refs`` hands it ``refs.json`` once set-up is over.
``before_pass()`` runs before each pass and ``after_pass(n_ops)`` after
it, both outside the timed region; ``after_pass`` returns None or why the
pass broke the workload's premise.  ``run(op)`` returns the program's
output or raises; ``check(op, output)`` returns None when the output
matches the stored reference, else the reason.

tables   one op = one full ``benchmark_compare()``; checked against the
         exact gate counts.
mesh     one op = one ``evaluate_case`` of a catalogue case at one mesh
         size ne = 16 ... 1024.
designs  one op = ``run``, ``profile --x mid`` and ``profile --x support``
         through in-process ``cli.main`` on one pool case, each pass on a
         cold quadrature cache.

Where the program solves a case at this mesh size, the reference is its
own recorded output and the check is tight.  Where it did not when the
references were recorded, the reference is the Navier series (SS) or the
same case at the finest recorded mesh, and the check allows the
discretization error of both sides (``band_tol``); those ops are counted
as band-checked.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fgcbeam import benchmarks, cli, section, studies
from fgcbeam.config import CaseConfig
from fgcbeam.materials import Layup, LayupKind, MaterialPair
from fgcbeam.solver import BoundaryCondition, LoadCase

RUNGS = (16, 32, 64, 128, 256, 512, 1024)
DEEP = 512  # mesh rungs from here on run for DEEP_CASES cases only
DEEP_CASES = 2
STRESS_KEYS = ("sigma_bar", "tau_bar", "sum_abs_s", "max_abs_s", "sum_abs_t", "max_abs_t")


def exact_rtol(ne: int) -> float:
    """Tolerance against this program's own recorded output at the same ne.

    Leaves room for round-off of a reordered solve, which grows with the
    condition number of the reduced stiffness (about 4.5e5 (ne/16)^4).
    """
    return max(1e-8, 4.5e-9 * (ne / 16) ** 4)


def band_tol(quantity: str, ne: float) -> float:
    """Bound on the relative gap between the solution at ne and the continuum.

    Deflection and axial stress converge as (16/ne)^2 from at most 3% at
    ne = 16; the shear stress at the support converges more slowly.  The
    5e-5 floor covers round-off at ne = 1024.  ne = inf is the continuum.
    """
    if math.isinf(ne):
        return 0.0
    if quantity.startswith("tau") or quantity.endswith("_t"):
        return 0.01 * (16 / ne) ** 0.5 + 5e-5
    return 0.03 * (16 / ne) ** 2 + 5e-5


def compare(got: dict, ref: dict, rtol_of, scale: float) -> str | None:
    """First mismatch between got and ref, or None.

    rtol_of(key) gives each key's relative tolerance; stress-like values
    also get scale * rtol as absolute slack, since some are zero at a support.
    """
    for key, want in ref.items():
        have = got.get(key)
        if key in ("rows", "layout"):
            if have != want:
                return f"{key}: got {have!r}, expected {want!r}"
            continue
        if have is None:
            return f"{key}: missing"
        slack = rtol_of(key) * max(abs(want), scale if key in STRESS_KEYS else 0.0)
        if not abs(have - want) <= slack:
            return f"{key}: got {have:.10g}, expected {want:.10g} (tol {slack:.2g})"
    return None


# --- case dictionaries ------------------------------------------------------

def case_config(case: dict, ne: int) -> CaseConfig:
    kind = LayupKind(case["kind"])
    layup = (Layup.single_layer(case["p"], case["h"]) if kind is LayupKind.A
             else Layup(kind, tuple(case["scheme"]), case["p"], case["h"]))
    return CaseConfig(
        material=MaterialPair(case["E_m"], case["E_c"], case["nu"]), layup=layup,
        L=case["L"], R_over_L=case["R_over_L"], bc=BoundaryCondition(case["bc"]),
        load=LoadCase(case["load"], case["magnitude"]), ne=ne)


def case_ini(case: dict) -> str:
    rl = "inf" if math.isinf(case["R_over_L"]) else repr(case["R_over_L"])
    lines = ["[material]", f"E_m = {case['E_m']!r}", f"E_c = {case['E_c']!r}",
             f"nu = {case['nu']!r}", "", "[layup]", f"kind = {case['kind']}"]
    if case["kind"] != "A":
        lines.append("scheme = " + "-".join(f"{s:g}" for s in case["scheme"]))
    lines += [f"p = {case['p']!r}", "", "[geometry]", f"L = {case['L']!r}",
              f"h = {case['h']!r}", f"R_over_L = {rl}", "", "[bc]",
              f"type = {case['bc']}", "", "[load]", f"type = {case['load']}",
              f"magnitude = {case['magnitude']!r}", "", "[mesh]", f"ne = {case['ne']}", ""]
    return "\n".join(lines)


def result_values(res) -> dict:
    """Headline outputs of an evaluate_case result (stresses for udl only)."""
    out = {"w": res.w}
    for key in ("w_bar", "sigma_bar", "tau_bar"):
        if getattr(res, key) is not None:
            out[key] = getattr(res, key)
    return out


_RUN_LINES = {
    "w": re.compile(r"^w at x = .* : (\S+) m$"),
    "w_bar": re.compile(r"^w_bar\s+= (\S+)$"),
    "sigma_bar": re.compile(r"^sigma_bar\s+= (\S+)\s"),
    "tau_bar": re.compile(r"^tau_bar\s+= (\S+)\s"),
}


def parse_run(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        for key, pattern in _RUN_LINES.items():
            m = pattern.match(line)
            if m:
                out[key] = float(m.group(1))
    return out


def run_cli(path: str) -> list[str]:
    """Stdout of ``run``, ``profile --x mid`` and ``profile --x support`` on one INI file."""
    outs = []
    for argv in (["run", path], ["profile", path, "--x", "mid"],
                 ["profile", path, "--x", "support"]):
        buf, err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fgcbeam {argv[0]} exited {code}: {err.getvalue().strip()}")
        outs.append(buf.getvalue())
    return outs


def parse_outputs(outs: list[str]) -> dict:
    return {"run": parse_run(outs[0]), "mid": parse_profile(outs[1]),
            "support": parse_profile(outs[2])}


def parse_profile(text: str) -> dict:
    """Row count, a digest of the z/side columns, and sums and maxima of both stresses."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    s = [abs(float(r[1])) for r in rows]
    t = [abs(float(r[2])) for r in rows]
    layout = hashlib.sha1("\n".join(f"{r[0]},{r[3]}" for r in rows).encode()).hexdigest()[:16]
    return {"rows": len(rows), "layout": layout, "sum_abs_s": sum(s), "max_abs_s": max(s),
            "sum_abs_t": sum(t), "max_abs_t": max(t)}


# --- workloads ---------------------------------------------------------------

class Workload:
    """Defaults: no references, and nothing to do around a pass.

    ``pass_seconds`` is a pass's nominal length on the machine the
    benchmark was built on; it only sets how many passes a run makes.
    """

    min_passes = 2
    band_checked = 0

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, int(seconds / self.pass_seconds))

    def set_refs(self, refs: dict) -> None:
        self.refs = refs

    def before_pass(self) -> None:
        pass

    def after_pass(self, n_ops: int) -> str | None:
        return None


class Tables(Workload):
    """Repeated full benchmark_compare(); the inputs are the embedded fixtures.

    Every call is the same op, so a pass is one call.
    """

    pass_seconds = 0.33

    def __init__(self, seed: int, cases: dict, workdir: Path):
        pass

    def ops(self, k: int) -> list:
        return [None]

    def run(self, op):
        report = benchmarks.benchmark_compare()
        return {"pass": report.n_pass, "fail": report.n_fail,
                "suspect": report.n_skipped, "cells": len(report.results)}

    def check(self, op, out) -> str | None:
        gate = self.refs["tables"]
        return None if out == gate else f"gate counts {out}, expected {gate}"

    def warmup(self):
        benchmarks.benchmark_compare(tables=[benchmarks.TABLE_IDS[0]])


class Mesh(Workload):
    """Every catalogue case, one op per (case, ne).

    A pass is every case's ladder up to ne = 256, in seeded case order,
    then one *deep* op: ne = 512 or 1024 of one of DEEP_CASES cases that
    the seed picks from distinct strata.  Pass k takes the deep ops in
    turn, each case's 512 before its 1024.  The small meshes thus repeat
    in every pass, spread over the whole run.
    """

    min_passes = 2 * DEEP_CASES
    pass_seconds = 2.0

    def __init__(self, seed: int, cases: dict, workdir: Path):
        rng = random.Random(seed)
        self.case_ids = rng.sample(range(len(cases["mesh"])), len(cases["mesh"]))
        strata: dict[int, list] = {}
        for i in self.case_ids:
            strata.setdefault(cases["mesh"][i]["stratum"], []).append(i)
        deep = [rng.choice(strata[k]) for k in rng.sample(sorted(strata), DEEP_CASES)]
        self.configs = {(i, ne): case_config(cases["mesh"][i], ne)
                        for i in self.case_ids for ne in RUNGS}
        self.op_list = [(i, ne) for i in self.case_ids for ne in RUNGS if ne < DEEP]
        self.deep_ops = [[(i, ne)] for ne in RUNGS if ne >= DEEP for i in deep]

    def ops(self, k: int) -> list:
        return self.op_list + self.deep_ops[k % len(self.deep_ops)]

    def run(self, op):
        return result_values(studies.evaluate_case(self.configs[op]))

    def check(self, op, out) -> str | None:
        i, ne = op
        case = self.refs["mesh"][i]
        exact = case["refs"].get(str(ne))
        if exact is not None:
            return compare(out, exact, lambda k: exact_rtol(ne), abs(exact.get("sigma_bar", 0.0)))
        self.band_checked += 1
        if case.get("navier"):
            ref, ne_ref = case["navier"], math.inf
        else:
            ne_ref = max(int(n) for n in case["refs"])
            ref = case["refs"][str(ne_ref)]
        return compare(out, ref, lambda k: band_tol(k, ne) + band_tol(k, ne_ref),
                       abs(ref.get("sigma_bar", 0.0)))

    def warmup(self):
        studies.evaluate_case(self.configs[self.op_list[0]])


class Designs(Workload):
    """The INI pool in seeded order: run, profile mid, profile support.

    A pass is the whole pool.  Its cases have distinct p values and the
    quadrature cache is cleared before each pass, so every op's first
    ``section`` call misses it, in every repetition.  ``after_pass``
    checks that it did.
    """

    min_passes = 2
    pass_seconds = 3.5

    def __init__(self, seed: int, cases: dict, workdir: Path):
        pool = cases["designs"]
        self.op_list = random.Random(seed).sample(range(len(pool)), len(pool))
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for i in self.op_list:
            path = workdir / f"case{i:03d}.ini"
            path.write_text(case_ini(pool[i]), encoding="utf-8")
            self.paths[i] = str(path)
        self.ne = {i: pool[i]["ne"] for i in self.paths}
        self._misses = None

    def ops(self, k: int) -> list:
        return self.op_list

    def run(self, op):
        return run_cli(self.paths[op])

    @staticmethod
    def _rule():
        rule = getattr(section, "_jacobi_rule", None)
        return rule if hasattr(rule, "cache_clear") else None

    def before_pass(self) -> None:
        rule = self._rule()
        if rule is not None:
            rule.cache_clear()
            self._misses = rule.cache_info().misses

    def after_pass(self, n_ops: int) -> str | None:
        rule = self._rule()
        if rule is None or self._misses is None:
            return None
        misses = rule.cache_info().misses - self._misses
        if misses < n_ops:
            return f"quadrature cache missed {misses} times in a pass of {n_ops} ops"
        return None

    def check(self, op, outs) -> str | None:
        entry = self.refs["designs"][op]
        try:
            got = parse_outputs(outs)
        except (ValueError, IndexError) as err:
            return f"unparseable output: {err}"
        ref, ne, ne_ref = entry["ref"], self.ne[op], entry["ref_ne"]
        exact = ne_ref == ne
        if exact:
            rtol = lambda k: exact_rtol(ne)
        else:
            self.band_checked += 1
            rtol = lambda k: band_tol(k, ne) + band_tol(k, ne_ref)
        for part in ("run", "mid", "support"):
            want = ref[part]
            if not exact and part != "run":
                # near-zero stress columns carry no signal across mesh sizes
                want = {k: v for k, v in want.items()
                        if k in ("rows", "layout") or (part == "mid" and k.endswith("_s"))}
            bad = compare(got[part], want, rtol, entry["stress_scale"])
            if bad:
                return f"{part} {bad}"
        return None

    def warmup(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["run", self.paths[self.op_list[0]]])


WORKLOADS = {"tables": Tables, "mesh": Mesh, "designs": Designs}
