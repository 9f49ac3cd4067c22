"""Regenerate cases.json (the case catalogues) and refs.json (their reference outputs).

    PYTHONPATH=src python3 perfbench/make_refs.py

The two files list the same cases in the same order.  A run reads
``cases.json`` to build its inputs and ``refs.json`` only to check outputs.

The mesh catalogue holds three variants of six strata that together
cover layup kinds A/B/C, SS/CC/CF supports, straight and curved beams,
and udl and point loads.  The designs pool holds 100 INI cases with
continuous p in [0, 20] and ne in {8, 16, 24, 32}.  Both are drawn from
a fixed master seed; a run's seed picks and orders among them.

References are this program's own outputs wherever it solves the case.
Where it raises, the entry keeps the error text and falls back to the
Navier series (mesh, SS cases) or to the finest mesh it does solve.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from pathlib import Path

# one BLAS thread, as in run.py, so the recorded round-off is reproducible
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import (RUNGS, case_config, case_ini, parse_outputs, result_values,  # noqa: E402
                       run_cli)

from fgcbeam import studies  # noqa: E402

MASTER_SEED = 20261017
SCHEMES = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 8, 1), (3, 4, 3))
STRATA = (("A", "SS", False, "udl"), ("B", "CC", True, "udl"),
          ("C", "CF", False, "point_end"), ("A", "CF", True, "udl"),
          ("B", "SS", True, "point_mid"), ("C", "CC", False, "point_mid"))
DEFAULT = {"E_m": 70e9, "E_c": 380e9, "nu": 0.3}
POOL = 100


def draw(rng, kind, bc, curved, load, ne=16):
    h = rng.choice((1.0, 0.1, 0.02))
    mat = DEFAULT if rng.random() < 0.7 else {
        "E_m": rng.uniform(50e9, 120e9), "E_c": rng.uniform(150e9, 450e9),
        "nu": rng.uniform(0.2, 0.35)}
    return dict(mat, kind=kind, scheme=list(rng.choice(SCHEMES)) if kind != "A" else [0, 0, 0],
                p=rng.uniform(0.0, 20.0), h=h, L=rng.uniform(4.0, 30.0) * h,
                R_over_L=rng.uniform(2.0, 100.0) if curved else math.inf,
                bc=bc, load=load, magnitude=rng.uniform(0.5, 5.0), ne=ne)


def nondimensional(case, w, sigma, tau):
    q, L, h = case["magnitude"], case["L"], case["h"]
    out = {"w": w}
    if case["load"] == "udl":
        out["w_bar"] = 100.0 * case["E_m"] * h**3 / (q * L**4) * w
        out["sigma_bar"] = h / (q * L) * sigma
        out["tau_bar"] = h / (q * L) * tau
    return out


def mesh_catalogue(rng):
    cases = []
    for stratum, (kind, bc, curved, load) in enumerate(STRATA):
        for _ in range(3):
            case = draw(rng, kind, bc, curved, load)
            case["stratum"] = stratum
            case["refs"], case["fails"] = {}, {}
            for ne in RUNGS:
                try:
                    case["refs"][str(ne)] = result_values(studies.evaluate_case(case_config(case, ne)))
                except RuntimeError as err:
                    case["fails"][str(ne)] = f"{type(err).__name__}: {err}"
            if bc == "SS":
                case["navier"] = nondimensional(case, *oracle.navier(case))
            cases.append(case)
            print(f"mesh {stratum} {kind} {bc} {load}: solved {sorted(map(int, case['refs']))}",
                  file=sys.stderr)
    return cases


def cli_outputs(case, path):
    path.write_text(case_ini(case), encoding="utf-8")
    return parse_outputs(run_cli(str(path)))


def designs_pool(rng, n, scratch):
    pool = []
    for _ in range(n):
        bc = rng.choice(("SS", "CC", "CF"))
        loads = ("udl", "udl", "udl", "point_mid", "point_end") if bc == "CF" \
            else ("udl", "udl", "udl", "point_mid")
        case = draw(rng, rng.choice("ABC"), bc, rng.random() < 0.6, rng.choice(loads),
                    ne=rng.choice((8, 16, 24, 32)))
        try:
            case["ref"], case["ref_ne"] = cli_outputs(case, scratch), case["ne"]
        except RuntimeError as err:
            case["fails"] = f"{type(err).__name__}: {err}"
            case["ref"], case["ref_ne"] = cli_outputs(dict(case, ne=16), scratch), 16
        ref = case["ref"]
        case["stress_scale"] = max(ref["mid"]["max_abs_s"], ref["support"]["max_abs_t"])
        pool.append(case)
    return pool


#: keys of a catalogue entry that are reference outputs, not inputs
REF_KEYS = {"mesh": ("refs", "fails", "navier"),
            "designs": ("ref", "ref_ne", "stress_scale", "fails")}


def split(entries, ref_keys):
    """(inputs, references) of each entry, as two parallel lists."""
    return ([{k: v for k, v in e.items() if k not in ref_keys} for e in entries],
            [{k: e[k] for k in ref_keys if k in e} for e in entries])


def write_json(name, data):
    text = json.dumps(data, indent=0, allow_nan=True)
    (HERE / name).write_text(text + "\n", encoding="utf-8")


def main():
    rng = random.Random(MASTER_SEED)
    scratch = HERE / "out" / "make_refs.ini"
    scratch.parent.mkdir(exist_ok=True)
    entries = {"mesh": mesh_catalogue(rng), "designs": designs_pool(rng, POOL, scratch)}
    failing = sum("fails" in c for c in entries["designs"])
    print(f"designs: {failing}/{POOL} fail at ne as drawn", file=sys.stderr)
    cases = {"master_seed": MASTER_SEED}
    refs = {"master_seed": MASTER_SEED,
            "tables": {"pass": 873, "fail": 0, "suspect": 47, "cells": 920}}
    for name, ref_keys in REF_KEYS.items():
        cases[name], refs[name] = split(entries[name], ref_keys)
    write_json("cases.json", cases)
    write_json("refs.json", refs)


if __name__ == "__main__":
    main()
