"""fgcbeam benchmark: time the tables, mesh and designs workloads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of stdout is one JSON object; a full record goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9  # spread over the measured passes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc mallopt M_MMAP_THRESHOLD and M_TRIM_THRESHOLD.  Fixed values turn
#: off glibc's own adjustment of them, which otherwise leaves a small solve
#: page-faulting or not depending on which large solves ran before it.
MALLOC_THRESHOLDS = {-3: 4 << 20, -1: 8 << 20}
TAIL_BEYOND = 10
clock = time.perf_counter

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_frac": "ratio",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: span name -> per-op statistics reported for it
LAYER_STATS = {
    "element.element_stiffness": ("calls", "self_s"),
    "section.compute_rigidities": ("calls", "self_s"),
    "solver.assemble": ("calls", "self_s"),
    "solver.assemble_load": ("self_s",),
    "solver.apply_bcs": ("self_s",),
    "solver.solve_static": ("calls", "self_s", "failed"),
    "postproc.stress_at": ("calls", "self_s"),
    "postproc.displacement_at": ("calls", "self_s"),
    "postproc.thickness_profile": ("calls", "self_s"),
    "materials.effective_modulus": ("calls", "self_s"),
    "config.parse_config": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "studies.evaluate_case": ("calls", "self_s"),
    "benchmarks.benchmark_compare": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "1/op", "self_s": "s/op", "failed": "1/op"}
EXTRA_LAYER = {"section.jacobi_cache_hit_ratio": "ratio", "solver.dense_bytes": "B",
               "benchmarks.solves_per_cell": "ratio", "trace.overhead_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYER_STATS.items() for stat in stats}
    units.update(EXTRA_LAYER)
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tables", "mesh", "designs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_malloc() -> bool:
    """Fix glibc malloc's thresholds; False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS.items())


def read_json(name: str) -> dict:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def load_workload(name: str, seed: int):
    """The workload's inputs, built from the seed and cases.json (no references)."""
    if not (SRC / "fgcbeam" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fgcbeam sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads.WORKLOADS[name](seed, read_json("cases.json"), OUT / name)


def warmup(wl) -> None:
    """Fill first-call caches; a failing warm-up op is the run's business, not set-up's."""
    try:
        wl.warmup()
    except Exception:  # noqa: BLE001 - the measured ops report failures
        pass


def measure_setup(args, probes: int) -> list[float]:
    """Fresh process to first op ready: imports, the pass's inputs, one warm-up op."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    for _ in range(probes):
        start = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            ready = clock()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            sys.stderr.write(err.decode(errors="replace"))
            sys.exit(f"perfbench: set-up probe failed with status {proc.returncode}")
        times.append(ready - start)
    return times


class Run:
    """Passes of one workload: op latencies, pass walls, failures."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []  # every untraced op, in order
        self.best: dict = {}              # per op, its fastest untraced run
        self.traced_best: dict = {}
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.examples: list[str] = []
        self.premise_errors: list[str] = []
        self.traced_ops = 0

    def one_pass(self, k: int, tracing=None) -> None:
        """One pass; ``tracing`` is a context manager yielding the span tracer."""
        self.wl.before_pass()
        ops = self.wl.ops(k)
        results = []
        with tracing() if tracing is not None else nullcontext() as tracer:
            start = clock()
            for op in ops:
                if tracer is not None:
                    tracer.op += 1
                t0 = clock()
                try:
                    out, err = self.wl.run(op), None
                except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
                    out, err = None, f"{type(exc).__name__}: {exc}"
                results.append((op, out, err, clock() - t0))
            wall = clock() - start
        premise = self.wl.after_pass(len(ops))
        if premise is not None:
            self.premise_errors.append(f"pass {k}: {premise}")
        if tracer is not None:
            # traced passes feed the per-layer metrics only
            self.traced_walls.append(wall)
            self.traced_ops += len(ops)
            fastest(self.traced_best, results)
            return
        self.walls.append(wall)
        self.latencies += [dt for *_, dt in results]
        fastest(self.best, results)
        for op, out, err, _ in results:
            self.attempted += 1
            if err is None:
                err = self.wl.check(op, out)
                if err is not None:
                    self.wrong += 1
                    err = "wrong output: " + err
            if err is not None:
                self.failed += 1
                self.reasons[err.split(":")[0]] += 1
                if len(self.examples) < 20:
                    self.examples.append(f"{op!r}: {err}"[:300])


def fastest(best: dict, results: list) -> None:
    """Keep in ``best`` each op's fastest time so far."""
    for op, *_, dt in results:
        best[op] = min(dt, best.get(op, dt))


def loop(run: Run, seconds: float, probe=None) -> list[float]:
    """The workload's fixed number of passes for ``seconds``; set-up probes between them.

    ``probe(n)`` makes n set-up probes and returns their times; the
    SETUP_PROBES probes are spread evenly from before the first pass to
    after the last.
    """
    passes = run.wl.passes(seconds)
    at = Counter(round(i * passes / (SETUP_PROBES - 1)) for i in range(SETUP_PROBES))
    setup = []
    for k in range(passes + 1):
        if probe is not None:
            setup += probe(at[k])
        if k < passes:
            run.one_pass(k)
    return setup


def traced_loop(run: Run, seconds: float, tracing) -> None:
    """Pairs of an untraced and a traced pass of the same ops, about ``seconds`` in all."""
    for k in range(max(1, run.wl.passes(seconds / 2))):
        run.one_pass(k)
        run.one_pass(k, tracing)


def environment(args) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "malloc_pinned": args.malloc_pinned,
            "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    """wall_s and op_p50_ms take each op at its fastest repetition in the run,
    which strips slowdowns caused by other tenants of the machine; the tail is
    taken over every op executed, as a user meets it (see README.md)."""
    lat = sorted(run.latencies)
    n = len(lat)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    tail = lat[-(beyond + 1)]
    values = {
        "wall_s": sum(run.best.values()),
        "op_p50_ms": statistics.median(run.best.values()) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    info = {"op_tail_percentile": 100.0 * (n - beyond) / n,
            "op_samples": n, "samples_beyond_tail": beyond,
            "op_repeats": len(run.walls), "failed_frac": run.failed / run.attempted,
            "setup_samples_s": setup, "pass_walls_s": run.walls,
            "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}
    return values, info


def traced_run(wl, args) -> tuple[dict, dict, Run]:
    import fgcbeam
    import spans

    tracer = spans.Tracer()
    dense = {"max": 0}

    def on_solve(a, kw):
        try:
            mesh = a[0] if a else kw["mesh"]
            bc = a[2] if len(a) > 2 else kw["bc"]
            nfree = mesh.ndof - len(bc.constrained_dofs(mesh))
            dense["max"] = max(dense["max"], 8 * mesh.ndof ** 2 + 8 * nfree ** 2)
        except (AttributeError, KeyError, IndexError, TypeError):
            pass

    hooks = {"solver.solve_static": on_solve}
    rule = getattr(sys.modules.get("fgcbeam.section"), "_jacobi_rule", None)
    cache = {"hits": 0, "misses": 0}

    @contextmanager
    def tracing():
        before = rule.cache_info() if rule is not None else None
        restore = spans.install(tracer, hooks)
        try:
            yield tracer
        finally:
            restore()
        if before is not None:
            after = rule.cache_info()
            cache["hits"] += after.hits - before.hits
            cache["misses"] += after.misses - before.misses

    run = Run(wl)
    traced_loop(run, args.seconds, tracing)
    spans_done = tracer.spans
    totals = spans.layer_totals(spans_done)
    n_ops = max(run.traced_ops, 1)
    values = {}
    for name, stats in LAYER_STATS.items():
        t = totals.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        for stat in stats:
            values[f"{name}.{stat}"] = t[stat] / n_ops
    lookups = cache["hits"] + cache["misses"]
    values["section.jacobi_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["solver.dense_bytes"] = float(dense["max"])
    compares = totals.get("benchmarks.benchmark_compare", {}).get("calls", 0)
    solves = totals.get("studies.evaluate_case", {}).get("calls", 0)
    n_cells = len(getattr(fgcbeam.benchmarks, "ALL_CELLS", ())) or 1
    values["benchmarks.solves_per_cell"] = solves / (compares * n_cells) if compares else 0.0
    # each op at its fastest repetition, traced against untraced, as wall_s
    values["trace.overhead_frac"] = (sum(run.traced_best.values())
                                     / sum(run.best.values()) - 1.0)
    OUT.mkdir(parents=True, exist_ok=True)
    spans.write_spans(spans_done, OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    info = {"traced_ops": run.traced_ops, "spans": len(spans_done),
            "traced_pass_walls_s": run.traced_walls, "untraced_pass_walls_s": run.walls,
            "traced_passes": len(run.traced_walls), "jacobi_cache": cache}
    return values, info, run


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread and fixed malloc thresholds, set before numpy loads,
    # here and in the set-up probes, which run this same code.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args.malloc_pinned = pin_malloc()
    wl = load_workload(args.workload, args.seed)
    if args.probe:
        warmup(wl)
        print("ready", flush=True)
        return 0
    wl.set_refs(read_json("refs.json"))
    warmup(wl)
    # keep the harness's own objects (references, inputs) out of the
    # collector's scans during the measured passes
    gc.collect()
    gc.freeze()
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        values, info, run = traced_run(wl, args)
        units = per_layer_units()
    else:
        run = Run(wl)
        setup = loop(run, args.seconds, lambda n: measure_setup(args, n))
        values, info = end_to_end(run, setup)
        units = END_TO_END
    info.update(reasons=dict(run.reasons), examples=run.examples, wrong=run.wrong,
                band_checked=wl.band_checked, premise_errors=run.premise_errors)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:42s} {m['value']:.6g} {m['unit']}")
    if args.workload == "tables":
        print(f"tables   gate counts expected {wl.refs['tables']}")
    print(f"{args.workload:8s} failed {run.failed}/{run.attempted} "
          f"(wrong output {run.wrong}); failure kinds {dict(run.reasons)}")
    if args.trace:
        print(f"{args.workload:8s} trace.overhead_frac from {len(run.traced_walls)} traced "
              f"and {len(run.walls)} untraced passes")
    for line in run.premise_errors:
        print(f"{args.workload:8s} workload premise broken, {line}")
    result = {"correct": run.wrong == 0 and not run.premise_errors,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "info": info},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
