"""Tests of the benchmark harness itself (span arithmetic, output checks).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fgcbeam.solver import SingularSystemError  # noqa: E402

CASES = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
REFS = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))


def build(cls, seed, tmp_path):
    wl = cls(seed, CASES, tmp_path)
    wl.set_refs(REFS)
    return wl


def S(name, start, end, parent, failed=False):
    return spans.Span(name, start, end, parent, 0, failed)


def test_self_time_subtracts_union_of_children():
    tree = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 3.0, 0),
        S("b", 2.0, 5.0, 0),     # overlaps a: the union [1, 5] counts once
        S("c", 8.0, 12.0, 0),    # runs past its parent: clipped to [8, 10]
        S("a", 1.5, 2.5, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    totals = spans.layer_totals(tree)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(2.0)
    assert totals["root"]["self_s"] == pytest.approx(4.0)


def test_tracer_records_parents_failures_and_op():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda fail: 1 / 0 if fail else 1)

    def body():
        inner(False)
        with pytest.raises(ZeroDivisionError):
            inner(True)

    outer = tracer.wrap("outer", body)
    tracer.op = 7
    outer()
    names = [(s.name, s.parent, s.failed, s.op) for s in tracer.spans]
    assert names == [("outer", -1, False, 7), ("inner", 0, False, 7), ("inner", 0, True, 7)]
    # outer spans ticks 0..5, its children 1..2 and 3..4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


class Perturbed(workloads.Workload):
    """A workload whose outputs are scaled by (1 + eps) before the check."""

    def __init__(self, wl, eps):
        self.wl, self.eps = wl, eps

    def ops(self, k):
        return self.wl.ops(k)

    def run(self, op):
        return {k: v * (1 + self.eps) for k, v in self.wl.run(op).items()}

    def check(self, op, out):
        return self.wl.check(op, out)


def mesh_at_16(tmp_path):
    wl = build(workloads.Mesh, 3, tmp_path)
    wl.op_list = [(i, 16) for i in wl.case_ids]
    wl.deep_ops = [[]]
    return wl


def test_mesh_outputs_pass_and_perturbed_outputs_fail(tmp_path):
    wl = mesh_at_16(tmp_path)
    clean = run.Run(wl)
    clean.one_pass(0)
    assert (clean.attempted, clean.failed) == (18, 0)
    bad = run.Run(Perturbed(wl, 1e-5))
    bad.one_pass(0)
    assert (bad.attempted, bad.failed, bad.wrong) == (18, 18, 18)


def test_perturbed_cli_output_is_a_failure(tmp_path):
    wl = build(workloads.Designs, 0, tmp_path)
    idx = next(i for i in wl.op_list
               if CASES["designs"][i]["load"] == "udl" and CASES["designs"][i]["ne"] == 8
               and "fails" not in REFS["designs"][i])
    outs = wl.run(idx)
    assert wl.check(idx, outs) is None
    value = workloads.parse_run(outs[0])["w_bar"]
    printed = f"{value:.9e}"
    outs[0] = outs[0].replace(printed, f"{value * 1.0001:.9e}")
    assert "w_bar" in wl.check(idx, outs)


def test_singular_system_error_is_counted_not_raised(tmp_path, monkeypatch):
    wl = mesh_at_16(tmp_path)

    def singular(cfg):
        raise SingularSystemError("reduced stiffness is not positive definite")

    monkeypatch.setattr(workloads.studies, "evaluate_case", singular)
    r = run.Run(wl)
    r.one_pass(0)
    assert (r.attempted, r.failed, r.wrong) == (18, 18, 0)
    assert r.reasons == {"SingularSystemError": 18}


def test_designs_pass_on_a_warm_cache_breaks_the_premise(tmp_path):
    wl = build(workloads.Designs, 0, tmp_path)
    wl.op_list = [i for i in wl.op_list if "fails" not in REFS["designs"][i]][:3]
    memo = {}
    compute = wl.run
    wl.run = lambda op: memo[op] if op in memo else memo.setdefault(op, compute(op))
    r = run.Run(wl)
    r.one_pass(0)
    assert (r.failed, r.premise_errors) == (0, [])
    r.one_pass(1)  # served from the memo: no quadrature lookups at all
    assert r.failed == 0
    assert r.premise_errors == ["pass 1: quadrature cache missed 0 times in a pass of 3 ops"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def recorded_failure(name, op):
    if name == "mesh":
        return str(op[1]) in REFS["mesh"][op[0]]["fails"]
    return "fails" in REFS["designs"][op]


@pytest.mark.parametrize("name", ["mesh", "designs"])
def test_seed_changes_neither_ops_attempted_nor_failures_recorded(name, tmp_path):
    def counts(seed):
        wl = workloads.WORKLOADS[name](seed, CASES, tmp_path)
        ops = [op for k in range(wl.passes(25)) for op in wl.ops(k)]
        return len(ops), sum(recorded_failure(name, op) for op in ops)

    attempted, failing = counts(1)
    assert 0 < failing < attempted
    assert all(counts(seed) == (attempted, failing) for seed in (2, 3, 4))
