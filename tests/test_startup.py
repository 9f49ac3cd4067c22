"""Cold start: the stored Gauss-Jacobi rules and the standalone LAPACK/BLAS load.

The program reaches ``dpbtrf``, ``dpbtrs``, ``dsbmv`` and ``dsbevd`` through
scipy's compiled extensions alone, reads the paper's five Gauss-Jacobi rules
from a table and computes any other p's rule on that LAPACK, so a run at any
p imports neither ``scipy.linalg`` nor ``scipy.special``.  Each subprocess
below runs ``bench --table T6``, ``run a_ss_udl.ini`` and one
``evaluate_cases`` on a paper p and a non-paper p, in one of three import
orders, and then records which scipy subpackages are loaded.  A cold ``run``
imports no ``configparser`` either: ``config`` reads the INI text itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import roots_jacobi

import fgcbeam
from fgcbeam import section, solver

CASE = Path(__file__).parent / "golden" / "cases" / "a_ss_udl.ini"

SCRIPT = r"""
import contextlib, importlib.machinery, io, json, sys
case, mode = sys.argv[1], sys.argv[2]
if mode == "early":
    import scipy.linalg, scipy.special
elif mode == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES.clear()   # no file is found: public import
from fgcbeam import evaluate_cases, parse_config, solver
from fgcbeam.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(["bench", "--table", "T6"]), main(["run", case])]
text = open(case).read()
results = evaluate_cases([parse_config(text.replace("p = 1", f"p = {p}")) for p in ("5", "3.7")])
loaded = [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]
import scipy.linalg.lapack
print(json.dumps(dict(
    codes=codes, stdout=out.getvalue(), loaded=loaded, results=repr(results),
    same_module=scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"],
    same_dpbtrf=scipy.linalg.lapack.dpbtrf is solver.dpbtrf)))
"""


@pytest.fixture(scope="module")
def runs() -> dict:
    """SCRIPT's record per import order: scipy imported 'late', 'early', or as the 'fallback'.

    The three interpreters run side by side.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    procs = {mode: subprocess.Popen([sys.executable, "-c", SCRIPT, str(CASE), mode], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for mode in ("late", "early", "fallback")}
    records = {}
    for mode, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        records[mode] = json.loads(out)
    return records


@pytest.mark.parametrize("p", sorted(section._JACOBI_HEX))
def test_table_is_roots_jacobi_bit_for_bit(p):
    x, w = roots_jacobi(section._NPOINTS, 0.0, p)
    assert section._JACOBI_HEX[p].split() == [v.hex() for v in (*x, *w)]
    s_rule, w_rule = section._jacobi_rule(p)
    assert s_rule.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert w_rule.tobytes() == (w * 0.5 ** (p + 1.0)).tobytes()


def test_table_holds_the_papers_indices():
    assert sorted(section._JACOBI_HEX) == [0.0, 1.0, 2.0, 5.0, 10.0]


def test_paper_cases_import_neither_scipy_subpackage(runs):
    """Nor does the non-paper p = 3.7 that follows them."""
    late = runs["late"]
    assert late["codes"] == [0, 0]
    assert "total: 30 pass, 0 fail, 0 suspect cells skipped" in late["stdout"]
    assert late["loaded"] == []


def test_import_order_gives_identical_results(runs):
    late, early = runs["late"], runs["early"]
    assert early["loaded"] == ["scipy.linalg", "scipy.special"]
    assert early["stdout"] == late["stdout"]
    assert early["results"] == late["results"]
    for run in (late, early):
        assert run["same_module"] and run["same_dpbtrf"]


def test_run_leaves_the_benchmark_fixtures_unbuilt():
    """Only ``bench`` imports ``fgcbeam.benchmarks``, which builds the 920 fixture cells."""
    script = ("import contextlib, io, sys\n"
              "from fgcbeam.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['run', sys.argv[1]])\n"
              "print(code, 'fgcbeam.benchmarks' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(CASE)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")


def test_run_imports_no_configparser():
    """``config`` reads INI text itself; ``run`` under ``-X importtime``, as in CI."""
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fgcbeam.cli", "run",
                           str(CASE)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "fgcbeam.config" in imported and "configparser" not in imported


def test_loader_returns_none_for_a_missing_extension():
    assert solver._linalg_extension("_no_such_extension") is None
    assert "scipy.linalg._no_such_extension" not in sys.modules


def test_public_import_fallback_is_bit_identical(runs):
    late, fallback = runs["late"], runs["fallback"]
    assert fallback["loaded"] == ["scipy.linalg"]
    assert fallback["stdout"] == late["stdout"]
    assert fallback["results"] == late["results"]
    assert fallback["same_dpbtrf"]
