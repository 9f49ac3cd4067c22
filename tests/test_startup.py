"""Cold start: the stored Gauss-Jacobi rules and a numpy-only runtime.

The solver calls two routines, ``dpbsv`` and ``dsbmv``, in the OpenBLAS that
numpy's wheel ships and has already loaded, through ``ctypes``; the paper's five
Gauss-Jacobi rules come from a table and any other p's rule from numpy's own
``eigvalsh`` (LAPACK ``dsyevd``, whose ``dsterf`` gives ``dsbevd``'s bits).  So no
command imports scipy, which is checked in a subprocess where any scipy import
fails.  Where numpy ships no OpenBLAS of its own, the solver falls back to
``scipy.linalg``'s public wrappers, whose results must be the binding's bits.  A cold
``run`` imports no ``configparser`` either: ``config`` reads the INI text itself; nor
``numpy.polynomial``: ``element`` and ``section`` store numpy's ``leggauss`` rules.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

import fgcbeam
from fgcbeam import compute_rigidities, element, section, solver
from fgcbeam.benchmarks import ALL_CELLS
from fgcbeam.element import element_stiffness

TESTS = Path(__file__).parent
CASE = TESTS / "golden" / "cases" / "a_ss_udl.ini"
ENV = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
needs_numpy_openblas = pytest.mark.skipif(
    solver._openblas is None, reason="numpy ships no OpenBLAS here; the scipy fallback runs")

SCRIPT = r"""
import contextlib, glob, io, json, sys, tempfile
if sys.argv[2] == "numpy":
    sys.modules["scipy"] = None                # from here on, any scipy import fails
else:
    glob.glob = lambda pattern: []             # the solver finds no OpenBLAS in numpy
sys.path.insert(0, sys.argv[1])
import test_golden
from fgcbeam import solver
from fgcbeam.cli import main
outputs = {name: test_golden.generate(name).decode() for name in sys.argv[3:]}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["bench", "--table", "T6", "--csv", tmp + "/t6.csv"])
    with open(tmp + "/t6.csv", encoding="utf-8") as f:
        t6 = f.read()
print(json.dumps(dict(outputs=outputs, code=code, stdout=out.getvalue(), t6=t6,
                      binding=solver._openblas is not None)))
"""
#: p = 1 and p = 2.5 (a computed Gauss-Jacobi rule), a profile and a convergence study
GOLDEN = ("a_ss_udl.run.txt", "b_ss_udl_curved_material.run.txt",
          "b_cc_udl_curved.profile_support.csv", "a_ss_udl.converge.txt")


@pytest.fixture(scope="module")
def runs() -> dict:
    """SCRIPT's record of the GOLDEN outputs and ``bench --table T6`` per LAPACK: 'numpy',
    the binding with scipy unimportable (where numpy ships an OpenBLAS), or the scipy
    'fallback'.  They run side by side."""
    procs = {mode: subprocess.Popen([sys.executable, "-c", SCRIPT, str(TESTS), mode, *GOLDEN],
                                    env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
             for mode in ("numpy", "fallback")[solver._openblas is None:]}
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


@pytest.mark.parametrize("mode", [
    pytest.param("numpy", marks=needs_numpy_openblas), "fallback"])
def test_commands_print_the_golden_bytes(runs, mode):
    """With scipy unimportable ('numpy'), or on scipy's wrappers ('fallback')."""
    run = runs[mode]
    assert run["binding"] == (mode == "numpy")
    for name in GOLDEN:
        assert run["outputs"][name] == (TESTS / "golden" / name).read_text("utf-8"), name
    assert run["code"] == 0
    assert run["stdout"].splitlines()[-2] == "total: 30 pass, 0 fail, 0 suspect cells skipped"
    golden = (TESTS / "golden" / "bench.csv").read_text("utf-8").splitlines(keepends=True)
    assert run["t6"] == "".join(golden[:1] + [r for r in golden if r.startswith("T6,")])


LOADED = r"""
import contextlib, io, json, os, sys
from fgcbeam import evaluate_cases, parse_config
from fgcbeam.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [main(["bench", "--table", "T6"]), main(["run", sys.argv[1]])]
text = open(sys.argv[1]).read()
evaluate_cases([parse_config(text.replace("p = 1", f"p = {p}")) for p in ("5", "3.7")])
maps = "/proc/self/maps"                       # Linux: the shared libraries mapped
openblas = (sorted({line.split()[-1] for line in open(maps) if "openblas" in line})
            if os.path.exists(maps) else None)
print(json.dumps(dict(codes=codes, stdout=out.getvalue(), openblas=openblas,
                      loaded=sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))))
"""


@needs_numpy_openblas
def test_paper_cases_import_neither_scipy_subpackage():
    """Nor any scipy module, nor does the non-paper p = 3.7 that follows them; on Linux the
    process maps one OpenBLAS, numpy's."""
    proc = subprocess.run([sys.executable, "-c", LOADED, str(CASE)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["codes"] == [0, 0]
    assert "total: 30 pass, 0 fail, 0 suspect cells skipped" in record["stdout"]
    assert record["loaded"] == []
    assert record["openblas"] in (None, [os.path.realpath(solver._openblas._name)])


def _groups(ne):
    """The fixture configs' constrained block-diagonal bands and loads on one ne, one per
    mesh, plus three systems of which the middle one fails a pivot (its A11 is negative).
    Job m's DOF k is the band's DOF m ndof + k."""
    meshes = {}
    for cfg in dict.fromkeys(cell.config for cell in ALL_CELLS):
        mesh = solver.Mesh(L=cfg.L, ne=ne, inv_R=cfg.inv_R)
        meshes.setdefault(mesh, []).append(cfg)
    for mesh, cfgs in meshes.items():
        rigs = [compute_rigidities(cfg.material, cfg.layup) for cfg in cfgs]
        ab = solver._fill_band(mesh, element_stiffness(rigs, mesh))
        F = np.array([solver.assemble_load(mesh, cfg.load) for cfg in cfgs])
        for m, cfg in enumerate(cfgs):
            solver._constrain(ab, F.reshape(-1),
                              [m * mesh.ndof + k for k in cfg.bc.constrained_dofs(mesh)])
        yield ab, F
    rigs[1] = dataclasses.replace(rigs[1], A11=-rigs[1].A11)
    ab = solver._fill_band(mesh, element_stiffness(rigs[:3], mesh))
    F = F[:3].copy()
    for m, cfg in enumerate(cfgs[:3]):
        solver._constrain(ab, F.reshape(-1),
                          [m * mesh.ndof + k for k in cfg.bc.constrained_dofs(mesh)])
    yield ab, F


@needs_numpy_openblas
def test_scipy_fallback_is_bit_equal_to_the_binding():
    binding, fallback = solver._ctypes_lapack(solver._openblas), solver._scipy_lapack()
    (dpbsv, residual), (dpbsv_s, residual_s) = binding, fallback
    infos = []
    for ne in (16, 1024):
        for ab, F in _groups(ne):
            (x, info), (x_s, info_s) = dpbsv(ab, F), dpbsv_s(ab, F)
            assert info == info_s and x.tobytes() == x_s.tobytes()
            assert residual(ab, x, F).tobytes() == residual_s(ab, x, F).tobytes()
            infos.append(info)
    assert len(infos) == 28 and infos.count(0) == 26


def test_run_leaves_the_benchmark_fixtures_unbuilt():
    """Only ``bench`` imports ``fgcbeam.benchmarks``, which builds the 920 fixture cells."""
    script = ("import contextlib, io, sys\n"
              "from fgcbeam.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['run', sys.argv[1]])\n"
              "print(code, 'fgcbeam.benchmarks' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(CASE)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")


@pytest.fixture(scope="module")
def run_imports() -> list[str]:
    """The modules that ``run`` imports, under ``-X importtime``, as in CI."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fgcbeam.cli", "run",
                           str(CASE)], env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def test_run_imports_no_configparser(run_imports):
    """``config`` reads INI text itself."""
    assert "fgcbeam.config" in run_imports and "configparser" not in run_imports


def test_run_imports_no_numpy_polynomial(run_imports):
    """``element`` and ``section`` store their Gauss-Legendre rules."""
    assert "fgcbeam.element" in run_imports
    assert not [name for name in run_imports if name.startswith("numpy.polynomial")]


def test_stored_legendre_rules_are_leggauss_bit_for_bit():
    x, w = leggauss(4)
    assert element._GAUSS_X.tobytes() == x.tobytes() and element._GAUSS_W.tobytes() == w.tobytes()
    x, w = leggauss(section._NPOINTS)
    assert section._LEGENDRE_HEX.split() == [v.hex() for v in (*x, *w)]
    # the section maps its rule to s in (0, 1): s = (x + 1) / 2, with weights w / 2
    assert section._GL.tobytes() == np.array([0.5 * (x + 1.0), 0.5 * w]).tobytes()
