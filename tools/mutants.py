"""Run a fixed list of mutants of the fgcbeam package against the test suite.

Each mutant is one (file, old text, new text, reason) entry.  For each, the
working tree (without .git) is copied to a temporary directory, the old text
(which must occur exactly once) is replaced, and the tests run there with
``pytest -x -q -W error``, leaving out ``LIST_TEST``, the suite's check of
this list, which fails on every mutated copy.  A mutant is killed when
pytest fails.  Prints one line per mutant (killed or SURVIVED, and the
seconds it took) and the kill rate.  The unchanged copy runs first and must pass.  Exits 1 if any mutant
survives, 2 if the unchanged copy fails:

    python tools/mutants.py [TEST ...]      # default: the whole suite
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # (file, old, new, reason)
    ("src/fgcbeam/solver.py", "    bound = n * _EPS\n", "    bound = 1e6 * n * _EPS\n",
     "the gate bound n eps loosened a millionfold"),
    ("src/fgcbeam/solver.py",
     "        row_sums[:-k] += a[HALF_BAND - k, k:]   # the mirrored entries right of it\n",
     "        pass\n",
     "backward_error leaves the mirrored entries out of ||K||_inf"),
    ("src/fgcbeam/solver.py", "row_sums[:-k] += a[HALF_BAND - k, k:]",
     "row_sums[k:] += a[HALF_BAND - k, :-k]",
     "backward_error adds each mirrored entry to its column's row, not to its own row"),
    ("src/fgcbeam/solver.py", "row_sums.reshape(d.shape)", "row_sums.reshape(d.shape[::-1]).T",
     "backward_error takes each system's ||K||_inf over a stride of the band, not its block"),
    ("src/fgcbeam/solver.py", "m * n + k", "m * (n - 1) + k",
     "a group's job m is constrained at DOFs offset by m (ndof - 1), not m ndof"),
    ("src/fgcbeam/solver.py", "_KE_SLAB = (_KE_UPPER[1], HALF_BAND",
     "_KE_SLAB = (_KE_UPPER[0], HALF_BAND",
     "Ke[i, j] goes to the slab's column i, not j: the slab's (i, j) pair transposed"),
    ("src/fgcbeam/solver.py", "    columns[..., 1:, :, :] += slab[..., None, 4:, :]\n",
     "    columns[..., 1:, :, :] += slab[..., None, :4, :]\n",
     "the band adds the left node's slab columns at the right node too"),
    ("src/fgcbeam/section.py", "_integrals([member for _, member in members])",
     "_integrals([member for _, member in members[::-1]])",
     "a node count's sections are stacked in one order and scattered in another"),
    ("src/fgcbeam/section.py", "return [_integrals([member])[0] for member in members]",
     "return [_integrals(members[:1])[0]] * len(members)",
     "a group that overflows gives every section the first section's lone result"),
    ("src/fgcbeam/benchmarks.py", "layup_key := (kind, scheme, p)", "layup_key := (kind, scheme)",
     "the fixtures' layups are shared by kind and scheme, whatever their p"),
    ("src/fgcbeam/section.py", "1.0 - 4.5 * zh * zh + 2.0 * zh4",
     "1.0 - 4.5 * zh * zh + 2.0000001 * zh4", "g(z)'s coefficient 2 perturbed in its 8th digit"),
    ("src/fgcbeam/studies.py", "a - 1e-12 * scale", "a - 1e-2 * scale",
     "converge's monotone tolerance widened from round-off to 1%"),
    ("src/fgcbeam/solver.py", "    if error is None or len(jobs) == 1:\n", "    if True:\n",
     "a failing group is not solved again one job at a time"),
    ("src/fgcbeam/solver.py", "if error is None or len(jobs) == 1:",
     "if error is None or len(jobs) <= 2:",
     "a failing two-job group is not solved again one job at a time"),
    ("src/fgcbeam/solver.py", "        D, error = np.zeros(F.shape), err\n",
     "        D, error = np.zeros(F.shape), None\n",
     "an element stiffness beyond float64 is swallowed"),
    ("src/fgcbeam/solver.py", "    except ArithmeticError as err:",
     "    except ZeroDivisionError as err:",
     "an element stiffness beyond float64 escapes the group"),
    ("src/fgcbeam/solver.py", "    return np.concatenate([d for d, _ in lone]),",
     "    return D,", "a job solved again alone keeps the failing group's solution"),
    ("src/fgcbeam/solver.py", "    for eta in backward_error(ab, D, F):\n",
     "    for eta in backward_error(ab, D, F)[:1]:\n",
     "the gate judges only a group's first system"),
    ("src/fgcbeam/solver.py", "_dof_label((info - 1) % n)", "_dof_label(info % n)",
     "a failed pivot names the DOF after its own"),
    ("src/fgcbeam/postproc.py", "d[..., mesh.element_dofs(e)].take([1, 2, 5, 6], axis=-1)",
     "d[..., mesh.element_dofs(e)][..., [1, 2, 5, 6]]",
     "w0 inside an element sums a stack's strided DOFs in another order than one solution's"),
    ("src/fgcbeam/section.py", "        J[k, k - 1] = 2.0 / t", "        J[k - 1, k] = 2.0 / t",
     "the Jacobi matrix's off-diagonal written above the diagonal, which eigvalsh does not read"),
    ("src/fgcbeam/section.py",
     "    x = [xi - v / d for xi, v, d in zip(x, _jacobi_values(n, 0.0, p, x), dp)]\n", "",
     "the Gauss-Jacobi nodes skip their Newton step"),
    ("src/fgcbeam/section.py", "(p + 1) * math.fsum(w)", "(p + 1) * sum(w)",
     "the Gauss-Jacobi weight scale sums the weights in plain floats"),
    ("src/fgcbeam/element.py", "        S *= (half * _GAUSS_W)[:, None, None]\n",
     "        S *= (mesh.Le * _GAUSS_W)[:, None, None]\n",
     "the element's Gauss weights take twice the Jacobian"),
    ("src/fgcbeam/element.py", "-q * Le**2 / 12.0, 0.0])", "q * Le**2 / 12.0, 0.0])",
     "the uniform load's end moment at the right node gets the left node's sign"),
    ("src/fgcbeam/materials.py", 'end = 2 if side == "below" else 1',
     'end = 1 if side == "below" else 2', "an interface's two sides pick each other's layer"),
    ("src/fgcbeam/materials.py", "            z = lo if z < lo else hi if z > hi else z\n", "",
     "a height snapped to a layer is not clamped into it"),
    ("src/fgcbeam/materials.py", "((hi - z) / (hi - lo)) ** p if grade",
     "((z - lo) / (hi - lo)) ** p if grade",
     "a layer graded downward is graded upward"),
    ("src/fgcbeam/config.py", "if not (R > self.h / 2 and", "if not (R > 0 and",
     "a radius inside the section (R <= h/2) is accepted"),
    ("src/fgcbeam/materials.py", "if not 0 <= self.p <= _P_MAX:", "if not 0 <= self.p:",
     "the power-law index cap is dropped"),
    ("src/fgcbeam/solver.py", "        if k in bc.constrained_dofs(mesh):", "        if False:",
     "a point load on a DOF the supports hold is accepted"),
    ("src/fgcbeam/config.py", "        while i > 0 and not line[i - 1].isspace():\n",
     "        while False:\n", "a '#' or ';' inside a value starts a comment"),
    ("src/fgcbeam/config.py", "key = match[1].rstrip().lower()", "key = match[1].rstrip()",
     "an INI key is read with its case kept, so E_m is an unknown key"),
    ("src/fgcbeam/config.py", 're.split(r"(?<![eE])-", raw)', 're.split(r"-", raw)',
     "a scheme ratio's exponent sign splits the scheme"),
    ("src/fgcbeam/config.py", "            if section in ini:\n", "            if False:\n",
     "a repeated section is accepted"),
    ("src/fgcbeam/config.py", 'if "scheme" in ini["layup"]:', "if False:",
     "a kind A scheme's a-b-c shape goes unchecked"),
    ("src/fgcbeam/config.py", "if key is not None and depth > indent:",
     "if key is not None and depth > indent + 1:",
     "a line indented one column deeper than its key line is a key, not a continuation"),
    ("src/fgcbeam/config.py", "        indent = depth\n", "",
     "the indentation of a header or key line is not kept, so a whole indented case is refused"),
    ("src/fgcbeam/config.py", "depth = len(line) - len(line.lstrip())",
     'depth = len(line) - len(line.lstrip(" "))',
     "a tab does not indent a line, so a tab-indented continuation is read as a key"),
    ("src/fgcbeam/config.py", "section, key = body[1:close], None", "section = body[1:close]",
     "a header keeps the key before it current, so an indented key under it is refused"),
    ("src/fgcbeam/config.py", '(close := body.rfind("]")) > 1', '(close := body.rfind("]")) > 0',
     "'[]' is a header of an empty section name, not a line with no '=' or ':'"),
    ("src/fgcbeam/config.py", 'body.rfind("]")', 'body.find("]")',
     "a header's name ends at its first ']', not its last"),
    ("src/fgcbeam/postproc.py", "0.5 * (ep[0] + ep[1])", "ep[1]",
     "strains at an interior node are the right element's, not both elements' mean"),
    ("src/fgcbeam/postproc.py", '["below", "above"] * len(inner)',
     '["above", "below"] * len(inner)',
     "a profile's two rows at an interface carry each other's side"),
    ("src/fgcbeam/postproc.py", " and all(abs(zi - zj) > eps for zj in inner)", "",
     "a profile samples two interfaces closer than the snap tolerance as two pairs"),
    ("src/fgcbeam/postproc.py", "    if q <= 0:\n", "    if q < 0:\n",
     "a zero uniform load reaches the scale quotients"),
]

#: The suite's check that each entry's old text occurs once in its file.
LIST_TEST = "tests/test_mutants.py"

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def run(mutant, tests: list[str]) -> tuple[bool, float]:
    """(killed, seconds) of one mutant, or of the unchanged tree for None, on a fresh copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fgcbeam-mutant-") as parent:
        tmp = Path(parent) / "tree"
        shutil.copytree(ROOT, tmp, ignore=_IGNORED)
        if mutant is not None:
            path, old, new, _ = mutant
            target = tmp / path
            source = target.read_text(encoding="utf-8")
            if source.count(old) != 1:
                raise SystemExit(f"{path}: the mutated text must occur once, found "
                                 f"{source.count(old)}: {old!r}")
            target.write_text(source.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.call([sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
                                "-p", "no:cacheprovider", f"--ignore={LIST_TEST}", *tests],
                               cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    return code != 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    failed, seconds = run(None, argv)
    print(f"{'FAILED' if failed else 'passed':<9} {seconds:5.1f} s  the unchanged tree")
    if failed:
        return 2                        # every mutant would count as killed
    killed = survived = 0
    for mutant in MUTANTS:
        path, _, _, reason = mutant
        dead, seconds = run(mutant, argv)
        killed += dead
        survived += not dead
        print(f"{'killed' if dead else 'SURVIVED':<9} {seconds:5.1f} s  {path}: {reason}",
              flush=True)
    print(f"killed {killed} of {killed + survived}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
