"""Golden corpus: CLI output must stay byte-identical.

``tests/golden/cases`` holds INI cases covering layup kinds A/B/C,
SS/CC/CF supports, straight and curved beams, and udl, ``point_mid``
and ``point_end`` loads.  Next to them are the stored outputs of
``bench`` (the text report) and ``bench --csv``, ``run`` and
``converge`` on every case, two sweeps, the mid-span and support
profiles of four cases (one with p = 2.5 and its own material), the
mid-span profile of a sandwich whose top face has zero thickness, and a
21-sample profile at an interior node whose grid has a point on a 1-8-1
interface.  The test reruns each command
in-process and compares bytes.

After an intended output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fgcbeam import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.stem for p in (GOLDEN / "cases").glob("*.ini"))
PROFILED = ("b_cc_udl_curved", "b_cf_point_mid", "b_ss_udl_curved_material",
            "c_cc_udl_curved_odd")


def _corpus() -> dict[str, list[str]]:
    """Stored file name -> CLI arguments (a case name stands for its INI path)."""
    out = {"bench.csv": ["bench", "--csv"], "bench.txt": ["bench"]}
    for case in CASES:
        out[f"{case}.run.txt"] = ["run", case]
        out[f"{case}.converge.txt"] = ["converge", case]
    out["a_ss_udl.sweep_p.csv"] = ["sweep", "a_ss_udl", "--param", "p",
                                   "--values", "0,0.5,1,2,5,10"]
    out["a_ss_udl.sweep_R_over_L.csv"] = ["sweep", "a_ss_udl", "--param", "R_over_L",
                                          "--values", "5,10,20,50,100,inf"]
    for case in PROFILED:
        for station in ("mid", "support"):
            out[f"{case}.profile_{station}.csv"] = ["profile", case, "--x", station]
    out["b_ss_udl_no_top_face.profile_mid.csv"] = ["profile", "b_ss_udl_no_top_face",
                                                   "--x", "mid"]
    # x = L/4 is an interior node; z = -0.4 h is grid point 2 of 21, so the file
    # holds the interface's below/above pair in its place
    out["c_ss_point_mid_curved.profile_1.25_n21.csv"] = [
        "profile", "c_ss_point_mid_curved", "--x", "1.25", "--samples", "21"]
    return out


def generate(name: str) -> bytes:
    """Output of the command stored as ``name``: stdout, or the file that --csv names."""
    argv = list(_corpus()[name])
    if argv[0] != "bench":
        argv[1] = str(GOLDEN / "cases" / f"{argv[1]}.ini")
    with tempfile.TemporaryDirectory() as tmp:
        if "--csv" in argv:
            argv.append(str(Path(tmp) / name))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        assert code == 0, f"fgcbeam {' '.join(argv)} exited {code}"
        if "--csv" in argv:
            return (Path(tmp) / name).read_bytes()
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_output_matches_golden_corpus(name):
    assert generate(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name in _corpus():
        (GOLDEN / name).write_bytes(generate(name))
        sys.stdout.write(f"wrote {name}\n")
