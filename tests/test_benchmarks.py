"""Fixture hygiene, the fixture file, its packaging and the benchmark comparison machinery."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgcbeam
from fgcbeam import CaseConfig, Layup
from fgcbeam.benchmarks import (
    ALL_CELLS,
    SUSPECT_REASONS,
    TABLE_IDS,
    benchmark_compare,
)

FIXTURES = Path(fgcbeam.__file__).with_name("fixtures.csv")
COLUMNS = ["table", "row", "column", "quantity", "kind", "scheme", "p", "L_over_h", "R_over_L",
           "bc", "expected", "tol", "suspect"]

EXPECTED_COUNTS = {"T6": 30, "T7": 60, "T8": 120, "T9": 40, "T10": 40,
                   "T11": 40, "T12": 60, "T15": 120, "T16": 180, "T17": 30,
                   "T18": 20, "T19": 180}

# frozen coordinates of every excluded (suspect) cell
EXPECTED_SUSPECTS = {
    ("T7", "L/h=10,p=1", "R/L=50", "w_bar"),
    ("T12", "L/h=5,p=2", "R/L=5", "w_bar"),
    ("T12", "L/h=5,p=5", "R/L=5", "w_bar"),
    ("T12", "L/h=5,p=10", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=0", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=0", "R/L=10", "w_bar"),
    ("T12", "L/h=10,p=1", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=1", "R/L=10", "w_bar"),
    ("T12", "L/h=10,p=2", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=2", "R/L=10", "w_bar"),
    ("T12", "L/h=10,p=2", "R/L=50", "w_bar"),
    ("T12", "L/h=10,p=5", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=10", "R/L=5", "w_bar"),
    ("T12", "L/h=10,p=10", "R/L=10", "w_bar"),
    ("T12", "L/h=10,p=10", "R/L=20", "w_bar"),
} | {
    ("T17", f"{bc},L/h={lh}", "p=0", "w_bar")
    for bc in ("SS", "CC", "CF") for lh in (5, 20)
} | {
    ("T18", "p=0", f"sigma,L/h={lh}", "sigma_bar") for lh in (5, 20)
} | {
    ("T19", f"L/h={lh},p=0", f"R/L={rl}", q)
    for lh in (5, 10) for rl in ("5", "10", "20", "50", "100", "inf")
    for q in ("w_bar", "sigma_bar")
}


def cell_lookup(table, row, col):
    found = [c for c in ALL_CELLS if (c.table, c.row, c.col) == (table, row, col)]
    assert len(found) >= 1
    return found


class TestFixtureHygiene:
    def test_counts_per_table(self):
        counts = {}
        for c in ALL_CELLS:
            counts[c.table] = counts.get(c.table, 0) + 1
        assert counts == EXPECTED_COUNTS
        assert len(ALL_CELLS) == 920

    def test_required_tables_covered(self):
        assert set(TABLE_IDS) == set(EXPECTED_COUNTS)

    def test_every_cell_traceable(self):
        for c in ALL_CELLS:
            assert c.table and c.row and c.col
            assert c.quantity in ("w_bar", "sigma_bar", "tau_bar")
            assert c.expected != 0.0
            assert c.tol in (1e-3, 2e-3)

    def test_tolerance_classes(self):
        straight = {"T6", "T9", "T10", "T11", "T17", "T18"}
        for c in ALL_CELLS:
            assert c.tol == (1e-3 if c.table in straight else 2e-3)

    def test_suspect_set_is_frozen(self):
        got = {(c.table, c.row, c.col, c.quantity)
               for c in ALL_CELLS if c.suspect is not None}
        assert got == EXPECTED_SUSPECTS
        for c in ALL_CELLS:
            if c.suspect is not None:
                assert len(c.suspect) > 20  # carries a real reason

    def test_straight_columns_agree_across_tables(self):
        # the straight limit of the curved tables must reproduce the
        # straight tables wherever both print the same configuration
        for p in (0, 1, 2, 5, 10):
            t7 = cell_lookup("T7", f"L/h=5,p={p}", "R/L=inf")[0]
            t6 = [c for c in ALL_CELLS
                  if c.table == "T6" and c.row == f"L/h=5,p={p}"
                  and c.quantity == "w_bar"][0]
            assert t7.expected == pytest.approx(t6.expected, rel=2e-4)
        for p in (0, 1, 2, 5, 10):
            t19 = [c for c in ALL_CELLS
                   if c.table == "T19" and c.row == f"L/h=5,p={p}"
                   and c.col == "R/L=inf" and c.quantity == "w_bar"][0]
            t17 = cell_lookup("T17", "SS,L/h=5", f"p={p}")[0]
            assert t19.expected == t17.expected

    def test_t12_contradiction_documented(self):
        # p = 0 makes the 1-1-1 sandwich a homogeneous ceramic beam, the
        # exact configuration T7 and T16 also print; T12's cell cannot be
        # reconciled with them at the curved tolerance, which is why it
        # carries a suspect mark.
        t12 = cell_lookup("T12", "L/h=10,p=0", "R/L=5")[0]
        t7 = cell_lookup("T7", "L/h=10,p=0", "R/L=5")[0]
        t16 = [c for c in ALL_CELLS
               if c.table == "T16" and c.row == "L/h=10,p=0"
               and c.col == "R/L=5" and c.quantity == "w_bar"][0]
        assert t7.expected == t16.expected == 2.9453
        assert t12.expected == 2.9312
        assert abs(t12.expected - t7.expected) / t7.expected > 2e-3
        assert t12.suspect is not None

    def test_cell_to_config(self):
        c = cell_lookup("T6", "L/h=5,p=1", "w_bar")[0]
        cfg = c.config
        assert cfg.ne == 16 and cfg.L == 5.0 and math.isinf(cfg.R_over_L)
        assert cfg.layup == Layup.single_layer(1.0, 1.0)


class TestBenchmarkCompare:
    def test_t6_all_pass(self):
        report = benchmark_compare(tables=["T6"])
        assert report.ok and report.n_pass == 30 and report.n_skipped == 0

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            benchmark_compare(tables=["T2"])

    def test_corrupted_expected_detected(self):
        report = benchmark_compare(tables=["T9"])
        assert report.ok
        # re-run with one expected value pushed off by 5 percent
        import dataclasses

        import fgcbeam.benchmarks as bm
        target = next(c for c in bm.ALL_CELLS
                      if c.table == "T9" and c.row == "L/h=5,p=1"
                      and c.col == "1-1-1")
        corrupted = dataclasses.replace(target, expected=target.expected * 1.05)
        original = bm.ALL_CELLS
        bm.ALL_CELLS = tuple(corrupted if c is target else c for c in original)
        try:
            bad = benchmark_compare(tables=["T9"])
        finally:
            bm.ALL_CELLS = original
        assert not bad.ok and bad.n_fail == 1
        offender = bad.worst(1)[0]
        assert offender.cell.row == "L/h=5,p=1" and offender.cell.col == "1-1-1"
        assert offender.status == "fail"

    def test_skipped_cells_still_reported(self):
        report = benchmark_compare(tables=["T17"])
        assert report.n_skipped == 6
        assert report.ok
        skipped = [r for r in report.results if r.status == "skip"]
        assert all(r.cell.suspect for r in skipped)
        # and the computed value is still attached for inspection
        assert all(r.computed != 0.0 for r in skipped)

    def test_cells_share_their_configs(self, monkeypatch):
        # one instance per distinct case, built with the fixtures, none per call, and one
        # Layup per distinct layup, so a call's section lookups match the same object
        assert len({id(c.config) for c in ALL_CELLS}) == len({c.config for c in ALL_CELLS}) == 420
        layups = {c.config.layup for c in ALL_CELLS}
        assert len({id(c.config.layup) for c in ALL_CELLS}) == len(layups) == 30
        calls = []
        real = CaseConfig.__post_init__

        def post_init(cfg):
            calls.append(cfg)
            real(cfg)

        monkeypatch.setattr(CaseConfig, "__post_init__", post_init)
        report = benchmark_compare(tables=["T7", "T17"])
        assert len(report.results) == 90 and calls == []


class TestFixtureFile:
    """``fixtures.csv`` itself: one row per cell, in the order of ``ALL_CELLS``."""

    @pytest.fixture(scope="class")
    def rows(self):
        with open(FIXTURES, newline="", encoding="utf-8") as file:
            reader = csv.DictReader(file)
            assert reader.fieldnames == COLUMNS
            return list(reader)

    def test_one_row_per_cell_and_one_case_per_key(self, rows):
        assert len(rows) == len(ALL_CELLS) == 920
        keys = {tuple(r[c] for c in COLUMNS[4:10]) for r in rows}      # kind ... bc
        assert len(keys) == len({id(c.config) for c in ALL_CELLS}) == 420

    def test_suspect_entries_are_known_keys(self, rows):
        suspects = [r["suspect"] for r in rows if r["suspect"]]
        assert len(suspects) == 47
        assert set(suspects) <= set(SUSPECT_REASONS)

    def test_two_tolerance_classes(self, rows):
        assert {r["tol"] for r in rows} == {"1e-3", "2e-3"}

    def test_rows_are_the_cells(self, rows):
        for r, cell in zip(rows, ALL_CELLS):
            assert (r["table"], r["row"], r["column"], r["quantity"]) == (
                cell.table, cell.row, cell.col, cell.quantity)
            assert float(r["expected"]) == cell.expected
            assert float(r["tol"]) == cell.tol
            assert SUSPECT_REASONS.get(r["suspect"]) == cell.suspect


def test_installed_layout_ships_the_fixtures(tmp_path):
    """setuptools' build_py lays the package out as an install does; the cells build from it."""
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    lib = tmp_path / "lib"
    lib.mkdir()
    # egg_info writes its metadata under lib, not into the checkout
    build = ("import setuptools; setuptools.setup(script_args=["
             f"'egg_info', '--egg-base', {str(lib)!r}, 'build_py', '--build-lib', {str(lib)!r}])")
    subprocess.run([sys.executable, "-c", build], cwd=root, capture_output=True, check=True,
                   timeout=120)
    assert (lib / "fgcbeam" / "fixtures.csv").read_bytes() == FIXTURES.read_bytes()
    probe = ("import fgcbeam.benchmarks as b; "
             "print(b.__file__); print(len(b.ALL_CELLS), len(b.TABLE_IDS))")
    env = dict(os.environ, PYTHONPATH=str(lib))
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert res.stdout.splitlines() == [str(lib / "fgcbeam" / "benchmarks.py"), "920 12"]
