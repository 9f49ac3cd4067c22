"""Configuration parsing and the command line interface."""

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgcbeam
from fgcbeam import (
    BoundaryCondition,
    ConfigError,
    LayupKind,
    LoadCase,
    SingularSystemError,
    compute_rigidities,
    parse_config,
    solve_static,
    solver,
    studies,
)
from fgcbeam.cli import _profile_csv, build_parser, main
from fgcbeam.config import with_parameter
from fgcbeam.postproc import _profile_columns
from fgcbeam.studies import printed

from conftest import random_case
from test_studies import count_solves

MINIMAL = """\
[layup]
kind = A
p = 0
[geometry]
L = 5
h = 1
[bc]
type = SS
[load]
type = udl
"""

SANDWICH = """\
[material]
E_m = 70e9
E_c = 380e9
nu = 0.3
[layup]
kind = B
scheme = 1-1-1
p = 5
[geometry]
L = 5.0
h = 1.0
R_over_L = inf
[bc]
type = SS
[load]
type = udl
magnitude = 1.0
[mesh]
ne = 16
"""


def with_key(text, key, value):
    """INI text with the line of ``key`` ('section.name') set to value."""
    section, name = key.split(".")
    lines, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.split("=")[0].strip() == name:
            line = f"{name} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.ne == 16
        assert cfg.material.E_m == 70e9 and cfg.material.E_c == 380e9
        assert math.isinf(cfg.R_over_L) and cfg.inv_R == 0.0
        assert cfg.load.magnitude == 1.0
        assert cfg.layup.kind is LayupKind.A

    def test_full_config(self):
        cfg = parse_config(SANDWICH)
        assert cfg.layup.scheme == (1.0, 1.0, 1.0)
        assert cfg.layup.p == 5.0
        assert cfg.bc.value == "SS"

    def test_r_over_l_finite(self):
        cfg = parse_config(SANDWICH.replace("R_over_L = inf", "R_over_L = 10"))
        assert cfg.R_over_L == 10.0
        assert cfg.inv_R == pytest.approx(1.0 / 50.0)

    def test_negative_h_names_key(self):
        bad = MINIMAL.replace("h = 1", "h = -1")
        with pytest.raises(ConfigError, match="geometry.h"):
            parse_config(bad)

    def test_missing_key_named(self):
        bad = MINIMAL.replace("p = 0\n", "")
        with pytest.raises(ConfigError, match="layup.p"):
            parse_config(bad)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[load\]"):
            parse_config(MINIMAL.replace("[load]\ntype = udl\n", ""))

    def test_sandwich_requires_scheme(self):
        bad = MINIMAL.replace("kind = A", "kind = B")
        with pytest.raises(ConfigError, match="layup.scheme"):
            parse_config(bad)

    def test_kind_a_accepts_and_ignores_a_well_formed_scheme(self):
        for scheme in ("1-8-1", "0-0-0", "1-1-1e-13"):
            text = MINIMAL.replace("p = 0", f"p = 0\nscheme = {scheme}")
            assert parse_config(text).layup == parse_config(MINIMAL).layup

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="layup.kind"):
            parse_config(MINIMAL.replace("kind = A", "kind = D"))

    def test_bad_bc(self):
        with pytest.raises(ConfigError, match="bc.type"):
            parse_config(MINIMAL.replace("type = SS", "type = XX"))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "[solvers]\nx = 1\n")

    def test_point_mid_needs_even_ne(self):
        bad = MINIMAL.replace("type = udl", "type = point_mid") + "[mesh]\nne = 7\n"
        with pytest.raises(ConfigError, match="mesh.ne"):
            parse_config(bad)

    def test_negative_p(self):
        with pytest.raises(ConfigError, match="layup.p"):
            parse_config(MINIMAL.replace("p = 0", "p = -2"))

    @pytest.mark.parametrize("bc", ["SS", "CC"])
    def test_end_point_load_needs_a_free_end(self, bc, tmp_path, capsys):
        # the support at x = L would absorb the load and d = 0
        text = MINIMAL.replace("type = SS", f"type = {bc}").replace(
            "type = udl", "type = point_end\nmagnitude = 3")
        with pytest.raises(ConfigError, match="load.type: a point_end load on node 16, dof w0"):
            parse_config(text)
        path = tmp_path / "case.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: load.type: a point_end load")
        cfg = parse_config(text.replace(f"type = {bc}", "type = CF"))
        with pytest.raises(ValueError, match=f"held by the {bc} supports"):
            studies.evaluate_case(replace(cfg, bc=BoundaryCondition(bc)))
        assert studies.evaluate_case(cfg).w > 0.0


@pytest.mark.parametrize("key,value", [
    ("geometry.L", "nan"), ("geometry.h", "inf"), ("layup.p", "nan"), ("layup.p", "inf"),
    ("load.magnitude", "nan"), ("load.magnitude", "-inf"), ("material.E_m", "inf"),
    ("material.E_c", "nan"), ("material.nu", "nan"), ("geometry.R_over_L", "nan"),
    ("geometry.R_over_L", "infinity")])
def test_non_finite_number_is_rejected_by_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: must be finite")):
        parse_config(with_key(SANDWICH, key, value))


@pytest.mark.parametrize("L,h", [(1e-10, 1e-11), (5.0, 1.0)])
def test_tiny_radius_names_r_over_l(L, h, tmp_path, capsys):
    # R = R_over_L * L underflows to 0 (1/R divides by zero) or to a subnormal (1/R = inf)
    text = MINIMAL.replace("L = 5", f"L = {L!r}\nR_over_L = 1e-320").replace(
        "h = 1", f"h = {h!r}")
    with pytest.raises(ConfigError, match="^geometry.R_over_L: radius R"):
        parse_config(text)
    path = tmp_path / "case.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: geometry.R_over_L: radius R")
    path.write_text(text.replace("R_over_L = 1e-320", "R_over_L = inf"), encoding="utf-8")
    assert main(["sweep", str(path), "--param", "R_over_L", "--values", "1,1e-320"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: R_over_L = 1e-320: geometry.R_over_L: radius R")


@pytest.mark.parametrize("R_over_L", ["0.05", "0.1"])
def test_radius_at_most_half_the_thickness_is_rejected(R_over_L, tmp_path, capsys):
    # L = 5, h = 1: R = 0.25 m and R = h/2 = 0.5 m, where the section would reach the centre
    text = MINIMAL.replace("L = 5", f"L = 5\nR_over_L = {R_over_L}")
    with pytest.raises(ConfigError, match=r"^geometry.R_over_L: radius R .* h/2 = 0.5 m"):
        parse_config(text)
    path = tmp_path / "case.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: geometry.R_over_L: radius R")
    path.write_text(MINIMAL.replace("L = 5", "L = 5\nR_over_L = 1"), encoding="utf-8")
    for param, value in (("R_over_L", R_over_L), ("L_over_h", float(R_over_L) * 5)):
        assert main(["sweep", str(path), "--param", param, "--values", f"1,{value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {param} = {value}: geometry.R_over_L: "
                                            "radius R")
    assert parse_config(text.replace(f"R_over_L = {R_over_L}", "R_over_L = 0.1001")).R_over_L


RADIUS = re.escape("geometry.R_over_L: radius R = R_over_L * L = ")


@pytest.mark.parametrize("change,message", [
    (dict(R_over_L=1e-320, L=1e-10), RADIUS + "0 m"),
    (dict(R_over_L=1e-320, layup=fgcbeam.Layup.single_layer(0.0, 1e-321)),  # 1/R = inf
     RADIUS + "4.99994e-320 m must exceed h/2 = 4.99006e-322 m"),
    (dict(R_over_L=0.05), RADIUS + "0.25 m must exceed h/2 = 0.5 m"),
    (dict(R_over_L=-1.0), RADIUS + "-5 m"),
    (dict(ne=0), "mesh.ne: need at least one element, got ne = 0$"),
    (dict(ne=16.0), "mesh.ne: expected an integer, got 16.0$"),
    (dict(ne=5, load=fgcbeam.LoadCase("point_mid", 1.0)),
     "mesh.ne: mid-span point load needs an even element count, got ne = 5$"),
    (dict(load=fgcbeam.LoadCase("point_end", 1.0)),
     "load.type: a point_end load on node 16, dof w0 is held by the SS supports"),
    (dict(layup=dict(p=900.0)), re.escape("layup.p: power-law index must satisfy 0 <= p <= 800, "
                                          "got 900.0") + "$"),
    (dict(load=dict(magnitude=0.0)),
     "load.magnitude: nondimensionalization requires a positive load magnitude q$"),
    (dict(load=dict(magnitude=1e-300)),
     re.escape("load.magnitude: q = 1e-300 puts a table scale beyond float64: "
               "100 E_m h^3 / (q L^4) = inf, h / (q L) = 2e+299") + "$"),
], ids=["R_underflows", "R_subnormal", "R_below_half_h", "R_negative", "ne_0",
        "ne_float", "odd_ne_point_mid", "point_load_on_support", "p_above_cap", "zero_udl",
        "udl_scale_overflows"])
def test_no_invalid_case_config_can_be_built(change, message):
    # a dict changes fields of the case's own layup or load
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="^" + message):
        replace(cfg, **{key: replace(getattr(cfg, key), **value) if isinstance(value, dict)
                        else value for key, value in change.items()})


# one bad value per range rule: (changed keys, the key the error must name)
ONE_KEY_PER_RULE = [
    ({"material.E_m": "-1"}, "material.E_m"),
    ({"material.E_c": "0"}, "material.E_c"),
    ({"material.nu": "0.6"}, "material.nu"),
    ({"layup.p": "-1"}, "layup.p"),
    ({"layup.p": "900"}, "layup.p"),
    ({"geometry.h": "0"}, "geometry.h"),
    ({"layup.scheme": "1--1-1"}, "layup.scheme"),
    ({"layup.scheme": "0-0-0"}, "layup.scheme"),
    ({"geometry.L": "-5"}, "geometry.L"),
    ({"geometry.R_over_L": "0"}, "geometry.R_over_L"),
    ({"geometry.R_over_L": "-1"}, "geometry.R_over_L"),
    ({"mesh.ne": "0"}, "mesh.ne"),
    ({"mesh.ne": "16.5"}, "mesh.ne"),
    ({"load.type": "point_mid", "mesh.ne": "5"}, "mesh.ne"),
    ({"load.type": "point_end"}, "load.type"),
    ({"load.type": "wind"}, "load.type"),
    ({"load.magnitude": "0"}, "load.magnitude"),
]


def assert_one_key_prefix(message, key):
    assert message.startswith(f"{key}: "), message
    assert not re.match(r"[\w.]+: ", message[len(key) + 2:]), message


@pytest.mark.parametrize("changes,key", ONE_KEY_PER_RULE, ids=[
    ",".join(f"{k}={v}" for k, v in changes.items()) for changes, _ in ONE_KEY_PER_RULE])
def test_each_range_rule_names_its_key_once(changes, key, tmp_path, capsys):
    text = SANDWICH
    for changed, value in changes.items():
        text = with_key(text, changed, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert_one_key_prefix(str(err.value), key)
    path = tmp_path / "case.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


class TestWithParameter:
    def test_p_replacement(self):
        cfg = parse_config(SANDWICH)
        assert with_parameter(cfg, "p", 2.5).layup.p == 2.5

    def test_r_over_l_inf(self):
        cfg = parse_config(SANDWICH)
        assert math.isinf(with_parameter(cfg, "R_over_L", "inf").R_over_L)
        assert math.isinf(with_parameter(cfg, "R_over_L", math.inf).R_over_L)
        assert with_parameter(cfg, "R_over_L", 5).R_over_L == 5.0

    def test_scheme_replacement(self):
        cfg = parse_config(SANDWICH)
        assert with_parameter(cfg, "scheme", "2-2-1").layup.scheme == (2.0, 2.0, 1.0)

    def test_l_over_h(self):
        cfg = parse_config(SANDWICH)
        assert with_parameter(cfg, "L_over_h", 20).L == pytest.approx(20.0)

    @pytest.mark.parametrize("param,value", [
        ("p", "nan"), ("p", "inf"), ("L_over_h", "nan"), ("L_over_h", "inf"),
        ("R_over_L", "nan"), ("R_over_L", "infinity")])
    def test_non_finite_sweep_value_names_the_parameter(self, param, value, sandwich_file,
                                                        capsys):
        assert main(["sweep", str(sandwich_file), "--param", param,
                     "--values", f"1,{value}"]) == 2
        out, err = capsys.readouterr()
        key = {"p": "layup.p", "L_over_h": "geometry.L", "R_over_L": "geometry.R_over_L"}[param]
        assert out == "" and err == (f"error: {param} = {value}: {key}: must be finite, "
                                     f"got {value!r}\n")

    def test_error_names_the_value_as_typed(self, tmp_path, capsys):
        # L = L_over_h * h: the rule broken is geometry.L's, the value typed is L_over_h's
        path = tmp_path / "case.ini"
        path.write_text(MINIMAL.replace("h = 1", "h = 0.5"), encoding="utf-8")
        assert main(["sweep", str(path), "--param", "L_over_h", "--values", "1,-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: L_over_h = -1: geometry.L: beam length must be "
                                     "positive and finite, got -0.5\n")

    def test_invalid_rejected_before_solve(self):
        cfg = parse_config(SANDWICH)
        with pytest.raises(ConfigError):
            with_parameter(cfg, "p", -1.0)
        with pytest.raises(ConfigError):
            with_parameter(cfg, "R_over_L", -5)
        for param, value, key in (("p", "-1", "layup.p"), ("L_over_h", "-1", "geometry.L"),
                                  ("R_over_L", "-1", "geometry.R_over_L"),
                                  ("scheme", "0-0-0", "layup.scheme"),
                                  ("scheme", "1-2", "layup.scheme"),
                                  ("L_over_h", "abc", "geometry.L")):
            with pytest.raises(ConfigError) as err:
                with_parameter(cfg, param, value)
            assert_one_key_prefix(str(err.value).removeprefix(f"{param} = {value}: "), key)
        with pytest.raises(ConfigError, match="^volume = 1: unknown sweep parameter$"):
            with_parameter(cfg, "volume", 1)
        with pytest.raises(ConfigError, match="^scheme = 1-2-1: layup.kind: the sweep needs"):
            with_parameter(parse_config(MINIMAL), "scheme", "1-2-1")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    return path


@pytest.fixture
def sandwich_file(tmp_path):
    path = tmp_path / "sandwich.ini"
    path.write_text(SANDWICH, encoding="utf-8")
    return path


class TestCliRun:
    def test_run_reports_table_values(self, cfg_file, capsys):
        assert main(["run", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "w_bar" in out and "3.165211285e+00" in out

    def test_run_deterministic(self, cfg_file, capsys):
        main(["run", str(cfg_file)])
        first = capsys.readouterr().out
        main(["run", str(cfg_file)])
        assert capsys.readouterr().out == first

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_config_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_bad_config_reports_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("h = 1", "h = -3"), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "geometry.h" in capsys.readouterr().err


class TestZeroThicknessTopLayer:
    """z = +h/2 belongs to the topmost layer of positive thickness, not to an empty one."""

    def table_lines(self, text, tmp_path, capsys):
        path = tmp_path / "case.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()[-3:]     # w_bar, sigma_bar, tau_bar
        assert main(["profile", str(path), "--x", "mid", "--samples", "5"]) == 0
        capsys.readouterr()
        return lines

    def test_faces_without_top_face_equal_core_without_bottom_face(self, tmp_path, capsys):
        # both are a graded layer (metal -> ceramic) under a ceramic layer of equal thickness
        b = self.table_lines(with_key(SANDWICH, "layup.scheme", "1-1-0"), tmp_path, capsys)
        c = self.table_lines(with_key(with_key(SANDWICH, "layup.kind", "C"),
                                      "layup.scheme", "0-1-1"), tmp_path, capsys)
        assert b == c and [line.split()[0] for line in b] == ["w_bar", "sigma_bar", "tau_bar"]

    def test_metal_core_without_faces_has_the_homogeneous_stress(self, tmp_path, capsys):
        core = self.table_lines(with_key(with_key(SANDWICH, "layup.kind", "C"),
                                         "layup.scheme", "1-0-0"), tmp_path, capsys)
        metal = self.table_lines(with_key(with_key(SANDWICH, "layup.kind", "A"),
                                          "material.E_c", "70e9"), tmp_path, capsys)
        assert core[1] == metal[1] == "sigma_bar = 3.813632829e+00   (x = L/2, z = +h/2)"


class TestCliConverge:
    def test_csv_rows(self, sandwich_file, capsys):
        assert main(["converge", str(sandwich_file), "--ne", "2,4,8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ne,w_bar"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == 3
        assert data[0].startswith("2,") and data[2].startswith("8,")

    def test_cc_sequence_not_flagged(self, sandwich_file, tmp_path, capsys):
        cc = tmp_path / "cc.ini"
        cc.write_text(sandwich_file.read_text().replace("type = SS", "type = CC"),
                      encoding="utf-8")
        assert main(["converge", str(cc), "--ne", "2,4,8,16,32"]) == 0
        out = capsys.readouterr().out
        assert "not monotone" not in out

    def test_single_entry(self, sandwich_file, capsys):
        assert main(["converge", str(sandwich_file), "--ne", "16"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_default_mesh_list_on_refined_cantilever(self, sandwich_file, tmp_path, capsys):
        # the default list runs to ne = 32, where a relative-residual gate
        # used to reject this cantilever's correct solve
        cf = tmp_path / "cf.ini"
        cf.write_text(sandwich_file.read_text().replace("type = SS", "type = CF"),
                      encoding="utf-8")
        assert main(["converge", str(cf)]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2", "4", "8", "12", "16", "24", "32"]
        assert captured.err == ""

    @pytest.mark.parametrize("ne", ["0", "-4"])
    def test_element_count_below_one_names_it(self, ne, sandwich_file, capsys):
        assert main(["converge", str(sandwich_file), "--ne", f"4,{ne}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: mesh.ne: need at least one element, got ne = {ne}\n")

    def test_singular_system_is_a_clean_error(self, sandwich_file, capsys, monkeypatch):
        def singular(ab, F):
            error = SingularSystemError("stiffness is not positive definite at node 3, dof u0")
            return np.zeros(F.shape), error

        monkeypatch.setattr(solver, "_solve_bands", singular)
        assert main(["converge", str(sandwich_file), "--ne", "4,8"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: stiffness is not positive definite at "
                                "node 3, dof u0\n")
        assert "Traceback" not in captured.out + captured.err

    def test_symmetric_sandwich_flat_convergence(self, sandwich_file, capsys):
        main(["converge", str(sandwich_file), "--ne", "2,32"])
        lines = [ln for ln in capsys.readouterr().out.strip().splitlines()
                 if not ln.startswith("#")]
        v2 = float(lines[1].split(",")[1])
        v32 = float(lines[2].split(",")[1])
        assert abs(v32 - v2) / v32 < 1e-3


class TestCliSweep:
    def test_p_sweep_matches_reference_column(self, cfg_file, capsys):
        assert main(["sweep", str(cfg_file), "--param", "p",
                     "--values", "0,1,2,5,10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,w_bar,sigma_bar,tau_bar"
        got = [float(row.split(",")[1]) for row in lines[1:]]
        expected = [3.1652, 6.2563, 8.0628, 9.8276, 10.937]
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-3)

    def test_r_over_l_sweep_with_inf(self, sandwich_file, capsys):
        assert main(["sweep", str(sandwich_file), "--param", "R_over_L",
                     "--values", "5,10,20,50,100,inf"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert lines[-1].startswith("inf,")

    def test_empty_values_header_only(self, cfg_file, capsys):
        # an empty value list is an error, not a table of the header alone
        for values in ("", ","):
            assert main(["sweep", str(cfg_file), "--param", "p", "--values", values]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: a sweep needs at least one value\n"

    def test_invalid_value_rejected_before_any_solve(self, cfg_file, capsys):
        assert main(["sweep", str(cfg_file), "--param", "p",
                     "--values", "1,-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_p_above_cap_names_the_swept_value(self, capsys, monkeypatch):
        # the cap is checked when the swept case is built, like every other rule
        solves = count_solves(monkeypatch)
        case = Path(__file__).parent / "golden" / "cases" / "a_ss_udl.ini"
        assert main(["sweep", str(case), "--param", "p", "--values", "1,900"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: p = 900: layup.p: ")
        assert solves == []

    def test_point_load_sweep_heads_its_column_w(self, capsys):
        # a point load has no table scale: the column holds the dimensional w, as converge's
        case = Path(__file__).parent / "golden" / "cases" / "c_ss_point_mid_curved.ini"
        assert main(["sweep", str(case), "--param", "p", "--values", "1,2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["p,w,sigma_bar,tau_bar", "1,1.944242616e-10,,"]
        cfg = with_parameter(parse_config(case.read_text(encoding="utf-8")), "p", "2")
        assert lines[2] == f"2,{printed(studies.evaluate_case(cfg).w)},,"


class TestSchemeExponent:
    """A ratio written with a negative exponent: the dash after 'e' is its sign."""

    def test_ini(self):
        cfg = parse_config(with_key(SANDWICH, "layup.scheme", "1-1-1e-13"))
        assert cfg.layup.scheme == (1.0, 1.0, 1e-13)

    def test_sweep(self, sandwich_file, capsys):
        assert with_parameter(parse_config(SANDWICH), "scheme",
                              "1-1-1e-13").layup.scheme == (1.0, 1.0, 1e-13)
        assert main(["sweep", str(sandwich_file), "--param", "scheme",
                     "--values", "1-1-1e-13,1-1-0.0000000000001"]) == 0
        _, exponent, decimal = capsys.readouterr().out.splitlines()
        assert exponent.startswith("1-1-1e-13,")
        assert exponent.split(",")[1:] == decimal.split(",")[1:]

    def test_double_dash_still_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(with_key(SANDWICH, "layup.scheme", "1--1-1"))
        assert str(err.value) == ("layup.scheme: must be three dash-separated numbers, "
                                  "got '1--1-1'")


# lengths whose powers leave float64: L**4 underflows to 0 in table_scales, Le**2 in the
# element's Hermite functions, L**4 overflows in table_scales, and under a point load, which
# has no table scales, E h**3 overflows in the section rigidities
HUGE_SECTION = {"geometry.L": "5e100", "geometry.h": "1e100"}
OUT_OF_RANGE = [
    ("a_ss_udl", {"geometry.L": "1e-200"}),
    ("a_cc_point_mid", {"geometry.L": "1e-200"}),
    ("a_ss_udl", HUGE_SECTION),
    ("a_cc_point_mid", HUGE_SECTION),
]


def golden_case_with(tmp_path, case, changes):
    """A golden case file with the given keys changed, written to tmp_path."""
    text = (Path(__file__).parent / "golden" / "cases" / f"{case}.ini").read_text(encoding="utf-8")
    for key, value in changes.items():
        text = with_key(text, key, value)
    path = tmp_path / f"{case}.ini"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("case,changes", OUT_OF_RANGE, ids=["tiny_L_udl", "tiny_L_point",
                                                            "huge_L_and_h", "huge_section"])
def test_magnitude_out_of_float64_range_is_a_clean_error(case, changes, tmp_path, capsys):
    assert main(["run", str(golden_case_with(tmp_path, case, changes))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: an input magnitude is out of floating-point range: .+\n", err)


@pytest.mark.parametrize("changes,material,culprit", [
    (HUGE_SECTION, "", "geometry.h: E = 3.8e+11 Pa and h = 1e+100 m"),
    ({"geometry.h": "2"}, "[material]\nE_m = 70e9\nE_c = 1.7e308\nnu = 0.3\n",
     "material.E_c: E = 1.7e+308 Pa and h = 2 m"),
], ids=["thickness", "modulus"])
def test_overflowing_section_names_its_key(changes, material, culprit, tmp_path, capsys):
    # one error line, raised before numpy can warn and before the solve sees an inf rigidity;
    # it names the larger factor of E h^3 (the pure-ceramic A11 = E_c h overflows at h = 2)
    path = golden_case_with(tmp_path, "a_cc_point_mid", changes)
    path.write_text(path.read_text(encoding="utf-8") + material, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: an input magnitude is out of floating-point range: "
                          f"{culprit} give section rigidities (A11 ~ E h, D11 ~ E h^3) "
                          "beyond float64: overflow encountered in ")


# input outside the INI grammar, the p cap, a uniform load without a table form, and a
# section whose element stiffness overflows: each ends in one error line, before numpy can warn
ONE_LINE_ERRORS = [
    (MINIMAL.replace("L = 5", "L = 5\nRoverL = 2"), "geometry.roverl: unknown key"),
    (MINIMAL + "magnitud = 7\n", "load.magnitud: unknown key"),
    (MINIMAL + "[mesh]\nnelem = 64\n", "mesh.nelem: unknown key"),
    ("[DEFAULT]\nne = 64\n" + MINIMAL, "unknown section [DEFAULT]"),
    (MINIMAL + "magnitude = 5%\n", "load.magnitude: expected a number, got '5%'"),
    (MINIMAL.replace("L = 5", "L = 5\nR_over_L = %(L)s"),
     "geometry.R_over_L: expected a number, got '%(L)s'"),
    (MINIMAL.replace("p = 0", "p = 900"),
     "layup.p: power-law index must satisfy 0 <= p <= 800, got 900.0"),
    (MINIMAL + "magnitude = 0\n",
     "load.magnitude: nondimensionalization requires a positive load magnitude q"),
    (MINIMAL + "magnitude = 1e-300\n",
     "load.magnitude: q = 1e-300 puts a table scale beyond float64: "
     "100 E_m h^3 / (q L^4) = inf, h / (q L) = 2e+299"),
    ("[material]\nE_m = 1e308\nE_c = 1.7e308\nnu = 0.3\n"
     + MINIMAL.replace("p = 0", "p = 1").replace("SS", "CC").replace("udl", "point_mid"),
     "an input magnitude is out of floating-point range: overflow encountered in multiply"),
    ("kind = A\n" + MINIMAL,
     "malformed configuration: line 1: 'kind = A' comes before any [section] header"),
    (MINIMAL + "[bc]\ntype = CC\n", "malformed configuration: line 11: repeated section [bc]"),
    (MINIMAL + "TYPE = point_mid\n", "malformed configuration: line 11: load.type: repeated key"),
    (MINIMAL + "  magnitude = 2\n", "malformed configuration: line 11: load.type: an indented "
                                    "line continues the value, which must fit on one line"),
    (MINIMAL + "\n  magnitude = 2\n", "malformed configuration: line 12: load.type: an indented "
                                      "line continues the value, which must fit on one line"),
    (MINIMAL + "magnitude 2\n", "malformed configuration: line 11: expected a [section] header "
                                "or key = value, got 'magnitude 2'"),
    (MINIMAL + "= 2\n", "malformed configuration: line 11: expected a [section] header "
                        "or key = value, got '= 2'"),
    (MINIMAL.replace("p = 0", "p = 0\nscheme = banana"),
     "layup.scheme: must be three dash-separated numbers, got 'banana'"),
]


@pytest.mark.parametrize("text,message", ONE_LINE_ERRORS, ids=[
    "misspelled_key", "misspelled_optional_key", "unknown_mesh_key", "default_section",
    "percent_sign", "interpolation", "p_above_cap", "zero_udl", "tiny_udl",
    "overflowing_element", "no_header", "repeated_section", "repeated_key_other_case",
    "indented_key", "indented_key_after_blank", "no_delimiter", "empty_key",
    "kind_a_malformed_scheme"])
def test_rejected_input_is_one_error_line(text, message, tmp_path, capsys):
    path = tmp_path / "case.ini"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_magnitude_out_of_float64_range_has_no_traceback(tmp_path):
    path = golden_case_with(tmp_path, *OUT_OF_RANGE[2])
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "fgcbeam.cli", "run", str(path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: an input magnitude is out of floating-point range: ")
    assert "Traceback" not in res.stderr and res.stderr.count("\n") == 1


def test_sample_count_beyond_memory_is_one_error_line(capsys):
    # 10**15 float64 samples (7.1 PiB) exceed any 64-bit address space, so the allocation
    # fails at once, without touching memory
    case = Path(__file__).parent / "golden" / "cases" / "a_ss_udl.ini"
    assert main(["profile", str(case), "--samples", str(10**15)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: out of memory: ")


def reference_profile_csv(cfg, d, x, samples):
    """The profile CSV as it was formatted before the column form: one row of
    ``_profile_columns`` at a time, its stresses times the stress scale (1.0 under a point
    load) in Python floats."""
    _, z_over_h, sigma, tau, sides = _profile_columns(d, cfg.mesh, cfg.material, cfg.layup, x,
                                                      samples)
    udl = cfg.scales is not None
    scale = cfg.scales[1] if udl else 1.0
    lines = ["z_over_h,sigma_bar,tau_bar,side" if udl else "z_over_h,sigma_x,tau_xz,side"]
    lines += ["%.9e,%.9e,%.9e,%s" % (zh, s * scale, t * scale, side)
              for zh, s, t, side in zip(z_over_h.tolist(), sigma.tolist(), tau.tolist(), sides)]
    return "\n".join(lines) + "\n"


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), load=st.sampled_from(["udl", "point_mid", "point_end"]),
       samples=st.sampled_from([2, 3, 5, 11, 201]) | st.integers(2, 301),
       station=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
def test_profile_csv_equals_the_row_by_row_format(seed, load, samples, station):
    # point loads print the dimensional header and stresses; odd sample counts put a grid
    # point at z = 0 and, in some schemes, on an interface
    cfg = random_case(np.random.default_rng(seed))
    kind = load if load != "point_end" or cfg.bc is BoundaryCondition.CF else "point_mid"
    ne = cfg.ne + cfg.ne % 2 if kind == "point_mid" else cfg.ne    # x = L/2 must be a node
    cfg = replace(cfg, load=LoadCase(kind, cfg.load.magnitude), ne=ne)
    d = solve_static(cfg.mesh, compute_rigidities(cfg.material, cfg.layup), cfg.bc, cfg.load)
    x = station * cfg.L
    assert _profile_csv(cfg, d, x, samples) == reference_profile_csv(cfg, d, x, samples)


class TestCliProfile:
    def test_stdout_csv(self, sandwich_file, capsys):
        assert main(["profile", str(sandwich_file), "--x", "mid",
                     "--samples", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z_over_h,sigma_bar,tau_bar,side"
        assert lines[1].startswith("-5.000000000e-01,")
        assert lines[-1].startswith("5.000000000e-01,")
        # two interior interfaces sampled from both sides
        sides = [row.split(",")[3] for row in lines[1:]]
        assert sides.count("below") == 2 and sides.count("above") == 2

    def test_file_output_deterministic(self, sandwich_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["profile", str(sandwich_file), "--x", "support", "--samples", "33",
              "--out", str(out1)])
        main(["profile", str(sandwich_file), "--x", "support", "--samples", "33",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_surface_shear_zero_in_csv(self, sandwich_file, capsys):
        main(["profile", str(sandwich_file), "--x", "mid", "--samples", "5"])
        lines = capsys.readouterr().out.strip().splitlines()
        first, last = lines[1].split(","), lines[-1].split(",")
        assert float(first[2]) == 0.0 and float(last[2]) == 0.0

    def test_bad_station(self, sandwich_file, capsys):
        assert main(["profile", str(sandwich_file), "--x", "7.0"]) == 2

    @pytest.mark.parametrize("x", ["nan", "inf", "5.0001"])
    def test_station_outside_the_beam(self, x, sandwich_file, capsys):
        assert main(["profile", str(sandwich_file), "--x", x]) == 2
        assert "outside the beam [0, 5.0]" in capsys.readouterr().err

    def test_station_within_the_node_snap_of_the_end(self, sandwich_file, capsys):
        # the library's 1e-9 L snap: x = L + 1e-9 m on L = 5 m is the end node
        assert main(["profile", str(sandwich_file), "--x", "5.000000001", "--samples", "5"]) == 0
        snapped = capsys.readouterr().out
        assert main(["profile", str(sandwich_file), "--x", "end", "--samples", "5"]) == 0
        assert capsys.readouterr().out == snapped

    @pytest.mark.parametrize("argv", [["--x", "99"], ["--samples", "1"]],
                             ids=["station_outside_the_beam", "one_sample"])
    def test_failed_profile_keeps_the_out_file(self, argv, sandwich_file, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"old,bytes\n")
        assert main(["profile", str(sandwich_file), *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"old,bytes\n"

    @pytest.mark.parametrize("argv", [["--x", "99"], ["--samples", "1"]],
                             ids=["station_outside_the_beam", "one_sample"])
    def test_failed_profile_leaves_no_new_out_file(self, argv, sandwich_file, tmp_path, capsys):
        out = tmp_path / "new.csv"
        assert main(["profile", str(sandwich_file), *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_unwritable_output_is_a_clean_error(self, sandwich_file, tmp_path, capsys,
                                                monkeypatch):
        # the file is opened before any solve, so a bad path costs none
        solves = count_solves(monkeypatch)
        out = tmp_path / "missing" / "profile.csv"
        assert main(["profile", str(sandwich_file), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: [Errno 2]")
        assert stdout == "" and solves == []
        assert main(["profile", str(sandwich_file), "--out", str(tmp_path / "p.csv")]) == 0
        assert solves


class TestCliBench:
    def test_single_table_passes(self, capsys):
        assert main(["bench", "--table", "T6"]) == 0
        out = capsys.readouterr().out
        assert "T6: 30/30 within tolerance" in out

    def test_unknown_table(self, capsys):
        assert main(["bench", "--table", "T99"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown benchmark table(s): ['T99']; "
            "available: T6,T7,T8,T9,T10,T11,T12,T15,T16,T17,T18,T19\n")

    @pytest.mark.parametrize("tables", [",", ""])
    def test_empty_table_list_rejected(self, tables, capsys):
        assert main(["bench", "--table", tables]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: no benchmark table selected\n"

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--table", "T6", "--csv", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("table,row,column,quantity")
        assert len(lines) == 31
        assert all(row.endswith("pass") for row in lines[1:])

    def test_failed_bench_keeps_the_csv_file(self, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"old,bytes\n")
        assert main(["bench", "--table", "T99", "--csv", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"old,bytes\n"

    def test_failed_bench_leaves_no_new_csv_file(self, tmp_path, capsys):
        out = tmp_path / "new.csv"
        assert main(["bench", "--table", "T99", "--csv", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_unwritable_csv_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        # the file is opened before any solve, so a bad path prints no report
        solves = count_solves(monkeypatch)
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--table", "T6", "--csv", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: [Errno 2]")
        assert stdout == "" and solves == []
        assert main(["bench", "--table", "T6", "--csv", str(tmp_path / "bench.csv")]) == 0
        assert solves

    def test_csv_report_is_valid_csv(self, tmp_path, capsys):
        # T6's row labels ('L/h=5,p=0') and T18's column labels ('sigma,L/h=5') carry commas
        out = tmp_path / "bench.csv"
        assert main(["bench", "--table", "T6,T18", "--csv", str(out)]) == 0
        with out.open(encoding="utf-8", newline="") as file:
            reader = csv.DictReader(file)
            rows = list(reader)
        assert len(reader.fieldnames) == 9 and len(rows) == 30 + 20
        for row in rows:
            assert None not in row and None not in row.values(), row
            float(row["computed"])
        assert any("," in row["row"] for row in rows) and any("," in row["column"] for row in rows)
        assert {row["status"] for row in rows} <= {"pass", "skip"}

    def test_csv_rows_follow_from_their_printed_strings(self, tmp_path, capsys):
        # rel_err is judged on computed as printed, so each row's rel_err and verdict follow
        # from its own strings and not from digits the file never shows
        out = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(out)]) == 0
        with out.open(encoding="utf-8", newline="") as file:
            rows = list(csv.DictReader(file))
        assert len(rows) == 920
        for row in rows:
            computed, expected = float(row["computed"]), float(row["expected"])
            rel = abs(computed - expected) / abs(expected)
            assert row["rel_err"] == printed(rel), row
            assert row["status"] in ("pass", "fail", "skip"), row
            if row["status"] != "skip":
                assert (row["status"] == "pass") == (rel <= float(row["tol"])), row


FRESH = "import sys; from fgcbeam import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_shared_parser_keeps_no_state_between_calls(sandwich_file, tmp_path, capsys):
    """Calls in one process print what each prints as the first call of a fresh process."""
    assert build_parser() is build_parser()
    out_file = tmp_path / "profile.csv"
    calls = [["run", str(sandwich_file)],
             ["profile", str(sandwich_file), "--x", "support", "--out", str(out_file)],
             ["profile", str(sandwich_file), "--samples", "many"],      # argparse rejects it
             ["run", str(sandwich_file)]]
    here = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        here.append((code, captured.out.encode(), captured.err.encode()))
    assert [code for code, _, _ in here] == [0, 0, 2, 0]
    profile = out_file.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    for argv, want in zip(calls, here):
        fresh = subprocess.run([sys.executable, "-c", FRESH, *argv], env=env,
                               capture_output=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == want, argv
    assert out_file.read_bytes() == profile


def test_cli_surface_is_pinned():
    """Every argument of every subcommand, so that a new option shows up here in review."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: [opt for a in parser._actions if a.dest != "help"
                      for opt in a.option_strings or [a.dest]]
               for name, parser in sub.choices.items()}
    assert surface == {
        "run": ["config"],
        "converge": ["config", "--ne"],
        "sweep": ["config", "--param", "--values"],
        "bench": ["--table", "--csv"],
        "profile": ["config", "--x", "--samples", "--out"],
    }


def test_public_api_is_pinned():
    """The package's exported names, so that an added or removed one shows up here in review."""
    assert sorted(fgcbeam.__all__) == [
        "BoundaryCondition", "CaseConfig", "CaseResults", "ConfigError", "DEFAULT_MATERIAL",
        "Layup", "LayupKind", "LoadCase", "MaterialPair", "Mesh", "SectionRigidities",
        "SingularSystemError", "assemble_load", "compute_rigidities",
        "convergence_study", "deflection_point", "evaluate_case", "evaluate_cases",
        "parse_config", "shear_functions", "solve_static", "stiffness_coeffs", "sweep",
        "table_scales",
    ]
    for name in fgcbeam.__all__:
        assert getattr(fgcbeam, name) is not None, name
