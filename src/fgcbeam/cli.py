"""Command line interface.

Subcommands:

    run <config>                          single case report
    converge <config> --ne 2,4,8,...      mesh convergence table
    sweep <config> --param p --values ... parameter sweep (CSV)
    bench [--table T6,T7] [--csv FILE]    embedded benchmark gate
    profile <config> --x mid --samples N  through-thickness stress CSV

Config files use the INI grammar documented in ``fgcbeam.config``.
All CSV output is UTF-8 with '.' decimals and 10-significant-digit
scientific notation; identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import os
import sys
from pathlib import Path

from .config import CaseConfig, parse_config
from .postproc import _profile_columns
from .section import compute_rigidities
from .solver import SingularSystemError, solve_static
from .studies import PRINTED, convergence_study, evaluate_case, printed, sweep


def _load_config(path: str) -> CaseConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _case_header(cfg: CaseConfig) -> list[str]:
    rl = "inf" if math.isinf(cfg.R_over_L) else f"{cfg.R_over_L:g}"
    scheme = "-".join(f"{s:g}" for s in cfg.layup.scheme)
    return [
        f"layup    : kind {cfg.layup.kind.value}"
        + ("" if cfg.layup.kind.value == "A" else f", scheme {scheme}")
        + f", p = {cfg.layup.p:g}",
        f"geometry : L = {cfg.L:g} m, h = {cfg.h:g} m (L/h = {cfg.L / cfg.h:g}), "
        f"R/L = {rl}",
        f"material : E_m = {cfg.material.E_m:g} Pa, E_c = {cfg.material.E_c:g} Pa, "
        f"nu = {cfg.material.nu:g}",
        f"case     : {cfg.bc.value}, {cfg.load.kind} of magnitude "
        f"{cfg.load.magnitude:g}, ne = {cfg.ne}",
    ]


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    res = evaluate_case(cfg)
    out = sys.stdout
    for line in _case_header(cfg):
        out.write(line + "\n")
    out.write(f"w at x = {res.x_deflection:g} m : {printed(res.w)} m\n")
    if res.w_bar is not None:
        out.write(f"w_bar     = {printed(res.w_bar)}\n")
        out.write(f"sigma_bar = {printed(res.sigma_bar)}   (x = L/2, z = +h/2)\n")
        out.write(f"tau_bar   = {printed(res.tau_bar)}   (x = 0, z = 0)\n")
    else:
        out.write("nondimensional outputs are defined for the udl load case only\n")
    return 0


def _parse_station(text: str, cfg: CaseConfig, flag: str) -> float:
    named = {"mid": cfg.L / 2.0, "end": cfg.L, "support": 0.0}
    if text in named:
        return named[text]
    try:
        return float(text)          # the recovery checks the range, with its node snap
    except ValueError:
        raise ValueError(f"{flag} must be mid, end, support or a coordinate, got {text!r}")


_PROFILE_ROW = f"{PRINTED},{PRINTED},{PRINTED},%s"      # one formatting call per row


def _profile_csv(cfg: CaseConfig, d, x: float, samples: int) -> str:
    """Through-thickness profile at x of the case's DOFs d as CSV, formatted from the
    profile's columns; nondimensional for the udl case."""
    _, z_over_h, sigma, tau, sides = _profile_columns(d, cfg.mesh, cfg.material, cfg.layup, x,
                                                      samples)
    udl = cfg.scales is not None
    # a product with 1.0 is exact: point-load rows keep the dimensional stresses
    scale = cfg.scales[1] if udl else 1.0
    lines = ["z_over_h,sigma_bar,tau_bar,side" if udl else "z_over_h,sigma_x,tau_xz,side"]
    lines += map(_PROFILE_ROW.__mod__, zip(z_over_h.tolist(), (sigma * scale).tolist(),
                                           (tau * scale).tolist(), sides))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _output(path: str | None):
    """A buffer for the FILE of ``--out`` or ``--csv``, or None without one.  The path is
    opened before any solve, so that a bad one costs none, in append mode, so that the file
    keeps its bytes; the file takes the buffer's text only if the command raises nothing,
    and a file that this opening created is removed if it raises."""
    if not path:
        yield None
        return
    created = not os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield (buffer := io.StringIO())
    except BaseException:
        if created:
            Path(path).unlink(missing_ok=True)
        raise
    Path(path).write_text(buffer.getvalue(), encoding="utf-8", newline="")


def _cmd_profile(args) -> int:
    cfg = _load_config(args.config)
    x = _parse_station(args.x, cfg, "--x")
    with _output(args.out) as out:
        # the solve alone: the profile prints none of evaluate_case's table values
        d = solve_static(cfg.mesh, compute_rigidities(cfg.material, cfg.layup), cfg.bc, cfg.load)
        (out or sys.stdout).write(_profile_csv(cfg, d, x, args.samples))
    if args.out:
        sys.stdout.write(f"profile written to {args.out}\n")
    return 0


def _items(text: str) -> list[str]:
    """The entries of a comma-separated list, stripped, with empty entries left out."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    try:
        ne_list = [int(s) for s in _items(args.ne)]
    except ValueError:
        raise ValueError(f"--ne expects a comma-separated integer list, got {args.ne!r}")
    result = convergence_study(cfg, ne_list)
    sys.stdout.write(f"ne,{result.quantity}\n")
    for ne, value in result.rows:
        sys.stdout.write(f"{ne},{printed(value)}\n")
    if not result.monotone:
        sys.stdout.write("# warning: sequence is not monotone\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    rows = sweep(cfg, args.param, _items(args.values))
    w = "w_bar" if cfg.load.kind == "udl" else "w"       # a point load reports w in m
    sys.stdout.write(f"{args.param},{w},sigma_bar,tau_bar\n")
    for value, r in rows:
        cols = (r.w if r.w_bar is None else r.w_bar, r.sigma_bar, r.tau_bar)
        sys.stdout.write(",".join([value, *("" if c is None else printed(c) for c in cols)]) + "\n")
    return 0


def _format_bench_report(report) -> str:
    from .benchmarks import BenchReport    # counts each table as the report counts the whole
    lines = []
    header = (f"{'table':<5} {'row':<16} {'column':<14} {'quantity':<10}"
              f" {'expected':>12} {'computed':>15} {'rel_err':>10} {'status':<7}")
    lines.append(header)
    lines.append("-" * len(header))
    by_table: dict[str, list] = {}
    for r in report.results:
        by_table.setdefault(r.cell.table, []).append(r)
    for table, results in by_table.items():
        t = BenchReport(results)
        worst = max((r.rel_err for r in results if r.status != "skip"), default=0.0)
        skip_note = f", {t.n_skipped} suspect cells skipped" if t.n_skipped else ""
        lines.append(f"{table}: {t.n_pass}/{t.n_pass + t.n_fail} within tolerance, "
                     f"worst rel err {worst:.2e}{skip_note}")
        for r in results:
            if r.status != "pass":
                lines.append(
                    f"{r.cell.table:<5} {r.cell.row:<16} {r.cell.col:<14} "
                    f"{r.cell.quantity:<10} {r.cell.expected:>12g} "
                    f"{r.computed:>15.8g} {r.rel_err:>10.2e} {r.status.upper():<7}")
    lines.append("")
    lines.append(f"total: {report.n_pass} pass, {report.n_fail} fail, "
                 f"{report.n_skipped} suspect cells skipped")
    if report.n_fail:
        lines.append("worst offenders:")
        for r in report.worst(5):
            lines.append(f"  {r.cell.table} {r.cell.row} {r.cell.col} "
                         f"{r.cell.quantity}: expected {r.cell.expected:g}, "
                         f"computed {r.computed:.8g}, rel err {r.rel_err:.2e}")
    return "\n".join(lines) + "\n"


def _write_bench_csv(file, report) -> None:
    """One row per cell; labels such as 'L/h=5,p=0' are quoted."""
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(["table", "row", "column", "quantity", "expected", "computed", "rel_err",
                     "tol", "status"])
    for r in report.results:
        writer.writerow([r.cell.table, r.cell.row, r.cell.col, r.cell.quantity,
                         printed(r.cell.expected), printed(r.computed),
                         printed(r.rel_err), printed(r.cell.tol), r.status])


def _cmd_bench(args) -> int:
    from .benchmarks import benchmark_compare    # builds the 920 fixture cells: bench only
    tables = None if args.table is None else _items(args.table)
    with _output(args.csv) as out:
        report = benchmark_compare(tables=tables)
        sys.stdout.write(_format_bench_report(report))
        if out:
            _write_bench_csv(out, report)
            sys.stdout.write(f"csv report written to {args.csv}\n")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="fgcbeam",
        description="Static bending of functionally graded sandwich straight and "
                    "curved beams (two-node shear-deformable element).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one case and print the report")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("converge", help="mesh convergence study")
    p_conv.add_argument("config")
    p_conv.add_argument("--ne", default="2,4,8,12,16,24,32",
                        help="comma-separated element counts")
    p_conv.set_defaults(func=_cmd_converge)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         choices=("p", "R_over_L", "scheme", "L_over_h"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (R_over_L accepts inf)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="run the embedded benchmark gate")
    p_bench.add_argument("--table", help="comma-separated subset, e.g. T6,T9")
    p_bench.add_argument("--csv", metavar="FILE", help="write machine-readable results")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser("profile", help="through-thickness stress profile CSV")
    p_prof.add_argument("config")
    p_prof.add_argument("--x", default="mid",
                        help="station: mid, end, support or a coordinate (m)")
    p_prof.add_argument("--samples", type=int, default=201)
    p_prof.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SingularSystemError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ArithmeticError as err:       # a length or modulus whose powers leave float64
        sys.stderr.write(f"error: an input magnitude is out of floating-point range: {err}\n")
        return 2
    except MemoryError as err:           # e.g. a sample count or mesh beyond the host's memory
        sys.stderr.write(f"error: out of memory: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
