"""Case configuration: INI-style text in, validated CaseConfig out.

Grammar (sections and keys; '#'/';' comments allowed):

    [material]  E_m, E_c, nu                (optional; defaults to the
                                             70/380 GPa, nu = 0.3 pair)
    [layup]     kind = A|B|C                (required)
                scheme = a-b-c              (required for B/C)
                p                           (required, >= 0)
    [geometry]  L, h                        (required, > 0)
                R_over_L = <number>|inf     (optional; default inf)
    [bc]        type = SS|CC|CF             (required)
    [load]      type = udl|point_end|point_mid   (required)
                magnitude                   (optional; default 1.0)
    [mesh]      ne                          (optional; default 16)

Numbers must be finite; ``inf`` is accepted only as R_over_L.  Parse
errors name the offending section.key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .materials import DEFAULT_MATERIAL, Layup, LayupKind, MaterialPair
from .solver import BoundaryCondition, LoadCase, Mesh, check_load

DEFAULT_NE = 16


class ConfigError(ValueError):
    """Malformed or inconsistent case configuration."""


@dataclass(frozen=True)
class CaseConfig:
    """Fully validated single-case definition."""

    material: MaterialPair
    layup: Layup
    L: float
    R_over_L: float  # math.inf encodes a straight beam
    bc: BoundaryCondition
    load: LoadCase
    ne: int = DEFAULT_NE

    @property
    def h(self) -> float:
        return self.layup.h

    @property
    def inv_R(self) -> float:
        return 0.0 if math.isinf(self.R_over_L) else 1.0 / (self.R_over_L * self.L)

    def mesh(self) -> Mesh:
        return Mesh(L=self.L, ne=self.ne, inv_R=self.inv_R)


def parse_scheme(text: str) -> tuple[float, float, float]:
    """'a-b-c' layer thickness ratios, e.g. '1-8-1'."""
    parts = text.strip().split("-")
    if len(parts) != 3:
        raise ConfigError(f"scheme must be three dash-separated ratios, got {text!r}")
    try:
        a, b, c = (float(s) for s in parts)
    except ValueError as err:
        raise ConfigError(f"scheme ratios must be numeric, got {text!r}") from err
    if min(a, b, c) < 0 or a + b + c <= 0:
        raise ConfigError(f"scheme ratios must be nonnegative with a positive sum, got {text!r}")
    return a, b, c


def _one_of(names) -> str:
    """'a, b or c' for an error message."""
    *head, last = names
    return f"{', '.join(head)} or {last}"


def _get(cp: configparser.ConfigParser, section: str, key: str,
         default: str | None = None) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if default is None:
        raise ConfigError(f"missing required key {section}.{key}")
    return default


def _finite(name: str, raw) -> float:
    """raw as a finite float; a ConfigError that names ``name`` otherwise."""
    try:
        val = float(raw)
    except ValueError as err:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from err
    if not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {raw!r}")
    return val


def _check_radius(name: str, R_over_L: float, L: float) -> None:
    """A ConfigError naming ``name`` unless R = R_over_L * L is positive with finite 1/R."""
    R = R_over_L * L
    if not (R > 0 and 1.0 / R < math.inf):
        raise ConfigError(f"{name}: radius R = R_over_L * L = {R:g} m has no finite 1/R")


def _get_float(cp, section, key, default=None, positive=False, nonnegative=False):
    val = _finite(f"{section}.{key}", _get(cp, section, key, default))
    if positive and val <= 0:
        raise ConfigError(f"{section}.{key}: must be positive, got {val}")
    if nonnegative and val < 0:
        raise ConfigError(f"{section}.{key}: must be nonnegative, got {val}")
    return val


def parse_config(text: str) -> CaseConfig:
    """Parse and validate a case configuration from INI text."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed configuration: {err}") from err

    for section in ("layup", "geometry", "bc", "load"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    known = {"material", "layup", "geometry", "bc", "load", "mesh"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    if cp.has_section("material"):
        try:
            mat = MaterialPair(
                E_m=_get_float(cp, "material", "E_m", positive=True),
                E_c=_get_float(cp, "material", "E_c", positive=True),
                nu=_get_float(cp, "material", "nu", nonnegative=True),
            )
        except ValueError as err:
            raise ConfigError(f"material: {err}") from err
    else:
        mat = DEFAULT_MATERIAL

    kind_raw = _get(cp, "layup", "kind").upper()
    try:
        kind = LayupKind(kind_raw)
    except ValueError as err:
        raise ConfigError(f"layup.kind: must be {_one_of(k.value for k in LayupKind)}, "
                          f"got {kind_raw!r}") from err
    p = _get_float(cp, "layup", "p", nonnegative=True)
    h = _get_float(cp, "geometry", "h", positive=True)
    if kind is LayupKind.A:
        layup = Layup.single_layer(p=p, h=h)
    else:
        scheme = parse_scheme(_get(cp, "layup", "scheme"))
        layup = Layup(kind, scheme, p, h)

    L = _get_float(cp, "geometry", "L", positive=True)
    rl_raw = _get(cp, "geometry", "R_over_L", "inf").lower()
    if rl_raw == "inf":
        R_over_L = math.inf
    else:
        R_over_L = _get_float(cp, "geometry", "R_over_L", positive=True)
    _check_radius("geometry.R_over_L", R_over_L, L)

    bc_raw = _get(cp, "bc", "type").upper()
    try:
        bc = BoundaryCondition(bc_raw)
    except ValueError as err:
        raise ConfigError(f"bc.type: must be {_one_of(b.value for b in BoundaryCondition)}, "
                          f"got {bc_raw!r}") from err

    load_kind = _get(cp, "load", "type").lower()
    if load_kind not in LoadCase.KINDS:
        raise ConfigError(f"load.type: must be {_one_of(LoadCase.KINDS)}, got {load_kind!r}")
    load = LoadCase(load_kind, _get_float(cp, "load", "magnitude", "1.0"))

    ne_raw = _get(cp, "mesh", "ne", str(DEFAULT_NE)) if cp.has_section("mesh") else str(DEFAULT_NE)
    try:
        ne = int(ne_raw)
    except ValueError as err:
        raise ConfigError(f"mesh.ne: expected an integer, got {ne_raw!r}") from err
    if ne < 1:
        raise ConfigError(f"mesh.ne: must be at least 1, got {ne}")
    if load_kind == "point_mid" and ne % 2 != 0:
        raise ConfigError(f"mesh.ne: mid-span point load needs an even count, got {ne}")

    cfg = CaseConfig(material=mat, layup=layup, L=L, R_over_L=R_over_L,
                     bc=bc, load=load, ne=ne)
    try:
        check_load(cfg.mesh(), bc, load)
    except ValueError as err:
        raise ConfigError(f"load.type: {err}") from err
    return cfg


def with_parameter(cfg: CaseConfig, param: str, value) -> CaseConfig:
    """Copy of cfg with one sweep parameter replaced.

    param is one of 'p', 'R_over_L', 'scheme', 'L_over_h'.
    """
    if param == "p":
        p = _finite(param, value)
        if p < 0:
            raise ConfigError(f"p: must be nonnegative, got {value}")
        return replace(cfg, layup=replace(cfg.layup, p=p))
    if param == "R_over_L":
        if str(value).strip().lower() == "inf":
            rl = math.inf
        else:
            rl = _finite(param, value)
            if rl <= 0:
                raise ConfigError(f"R_over_L: must be positive or inf, got {value}")
        _check_radius(param, rl, cfg.L)
        return replace(cfg, R_over_L=rl)
    if param == "scheme":
        scheme = parse_scheme(value) if isinstance(value, str) else tuple(value)
        if cfg.layup.kind is LayupKind.A:
            raise ConfigError("scheme sweep needs a sandwich layup (kind B or C)")
        return replace(cfg, layup=replace(cfg.layup, scheme=scheme))
    if param == "L_over_h":
        ratio = _finite(param, value)
        if ratio <= 0:
            raise ConfigError(f"L_over_h: must be positive, got {value}")
        _check_radius(param, cfg.R_over_L, ratio * cfg.layup.h)
        return replace(cfg, L=ratio * cfg.layup.h)
    raise ConfigError(f"unknown sweep parameter {param!r}")
