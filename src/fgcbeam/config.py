"""Case configuration: INI-style text in, validated CaseConfig out.

Grammar (sections and keys; '#'/';' comments allowed):

    [material]  E_m, E_c, nu                (optional; defaults to the
                                             70/380 GPa, nu = 0.3 pair)
    [layup]     kind = A|B|C                (required)
                scheme = a-b-c              (required for B/C)
                p                           (required, >= 0)
    [geometry]  L, h                        (required, > 0)
                R_over_L = <number>|inf     (optional; default inf;
                                             R = R_over_L * L must exceed
                                             h/2 and have a finite 1/R)
    [bc]        type = SS|CC|CF             (required)
    [load]      type = udl|point_end|point_mid   (required)
                magnitude                   (optional; default 1.0)
    [mesh]      ne                          (optional; default 16)

Numbers must be finite; ``inf`` is accepted only as R_over_L.  Parse
errors name the offending section.key.  The checks that span several keys
(the radius, and a point load the supports would hold) belong to
``CaseConfig`` itself, so every case built in the library passes them too.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .materials import DEFAULT_MATERIAL, Layup, LayupKind, MaterialPair
from .solver import BoundaryCondition, LoadCase, Mesh, check_load

DEFAULT_NE = 16


class ConfigError(ValueError):
    """Malformed or inconsistent case configuration."""


@dataclass(frozen=True)
class CaseConfig:
    """Fully validated single-case definition.

    Construction checks the case as a whole: R = R_over_L * L must exceed
    h/2 and have a finite 1/R (a ``ConfigError`` naming geometry.R_over_L),
    ``Mesh`` checks L and ne, and ``check_load`` rejects an odd ne under a
    mid-span point load and a point load the supports would hold.  The
    derived ``mesh`` is built once here.
    """

    material: MaterialPair
    layup: Layup
    L: float
    R_over_L: float  # math.inf encodes a straight beam
    bc: BoundaryCondition
    load: LoadCase
    ne: int = DEFAULT_NE
    mesh: Mesh = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        R = self.R_over_L * self.L
        if not (R > self.h / 2 and 1.0 / R < math.inf):
            Mesh(self.L, self.ne)         # a bad L or ne is named first
            raise ConfigError(f"geometry.R_over_L: radius R = R_over_L * L = {R:g} m must "
                              f"exceed h/2 = {self.h / 2:g} m and have a finite 1/R")
        mesh = Mesh(L=self.L, ne=self.ne, inv_R=1.0 / R)
        check_load(mesh, self.bc, self.load)
        object.__setattr__(self, "mesh", mesh)

    @property
    def h(self) -> float:
        return self.layup.h

    @property
    def inv_R(self) -> float:
        return self.mesh.inv_R


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


def _number(name: str, raw, positive=False, nonnegative=False) -> float:
    """raw as a finite float within its bound; a ConfigError that names ``name`` otherwise."""
    try:
        val = float(raw)
    except ValueError as err:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from err
    if not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {raw!r}")
    if positive and val <= 0:
        raise ConfigError(f"{name}: must be positive, got {val}")
    if nonnegative and val < 0:
        raise ConfigError(f"{name}: must be nonnegative, got {val}")
    return val


def _radius_ratio(name: str, raw) -> float:
    """R_over_L: ``inf`` (a straight beam) or a positive finite number."""
    if str(raw).strip().lower() == "inf":
        return math.inf
    return _number(name, raw, positive=True)


def _get_float(cp, section, key, default=None, positive=False, nonnegative=False):
    return _number(f"{section}.{key}", _get(cp, section, key, default),
                   positive=positive, nonnegative=nonnegative)


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
    R_over_L = _radius_ratio("geometry.R_over_L", _get(cp, "geometry", "R_over_L", "inf"))

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

    try:
        return CaseConfig(material=mat, layup=layup, L=L, R_over_L=R_over_L,
                          bc=bc, load=load, ne=ne)
    except ConfigError:
        raise
    except ValueError as err:     # check_load: a point load the supports would hold
        raise ConfigError(f"load.type: {err}") from err


def with_parameter(cfg: CaseConfig, param: str, value) -> CaseConfig:
    """Copy of cfg with one sweep parameter replaced.

    param is one of 'p', 'R_over_L', 'scheme', 'L_over_h'.
    """
    if param == "p":
        return replace(cfg, layup=replace(cfg.layup, p=_number(param, value, nonnegative=True)))
    if param == "R_over_L":
        return replace(cfg, R_over_L=_radius_ratio(param, value))
    if param == "scheme":
        scheme = parse_scheme(value) if isinstance(value, str) else tuple(value)
        if cfg.layup.kind is LayupKind.A:
            raise ConfigError("scheme sweep needs a sandwich layup (kind B or C)")
        return replace(cfg, layup=replace(cfg.layup, scheme=scheme))
    if param == "L_over_h":
        return replace(cfg, L=_number(param, value, positive=True) * cfg.layup.h)
    raise ConfigError(f"unknown sweep parameter {param!r}")
