"""Case configuration: INI-style text in, validated CaseConfig out.

Grammar (sections and keys; '#'/';' comments allowed), with the
constructor that checks each value's range:

    [material]  E_m, E_c, nu                (optional; defaults to the
                                             70/380 GPa, nu = 0.3 pair;
                                             MaterialPair: E > 0, 0 <= nu < 0.5)
    [layup]     kind = A|B|C                (required)
                scheme = a-b-c              (required for B/C; Layup: ratios
                                             >= 0 with a positive sum)
                p                           (required; Layup: 0 <= p <= 800)
    [geometry]  L, h                        (required; Mesh: L > 0, Layup: h > 0)
                R_over_L = <number>|inf     (optional; default inf; CaseConfig:
                                             R = R_over_L * L must exceed
                                             h/2 and have a finite 1/R)
    [bc]        type = SS|CC|CF             (required)
    [load]      type = udl|point_end|point_mid   (required; LoadCase)
                magnitude                   (optional; default 1.0;
                                             CaseConfig: q > 0 for udl)
    [mesh]      ne                          (optional; default 16; Mesh: an
                                             integer ne >= 1;
                                             check_load: even for point_mid, and
                                             no point load that the supports hold)

Any other section or key, and a [DEFAULT] section, is an error that names
it (key names are read lowercased), and '%' is a plain character: no
value is interpolated.

This module only turns text into values: a number, finite unless the key
accepts ``inf`` (only R_over_L does), an integer where the text is one
(``Mesh`` names an ne that is not), an enum name and the scheme's a-b-c
shape.  Each range rule is checked once, by the constructor
that owns it, so every case built in the library passes it too; the
constructor raises a ``ConfigError`` (a ValueError, defined in
``materials``) that names the INI key.  An error in a value starts with its
section.key, and only once; ``with_parameter`` puts the parameter and the
value as given before it.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import re
from dataclasses import dataclass, field, replace

from .materials import DEFAULT_MATERIAL, ConfigError, Layup, LayupKind, MaterialPair
from .postproc import table_scales
from .solver import BoundaryCondition, LoadCase, Mesh, check_load

DEFAULT_NE = 16


@dataclass(frozen=True)
class CaseConfig:
    """Fully validated single-case definition.

    Construction checks the case as a whole: R = R_over_L * L must exceed
    h/2 and have a finite 1/R (a ``ConfigError`` naming geometry.R_over_L),
    ``Mesh`` checks L and ne, ``check_load`` rejects an odd ne under a
    mid-span point load and a point load the supports would hold, and
    ``table_scales`` rejects a uniform load with q <= 0 or with a table
    scale beyond float64.  The derived ``mesh`` and, for a uniform load,
    the table ``scales`` (None for a point load) are built once here.
    """

    material: MaterialPair
    layup: Layup
    L: float
    R_over_L: float  # math.inf encodes a straight beam
    bc: BoundaryCondition
    load: LoadCase
    ne: int = DEFAULT_NE
    mesh: Mesh = field(init=False, compare=False, repr=False)
    scales: tuple[float, float] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        R = self.R_over_L * self.L
        if not (R > self.h / 2 and 1.0 / R < math.inf):
            Mesh(self.L, self.ne)         # a bad L or ne is named first
            raise ConfigError(f"geometry.R_over_L: radius R = R_over_L * L = {R:g} m must "
                              f"exceed h/2 = {self.h / 2:g} m and have a finite 1/R")
        mesh = Mesh(L=self.L, ne=self.ne, inv_R=1.0 / R)
        check_load(mesh, self.bc, self.load)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "scales", table_scales(self.material.E_m, self.L, self.h,
                                                        self.load.magnitude)
                           if self.load.kind == "udl" else None)

    @property
    def h(self) -> float:
        return self.layup.h

    @property
    def inv_R(self) -> float:
        return self.mesh.inv_R


def _get(cp: configparser.ConfigParser, section: str, key: str,
         default: str | None = None) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if default is None:
        raise ConfigError(f"{section}.{key}: missing required key")
    return default


def _number(name: str, raw) -> float:
    """raw as a finite float; a ConfigError that names ``name`` otherwise."""
    try:
        val = float(raw)
    except ValueError as err:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from err
    if not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite, got {raw!r}")
    return val


def _radius_ratio(name: str, raw) -> float:
    """R_over_L: ``inf`` (a straight beam) or a finite number."""
    return math.inf if str(raw).strip().lower() == "inf" else _number(name, raw)


def _scheme(name: str, raw: str) -> tuple[float, float, float]:
    """'a-b-c' layer thickness ratios, e.g. '1-8-1' or '1-1-1e-13': a dash that
    follows 'e' or 'E' is an exponent's sign, not a separator."""
    try:
        a, b, c = (float(s) for s in re.split(r"(?<![eE])-", raw))
    except ValueError as err:
        raise ConfigError(f"{name}: must be three dash-separated numbers, got {raw!r}") from err
    return a, b, c


def _member(enum_type, name: str, raw: str):
    """The member of enum_type whose value is raw; a ConfigError that names ``name`` otherwise."""
    try:
        return enum_type(raw)
    except ValueError as err:
        *head, last = (m.value for m in enum_type)
        raise ConfigError(f"{name}: must be {', '.join(head)} or {last}, got {raw!r}") from err


def _get_float(cp, section, key, default=None):
    return _number(f"{section}.{key}", _get(cp, section, key, default))


#: Each section's keys, lowercased as configparser stores them.
_KEYS = {"material": ("e_m", "e_c", "nu"), "layup": ("kind", "scheme", "p"),
         "geometry": ("l", "h", "r_over_l"), "bc": ("type",), "load": ("type", "magnitude"),
         "mesh": ("ne",)}


def parse_config(text: str) -> CaseConfig:
    """Parse a case configuration from INI text; the constructors check the values."""
    # '%' is a plain character; no header can name the empty default section, so a
    # [DEFAULT] header starts an ordinary section, which the grammar does not know
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                   default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed configuration: {err}") from err

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    for section in ("layup", "geometry", "bc", "load"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    mat = (MaterialPair(*(_get_float(cp, "material", key) for key in ("E_m", "E_c", "nu")))
           if cp.has_section("material") else DEFAULT_MATERIAL)

    kind = _member(LayupKind, "layup.kind", _get(cp, "layup", "kind").upper())
    p = _get_float(cp, "layup", "p")
    h = _get_float(cp, "geometry", "h")
    if kind is LayupKind.A:
        layup = Layup.single_layer(p=p, h=h)
    else:
        layup = Layup(kind, _scheme("layup.scheme", _get(cp, "layup", "scheme")), p, h)

    L = _get_float(cp, "geometry", "L")
    R_over_L = _radius_ratio("geometry.R_over_L", _get(cp, "geometry", "R_over_L", "inf"))
    bc = _member(BoundaryCondition, "bc.type", _get(cp, "bc", "type").upper())
    load = LoadCase(_get(cp, "load", "type").lower(), _get_float(cp, "load", "magnitude", "1.0"))

    ne = _get(cp, "mesh", "ne", str(DEFAULT_NE))
    with contextlib.suppress(ValueError):    # text that is no integer stays text: Mesh names it
        ne = int(ne)
    return CaseConfig(material=mat, layup=layup, L=L, R_over_L=R_over_L, bc=bc, load=load, ne=ne)


def with_parameter(cfg: CaseConfig, param: str, value) -> CaseConfig:
    """Copy of cfg with one sweep parameter replaced.

    param is one of 'p', 'R_over_L', 'scheme', 'L_over_h'.  A rejected value
    raises a ConfigError that names the parameter and the value as given,
    then the reason, which names the key whose rule the value breaks:
    'L_over_h = -1: geometry.L: beam length must be positive ...'.
    """
    try:
        if param == "p":
            return replace(cfg, layup=replace(cfg.layup, p=_number("layup.p", value)))
        if param == "R_over_L":
            return replace(cfg, R_over_L=_radius_ratio("geometry.R_over_L", value))
        if param == "L_over_h":
            return replace(cfg, L=_number("geometry.L", value) * cfg.layup.h)
        if param != "scheme":
            raise ConfigError("unknown sweep parameter")
        if cfg.layup.kind is LayupKind.A:
            raise ConfigError("layup.kind: the sweep needs a sandwich layup (kind B or C)")
        scheme = _scheme("layup.scheme", value) if isinstance(value, str) else tuple(value)
        return replace(cfg, layup=replace(cfg.layup, scheme=scheme))
    except ValueError as err:
        raise ConfigError(f"{param} = {value}: {err}") from err
