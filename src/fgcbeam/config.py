"""Case configuration: INI-style text in, validated CaseConfig out.

Grammar (sections and keys), with the constructor that checks each
value's range:

    [material]  E_m, E_c, nu                (optional; defaults to the
                                             70/380 GPa, nu = 0.3 pair;
                                             MaterialPair: E > 0, 0 <= nu < 0.5)
    [layup]     kind = A|B|C                (required)
                scheme = a-b-c              (required for B/C; Layup: ratios
                                             >= 0 with a positive sum; for A,
                                             optional, its a-b-c shape checked
                                             and its value ignored)
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

The text is read in one pass over its lines, by the rules of configparser
with inline '#'/';' comments, no interpolation and no default section:

- a line ends at '\n' only; '\r', '\x0c' and the like inside a line are
  whitespace to strip, not line ends;
- a comment starts at a '#' or ';' at column 0 or after whitespace and runs
  to the line's end (``_comment_start`` says which mark wins when both
  appear); a line that is blank once its comment is cut is skipped;
- a line that starts with '[' and has a later ']' is a header: the name is
  the text between the '[' and the last ']', case kept, and [DEFAULT] is an
  ordinary section;
- any other line is 'key = value' or 'key: value': the key ends at the
  first '=' or ':' and is right-stripped and lowercased; the value is
  stripped;
- a non-blank line indented deeper than the last header or key line, while
  a key is current, would continue that key's value, across blank and
  comment lines too; no key takes a multi-line value, so it is an error;
- so are a repeated section, a repeated key, a line before any header, an
  empty key and a line with no '=' or ':'.  Each of these errors is one
  line, 'malformed configuration: line N: ...'.

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


_KEY_LINE = re.compile(r"([^=:]+)[=:](.*)")


def _comment_start(line: str) -> int:
    """Where line's comment starts; len(line) if it has none.

    A '#' or ';' at column 0 or after whitespace starts a comment.  Where both
    marks appear, configparser's scan decides: it looks at the n-th '#' and the
    n-th ';' together, n = 1, 2, ..., so a mark of lower rank among its own kind
    wins over an earlier one: 'x#y #z ;w' is cut at the ';', the first ';' and
    the second '#'.
    """
    best = (math.inf, len(line))
    for mark in "#;":
        rank, i = 0, line.find(mark)
        while i > 0 and not line[i - 1].isspace():
            rank, i = rank + 1, line.find(mark, i + 1)
        if i >= 0:
            best = min(best, (rank, i))
    return best[1]


def _malformed(lineno: int, what: str) -> ConfigError:
    return ConfigError(f"malformed configuration: line {lineno}: {what}")


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}} from INI text, by the line rules of the module docstring."""
    ini: dict[str, dict[str, str]] = {}
    section = key = None
    indent = 0                                  # of the last header or key line
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line or ";" in line:
            line = line[:_comment_start(line)]
        body = line.strip()
        if not body:
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            raise _malformed(lineno, f"{section}.{key}: an indented line continues the value, "
                                     "which must fit on one line")
        indent = depth
        if body[0] == "[" and (close := body.rfind("]")) > 1:
            section, key = body[1:close], None
            if section in ini:
                raise _malformed(lineno, f"repeated section [{section}]")
            ini[section] = {}
        elif section is None:
            raise _malformed(lineno, f"{body!r} comes before any [section] header")
        elif match := _KEY_LINE.match(body):
            key = match[1].rstrip().lower()
            if key in ini[section]:
                raise _malformed(lineno, f"{section}.{key}: repeated key")
            ini[section][key] = match[2].strip()
        else:
            raise _malformed(lineno, f"expected a [section] header or key = value, got {body!r}")
    return ini


def _get(ini: dict[str, dict[str, str]], section: str, key: str,
         default: str | None = None) -> str:
    value = ini.get(section, {}).get(key.lower(), default)
    if value is None:
        raise ConfigError(f"{section}.{key}: missing required key")
    return value


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


def _get_float(ini, section, key, default=None):
    return _number(f"{section}.{key}", _get(ini, section, key, default))


#: Each section's keys, lowercased as the reader stores them.
_KEYS = {"material": ("e_m", "e_c", "nu"), "layup": ("kind", "scheme", "p"),
         "geometry": ("l", "h", "r_over_l"), "bc": ("type",), "load": ("type", "magnitude"),
         "mesh": ("ne",)}


def parse_config(text: str) -> CaseConfig:
    """Parse a case configuration from INI text; the constructors check the values."""
    ini = _read_ini(text)
    for section, keys in ini.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    for section in ("layup", "geometry", "bc", "load"):
        if section not in ini:
            raise ConfigError(f"missing required section [{section}]")

    mat = (MaterialPair(*(_get_float(ini, "material", key) for key in ("E_m", "E_c", "nu")))
           if "material" in ini else DEFAULT_MATERIAL)

    kind = _member(LayupKind, "layup.kind", _get(ini, "layup", "kind").upper())
    p = _get_float(ini, "layup", "p")
    h = _get_float(ini, "geometry", "h")
    if kind is LayupKind.A:
        if "scheme" in ini["layup"]:          # its a-b-c shape is checked, its value ignored
            _scheme("layup.scheme", ini["layup"]["scheme"])
        layup = Layup.single_layer(p=p, h=h)
    else:
        layup = Layup(kind, _scheme("layup.scheme", _get(ini, "layup", "scheme")), p, h)

    L = _get_float(ini, "geometry", "L")
    R_over_L = _radius_ratio("geometry.R_over_L", _get(ini, "geometry", "R_over_L", "inf"))
    bc = _member(BoundaryCondition, "bc.type", _get(ini, "bc", "type").upper())
    load = LoadCase(_get(ini, "load", "type").lower(), _get_float(ini, "load", "magnitude", "1.0"))

    ne = _get(ini, "mesh", "ne", str(DEFAULT_NE))
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
