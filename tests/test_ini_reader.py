"""The one-pass INI reader against the configparser-based parser it replaced.

``reference_parse_config`` below is the earlier ``parse_config``, kept verbatim: it reads
the text with ``ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
default_section="")`` and checks the same dicts.  Texts are drawn line by line: a valid
case written with varied case, padding, delimiters and comments, with headers, keys,
comments, blank lines, indented lines and broken lines put in among its lines, joined by
'\\n' or '\\r\\n'.  Each draw must build an equal ``CaseConfig``, or raise the same error
type with the same message.  Only a ``malformed configuration:`` message may differ; the
reader raises one wherever configparser did, and also where configparser joined an
indented line onto a key's value.
"""

import configparser
import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgcbeam import (
    DEFAULT_MATERIAL,
    BoundaryCondition,
    CaseConfig,
    ConfigError,
    Layup,
    LayupKind,
    LoadCase,
    MaterialPair,
    parse_config,
)
from fgcbeam.config import _KEYS, DEFAULT_NE, _member, _number, _radius_ratio, _scheme

from test_config_cli import MINIMAL

MALFORMED = "malformed configuration:"


def reference_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                     default_section="")


def reference_get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if default is None:
        raise ConfigError(f"{section}.{key}: missing required key")
    return default


def reference_get_float(cp, section, key, default=None):
    return _number(f"{section}.{key}", reference_get(cp, section, key, default))


def reference_parse_config(text):
    """``parse_config`` as it read INI text through configparser."""
    cp = reference_parser()
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

    mat = (MaterialPair(*(reference_get_float(cp, "material", key)
                          for key in ("E_m", "E_c", "nu")))
           if cp.has_section("material") else DEFAULT_MATERIAL)

    kind = _member(LayupKind, "layup.kind", reference_get(cp, "layup", "kind").upper())
    p = reference_get_float(cp, "layup", "p")
    h = reference_get_float(cp, "geometry", "h")
    if kind is LayupKind.A:
        layup = Layup.single_layer(p=p, h=h)
    else:
        layup = Layup(kind, _scheme("layup.scheme", reference_get(cp, "layup", "scheme")), p, h)

    L = reference_get_float(cp, "geometry", "L")
    R_over_L = _radius_ratio("geometry.R_over_L",
                             reference_get(cp, "geometry", "R_over_L", "inf"))
    bc = _member(BoundaryCondition, "bc.type", reference_get(cp, "bc", "type").upper())
    load = LoadCase(reference_get(cp, "load", "type").lower(),
                    reference_get_float(cp, "load", "magnitude", "1.0"))

    ne = reference_get(cp, "mesh", "ne", str(DEFAULT_NE))
    with contextlib.suppress(ValueError):
        ne = int(ne)
    return CaseConfig(material=mat, layup=layup, L=L, R_over_L=R_over_L, bc=bc, load=load, ne=ne)


def multiline_values(text) -> dict:
    """The values configparser joined from more than one line, by section and key."""
    cp = reference_parser()
    cp.read_string(text)
    return {(s, k): v for s in cp.sections() for k, v in cp.items(s) if "\n" in v}


def outcome(fn, text):
    try:
        return ("ok", fn(text))
    except Exception as err:          # noqa: BLE001 - the exception is the outcome
        return ("raises", type(err).__name__, str(err))


def check(text):
    """The reader's outcome is the reference's, up to a malformed-configuration message."""
    new, ref = outcome(parse_config, text), outcome(reference_parse_config, text)
    new_malformed = new[0] == "raises" and new[2].startswith(MALFORMED)
    ref_malformed = ref[0] == "raises" and ref[2].startswith(MALFORMED)
    if ref_malformed:
        assert new_malformed, (new, ref)
    if not new_malformed:
        assert new == ref
        return
    assert new[1] == "ConfigError" and "\n" not in new[2]
    if not ref_malformed:
        # the reader refuses an indented line that configparser joined onto a value; that
        # value then failed its check, or was a kind A case's scheme, which no check reads
        joined = multiline_values(text)
        assert joined and "an indented line continues the value" in new[2], (new, ref)
        if ref[0] == "ok":
            assert ref[1].layup.kind is LayupKind.A and set(joined) == {("layup", "scheme")}


#: per section, each key with the values to draw, the first one most often; the checks refuse
#: magnitude = 5% and ne = 2.0
VALUES = {
    "material": {"E_m": ["70e9", "2.5e11"], "E_c": ["380e9", "1e11"], "nu": ["0.3", "0"]},
    "layup": {"kind": ["B", "a", "c"], "scheme": ["1-2-1", "2-2-1", "1-1-1e-13"],
              "p": ["2", "0", "5.5"]},
    "geometry": {"L": ["5", "2.5"], "h": ["1", "0.1"], "R_over_L": ["inf", "INF", "3"]},
    "bc": {"type": ["SS", "cc", "CF"]},
    "load": {"type": ["udl", "UDL", "point_mid"], "magnitude": ["1.0", "2", "5%"]},
    "mesh": {"ne": ["8", "4", "2.0"]},
}
OPTIONAL = {("material", None), ("geometry", "R_over_L"), ("load", "magnitude"), ("mesh", None)}

PAD = st.sampled_from(["", "", " ", "  ", "\t", "\x0c", "\r"])
COMMENT = st.sampled_from(["", "", "", "", "", " # note", "\t; note", " #", " ;a #b", " # =",
                           "\r", "# glued", ";glued", "#x #] ;y"])


@st.composite
def key_lines(draw, key, value):
    """key and value with varied case, padding, delimiter and trailing comment."""
    name = draw(st.sampled_from([key, key.lower(), key.upper(), key.swapcase()]))
    return (name + draw(PAD) + draw(st.sampled_from(["=", "=", ":"])) + draw(PAD) + value
            + draw(PAD) + draw(COMMENT))


NOISE = st.one_of(
    # headers: known, unknown, [DEFAULT], indented, padded inside, with trailing text, broken
    st.sampled_from(["[material]", "[layup]", "[geometry]", "[bc]", "[load]", "[mesh]",
                     "[Layup]", "[extra]", "[DEFAULT]", "  [load]", "\t[mesh]", "[ load ]",
                     "[mesh ]", "[load] trailing", "[load]#x #] ;y", "[]", "[load"]),
    # comments and blank lines
    st.sampled_from(["# comment", "; comment", "   # indented comment", "#", ";", "", "  ",
                     "\r", "\x0c"]),
    # indented keys after a key, a blank line or a comment
    st.sampled_from(["  magnitude = 2", "\tp = 1", " scheme = 1-1-1", "  # = 3",
                     "\n  magnitude = 2", "  \n\tp = 1", "# note\n   ne = 4",
                     "\n; note\n\n scheme = 1-8-1"]),
    # no delimiter, empty key, unknown key, '%', '\r' and '\x0c' inside a line
    st.sampled_from(["bogus", "kind A", "= 5", ": x", "   = 1", "foo = 1", "magnitude = 5%",
                     "p = 1 \r", "type = point_end", "ne = 8 ; 4", "ne\r= 4", "p = 1\x0c2"]),
    st.builds(str.__add__, PAD, st.sampled_from(["#", ";", "[", "]", "=", ":", "\r", "\x0c"])),
)


@st.composite
def texts(draw):
    """A case's lines in varied form, all indented alike, with noise lines among them,
    joined by '\\n' or '\\r\\n'."""
    indent = draw(st.sampled_from(["", "", "", " ", "\t", "\x0c"]))
    lines = []
    for section, keys in VALUES.items():
        if (section, None) in OPTIONAL and draw(st.booleans()):
            continue
        lines.append(draw(st.sampled_from([f"[{section}]", f"[{section}]", f"[{section}]  # header",
                                           f"[{section}] trailing"])))
        for key, values in keys.items():
            if (section, key) in OPTIONAL and draw(st.booleans()):
                continue
            value = draw(st.sampled_from(values[:1] * 3 + values))
            lines.append(draw(key_lines(key, value)))
    lines = [indent + line for line in lines]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    ends = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ends.join(lines) + draw(st.sampled_from(["", ends]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(texts())
@example("[layup]\nkind = A\np = 0\n[geometry]\nL = 5\nh = 1\n[bc]\ntype = SS\n[load]\n"
         "type = udl\n  magnitude = 2\n")
@example("[layup]\nkind = A\nscheme = 1-8-1\n  p = 2\np = 0\n[geometry]\nL = 5\nh = 1\n"
         "[bc]\ntype = SS\n[load]\ntype = udl\n")
@example("[layup]#x #] ;y\nkind = A\np = 0\n[geometry]\nL = 5\nh = 1\n[bc]\ntype = SS\n"
         "[load]\ntype = udl\n")
@example("[layup]\nkind = A\np = 0\n[ geometry ]\nL = 5\nh = 1\n[geometry]\n[bc]\n"
         "type = SS\n[load]\ntype = udl\n")
@example("[layup]\nkind\r= A\np = 0\x0c\n[geometry]\nL = 5\nh = 1\n[bc]\ntype = SS\n"
         "[load]\ntype = udl \n")
def test_reader_matches_configparser(text):
    check(text)


def test_a_kind_a_scheme_on_two_lines_is_now_refused():
    """configparser joined the indented line onto a scheme that kind A never reads."""
    text = MINIMAL.replace("p = 0", "p = 0\nscheme = 1-8-1\n  1-1-1")
    assert reference_parse_config(text) == parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="line 5: layup.scheme: an indented line"):
        parse_config(text)
