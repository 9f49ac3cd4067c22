"""A built case is a valid case: every input rule is checked when the case is built."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fgcbeam import ConfigError, evaluate_case, parse_config


def written(*values):
    """The values as INI text, each written so that it reads back as the same float."""
    return [v if isinstance(v, str) else repr(float(v)) for v in values]


# per key: values inside its rule, up to the boundary, and values just across it.  L and h
# stay at catalogue scale; R_over_L is a factor of h/(2L), where R = h/2; the element count
# and the load type also meet check_load's rules (an even ne under a mid-span load, no load
# that the supports hold), and the magnitude the uniform load's rules: q > 0, and table
# scales 100 E_m h^3 / (q L^4) and h / (q L) that are finite.  At catalogue scale the first
# scale is finite for q >= 3.5e-298 and infinite for q <= 2.4e-301
RULES = {
    "E_m": (written(70e9, 380e9), written(0.0, -70e9)),
    "E_c": (written(380e9, 70e9), written(0.0)),
    "nu": (written(-0.0, 0.0, 0.3, math.nextafter(0.5, 0.0)), written(-1e-9, 0.5, 0.5000001)),
    "kind": (["A", "B", "C"], []),
    "scheme": (["1-1-1", "1-8-1", "0-1-0", "1-0-1", "1-0-0", "0-0-1"], ["0-0-0"]),
    "p": (written(-0.0, 0.0, 1e-9, 2.0, math.nextafter(800.0, 0.0), 800.0),
          written(-1e-9, math.nextafter(800.0, math.inf), 801.0, "inf", "nan")),
    "L_h": ([(5.0, 1.0), (1.0, 0.05), (20.0, 1.0)], []),
    "R_factor": ([1 + 1e-9, 3.0, math.inf], [0.5, 1 - 1e-9, 1.0]),
    "bc": (["SS", "CC", "CF"], []),
    "load": (["udl", "point_mid", "point_end"], []),
    "q": (written(0.5, 1.0), written(-2.0, -0.0, 0.0, 1e-302)),
    "ne": (["1", "2", "3", "4", "15", "16"], ["-1", "0", "16.0"]),
}


@st.composite
def ini_texts(draw):
    """A case's INI text in which at most one key's value lies across its rule (in half of
    the texts, none)."""
    across = draw(st.none() | st.sampled_from([key for key, (_, out) in RULES.items() if out]))
    d = {key: draw(st.sampled_from(out if key == across else inside))
         for key, (inside, out) in RULES.items()}
    L, h = d["L_h"]
    if float(d["q"]) == 1e-302:   # across the scale rule as a uniform load; as a point load,
        d["load"] = "udl"           # a magnitude this small is ROADMAP item 4's
    return (f"[material]\nE_m = {d['E_m']}\nE_c = {d['E_c']}\nnu = {d['nu']}\n"
            f"[layup]\nkind = {d['kind']}\nscheme = {d['scheme']}\np = {d['p']}\n"
            f"[geometry]\nL = {L!r}\nh = {h!r}\nR_over_L = {h / (2 * L) * d['R_factor']!r}\n"
            f"[bc]\ntype = {d['bc']}\n"
            f"[load]\ntype = {d['load']}\nmagnitude = {d['q']}\n"
            f"[mesh]\nne = {d['ne']}\n")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(ini_texts())
def test_a_case_that_parses_evaluates(text):
    """Either ``parse_config`` rejects the case, or its evaluation raises no ValueError
    (a ``ConfigError`` included): no rule is left for evaluation to check.

    Lengths and moduli stay at catalogue scale.  Magnitudes whose powers leave float64
    are ROADMAP item 4's, and
    ``test_config_cli.py::test_magnitude_out_of_float64_range_is_a_clean_error`` covers
    them.
    """
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    try:
        evaluate_case(cfg)
    except ValueError as err:
        raise AssertionError(f"a built case was rejected when evaluated: {err}\n{text}") from err
