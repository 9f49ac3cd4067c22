"""The one-pass layer kernel against the per-point chain it replaced, bit for bit.

``Layup._fractions`` applies the layer rule and the grade to a list of heights in one
pass, and ``effective_moduli`` mixes its fractions.  The reference below is the earlier
per-point chain, kept verbatim: ``reference_layer`` picks a ``layers`` entry,
``reference_volume_fraction`` clamps z into it and grades it, and
``reference_effective_modulus`` mixes.  Every draw must give the same bits, or the same
exception type and message, from a one-height call of the kernel and from the list form.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgcbeam import Layup, LayupKind, MaterialPair
from fgcbeam.materials import _P_MAX, _Z_SNAP, effective_moduli


def reference_layer(layup, z, side):
    """The ``layers`` entry that the layer rule picks, one point at a time."""
    top, eps = layup.h / 2, _Z_SNAP * layup.h
    if z < -top - eps or z > top + eps:
        raise ValueError(f"z = {z} outside the section [{-top}, {top}]")
    if side is not None and side not in ("below", "above"):
        raise ValueError(f"side must be 'below', 'above' or None, got {side!r}")
    if z <= -top + eps:
        return layup.layers[0]
    if z >= top - eps:
        return layup.layers[-1]
    if side is not None:
        end = 2 if side == "below" else 1
        for layer in layup.layers:
            if abs(z - layer[end]) <= eps:
                return layer
    for layer in layup.layers:
        if z < layer[2]:
            return layer
    return layup.layers[-1]


def reference_volume_fraction(layup, z, side):
    _, lo, hi, grade = reference_layer(layup, z, side)
    z = min(max(z, lo), hi)
    if grade == "up":
        return ((z - lo) / (hi - lo)) ** layup.p
    if grade == "down":
        return ((hi - z) / (hi - lo)) ** layup.p
    return grade


def reference_effective_modulus(mat, layup, z, side):
    return mat.E_m + (mat.E_c - mat.E_m) * reference_volume_fraction(layup, z, side)


def outcome(fn, *args):
    """fn(*args) as comparable bits: (type name, float.hex or the value), or the
    exception's type and message."""
    try:
        value = fn(*args)
    except Exception as err:          # noqa: BLE001 - the exception is the outcome
        return ("raises", type(err).__name__, str(err))
    if isinstance(value, list):
        return [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


SCHEMES = [(1, 1, 1), (1, 8, 1), (2, 2, 1), (2, 1, 1), (1, 2, 0), (2, 1, 0), (0, 1, 1),
           (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1e-13), (1e-13, 1, 1),
           (1, 1e-13, 1)]
PAPER_P = [0.0, 1.0, 2.0, 5.0, 10.0]


@st.composite
def layups(draw):
    kind = draw(st.sampled_from(list(LayupKind)))
    p = draw(st.sampled_from(PAPER_P + [_P_MAX])
             | st.floats(0.0, 20.0) | st.floats(0.0, _P_MAX))
    h = draw(st.sampled_from([1.0, 0.02, 0.1, 3.7]) | st.floats(1e-3, 10.0))
    scheme = (0.0, 0.0, 0.0) if kind is LayupKind.A else draw(st.sampled_from(SCHEMES))
    return Layup(kind, scheme, p, h)


@st.composite
def heights(draw, layup):
    """A height with its side: on a grid, at a layer edge, inside or just outside the
    1e-12 h snap window of an edge or a surface, beyond the section, or NaN."""
    h, eps = layup.h, _Z_SNAP * layup.h
    edges = sorted({-h / 2, h / 2}.union(*((lo, hi) for _, lo, hi, _ in layup.layers)))
    edge = draw(st.sampled_from(edges))
    near = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3, -0.5, -0.999, -1.0, -1.001,
                            -2.0, -1e3]).map(lambda f: edge + f * eps)
    n = draw(st.integers(2, 301))
    z = draw(st.one_of(
        near, near, near,
        st.integers(-4, 4).map(lambda k: edge + k * math.ulp(edge)),
        st.integers(0, n - 1).map(lambda k: -h / 2 + k * h / (n - 1)),
        st.floats(-h / 2, h / 2),
        st.floats(-2 * h, 2 * h),
        st.just(math.nan),
    ))
    side = draw(st.sampled_from([None, None, "below", "above", "", "middle"]))
    return z, side


MAT = MaterialPair(70e9, 380e9, 0.3)


@st.composite
def draws(draw):
    layup = draw(layups())
    mat = draw(st.sampled_from([MAT, MaterialPair(380e9, 70e9, 0.0)])
               | st.builds(MaterialPair, st.floats(1e9, 5e11), st.floats(1e9, 5e11),
                           st.floats(0.0, 0.49)))
    return mat, layup, draw(st.lists(heights(layup), min_size=1, max_size=12))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(draws())
@example((MAT, Layup(LayupKind.C, (1, 1, 1e-13), 2.0, 1.0),
          [(0.5, None), (0.5, "below"), (0.5, "above")]))
@example((MAT, Layup(LayupKind.C, (1, 8, 1), 0.5, 1.0),
          [(-0.4 - 1e-14, "above"), (-0.4 + 1e-14, "below"), (math.nan, None)]))
@example((MAT, Layup.single_layer(0.0, 1.0), [(math.nan, None), (0.7, None)]))
@example((MAT, Layup(LayupKind.B, (1e-13, 1, 1), 2.0, 1.0),     # the snap bounds, exactly
          [(-0.5 + 1e-12, None), (-0.5 + 1e-12, "above")]))
@example((MAT, Layup(LayupKind.B, (1, 1, 1e-13), 2.0, 1.0), [(0.5 - 1e-12, None)]))
@example((MAT, Layup.single_layer(2.0, 1.0), [(0.5 + 1.001e-12, None)]))
@example((MAT, Layup.single_layer(2.0, 1.0), [(0.1, "middle")]))
def test_kernel_is_bit_equal_to_the_per_point_chain(case):
    mat, layup, points = case
    zs, sides = [z for z, _ in points], [side for _, side in points]
    for z, side in points:
        assert outcome(lambda: layup._fractions([z], [side])[0][0]) == outcome(
            lambda: reference_layer(layup, z, side)[0])
        assert outcome(lambda: layup._fractions([z], [side])[1][0]) == outcome(
            reference_volume_fraction, layup, z, side)
        assert outcome(lambda: effective_moduli(mat, layup, [z], [side])[0]) == outcome(
            reference_effective_modulus, mat, layup, z, side)
    # the list form raises the first failing height's error, as the chain point by point
    want = outcome(lambda: [reference_effective_modulus(mat, layup, z, side)
                            for z, side in points])
    assert outcome(effective_moduli, mat, layup, zs, sides) == want
    ns = outcome(lambda: layup._fractions(zs, sides)[0])
    assert ns == outcome(lambda: [reference_layer(layup, z, side)[0] for z, side in points])
    vs = outcome(lambda: layup._fractions(zs, sides)[1])
    assert vs == outcome(lambda: [reference_volume_fraction(layup, z, side)
                                  for z, side in points])
