"""Shared helpers for the test suite."""

import contextlib
import math
import warnings

import numpy as np
import pytest

from fgcbeam import (
    DEFAULT_MATERIAL,
    BoundaryCondition,
    CaseConfig,
    Layup,
    LayupKind,
    LoadCase,
)

# hypothesis explains a failing example with libcst where it is installed; libcst's import
# warns (mypy_extensions.TypedDict is deprecated), which under -W error would raise inside
# pytest's report hook and end the session in INTERNALERROR instead of a failure report.
# Import it once here with that warning ignored; without libcst this does nothing.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SCHEMES = {
    "1-1-1": (1, 1, 1), "1-2-1": (1, 2, 1), "2-1-1": (2, 1, 1),
    "2-2-1": (2, 2, 1), "1-8-1": (1, 8, 1), "3-4-3": (3, 4, 3),
}


def make_layup(kind: str, scheme=None, p: float = 1.0, h: float = 1.0) -> Layup:
    k = LayupKind(kind)
    if k is LayupKind.A:
        return Layup.single_layer(p, h)
    return Layup(k, scheme if scheme is not None else SCHEMES["1-1-1"], p, h)


def layer_edges(layup: Layup) -> list[float]:
    """The two surfaces and the bounds of every entry of ``layup.layers``, sorted, unrepeated."""
    return sorted({-layup.h / 2, layup.h / 2}.union(*((lo, hi) for _, lo, hi, _ in layup.layers)))


def make_case(kind="A", scheme=None, p=1.0, L_over_h=5.0, R_over_L=math.inf,
              bc="SS", load=None, ne=16, h=1.0) -> CaseConfig:
    layup = make_layup(kind, scheme, p, h)
    return CaseConfig(
        material=DEFAULT_MATERIAL, layup=layup, L=L_over_h * h,
        R_over_L=R_over_L, bc=BoundaryCondition(bc),
        load=load if load is not None else LoadCase("udl", 1.0), ne=ne)


def random_case(rng: np.random.Generator, udl_only: bool = False) -> CaseConfig:
    """Random but well-posed case drawn from the protocol's ranges; ne is often odd,
    but even under a mid-span point load, which needs a node at L/2."""
    kind = rng.choice(["A", "B", "C"])
    scheme = SCHEMES[rng.choice(list(SCHEMES))] if kind != "A" else None
    p = float(rng.choice([0.0, 0.5, 1.0, 2.0, 5.0, 10.0]))
    L_over_h = float(rng.uniform(4.0, 25.0))
    R_over_L = math.inf if rng.random() < 0.4 else float(rng.uniform(2.0, 100.0))
    bc = str(rng.choice(["SS", "CC", "CF"]))
    ne = int(rng.choice([3, 4, 5, 8, 12, 15, 16, 32, 63, 64, 256]))
    if udl_only or rng.random() < 0.7:
        load = LoadCase("udl", float(rng.uniform(0.1, 10.0)))
    elif rng.random() < 0.5 and bc == "CF":   # only a free end can take an end load
        load = LoadCase("point_end", float(rng.uniform(0.1, 10.0)))
    else:
        load = LoadCase("point_mid", float(rng.uniform(0.1, 10.0)))
        ne += ne % 2                            # x = L/2 must be a node
    h = float(rng.choice([1.0, 0.02, 0.1]))
    return make_case(kind, scheme, p, L_over_h, R_over_L, bc, load, ne, h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
