"""Gauss-Jacobi rules of non-paper p, computed without ``scipy.special``.

``section._gauss_jacobi`` runs scipy's ``roots_jacobi`` algorithm with numpy's
``eigvalsh``: its eigenvalues must be those of scipy's ``eigvals_banded`` (LAPACK
``dsbevd``) on the same band, and its nodes scipy's, to the bit, mapped to (0, 1), at
205 p spread over ``Layup``'s range.  Its weights are its own (no log rescaling, no
2**(p+1)): they must sum to 1/(p+1) within 2 ulps, and lie within 1e-12 relative of a
40-digit ``mpmath`` rule at ten p, their worst error no larger than that of scipy's
weights at the same p.  The 205 p are 100 seeded on (0, 20], 100 on (20, 800] and five
edge values.
"""

import math
import random

import mpmath
import numpy as np
from scipy.linalg import eigvals_banded
from scipy.special import roots_jacobi

from fgcbeam import section
from fgcbeam.materials import _P_MAX

_RNG = random.Random(30)
SEEDED_P = ([20.0 * (1.0 - _RNG.random()) for _ in range(100)]
            + [20.0 + (_P_MAX - 20.0) * (1.0 - _RNG.random()) for _ in range(100)])
EDGE_P = [1e-300, 0.5, 2.5, 3.0, _P_MAX]
MPMATH_P = [1e-300, 0.5, 2.5, 3.0, 7.3, 15.0, 55.5, 123.4, 400.0, _P_MAX]


def _scipy_rule(p):
    x, w = roots_jacobi(section._NPOINTS, 0.0, p)
    return 0.5 * (x + 1.0), w * 0.5 ** (p + 1.0)


def test_eigenvalues_are_those_of_the_banded_solver(monkeypatch):
    """Before the Newton step: ``eigvalsh`` of the Jacobi matrix against ``dsbevd`` on its
    lower band, the diagonal and the subdiagonal."""
    seen, eigvalsh_numpy = [], np.linalg.eigvalsh

    def eigvalsh(J):
        seen.append((J.copy(), eigvalsh_numpy(J)))
        return seen[-1][1]

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for p in EDGE_P + SEEDED_P:
        section._gauss_jacobi(p)
    assert len(seen) == 205
    for J, x in seen:
        assert not np.triu(J, 1).any()
        band = np.array([np.diag(J), np.append(np.diag(J, -1), 0.0)])
        assert x.tobytes() == eigvals_banded(band, lower=True).tobytes()


def test_nodes_are_scipys_bit_for_bit():
    differ = [p for p in EDGE_P + SEEDED_P
              if section._gauss_jacobi(p)[0].tobytes() != _scipy_rule(p)[0].tobytes()]
    assert differ == []


def test_weights_sum_to_the_integral_of_s_to_the_p():
    for p in EDGE_P + SEEDED_P:
        total = math.fsum(section._gauss_jacobi(p)[1].tolist())
        assert abs(total - 1.0 / (p + 1.0)) <= 2 * math.ulp(1.0 / (p + 1.0)), p


def test_weights_near_a_40_digit_rule_and_no_further_than_scipys():
    worst, worst_scipy = 0.0, 0.0
    with mpmath.workdps(40):
        for p in MPMATH_P:
            _, exact = mpmath.mp.gauss_quadrature(section._NPOINTS, "jacobi", 0, p)
            exact = [v / mpmath.mpf(2) ** (p + 1) for v in exact]
            for w, w_scipy, ref in zip(section._gauss_jacobi(p)[1], _scipy_rule(p)[1], exact):
                worst = max(worst, float(abs(w - ref) / ref))
                worst_scipy = max(worst_scipy, float(abs(w_scipy - ref) / ref))
    assert worst <= 1e-12
    assert worst <= worst_scipy


def test_rule_of_a_non_paper_p_is_the_computed_one():
    section._jacobi_rule.cache_clear()
    for got, want in zip(section._jacobi_rule(2.5), section._gauss_jacobi(2.5)):
        assert got.tobytes() == want.tobytes()
