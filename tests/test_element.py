"""Shape functions, strain-displacement rows, element stiffness and the uniform load.

The bending-block oracle is the classical Hermite stiffness obtained by
integrating the second-derivative products analytically:

    D/Le^3 * [[12, 6Le, -12, 6Le],
              [6Le, 4Le^2, -6Le, 2Le^2],
              [-12, -6Le, 12, -6Le],
              [6Le, 2Le^2, -6Le, 4Le^2]]

and the consistent load of a uniform q is the symbolic integral of the
Hermite cubics: [q Le/2, q Le^2/12, q Le/2, -q Le^2/12].
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fgcbeam import DEFAULT_MATERIAL, Layup, LayupKind, Mesh, compute_rigidities
from fgcbeam.element import (
    _hermite,
    _lagrange,
    element_load_udl,
    element_stiffness,
    strain_rows,
)
from fgcbeam.section import SectionRigidities

import reference_element as ref

RIG_A = compute_rigidities(DEFAULT_MATERIAL, Layup.single_layer(2.0, 1.0))
RIG_SYM = compute_rigidities(DEFAULT_MATERIAL, Layup(LayupKind.B, (1, 1, 1), 2.0, 1.0))
W_COLS = [1, 2, 5, 6]
U_COLS = [0, 4]


def rows_at(xi, mesh):
    """Rows (B0, B1, B2, Bs) at one local coordinate."""
    return strain_rows((xi,), mesh)[0]


def stiffness_reference(rig, mesh, order=10):
    """Same bilinear form, independent high-order quadrature."""
    xg, wg = leggauss(order)
    K = np.zeros((8, 8))
    for x, w in zip(xg, wg):
        xi = 0.5 * mesh.Le * (x + 1.0)
        wi = 0.5 * mesh.Le * w
        B0, B1, B2, Bs = rows_at(xi, mesh)
        D = np.array([[rig.A11, rig.B11, rig.B11s, 0.0],
                      [rig.B11, rig.D11, rig.D11s, 0.0],
                      [rig.B11s, rig.D11s, rig.H11s, 0.0],
                      [0.0, 0.0, 0.0, rig.A55s]])
        B = np.vstack([B0, B1, B2, Bs])
        K += wi * B.T @ D @ B
    return K


class TestLagrangeShape:
    def test_nodal_values(self):
        Le = 2.5
        N, _ = _lagrange(0.0, Le)
        assert np.allclose(N, [1.0, 0.0])
        N, _ = _lagrange(Le, Le)
        assert np.allclose(N, [0.0, 1.0])

    def test_midpoint(self):
        N, _ = _lagrange(1.25, 2.5)
        assert np.allclose(N, [0.5, 0.5])

    def test_partition_of_unity_and_derivatives(self, rng):
        Le = 0.8
        for xi in rng.uniform(0, Le, 10):
            N, dN = _lagrange(xi, Le)
            assert sum(N) == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(dN, [-1 / Le, 1 / Le])


class TestHermiteShape:
    def test_nodal_interpolation(self):
        Le = 1.7
        N0, d0, _ = _hermite(0.0, Le)
        NL, dL, _ = _hermite(Le, Le)
        assert np.allclose(N0, [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(d0, [0, 1, 0, 0], atol=1e-15)
        assert np.allclose(NL, [0, 0, 1, 0], atol=1e-14)
        assert np.allclose(dL, [0, 0, 0, 1], atol=1e-14)

    def test_rigid_translation(self, rng):
        Le = 3.2
        for xi in rng.uniform(0, Le, 10):
            N, dN, d2N = _hermite(xi, Le)
            assert N[0] + N[2] == pytest.approx(1.0, abs=1e-14)
            assert dN[0] + dN[2] == pytest.approx(0.0, abs=1e-14)
            assert d2N[0] + d2N[2] == pytest.approx(0.0, abs=1e-14)

    def test_linear_field_reproduced(self, rng):
        # w(x) = a + b x  ->  dofs [a, b, a + b Le, b]
        Le, a, b = 1.1, 0.7, -0.4
        dofs = np.array([a, b, a + b * Le, b])
        for xi in rng.uniform(0, Le, 5):
            N, dN, d2N = _hermite(xi, Le)
            assert np.dot(N, dofs) == pytest.approx(a + b * xi, rel=1e-12)
            assert np.dot(dN, dofs) == pytest.approx(b, rel=1e-12)
            assert np.dot(d2N, dofs) == pytest.approx(0.0, abs=1e-12)


class TestStrainDisplacement:
    def test_straight_beam_membrane_decoupled(self, rng):
        mesh = Mesh(L=1.0, ne=1, inv_R=0.0)
        for xi in rng.uniform(0, 1, 5):
            B0, _, _, _ = rows_at(xi, mesh)
            assert np.all(B0[W_COLS] == 0.0)

    def test_rigid_axial_mode_strain_free(self, rng):
        mesh = Mesh(L=0.6, ne=1, inv_R=0.1)
        d = np.array([3.0, 0, 0, 0, 3.0, 0, 0, 0])
        for xi in rng.uniform(0, 0.6, 5):
            for B in rows_at(xi, mesh):
                assert B @ d == pytest.approx(0.0, abs=1e-14)

    def test_rigid_transverse_mode_straight(self, rng):
        mesh = Mesh(L=2.0, ne=1, inv_R=0.0)
        d = np.array([0, 5.0, 0, 0, 0, 5.0, 0, 0])
        for xi in rng.uniform(0, 2.0, 5):
            for B in rows_at(xi, mesh):
                assert B @ d == pytest.approx(0.0, abs=1e-13)

    def test_curved_membrane_strain_carries_w(self):
        mesh = Mesh(L=1.0, ne=1, inv_R=0.25)
        B0, _, _, _ = rows_at(0.5, mesh)
        N, _, _ = _hermite(0.5, 1.0)
        assert B0[1] == pytest.approx(0.25 * N[0])
        assert B0[5] == pytest.approx(0.25 * N[2])


class TestElementStiffness:
    @pytest.mark.parametrize("inv_R", [0.0, 0.04, 0.5])
    def test_symmetric(self, inv_R):
        K = element_stiffness([RIG_A], Mesh(L=0.3125, ne=1, inv_R=inv_R))[0]
        assert np.array_equal(K, K.T)

    def test_bending_block_matches_hermite_oracle(self):
        Le = 0.4
        D = RIG_A.D11
        K = element_stiffness([RIG_A], Mesh(L=Le, ne=1))[0]
        expected = D / Le**3 * np.array([
            [12, 6 * Le, -12, 6 * Le],
            [6 * Le, 4 * Le**2, -6 * Le, 2 * Le**2],
            [-12, -6 * Le, 12, -6 * Le],
            [6 * Le, 2 * Le**2, -6 * Le, 4 * Le**2]])
        assert np.allclose(K[np.ix_(W_COLS, W_COLS)], expected, rtol=1e-12)

    def test_symmetric_layup_straight_decouples_u_w(self):
        scale = 1e-12 * RIG_SYM.A11  # coupling is pure quadrature roundoff
        assert abs(RIG_SYM.B11) < scale and abs(RIG_SYM.B11s) < scale
        rig = SectionRigidities(RIG_SYM.A11, 0.0, RIG_SYM.D11, 0.0,
                                RIG_SYM.D11s, RIG_SYM.H11s, RIG_SYM.A55s)
        K = element_stiffness([rig], Mesh(L=1.0, ne=1))[0]
        assert np.all(K[np.ix_(U_COLS, W_COLS)] == 0.0)
        assert np.all(K[np.ix_(W_COLS, U_COLS)] == 0.0)

    def test_rigid_modes_zero_energy_straight(self):
        Le = 0.7
        K = element_stiffness([RIG_A], Mesh(L=Le, ne=1))[0]
        norm = np.linalg.norm(K, 2)
        modes = [np.array([1, 0, 0, 0, 1, 0, 0, 0.0]),
                 np.array([0, 1, 0, 0, 0, 1, 0, 0.0]),
                 np.array([0, 0, 1, 0, 0, Le, 1, 0.0])]
        for d in modes:
            energy = d @ K @ d
            assert abs(energy) <= 1e-12 * norm * (d @ d)

    @pytest.mark.parametrize("inv_R", [0.0, 0.2])
    def test_positive_semidefinite(self, inv_R):
        K = element_stiffness([RIG_A], Mesh(L=1.25, ne=1, inv_R=inv_R))[0]
        eigs = np.linalg.eigvalsh(K)
        assert np.all(eigs >= -1e-12 * eigs.max())

    @pytest.mark.parametrize("Le,inv_R", [(0.3125, 0.04), (1.25, 0.2), (2.0, 0.0)])
    def test_four_point_gauss_is_exact(self, Le, inv_R):
        mesh = Mesh(L=Le, ne=1, inv_R=inv_R)
        K4 = element_stiffness([RIG_A], mesh)[0]
        K10 = stiffness_reference(RIG_A, mesh, order=10)
        assert np.max(np.abs(K4 - K10)) <= 1e-13 * np.max(np.abs(K10))

    def test_linear_in_each_rigidity(self):
        mesh = Mesh(L=0.9, ne=1, inv_R=0.1)
        names = ("A11", "B11", "D11", "B11s", "D11s", "H11s", "A55s")
        base = {n: 0.0 for n in names}
        zero = element_stiffness([SectionRigidities(**base)], mesh)[0]
        assert np.all(zero == 0.0)
        total = np.zeros((8, 8))
        for n in names:
            one = dict(base)
            one[n] = getattr(RIG_A, n)
            total += element_stiffness([SectionRigidities(**one)], mesh)[0]
        assert np.allclose(total, element_stiffness([RIG_A], mesh)[0], rtol=1e-12)


def random_rigidities(rng, n):
    """Signed rigidities over 15 decades; every fifth draw has no coupling terms."""
    vals = rng.choice([-1.0, 1.0], 7) * 10.0 ** rng.uniform(-3.0, 12.0, 7)
    if n % 5 == 0:
        vals[[1, 3, 4]] = 0.0                      # B11, B11s, D11s
    return SectionRigidities(*vals.tolist())


def random_element(rng, n):
    """One-element mesh with Le in [1e-4, 1e2]; every fourth draw is straight (inv_R = 0)."""
    Le = float(10.0 ** rng.uniform(-4.0, 2.0))
    return Mesh(Le, 1, 0.0 if n % 4 == 0 else float(10.0 ** rng.uniform(-3.0, 2.0)))


class TestBitIdentity:
    """The vectorised kernel against the per-point np.outer loop it replaced."""

    def test_shape_functions_bit_equal_to_reference(self):
        rng = np.random.default_rng(31)
        for n in range(500):
            Le = random_element(rng, n).Le
            for x in (0.0, Le, rng.uniform(0.0, Le), float(rng.uniform(0.0, Le))):
                got = _lagrange(x, Le) + _hermite(x, Le)
                want = ref.lagrange_shape(x, Le) + ref.hermite_shape(x, Le)
                for g, w in zip(got, want):
                    assert np.array(g).tobytes() == w.tobytes()

    def test_strain_rows_bit_equal_to_shape_functions(self):
        rng = np.random.default_rng(32)
        for n in range(500):
            mesh = random_element(rng, n)
            xs = np.concatenate(([0.0, mesh.Le], rng.uniform(0.0, mesh.Le, 4)))
            rows = strain_rows(xs, mesh)
            assert rows.shape == (len(xs), 4, 8)
            for x, B in zip(xs, rows):
                N, dN = _lagrange(float(x), mesh.Le)
                Nb, _, d2Nb = _hermite(float(x), mesh.Le)
                r = mesh.inv_R
                want = np.zeros((4, 8))
                want[0, [0, 4]] = dN
                want[0, [1, 2, 5, 6]] = r * np.array(Nb)
                want[1, [1, 2, 5, 6]] = -np.array(d2Nb)
                want[2, [3, 7]] = dN
                want[3, [3, 7]] = N
                assert np.array_equal(B, want)
                assert B.tobytes() == np.stack(ref.strain_displacement(x, mesh)).tobytes()

    def test_stiffness_bit_equal_to_outer_product_loop(self):
        rng = np.random.default_rng(33)
        for n in range(10_000):
            rig, mesh = random_rigidities(rng, n), random_element(rng, n)
            K = element_stiffness([rig], mesh)[0]
            assert K.tobytes() == ref.element_stiffness(rig, mesh).tobytes()
            assert np.array_equal(K, K.T)


class TestElementLoads:
    def test_udl_entries_and_total(self):
        q, Le = 3.0, 0.5
        f = element_load_udl(q, Le)
        assert np.allclose(f, [0, q * Le / 2, q * Le**2 / 12, 0,
                               0, q * Le / 2, -q * Le**2 / 12, 0], rtol=1e-15)
        assert f[1] + f[5] == pytest.approx(q * Le, rel=1e-15)

    def test_udl_zero(self):
        assert np.all(element_load_udl(0.0, 1.0) == 0.0)

    def test_udl_matches_hermite_integrals(self):
        # high-order quadrature of q * N_i over the element
        q, Le = 2.7, 1.3
        xg, wg = leggauss(8)
        f = np.zeros(4)
        for x, w in zip(xg, wg):
            xi = 0.5 * Le * (x + 1.0)
            N, _, _ = _hermite(xi, Le)
            f += 0.5 * Le * w * q * np.array(N)
        got = element_load_udl(q, Le)
        assert np.allclose(got[[1, 2, 5, 6]], f, rtol=1e-13)

