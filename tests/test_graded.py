import numpy as np
import pytest

from ribbonsyz.curves import HyperellipticCurve, PlaneCurve
from ribbonsyz.fflinalg import PrimeField, matmul_mod
from ribbonsyz.graded import (
    GradedAlgebra,
    GradedError,
    GradedModule,
    InconsistentDims,
    NotASubspace,
    algebra_from_sections,
    module_restrict_action,
)

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def quartic():
    return PlaneCurve(F101, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)


@pytest.fixture(scope="module")
def hyp2():
    return HyperellipticCurve(F101, [1, 3, 0, 0, 0, 1])


class TestAlgebraFromSections:
    def test_quartic_canonical_ring_dims(self, quartic):
        # pieces H^0(O(q)): Riemann-Roch plus the quartic ideal count
        spaces = [quartic.sections(q) for q in range(5)]
        alg = algebra_from_sections(spaces)
        assert alg.dims == (1, 3, 6, 10, 14)

    def test_genus0_o1(self):
        line = HyperellipticCurve(F101, [0, 1])
        alg = algebra_from_sections([line.sections(q) for q in range(5)])
        assert alg.dims == (1, 2, 3, 4, 5)

    def test_hyperelliptic_reindexed(self, hyp2):
        alg = algebra_from_sections([hyp2.sections(7 * q) for q in range(4)])
        assert alg.dims == (1, 6, 13, 20)

    def test_inconsistent_tags_rejected(self, hyp2):
        with pytest.raises(InconsistentDims):
            algebra_from_sections(
                [hyp2.sections(0), hyp2.sections(7), hyp2.sections(15)]
            )

    def test_unit_and_associativity_validated(self, quartic):
        spaces = [quartic.sections(q) for q in range(4)]
        alg = algebra_from_sections(spaces)
        v = np.arange(3) + 1
        w = np.arange(6) + 1
        left = alg.multiply(1, v, 2, w)
        t12 = alg.tensor(1, 2)
        want = np.einsum("i,j,ijk->k", v, w, t12) % 101
        assert np.array_equal(left, want)


class TestGradedAlgebra:
    def test_dims0_must_be_1(self):
        with pytest.raises(InconsistentDims):
            GradedAlgebra(F101, [2, 3], {})

    def test_bad_tensor_shape(self):
        with pytest.raises(InconsistentDims):
            GradedAlgebra(F101, [1, 2, 3], {(1, 1): np.zeros((2, 2, 4), dtype=np.int64)})

    def test_broken_associativity_caught(self):
        # x*x = y-ish garbage that cannot be associative/symmetric
        t = np.zeros((2, 2, 3), dtype=np.int64)
        t[0, 1] = [1, 0, 0]
        t[1, 0] = [0, 1, 0]
        with pytest.raises(GradedError):
            GradedAlgebra(F101, [1, 2, 3], {(1, 1): t})

    def test_as_module_agrees_with_multiplication(self, quartic):
        alg = algebra_from_sections([quartic.sections(q) for q in range(4)])
        mod = alg.as_module()
        assert mod.pieces == alg.dims
        assert mod.n == alg.dims[1]
        rng = np.random.default_rng(1)
        for q in range(alg.window):
            for k in range(mod.n):
                m = rng.integers(0, 101, alg.dims[q])
                xk = np.zeros(mod.n, dtype=np.int64)
                xk[k] = 1
                via_mult = alg.multiply(1, xk, q, m)
                via_action = matmul_mod(mod.action[q][k], m.reshape(-1, 1), 101).ravel()
                assert np.array_equal(via_mult, via_action)


class TestGradedModule:
    def test_action_shape_validation(self):
        with pytest.raises(InconsistentDims):
            GradedModule(F101, 2, (1, 2), (np.zeros((2, 3, 1), dtype=np.int64),))

    def test_commutativity_check_exhaustive(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)]).as_module()
        mod.check_commutativity()

    def test_commutativity_violation_caught(self):
        a0 = np.zeros((2, 2, 1), dtype=np.int64)
        a0[0, :, 0] = [1, 0]
        a0[1, :, 0] = [0, 1]
        a1 = np.zeros((2, 1, 2), dtype=np.int64)
        a1[0, 0] = [1, 0]  # x.(y.m) = 0 but y.(x.m) = 1
        a1[1, 0] = [1, 0]
        bad = GradedModule(F101, 2, (1, 2, 1), (a0, a1))
        with pytest.raises(GradedError):
            bad.check_commutativity()

    def test_commutativity_checks_every_pair_above_ten_generators(self):
        # n = 12, pieces (1, 12, 1): x_l sends the unit to e_l and x_k reads
        # coordinate W[k, l], so x_k x_l = x_l x_k iff W is symmetric.  The
        # only asymmetric entry is W[0, 2], a pair that a sample of pairs
        # can miss.
        n = 12
        a0 = np.eye(n, dtype=np.int64).reshape(n, n, 1)
        a1 = np.zeros((n, 1, n), dtype=np.int64)
        a1[0, 0, 2] = 1
        bad = GradedModule(F101, n, (1, n, 1), (a0, a1))
        with pytest.raises(GradedError, match=r"degree 0 for basis pair \(0,2\)"):
            bad.check_commutativity()
        a1[2, 0, 0] = 1
        GradedModule(F101, n, (1, n, 1), (a0, a1)).check_commutativity()


class TestRestrictAction:
    def test_full_subspace_identity(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)]).as_module()
        res = module_restrict_action(mod, np.eye(3, dtype=np.int64))
        for q in range(mod.window):
            assert np.array_equal(res.action[q], mod.action[q])

    def test_zero_subspace(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)]).as_module()
        res = module_restrict_action(mod, np.zeros((3, 0), dtype=np.int64))
        assert res.n == 0
        for q in range(mod.window):
            assert res.action[q].shape[0] == 0

    def test_dependent_columns_rejected(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)]).as_module()
        b = np.array([[1, 2], [0, 0], [3, 6]], dtype=np.int64)
        with pytest.raises(NotASubspace):
            module_restrict_action(mod, b)

    def test_linear_combination(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)]).as_module()
        b = np.array([[1], [2], [5]], dtype=np.int64)
        res = module_restrict_action(mod, b)
        for q in range(mod.window):
            want = (mod.action[q][0] + 2 * mod.action[q][1] + 5 * mod.action[q][2]) % 101
            assert np.array_equal(res.action[q][0], want)
