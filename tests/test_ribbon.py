import numpy as np
import pytest

from ribbonsyz.curves import HyperellipticCurve, PlaneCurve, mult_map
from ribbonsyz.fflinalg import PrimeField
from ribbonsyz.graded import GradedAlgebra, GradedModule
from ribbonsyz.koszul import duality_check, hilbert_check, hilbert_dims, rcliff
from ribbonsyz.ribbon import (
    UnsupportedConormal,
    build_split_ribbon,
    conormal_tags,
    hypothesis_gate,
    split_invariants,
)

from oracles import degree_one_generates, module_restrict_action

F101 = PrimeField(101)


def split_dims(ring, t: int) -> tuple[list[int], list[int]]:
    """(dim S_q, dim J_q for q = 0..window) of a split ribbon with conormal L = -t, from its model."""
    _, unit, _ = conormal_tags(ring.model, t)
    qs = range(ring.algebra.window + 1)
    return (
        [ring.model.sections(q * unit).dim for q in qs],
        [ring.model.sections(q * unit - t).dim for q in qs],
    )


@pytest.fixture(scope="module")
def quartic_ribbon():
    c = PlaneCurve(F101, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)
    return build_split_ribbon(c, 1)


@pytest.fixture(scope="module")
def hyp_ribbon():
    h = HyperellipticCurve(F101, [1, 3, 0, 0, 0, 1])
    return build_split_ribbon(h, 5)


class TestBuild:
    def test_quartic_arithmetic_genus_and_dims(self, quartic_ribbon):
        r = quartic_ribbon
        assert r.p_a == 2 * 3 - 1 + 4 == 9
        assert r.algebra.pieces[:4] == (1, 9, 24, 40)
        assert r.algebra.pieces[1] == r.p_a

    def test_hyperelliptic_dims(self, hyp_ribbon):
        r = hyp_ribbon
        assert r.p_a == 3 + 5 == 8
        s, j = split_dims(r, 5)
        assert s[1] == 6 and j[1] == 2
        assert r.algebra.pieces[:4] == (1, 8, 21, 35)

    def test_genus0_j1_vanishes(self):
        line = HyperellipticCurve(F101, [0, 1])
        r = build_split_ribbon(line, 6)  # deg L = -6, p_a = 5
        assert r.p_a == 5
        s, j = split_dims(r, 6)
        assert j[1] == 0
        assert s[1] == r.p_a

    def test_arithmetic_genus_below_three_rejected(self):
        line = HyperellipticCurve(F101, [0, 1])  # p_a = t - 1
        for t in (1, 2, 3):
            with pytest.raises(UnsupportedConormal, match=f"p_a = {t - 1}"):
                build_split_ribbon(line, t)
        assert build_split_ribbon(line, 4).p_a == 3

    def test_dims_are_sums(self, quartic_ribbon):
        s, j = split_dims(quartic_ribbon, 1)
        assert list(quartic_ribbon.algebra.pieces) == [a + b for a, b in zip(s, j)]

    def test_hilbert_function_matches_riemann_roch(self, quartic_ribbon, hyp_ribbon):
        for r in (quartic_ribbon, hyp_ribbon):
            want = hilbert_dims(r.p_a, r.algebra.window)
            assert list(r.algebra.pieces) == want

    def test_nonnegative_conormal_rejected(self, hyp_ribbon):
        with pytest.raises(UnsupportedConormal):
            build_split_ribbon(hyp_ribbon.model, 0)



class TestRingStructure:
    def test_ring_is_a_graded_module(self, hyp_ribbon):
        # the ring is its action by S~_1: one set of tensors, weights always there
        alg = hyp_ribbon.algebra
        assert isinstance(alg, GradedModule)
        assert not hasattr(alg, "mult") and not hasattr(alg, "as_module")
        assert alg.n == alg.pieces[1] == hyp_ribbon.p_a
        assert np.array_equal(alg.action[0][:, :, 0], np.eye(alg.n, dtype=np.int64))  # x_k . 1 = e_k
        assert np.array_equal(alg.v_weights, alg.weights[1])
        s, j = split_dims(hyp_ribbon, 5)
        for q, w in enumerate(alg.weights):
            assert w.tolist() == [0] * s[q] + [1] * j[q]

    def test_epsilon_nilpotency_exhaustive(self, hyp_ribbon):
        # products of the epsilon-block basis vectors vanish identically
        r = hyp_ribbon
        s, _ = split_dims(r, 5)
        for b in (1, 2, 3):
            tensor = r.algebra.action[b]
            assert not np.any(tensor[s[1] :, :, s[b] :])

    def test_epsilon_block_lands_in_j(self, hyp_ribbon):
        r = hyp_ribbon
        tensor = r.algebra.action[1]
        s1, s2 = split_dims(r, 5)[0][1:3]
        # S x eJ and eJ x S never touch the S block of the target
        assert not np.any(tensor[:s1, :s2, s1:])
        assert not np.any(tensor[s1:, :s2, :s1])

    def test_s_action_on_j_equals_curve_mult_map(self, hyp_ribbon):
        r = hyp_ribbon
        model = r.model
        unit = 2 * model.g - 2 + 5
        s1 = model.sections(unit)
        j2 = model.sections(2 * unit - 5)
        expect = mult_map(s1, j2)
        tensor = r.algebra.action[2]
        s, _ = split_dims(r, 5)
        got = tensor[: s[1], s[3] :, s[2] :]
        assert np.array_equal(got, expect)

    def test_restrict_action_to_epsilon_block(self, hyp_ribbon):
        # restricting the degree-one action to eps J_1: eps^2 = 0 shows up as
        # zero columns on every eps J_q block, and values land inside eps J
        r = hyp_ribbon
        mod = r.algebra
        s, j = split_dims(r, 5)
        s1, j1 = s[1], j[1]
        basis = np.zeros((s1 + j1, j1), dtype=np.int64)
        for col in range(j1):
            basis[s1 + col, col] = 1
        res = module_restrict_action(mod, basis)
        assert res.n == j1
        for q in range(mod.window):
            act = res.action[q]
            assert not np.any(act[:, :, s[q] :])  # kills eps J_q
            assert not np.any(act[:, : s[q + 1], : s[q]])  # lands in eps J

    def test_ring_multiplication_rule(self, hyp_ribbon):
        # (s, ej)(s', ej') = (ss', e(sj' + s'j)) on random elements
        r = hyp_ribbon
        rng = np.random.default_rng(0)
        alg = r.algebra
        s, j = split_dims(r, 5)
        s1, j1 = s[1], j[1]

        def multiply(v, w):
            return np.einsum("i,j,icj->c", v, w, alg.action[1]) % 101

        for _ in range(20):
            v = rng.integers(0, 101, s1 + j1)
            w = rng.integers(0, 101, s1 + j1)
            prod = multiply(v, w)
            v_s = np.concatenate([v[:s1], np.zeros(j1, dtype=np.int64)])
            v_j = np.concatenate([np.zeros(s1, dtype=np.int64), v[s1:]])
            w_s = np.concatenate([w[:s1], np.zeros(j1, dtype=np.int64)])
            w_j = np.concatenate([np.zeros(s1, dtype=np.int64), w[s1:]])
            parts = (multiply(v_s, w_s) + multiply(v_s, w_j) + multiply(v_j, w_s)) % 101
            assert np.array_equal(prod, parts)


class TestProjectiveNormality:
    def test_quartic_true(self, quartic_ribbon):
        # p_a = 9 >= 2g+2 and h^0(K_C + L) = h^0(O) = 1 <= g - 2
        assert degree_one_generates(quartic_ribbon.algebra)

    def test_hyperelliptic_true(self, hyp_ribbon):
        assert degree_one_generates(hyp_ribbon.algebra)

    def test_genus0_false(self):
        # epsilon J_2 = H^0((k-4) Pinf) is nonzero for k >= 4 but unreachable
        # from degree one, where J_1 = H^0(K_P1) = 0: never projectively normal
        line = HyperellipticCurve(F101, [0, 1])
        for k in (4, 8):
            assert not degree_one_generates(build_split_ribbon(line, k).algebra)

    def test_truncated_ring_false(self):
        # k[x] / (x^2) (+) k y with y in degree 2: a commutative ring that
        # degree one does not generate, since x * x = 0 misses y
        truncated = GradedAlgebra(F101, [1, 1, 1], [np.zeros((1, 1, 1), dtype=np.int64)])
        assert not degree_one_generates(truncated)
        assert degree_one_generates(GradedAlgebra(F101, [1, 1, 1], [np.ones((1, 1, 1), dtype=np.int64)]))


class TestInvariants:
    def test_quartic_numbers(self):
        assert split_invariants(3, 3, -4) == {"p_a": 9, "gonality": 6, "lcliff": 4}

    def test_hyperelliptic_numbers(self):
        inv = split_invariants(2, 2, -5)
        assert inv["gonality"] == 4 and inv["lcliff"] == 2

    def test_genus0_numbers(self):
        inv = split_invariants(0, 1, -5)
        assert inv == {"p_a": 4, "gonality": 2, "lcliff": 0}

    def test_gate(self):
        assert not hypothesis_gate(3, 3, 9)  # 9 < max(11, 14)
        assert hypothesis_gate(2, 2, 8)  # 8 >= max(7, 8)
        assert hypothesis_gate(1, 1, 7)  # 7 >= max(3, 2)


class TestPaperKoszulGroups:
    def test_quartic_ribbon_k22_and_k11(self, quartic_ribbon):
        # the two dimensions the genus-9 table pins down, recomputed through
        # the representative-bases path rather than the rank formula
        from ribbonsyz.koszul import koszul_cohomology

        mod = quartic_ribbon.algebra
        k11 = koszul_cohomology(mod, 1, 1)
        assert k11.dim == 21
        k22 = koszul_cohomology(mod, 2, 2)
        assert k22.dim == 20
        # free coordinates of the cocycles, less the pivots of the coboundaries
        assert len(k22.free) - len(k22.rel_pivots) == 20


class TestBettiProperties:
    def test_hyperelliptic_table(self, hyp_ribbon):
        t = hyp_ribbon.betti()
        assert rcliff(t) == 2
        assert duality_check(t)
        assert hilbert_check(t, hilbert_dims(8, 3))
        assert t.totals()[0] == 1 and t.totals()[-1] == 1

    def test_artinian_equals_direct_small_models(self):
        # the reduction by two linear forms answers, and agrees cell by cell
        # with the direct computation on models where that is cheap
        line = HyperellipticCurve(F101, [0, 1])
        ell = HyperellipticCurve(F101, [1, 1, 0, 1])
        rings = [
            build_split_ribbon(line, 5),
            build_split_ribbon(line, 7),
            build_split_ribbon(ell, 4),
        ]
        from test_artinian import compare_with_direct

        for r in rings:
            t = r.betti()
            compare_with_direct(r, t)
            assert duality_check(t)
            assert hilbert_check(t, hilbert_dims(r.p_a, 3))
