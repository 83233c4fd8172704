import tracemalloc
import weakref

import numpy as np
import pytest

from itertools import combinations_with_replacement

from ribbonsyz import fflinalg, graded
from ribbonsyz.curves import HyperellipticCurve, PlaneCurve, mult_map, random_plane_curve
from ribbonsyz.fflinalg import PrimeField, matmul_mod, rank, rref
from ribbonsyz.graded import (
    Chart,
    GradedAlgebra,
    GradedError,
    GradedModule,
    InconsistentDims,
    NotASubmodule,
)
from ribbonsyz.koszul import KoszulCalculator
from ribbonsyz.ribbon import build_split_ribbon

import oracles
from oracles import (
    NotASubspace,
    algebra_from_sections,
    degree_one_generates,
    kernel_basis,
    module_restrict_action,
    oracle_koszul_dim,
    solve,
    subquotient,
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
        assert alg.pieces == (1, 3, 6, 10, 14)

    def test_genus0_o1(self):
        line = HyperellipticCurve(F101, [0, 1])
        alg = algebra_from_sections([line.sections(q) for q in range(5)])
        assert alg.pieces == (1, 2, 3, 4, 5)

    def test_hyperelliptic_reindexed(self, hyp2):
        alg = algebra_from_sections([hyp2.sections(7 * q) for q in range(4)])
        assert alg.pieces == (1, 6, 13, 20)

    def test_inconsistent_tags_rejected(self, hyp2):
        with pytest.raises(InconsistentDims):
            algebra_from_sections(
                [hyp2.sections(0), hyp2.sections(7), hyp2.sections(15)]
            )

    def test_unit_and_associativity_validated(self, quartic):
        # only the degree-one products are kept, each the curve's table in
        # the action layout; the unit acts through degree 0
        spaces = [quartic.sections(q) for q in range(4)]
        alg = algebra_from_sections(spaces)
        assert len(alg.action) == 3
        for b in (1, 2):
            assert np.array_equal(alg.action[b], mult_map(spaces[1], spaces[b]) % 101)
        assert np.array_equal(alg.action[0][:, :, 0], np.eye(3, dtype=np.int64))


class TestGradedAlgebra:
    def test_dims0_must_be_1(self):
        with pytest.raises(InconsistentDims):
            GradedAlgebra(F101, [2, 3], [])

    def test_bad_tensor_shape(self):
        with pytest.raises(InconsistentDims):
            GradedAlgebra(F101, [1, 2, 3], [np.zeros((2, 2, 4), dtype=np.int64)])

    @pytest.mark.parametrize(
        "keys",
        [
            [(1, 1), (1, 2), (1, 3), (2, 2)],  # a product of two degrees >= 2
            [(1, 1), (1, 3)],  # (1, 2) missing
            [(1, 1), (2, 1), (1, 3)],  # the swapped key of (1, 2)
            [(0, 1), (1, 1), (1, 2), (1, 3)],  # the unit is structural
            [(1, 1), (1, 2), (1, 3), (1, 4)],  # past the window
        ],
    )
    def test_only_degree_one_products(self, keys):
        # pieces of dims 1..5, every product zero: the products A_a x A_b
        # that ``keys`` names, each in the action layout (dims[a], dims[a+b],
        # dims[b]), are accepted only as the degree-one ones, in order
        def product(a, b):
            return np.zeros((a + 1, a + b + 1, b + 1), dtype=np.int64)

        assert GradedAlgebra(F101, range(1, 6), [product(1, b) for b in (1, 2, 3)]).window == 4
        with pytest.raises(InconsistentDims, match="action"):
            GradedAlgebra(F101, range(1, 6), [product(a, b) for a, b in keys])

    def test_broken_associativity_caught(self):
        # x*x = y-ish garbage that cannot be associative/symmetric
        t = np.zeros((2, 3, 2), dtype=np.int64)
        t[0, :, 1] = [1, 0, 0]
        t[1, :, 0] = [0, 1, 0]
        with pytest.raises(GradedError):
            GradedAlgebra(F101, [1, 2, 3], [t])

    def test_action_agrees_with_multiplication(self, quartic):
        spaces = [quartic.sections(q) for q in range(4)]
        alg = algebra_from_sections(spaces)
        assert isinstance(alg, GradedModule)
        assert alg.n == alg.pieces[1] == 3
        rng = np.random.default_rng(1)
        for q in range(alg.window):
            for k in range(alg.n):
                m = rng.integers(0, 101, alg.pieces[q])
                # x_k . m: m itself in degree 1 when q = 0, else the curve's
                # table (the product of basis k of degree 1 with m) applied to m
                via_table = (
                    m[0] * np.eye(alg.n, dtype=np.int64)[k]
                    if q == 0
                    else mult_map(spaces[1], spaces[q])[k] @ m % 101
                )
                via_action = matmul_mod(alg.action[q][k], m.reshape(-1, 1), 101).ravel()
                assert np.array_equal(via_table % 101, via_action)


def tampered(alg: GradedAlgebra, b: int, entry) -> list:
    """A copy of the algebra's products with one entry of action[b] moved by one."""
    prods = [t.copy() for t in alg.action[1:]]
    prods[b - 1][entry] = (prods[b - 1][entry] + 1) % alg.field.p
    return prods


def products(alg: GradedAlgebra, va, b: int, vb) -> np.ndarray:
    """Row-wise products of a stack in degree 1 with a stack in degree b."""
    return np.einsum("ki,kj,icj->kc", va, vb, alg.action[b]) % alg.field.p


def traced_peak(f) -> int:
    """Peak bytes allocated while f runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def product_blocks(alg, monkeypatch, block=None) -> list:
    """The operands of every ``matmul_mod`` call the certificate makes on
    rebuilding ``alg``, with the block size patched to ``block`` when given."""
    from ribbonsyz import fflinalg, graded

    calls = []
    original = graded.matmul_mod

    def recording(x, y, p):
        calls.append((np.array(x), np.array(y)))
        return original(x, y, p)

    monkeypatch.setattr(graded, "matmul_mod", recording)
    if block is not None:
        monkeypatch.setattr(graded, "_MOD_BLOCK", block)
    GradedAlgebra(F101, alg.pieces, alg.action[1:])
    return calls


def assert_row_blocks(alg, calls, block: int) -> None:
    """The certificate's products, ``calls``, are x_k x_l on degree q for
    every pair (k, l), restricted to a block of target rows of degree q + 2:
    (n rows, dims[q+1]) by (dims[q+1], n dims[q]).  Each has at most
    max(``block``, entries of the right operand) entries, as many rows as
    fit, and the blocks of a degree cover its target rows once, in order."""
    n, d = alg.n, alg.pieces
    assert all(len(x) * y.shape[1] <= max(block, y.size) for x, y in calls)
    it = iter(calls)
    for q in range(alg.window - 1):
        right = alg.action[q].transpose(1, 0, 2).reshape(d[q + 1], n * d[q])
        blocks, covered = [], 0
        while covered < d[q + 2]:
            x, y = next(it)
            assert np.array_equal(y, right)
            blocks.append(x.reshape(n, -1, d[q + 1]))
            assert blocks[-1].shape[1] > 0
            covered += blocks[-1].shape[1]
        assert np.array_equal(np.concatenate(blocks, axis=1), alg.action[q + 1])
        assert len(blocks) == -(-d[q + 2] // max(1, max(block, right.size) // (n * n * d[q])))
    assert next(it, None) is None


class TestBatchedCertificate:
    """The exact commutativity certificate of ``GradedAlgebra``: all pairs
    of generators in one product per block of target rows, catching each
    tamper that the seeded associativity check it replaced caught."""

    @pytest.fixture(scope="class")
    def ring4(self, quartic):
        return algebra_from_sections([quartic.sections(q) for q in range(5)])

    def test_empty_top_piece(self, monkeypatch):
        # k[x] / (x^3) through degree 4: the products into degrees 3 and 4 are empty
        one = np.ones((1, 1, 1), dtype=np.int64)
        prods = [one, np.zeros((1, 0, 1), dtype=np.int64), np.zeros((1, 0, 0), dtype=np.int64)]
        alg = GradedAlgebra(F101, [1, 1, 1, 0, 0], prods)
        assert alg.pieces == (1, 1, 1, 0, 0)
        assert degree_one_generates(alg)
        # the empty degrees form no product: only x x : degree 0 -> degree 2
        calls = product_blocks(alg, monkeypatch)
        assert [(x.shape, y.shape) for x, y in calls] == [((1, 1), (1, 1))]

    def test_every_triple_counts(self, quartic):
        # at window 3 the one associativity split was (1,1,1).  Moving
        # mult[(1,2)][i, j, 0] by lam moves coordinate 0 of (ab)c - a(bc) by
        # lam * s_ij, with s_ij = (ab)_j c_i - a_i (bc)_j per triple.  Two such
        # moves that cancel on the first of the five seeded triples the
        # sampled check drew are caught by the exact one.
        alg = algebra_from_sections([quartic.sections(q) for q in range(4)])
        p = 101
        rng = np.random.default_rng(0)  # the draws of the retired sampled check
        va, vb, vc = (rng.integers(0, p, (5, alg.n)) for _ in range(3))
        ab, bc = products(alg, va, 1, vb), products(alg, vb, 1, vc)
        s1 = (ab[:, 4] * vc[:, 0] - va[:, 0] * bc[:, 4]) % p
        s2 = (ab[:, 5] * vc[:, 1] - va[:, 1] * bc[:, 5]) % p
        assert s1[0] or s2[0]
        assert np.any((s2[0] * s1 - s1[0] * s2)[1:] % p)  # triple 0 sees nothing, some other does
        prods = [t.copy() for t in alg.action[1:]]
        prods[1][0, 0, 4] += s2[0]
        prods[1][1, 0, 5] -= s1[0]
        prods[1] %= p
        with pytest.raises(GradedError, match="does not commute at degree 1"):
            GradedAlgebra(F101, alg.pieces, prods)

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_one_product_per_degree(self, quartic, window, monkeypatch):
        # at the full block, each degree of this ring is one product:
        # x_k x_l on degree q for every pair (k, l) at once
        from ribbonsyz.fflinalg import _MOD_BLOCK

        alg = algebra_from_sections([quartic.sections(q) for q in range(window + 1)])
        assert_row_blocks(alg, product_blocks(alg, monkeypatch), _MOD_BLOCK)

    @pytest.mark.parametrize("window", [3, 4])
    def test_products_by_target_row_block(self, quartic, window, monkeypatch):
        # blocks of at most 64 entries split degrees 1 and up into several products
        alg = algebra_from_sections([quartic.sections(q) for q in range(window + 1)])
        calls = product_blocks(alg, monkeypatch, 64)
        assert len(calls) > window - 1
        assert_row_blocks(alg, calls, 64)

    def test_blocks_hold_the_right_operand(self, monkeypatch):
        # n = 16 generators acting alike (x_k = A_q for every k, so they
        # commute) on pieces (80, 64, 10): one target row's products,
        # n^2 d0 = 20480 entries, outgrow _MOD_BLOCK, and the right operand
        # holds d1 n d0 = 81920.  A block of 4 rows holds as many, so the 10
        # target rows take 3 products, not the 10 of one row each
        n, (d0, d1, d2) = 16, (80, 64, 10)
        assert n * n * d0 > fflinalg._MOD_BLOCK
        rng = np.random.default_rng(0)
        a0, a1 = rng.integers(0, 101, (d1, d0)), rng.integers(0, 101, (d2, d1))
        action = [np.broadcast_to(a, (n, *a.shape)).copy() for a in (a0, a1)]
        calls = []
        real = graded.matmul_mod
        monkeypatch.setattr(graded, "matmul_mod", lambda x, y, p: calls.append((x.shape, y.shape)) or real(x, y, p))
        GradedModule(F101, n, (d0, d1, d2), tuple(action)).check_commutativity()
        assert calls == [((4 * n, d1), (d1, n * d0))] * 2 + [((2 * n, d1), (d1, n * d0))]
        # x_3 moved in the last target row, inside the last block: the pair
        # named is the one the whole product, in one block, names first
        action[1][3, d2 - 1, 0] += 1
        assert a0[0].any()
        tampered = GradedModule(F101, n, (d0, d1, d2), tuple(action))
        calls.clear()
        with pytest.raises(GradedError, match=r"degree 0 for basis pair \(0,3\)") as split:
            tampered.check_commutativity()
        assert len(calls) == 3
        monkeypatch.setattr(graded, "_MOD_BLOCK", n * n * d0 * d2)
        with pytest.raises(GradedError) as whole:
            tampered.check_commutativity()
        assert str(split.value) == str(whole.value)

    def test_certificate_memory_on_the_betti_quartic_ring(self):
        # W1's ring: the top degree's 504 x 216 products, formed a block of
        # target rows at a time, stay well under 1 MB (2.4 MB when formed whole)
        alg = build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(0)), 1).algebra
        assert alg.pieces == (1, 9, 24, 40, 56)
        assert traced_peak(alg.check_commutativity) <= 1 << 20

    @pytest.mark.parametrize(
        "window, key, entry", [(3, (1, 2), (0, 0, 4)), (4, (1, 3), (0, 0, 1)), (4, (1, 3), (0, 13, 9))]
    )
    def test_small_blocks_name_the_same_pair(self, quartic, window, key, entry, monkeypatch):
        # split into blocks of at most 64 entries, the certificate names the
        # pair the whole product names; the last tamper sits in the last
        # target row of degree 4, so only the last block of degree 2 fails
        from ribbonsyz import fflinalg, graded

        alg = algebra_from_sections([quartic.sections(q) for q in range(window + 1)])
        prods = tampered(alg, key[1], entry)
        with pytest.raises(GradedError, match="does not commute") as whole:
            GradedAlgebra(F101, alg.pieces, prods)
        monkeypatch.setattr(graded, "_MOD_BLOCK", 64)
        with pytest.raises(GradedError, match="does not commute") as split:
            GradedAlgebra(F101, alg.pieces, prods)
        assert str(split.value) == str(whole.value)

    @pytest.mark.parametrize(
        "window, key, entry",
        [
            # entries of action[b] for the product key (1, b), indexed
            # (k, target, source).  The seeded check caught this one at split
            # (1,1,1); at window 3 it is the only split (moving any
            # action[2][0, k, 0] alone would stay associative on this ring)
            (3, (1, 2), (0, 0, 4)),
            # x_0 . x^2 y, where x^2 y = x_1 . x^2 too: x_0 x_1 x^2 != x_1 x_0 x^2
            (4, (1, 3), (0, 0, 1)),
            # a diagonal entry keeps the products A_1 x A_1 symmetric; caught at split (2,1,1)
            (4, (1, 1), (2, 4, 2)),
        ],
    )
    def test_tampered_product_is_caught(self, quartic, window, key, entry):
        alg = algebra_from_sections([quartic.sections(q) for q in range(window + 1)])
        assert key[1] < alg.window
        with pytest.raises(GradedError, match="does not commute"):
            GradedAlgebra(F101, alg.pieces, tampered(alg, key[1], entry))

    def test_tamper_that_stays_a_module_is_accepted(self, ring4):
        # moving x_0 . x^3 (action[3][0, 0, 0]) was caught by the seeded
        # check only through the (2,2) product x^2 . x^2.  Only x_0 reaches
        # x^3 from degree 2, so the moved table still commutes: it is another
        # graded module over Sym A_1, and the certificate accepts it.
        assert [l for l in range(3) if ring4.action[2][l, 0].any()] == [0]
        moved = GradedAlgebra(F101, ring4.pieces, tampered(ring4, 3, (0, 0, 0)))
        assert not np.array_equal(moved.action[3], ring4.action[3])


class TestGradedModule:
    def test_action_shape_validation(self):
        with pytest.raises(InconsistentDims):
            GradedModule(F101, 2, (1, 2), (np.zeros((2, 3, 1), dtype=np.int64),))

    def test_commutativity_check_exhaustive(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)])
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
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)])
        res = module_restrict_action(mod, np.eye(3, dtype=np.int64))
        for q in range(mod.window):
            assert np.array_equal(res.action[q], mod.action[q])

    def test_zero_subspace(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)])
        res = module_restrict_action(mod, np.zeros((3, 0), dtype=np.int64))
        assert res.n == 0
        for q in range(mod.window):
            assert res.action[q].shape[0] == 0

    def test_dependent_columns_rejected(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)])
        b = np.array([[1, 2], [0, 0], [3, 6]], dtype=np.int64)
        with pytest.raises(NotASubspace):
            module_restrict_action(mod, b)

    def test_linear_combination(self, quartic):
        mod = algebra_from_sections([quartic.sections(q) for q in range(4)])
        b = np.array([[1], [2], [5]], dtype=np.int64)
        res = module_restrict_action(mod, b)
        for q in range(mod.window):
            want = (mod.action[q][0] + 2 * mod.action[q][1] + 5 * mod.action[q][2]) % 101
            assert np.array_equal(res.action[q][0], want)


def monomials(n: int, q: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-q monomials in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), q):
        out.append(tuple(combo.count(k) for k in range(n)))
    return out


def divides(gens, mono) -> bool:
    return any(all(a <= b for a, b in zip(g, mono)) for g in gens)


def polynomial_module(n: int, window: int) -> GradedModule:
    """F[x_0..x_{n-1}] in degrees 0..window, acted on by the variables, monomial bases."""
    bases = [monomials(n, q) for q in range(window + 1)]
    action = []
    for q in range(window):
        index = {m: i for i, m in enumerate(bases[q + 1])}
        a = np.zeros((n, len(bases[q + 1]), len(bases[q])), dtype=np.int64)
        for k in range(n):
            for j, m in enumerate(bases[q]):
                a[k, index[tuple(e + (i == k) for i, e in enumerate(m))], j] = 1
        action.append(a)
    return GradedModule(F101, n, tuple(len(b) for b in bases), tuple(action))


def invertible(d: int, rng) -> np.ndarray:
    while True:
        g = rng.integers(0, 101, (d, d))
        if rank(g, 101) == d:
            return g


def monomial_columns(n: int, q: int, gens) -> np.ndarray:
    """Coordinate columns of the degree-q monomials in the ideal spanned by gens."""
    basis = monomials(n, q)
    cols = [i for i, m in enumerate(basis) if divides(gens, m)]
    return np.eye(len(basis), dtype=np.int64)[:, cols]


class TestSubquotient:
    # J / I for the monomial ideals I = (x0^2, x0 x1 x2, x1^3) in
    # J = (x0, x1) of F[x0, x1, x2], degrees 0..4
    N, WINDOW = 3, 4
    J = [(1, 0, 0), (0, 1, 0)]
    I = [(2, 0, 0), (1, 1, 1), (0, 3, 0)]

    def hand_built(self):
        """J / I on the monomials of J outside I; x_k kills what lands in I."""
        n = self.N
        bases = [
            [m for m in monomials(n, q) if divides(self.J, m) and not divides(self.I, m)]
            for q in range(self.WINDOW + 1)
        ]
        actions = []
        for q in range(self.WINDOW):
            index = {m: i for i, m in enumerate(bases[q + 1])}
            per_k = []
            for k in range(n):
                mat = [[0] * len(bases[q]) for _ in bases[q + 1]]
                for j, m in enumerate(bases[q]):
                    image = tuple(e + (i == k) for i, e in enumerate(m))
                    if image in index:
                        mat[index[image]][j] = 1
                per_k.append(mat)
            actions.append(per_k)
        return [len(b) for b in bases], actions

    def test_against_oracle_in_scrambled_bases(self):
        # the same subquotient, with every ambient piece and both bases put
        # through random invertible changes of coordinates
        rng = np.random.default_rng(5)
        n, window = self.N, self.WINDOW
        plain = polynomial_module(n, window)
        change = [invertible(d, rng) for d in plain.pieces]
        inverse = [solve(c, np.eye(len(c), dtype=np.int64), 101) for c in change]
        action = tuple(
            np.stack([matmul_mod(change[q + 1], matmul_mod(a[k], inverse[q], 101), 101) for k in range(n)])
            for q, a in enumerate(plain.action)
        )
        ambient = GradedModule(F101, n, plain.pieces, action)
        sub, rel = [], []
        for q in range(window + 1):
            for basis, gens in ((sub, self.J), (rel, self.I)):
                cols = matmul_mod(change[q], monomial_columns(n, q, gens), 101)
                mix = invertible(cols.shape[1], rng)
                basis.append(matmul_mod(cols, mix, 101) if cols.size else cols)
        module = subquotient(ambient, sub, rel)
        pieces, actions = self.hand_built()
        assert list(module.pieces) == pieces == [0, 2, 4, 4, 3]
        calc = KoszulCalculator(module)
        for q in range(window):
            for i in range(n + 1):
                assert calc.dim(i, q) == oracle_koszul_dim(n, pieces, actions, i, q, 101), (i, q)
        module.check_commutativity()

    def test_whole_module_over_nothing_is_itself(self):
        mod = polynomial_module(2, 3)
        same = subquotient(
            mod,
            [np.eye(d, dtype=np.int64) for d in mod.pieces],
            [np.zeros((d, 0), dtype=np.int64) for d in mod.pieces],
        )
        assert same.pieces == mod.pieces
        for got, want in zip(same.action, mod.action):
            assert np.array_equal(got, want)

    def test_each_degree_is_released_before_the_next(self, monkeypatch):
        # subquotient holds one degree's joint matrix and RREF at a time:
        # when a degree is reduced, every earlier one is already freed
        mod = polynomial_module(self.N, self.WINDOW)
        sub = [monomial_columns(self.N, q, self.J) for q in range(self.WINDOW + 1)]
        rel = [monomial_columns(self.N, q, self.I) for q in range(self.WINDOW + 1)]
        held = []
        reduce = oracles.rref

        def tracked(a, p):
            assert all(ref() is None for ref in held)
            red, pivots = reduce(a, p)
            held.extend([weakref.ref(a), weakref.ref(red)])
            return red, pivots

        monkeypatch.setattr(oracles, "rref", tracked)
        assert subquotient(mod, sub, rel).pieces == (0, 2, 4, 4, 3)
        assert len(held) == 2 * (self.WINDOW + 1)

    def test_each_degree_is_priced_before_its_rref(self, monkeypatch):
        # F[x0, x1, x2] through degree 1 in w = 2 copies, all of it over
        # nothing: degree 0's input is 2 x 2, degree 1's 6 x 12, rel_1 and
        # sub_1 (0 + 6 columns) beside x_k of the 2 columns of degree 0
        mod = polynomial_module(3, 1)
        sub = [np.eye(2 * d, dtype=np.int64) for d in mod.pieces]
        rel = [np.zeros((2 * d, 0), dtype=np.int64) for d in mod.pieces]
        rrefs = []
        reduce = oracles.rref
        monkeypatch.setattr(oracles, "rref", lambda a, p: rrefs.append(a.shape) or reduce(a, p))
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 6 * 12 - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match=r"subquotient in degree 1: 6 x 12, about 2304 bytes,"):
            subquotient(mod, sub, rel)
        assert rrefs == [(2, 2)]  # degree 1 was refused before its RREF
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 6 * 12)
        assert subquotient(mod, sub, rel).pieces == (2, 6)
        assert rrefs == [(2, 2), (2, 2), (6, 12)]

    def test_complement_takes_the_last_columns(self):
        # M_0 -> M_1 of dims 2 -> 3 with x m_0 = e_0 + e_2 and x m_1 = e_1 + e_2.
        # For rel_1 = <e_0 + e_2> the last columns give the complement
        # (e_1, e_2); the first columns would give (e_0, e_1).
        a = np.array([[[1, 0], [0, 1], [1, 1]]], dtype=np.int64)
        mod = GradedModule(F101, 1, (2, 3), (a,))
        sub = [np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)]
        rel = [np.zeros((2, 0), dtype=np.int64), np.array([[1], [0], [1]], dtype=np.int64)]
        res = subquotient(mod, sub, rel)
        assert res.pieces == (2, 2)
        # x m_0 lies in rel_1; x m_1 = e_1 + e_2
        assert res.action[0].tolist() == [[[0, 1], [0, 1]]]

    def test_sub_not_preserved(self):
        mod = polynomial_module(2, 2)
        sub = [np.eye(1, dtype=np.int64), np.array([[1], [0]], dtype=np.int64), np.eye(3, dtype=np.int64)]
        rel = [np.zeros((d, 0), dtype=np.int64) for d in mod.pieces]
        with pytest.raises(NotASubmodule, match="maps sub_0 outside sub_1"):
            subquotient(mod, sub, rel)

    def test_rel_not_preserved(self):
        mod = polynomial_module(2, 2)
        sub = [np.eye(d, dtype=np.int64) for d in mod.pieces]
        rel = [np.zeros((1, 0), dtype=np.int64), np.array([[1], [0]], dtype=np.int64), np.zeros((3, 0), dtype=np.int64)]
        with pytest.raises(NotASubmodule, match="maps rel_1 outside rel_2"):
            subquotient(mod, sub, rel)

    @pytest.mark.parametrize(
        "rel_1",
        [[[1, 2], [0, 0]], [[0], [1]]],
        ids=["dependent", "outside-sub"],  # sub_1 = <e_0>
    )
    def test_bad_bases(self, rel_1):
        mod = polynomial_module(2, 1)
        sub = [np.zeros((1, 0), dtype=np.int64), np.array([[1], [0]], dtype=np.int64)]
        rel = [np.zeros((1, 0), dtype=np.int64), np.array(rel_1, dtype=np.int64)]
        with pytest.raises(NotASubspace):
            subquotient(mod, sub, rel)

    def test_wrong_row_count(self):
        mod = polynomial_module(2, 1)
        with pytest.raises(InconsistentDims):
            subquotient(mod, [np.eye(1, dtype=np.int64), np.eye(3, dtype=np.int64)],
                        [np.zeros((1, 0), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)])

    def test_zero_pieces(self):
        # a zero piece between nonzero ones, and a subquotient that is zero in degree 2
        a0 = np.zeros((2, 0, 1), dtype=np.int64)
        a1 = np.zeros((2, 2, 0), dtype=np.int64)
        mod = GradedModule(F101, 2, (1, 0, 2), (a0, a1))
        empty = [np.zeros((d, 0), dtype=np.int64) for d in mod.pieces]
        res = subquotient(mod, [np.eye(d, dtype=np.int64) for d in mod.pieces], empty)
        assert res.pieces == (1, 0, 2)
        assert [a.shape for a in res.action] == [(2, 0, 1), (2, 2, 0)]
        res = subquotient(
            mod,
            [np.eye(d, dtype=np.int64) for d in mod.pieces],
            empty[:2] + [np.eye(2, dtype=np.int64)],
        )
        assert res.pieces == (1, 0, 0)

    def test_no_acting_space(self):
        # n = 0: pieces are plain subquotients and every action tensor is empty
        mod = GradedModule(F101, 0, (2, 3), (np.zeros((0, 3, 2), dtype=np.int64),))
        res = subquotient(
            mod,
            [np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)[:, :2]],
            [np.array([[1], [1]], dtype=np.int64), np.zeros((3, 0), dtype=np.int64)],
        )
        assert res.n == 0 and res.pieces == (1, 2)
        assert res.action[0].shape == (0, 2, 1)


def weighted_module(rng) -> GradedModule:
    """F[x0, x1, x2] in degrees 0..3, weighted by the degree in x0 (x0 of weight 1),
    in random bases of each piece that keep every weight block."""
    plain = polynomial_module(3, 3)
    weights = [np.array([m[0] for m in monomials(3, q)], dtype=np.int64) for q in range(4)]
    change = []
    for wt in weights:
        same = wt[:, None] == wt[None, :]
        g = rng.integers(0, 101, same.shape) * same
        while rank(g, 101) < len(wt):
            g = rng.integers(0, 101, same.shape) * same
        change.append(g)
    inverse = [solve(c, np.eye(len(c), dtype=np.int64), 101) for c in change]
    action = tuple(
        np.stack([matmul_mod(change[q + 1], matmul_mod(a[k], inverse[q], 101), 101) for k in range(3)])
        for q, a in enumerate(plain.action)
    )
    return GradedModule(F101, 3, plain.pieces, action, [1, 0, 0], weights)


def block_diagonal(mod: GradedModule, w: int) -> GradedModule:
    """w copies of mod written out: id_w (x) the action, the weights tiled w times."""
    eye = np.eye(w, dtype=np.int64)
    action = tuple(
        np.einsum("ij,kab->kiajb", eye, a).reshape(mod.n, w * a.shape[1], w * a.shape[2]) for a in mod.action
    )
    pieces = tuple(w * d for d in mod.pieces)
    return GradedModule(mod.field, mod.n, pieces, action, mod.v_weights, [np.tile(wt, w) for wt in mod.weights])


def generated(big: GradedModule, gens) -> list:
    """A basis of the submodule generated by homogeneous columns gens[q], each
    basis column a product x_k1 ... x_kr of a generator, so homogeneous too."""
    basis = []
    for q, dim in enumerate(big.pieces):
        cols = [gens[q]]
        if q:
            cols += [matmul_mod(a, basis[-1], 101) for a in big.action[q - 1]]
        cols = np.hstack(cols)
        basis.append(cols[:, rref(cols, 101)[1]] if cols.size else np.zeros((dim, 0), dtype=np.int64))
    return basis


def homogeneous(rng, weights: np.ndarray, weight: int, count: int) -> np.ndarray:
    """``count`` random columns supported on the coordinates of one weight."""
    return rng.integers(0, 101, (len(weights), count)) * (weights == weight)[:, None]


def submodules(rng, big: GradedModule) -> tuple[list, list]:
    """Bases of homogeneous submodules rel <= sub of ``big`` in degrees 0..3: sub generated by a
    weight-0 vector of degree 0 and two weight-1 vectors of degree 1, rel by a random combination
    of the sub_1 columns of weight 0."""
    empty = [np.zeros((d, 0), dtype=np.int64) for d in big.pieces]
    gens = [homogeneous(rng, big.weights[0], 0, 1), homogeneous(rng, big.weights[1], 1, 2)]
    sub = generated(big, gens + empty[2:])
    of_weight = np.where(sub[1] != 0, big.weights[1][:, None], -1).max(axis=0, initial=-1) == 0
    mix = rng.integers(0, 101, (int(of_weight.sum()), 1))
    return sub, generated(big, [empty[0], matmul_mod(sub[1][:, of_weight], mix, 101), *empty[2:]])


class TestSubquotientOfCopies:
    """``subquotient`` of sub and rel in w copies of M, against the same
    subquotient of the block-diagonal module of w copies."""

    @pytest.mark.parametrize("w", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_block_diagonal_module(self, w, seed):
        rng = np.random.default_rng(seed)
        mod = weighted_module(rng)
        big = block_diagonal(mod, w)
        sub, rel = submodules(rng, big)
        got, want = subquotient(mod, sub, rel), subquotient(big, sub, rel)
        assert got.n == want.n and got.pieces == want.pieces
        for a, b in zip(got.action + (got.v_weights,) + got.weights, want.action + (want.v_weights,) + want.weights):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not got.v_weights.any() and not any(wt.any() for wt in got.weights)  # trivially graded

    @pytest.mark.parametrize("rows", [(2, 6, 12, 21), (2, 6, 12, 19), (1, 6, 12, 20), (3, 6, 12, 20)])
    def test_bad_row_counts(self, rows):
        # two copies of pieces (1, 3, 6, 10) need rows (2, 6, 12, 20) in sub and in rel
        mod = polynomial_module(3, 3)
        sub = [np.zeros((r, 0), dtype=np.int64) for r in rows]
        with pytest.raises(InconsistentDims):
            subquotient(mod, sub, sub)
        good = [np.zeros((2 * d, 0), dtype=np.int64) for d in mod.pieces]
        with pytest.raises(InconsistentDims):
            subquotient(mod, good, sub)


def charted(sub, rel) -> list:
    """One ``Chart`` a degree of span(sub_q) / span(rel_q), the way ``koszul_cohomology`` builds
    one: sub_q as the kernel of a map, its annihilator, and rel_q by its free coordinates."""
    charts = []
    for s, r in zip(sub, rel):
        chart = Chart.kernel(kernel_basis(s.T, 101).T, 101)
        charts.append(chart.modulo(r[chart.free], 101))
    return charts


def kernel_bases(charts) -> list:
    """The canonical basis of each chart's kernel: the lifts of the unit vectors."""
    return [c.lifted(np.eye(len(c.free), dtype=np.int64), 101) for c in charts]


class TestChart:
    """``Chart.coordinates``, the one membership test, and the chart of a whole space."""

    def test_coordinates_are_the_free_rows_of_cocycles(self):
        rng = np.random.default_rng(3)
        d = matmul_mod(rng.integers(0, 101, size=(5, 3)), rng.integers(0, 101, size=(3, 9)), 101)
        chart = Chart.kernel(d, 101)
        assert len(chart.pivots) == 3 and len(chart.free) == 6
        u = rng.integers(0, 101, size=(6, 4))
        y = chart.lifted(u, 101)
        assert not matmul_mod(d, y, 101).any()
        got = chart.coordinates(y, 101)
        assert np.array_equal(got, u) and np.array_equal(got, y[chart.free])

    @pytest.mark.parametrize("column", [0, 3])
    @pytest.mark.parametrize("row", ["pivot", "free"])
    def test_a_tampered_column_leaves_the_kernel(self, row, column):
        rng = np.random.default_rng(4)
        d = rng.integers(0, 101, size=(3, 8))
        chart = Chart.kernel(d, 101)
        y = chart.lifted(rng.integers(0, 101, size=(len(chart.free), 4)), 101)
        # a free coordinate moves the column off its lift: d has no zero column here
        at = (chart.pivots if row == "pivot" else chart.free)[0]
        y[at, column] = (y[at, column] + 1) % 101
        assert matmul_mod(d, y, 101)[:, column].any()
        assert chart.coordinates(y, 101) is None

    def test_the_whole_space(self):
        # the kernel of a map with no rows: every coordinate free, nothing to lift
        chart = Chart.kernel(np.zeros((0, 6), dtype=np.int64), 101)
        assert chart.pivots.size == 0 and np.array_equal(chart.free, np.arange(6)) and chart.lift.shape == (0, 6)
        assert (chart.size, chart.dim) == (6, 6) and np.array_equal(chart.kept, np.arange(6))
        y = np.random.default_rng(5).integers(0, 101, size=(6, 3))
        assert np.array_equal(chart.coordinates(y, 101), y)
        assert np.array_equal(chart.classes(y, 101), y)  # modulo nothing
        # modulo two columns: their span is the zero class, four unit vectors are kept
        b = np.array([[1, 0], [2, 0], [0, 1], [0, 3], [0, 0], [5, 7]], dtype=np.int64)
        quotient = chart.modulo(b, 101)
        assert quotient.dim == 4 and chart.dim == 6
        assert np.array_equal(quotient.rel_pivots, [0, 2]) and np.array_equal(quotient.kept, [1, 3, 4, 5])
        assert not quotient.classes(b, 101).any()
        assert np.array_equal(quotient.classes(np.eye(6, dtype=np.int64)[:, quotient.kept], 101), np.eye(4))
        # a class is the kept part of y minus what the relation rows carry there
        assert np.array_equal(quotient.classes(np.eye(6, dtype=np.int64)[:, [0]], 101).ravel(), [99, 0, 0, 96])
        # kept is a field, built with the chart, not recomputed on each read
        assert quotient.kept is quotient.kept


class TestCohomology:
    """``cohomology`` of charted quotients in w copies of M, against the ``subquotient`` oracle."""

    @pytest.mark.parametrize("w", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_subquotient_oracle(self, w, seed):
        # the oracle, handed the canonical kernel basis, keeps its last columns
        # independent of rel and of the later ones: the unit vectors the chart keeps
        rng = np.random.default_rng(seed)
        mod = weighted_module(rng)
        sub, rel = submodules(rng, block_diagonal(mod, w))
        charts = charted(sub, rel)
        got = mod.cohomology(iter(charts))
        want = subquotient(mod, kernel_bases(charts), rel)
        assert got.n == want.n and got.pieces == want.pieces == tuple(c.dim for c in charts)
        for a, b in zip(got.action + (got.v_weights,) + got.weights, want.action + (want.v_weights,) + want.weights):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_scrambled_bases_against_the_hand_built_module(self):
        # TestSubquotient's J / I in scrambled coordinates, charted
        rng = np.random.default_rng(5)
        n, window = TestSubquotient.N, TestSubquotient.WINDOW
        plain = polynomial_module(n, window)
        change = [invertible(d, rng) for d in plain.pieces]
        inverse = [solve(c, np.eye(len(c), dtype=np.int64), 101) for c in change]
        action = tuple(
            np.stack([matmul_mod(change[q + 1], matmul_mod(a[k], inverse[q], 101), 101) for k in range(n)])
            for q, a in enumerate(plain.action)
        )
        ambient = GradedModule(F101, n, plain.pieces, action)
        sub, rel = [], []
        for q in range(window + 1):
            for basis, gens in ((sub, TestSubquotient.J), (rel, TestSubquotient.I)):
                basis.append(matmul_mod(change[q], monomial_columns(n, q, gens), 101))
        module = ambient.cohomology(charted(sub, rel))
        pieces, actions = TestSubquotient().hand_built()
        assert list(module.pieces) == pieces == [0, 2, 4, 4, 3]
        calc = KoszulCalculator(module)
        for q in range(window):
            for i in range(n + 1):
                assert calc.dim(i, q) == oracle_koszul_dim(n, pieces, actions, i, q, 101), (i, q)
        module.check_commutativity()

    def test_sub_not_preserved(self):
        # sub_1 = <x_0>, but x_1 . 1 = x_1
        mod = polynomial_module(2, 2)
        sub = [np.eye(1, dtype=np.int64), np.array([[1], [0]], dtype=np.int64), np.eye(3, dtype=np.int64)]
        rel = [np.zeros((d, 0), dtype=np.int64) for d in mod.pieces]
        with pytest.raises(NotASubmodule, match="maps sub_0 outside sub_1"):
            mod.cohomology(charted(sub, rel))

    def test_rel_not_preserved(self):
        # rel_1 = <x_0>, but x_0 . x_0 is not in rel_2 = 0
        mod = polynomial_module(2, 2)
        sub = [np.eye(d, dtype=np.int64) for d in mod.pieces]
        rel = [np.zeros((1, 0), dtype=np.int64), np.array([[1], [0]], dtype=np.int64), np.zeros((3, 0), dtype=np.int64)]
        with pytest.raises(NotASubmodule, match="maps rel_1 outside rel_2"):
            mod.cohomology(charted(sub, rel))

    def test_wrong_sizes_and_counts(self):
        # two copies of pieces (1, 3, 6, 10) need charts of sizes (2, 6, 12, 20)
        mod = polynomial_module(3, 3)
        whole = [Chart.kernel(np.zeros((0, r), dtype=np.int64), 101) for r in (2, 6, 12, 20)]
        assert mod.cohomology(whole).pieces == (2, 6, 12, 20)
        for charts in (whole[:3] + [whole[2]], [whole[1]] + whole[1:], whole[:3], whole + whole[:1]):
            with pytest.raises(InconsistentDims):
                mod.cohomology(charts)

    def test_zero_pieces_and_no_acting_space(self):
        # a zero piece between nonzero ones, then n = 0, where every action tensor is empty
        mod = GradedModule(F101, 2, (1, 0, 2), (np.zeros((2, 0, 1), dtype=np.int64), np.zeros((2, 2, 0), dtype=np.int64)))
        res = mod.cohomology(Chart.kernel(np.zeros((0, d), dtype=np.int64), 101) for d in mod.pieces)
        assert res.pieces == (1, 0, 2) and [a.shape for a in res.action] == [(2, 0, 1), (2, 2, 0)]
        mod = GradedModule(F101, 0, (2, 3), (np.zeros((0, 3, 2), dtype=np.int64),))
        sub = [np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)[:, :2]]
        rel = [np.array([[1], [1]], dtype=np.int64), np.zeros((3, 0), dtype=np.int64)]
        res = mod.cohomology(charted(sub, rel))
        assert res.n == 0 and res.pieces == (1, 2) and res.action[0].shape == (0, 2, 1)
