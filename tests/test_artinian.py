"""Betti tables by Artinian reduction, against the direct computation.

`betti_table` takes its Koszul ranks on A / (l1, l2) whenever the
regular-sequence certificate of `GradedAlgebra.artinian_reduction` holds.
The oracle is the direct computation on A itself, cell by cell.  The
direct path ranks one weight block at a time, so `direct_cells` leaves out
a cell only when its largest weight block would be too large to build in
a test; up to p_a = 9 no cell is.  The reduction itself, read off one
elimination per degree, is checked array for array against the subquotient
it replaces (`oracles.artinian_by_subquotient`).
"""

import numpy as np
import pytest

import oracles
from ribbonsyz import fflinalg, graded, koszul
from ribbonsyz.curves import HyperellipticCurve, random_hyperelliptic, random_plane_curve
from ribbonsyz.fflinalg import PrimeField
from ribbonsyz.graded import GradedAlgebra
from ribbonsyz.koszul import KoszulCalculator, betti_table
from ribbonsyz.ribbon import build_split_ribbon

from oracles import artinian_by_subquotient, oracle_koszul_dim

F101 = PrimeField(101)

# Largest direct weight block the oracle builds, in entries (64 MB as
# int64).  Every table cell of a ring with p_a <= 9 fits, and 25 of the 36
# cells of the genus-0 ribbon with p_a = 10.
DIRECT_MAX_ENTRIES = 8_000_000


def largest_block(calc: KoszulCalculator, p: int, q: int) -> int:
    """Entries of the largest matrix that ranking d_{p,q} builds: its largest
    weight block under the grading the calculator ranks by (the whole cell
    under the trivial grading of a module whose certificate fails)."""
    module = calc.module
    if p <= 0 or q < 0 or p > module.n:
        return 0
    cols = np.bincount(koszul._total_weights(module, p, q))
    rows = np.bincount(koszul._total_weights(module, p - 1, q + 1))
    k = min(cols.size, rows.size)
    return int((cols[:k] * rows[:k]).max(initial=0))


def direct_cells(algebra, max_entries: int = DIRECT_MAX_ENTRIES) -> dict:
    """{(q, p): b_{p,q}} computed on the unreduced ring.

    Covers every cell of rows 0..3 whose two differentials have no block
    of more than ``max_entries`` entries.
    """
    calc = KoszulCalculator(algebra)
    return {
        (q, p): calc.dim(p, q)
        for q in range(4)
        for p in range(calc.module.n - 1)
        if largest_block(calc, p, q) <= max_entries and largest_block(calc, p + 1, q - 1) <= max_entries
    }


def compare_with_direct(ring, table=None) -> int:
    """Assert the reduced table equals the direct cells; return how many were compared."""
    table = ring.betti() if table is None else table
    assert table.method == "artinian"
    cells = direct_cells(ring.algebra)
    for (q, p), dim in cells.items():
        assert table.entries[q, p] == dim, (q, p)
    if ring.p_a <= 9:
        assert len(cells) == table.entries.size
    return len(cells)


def algebra_of(module) -> GradedAlgebra:
    """A reduction with B_4 = 0, read back as an algebra over its degree-one piece.

    The reduced module's acting space and B_1 share their coordinates, so
    its action tensors past degree 0 are the algebra's degree-one products.
    """
    dims = module.pieces
    assert len(dims) == 5 and dims[4] == 0
    return GradedAlgebra(module.field, dims, module.action[1:])


def test_seeded_quartics():
    for seed in (1, 2):
        ring = build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(seed)), 1)
        assert compare_with_direct(ring) == 32


def test_seeded_genus2_hyperelliptics():
    for seed in (2, 3):
        ring = build_split_ribbon(random_hyperelliptic(F101, 2, np.random.default_rng(seed)), 5)
        assert ring.p_a == 8
        compare_with_direct(ring)


@pytest.mark.parametrize(
    "p, k", [(7, 4), (7, 6), (7, 9), (3, 4), (3, 6)]
)  # genus-0 ribbons over small fields, p_a = k - 1
def test_genus0_small_fields(p, k):
    compare_with_direct(build_split_ribbon(HyperellipticCurve(PrimeField(p), [0, 1]), k))


def test_reduction_pieces_and_certificate():
    ring = build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(0)), 1)
    rng = np.random.default_rng(5)
    l1, l2 = rng.integers(0, 101, size=(2, 9))
    module = ring.algebra.artinian_reduction(l1, l2)
    assert module.n == 7 and module.pieces == (1, 7, 7, 1, 0)
    module.check_commutativity()
    # dependent forms are not a regular sequence, and neither is l1 = 0
    assert ring.algebra.artinian_reduction(l1, 2 * l1) is None
    assert ring.algebra.artinian_reduction(0 * l1, l2) is None


def test_artinian_input_answers_directly():
    # the quartic ribbon's reduction, read back as an algebra: its table is
    # the ribbon's (the hyperplane-section property) cut to p <= 5
    ring = build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(0)), 1)
    artinian = algebra_of(koszul._artinian_module(ring.algebra))
    assert artinian.pieces == (1, 7, 7, 1, 0)
    assert koszul._artinian_module(artinian) is None
    table = betti_table(artinian)
    assert table.method == "direct"
    assert np.array_equal(table.entries, ring.betti().entries[:, :6])


def test_artinian_input_against_naive_oracle():
    ring = build_split_ribbon(HyperellipticCurve(F101, [0, 1]), 6)  # p_a = 5
    artinian = algebra_of(koszul._artinian_module(ring.algebra))
    assert artinian.pieces == (1, 3, 3, 1, 0)
    table = betti_table(artinian)
    assert table.method == "direct"
    module = artinian
    actions = [[module.action[q][k].tolist() for k in range(module.n)] for q in range(module.window)]
    for q in range(4):
        for p in range(table.p_a - 1):
            want = oracle_koszul_dim(module.n, module.pieces, actions, p, q, 101)
            assert table.entries[q, p] == want, (q, p)


def test_every_draw_failing_falls_back(monkeypatch):
    ring = build_split_ribbon(HyperellipticCurve(F101, [0, 1]), 6)
    reduced = ring.betti()
    calls = []

    def refuse(self, l1, l2):
        calls.append((tuple(l1), tuple(l2)))
        return None

    monkeypatch.setattr(GradedAlgebra, "artinian_reduction", refuse)
    table = ring.betti()
    assert table.method == "direct"
    assert len(calls) == koszul._REDUCTION_DRAWS
    assert len(set(calls)) == len(calls)  # each retry draws new forms
    assert np.array_equal(table.entries, reduced.entries)


def test_degree_one_below_two_answers_directly(monkeypatch):
    # k[x] through degree 4: there is no second linear form to cut with
    one = np.ones((1, 1, 1), dtype=np.int64)
    alg = GradedAlgebra(F101, [1, 1, 1, 1, 1], [one, one, one])
    monkeypatch.setattr(GradedAlgebra, "artinian_reduction", lambda *a: pytest.fail("drew forms"))
    assert betti_table(alg).method == "direct"


def test_table_is_a_pure_function_of_the_algebra():
    ring = build_split_ribbon(random_hyperelliptic(F101, 1, np.random.default_rng(3)), 6)
    np.random.seed(1)
    a = ring.betti()
    np.random.seed(2)
    b = ring.betti()
    assert a.method == b.method == "artinian"
    assert a.to_json_obj() == b.to_json_obj()


@pytest.fixture(scope="module")
def reduction_rings():
    """Quartic seeds 0-2, genus-2 seeds 1-3, and genus-0 ribbons over F_3 and F_7."""
    rings = [build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(s)), 1) for s in (0, 1, 2)]
    rings += [build_split_ribbon(random_hyperelliptic(F101, 2, np.random.default_rng(s)), 5) for s in (1, 2, 3)]
    rings += [build_split_ribbon(HyperellipticCurve(PrimeField(p), [0, 1]), k) for p in (3, 7) for k in (4, 6)]
    return [ring.algebra for ring in rings]


def form_pairs(alg, rng, each: int = 5):
    """(kind, l1, l2): ``each`` pairs of five kinds, valid or not as regular sequences."""
    p, n = alg.field.p, alg.n
    eps = alg.weights[1] == 1
    for _ in range(each):
        l1, l2 = rng.integers(0, p, size=(2, n))
        yield "random", l1, l2
        i, j = rng.integers(0, n, size=2)
        yield "one coordinate each", np.eye(n, dtype=np.int64)[i] * rng.integers(1, p), np.eye(n, dtype=np.int64)[j]
        yield "l2 in span(l1)", l1, l1 * rng.integers(0, p) % p
        yield "l1 = 0", 0 * l1, l2
        yield "weight-1 coordinates", l1 * eps, l2 * eps


def test_reduction_equals_the_subquotient(reduction_rings):
    rng = np.random.default_rng(17)
    pairs = certified = 0
    for alg in reduction_rings:
        for kind, l1, l2 in form_pairs(alg, rng):
            got, want = alg.artinian_reduction(l1, l2), artinian_by_subquotient(alg, l1, l2)
            pairs += 1
            assert (got is None) == (want is None), kind
            if got is None:
                continue
            certified += 1
            assert (got.n, got.pieces) == (want.n, want.pieces), kind
            assert np.array_equal(got.v_weights, want.v_weights)
            for mine, theirs in zip(got.action + got.weights, want.action + want.weights, strict=True):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), kind
    assert pairs >= 200
    assert 0 < certified < pairs


def test_reduction_makes_one_rref_per_degree(monkeypatch):
    # one relation RREF per degree, the top degree included, where
    # B_{q+1} = 0; before it, the chart of all of A_{q+1} reduces a map
    # with no rows
    alg = build_split_ribbon(random_plane_curve(F101, 4, np.random.default_rng(0)), 1).algebra
    l1, l2 = np.random.default_rng(5).integers(0, 101, size=(2, alg.n))
    calls = []
    real = fflinalg.rref

    def refuse(*args, **kwargs):
        pytest.fail("the reduction eliminated outside its certificate")

    monkeypatch.setattr(graded, "rref", lambda a, p: calls.append(np.shape(a)) or real(a, p))
    monkeypatch.setattr(graded.GradedModule, "cohomology", refuse)
    monkeypatch.setattr(oracles, "subquotient", refuse)
    monkeypatch.setattr(oracles, "module_restrict_action", refuse)
    for name in ("rank", "pivots"):
        monkeypatch.setattr(fflinalg, name, refuse)
    for name in ("rank", "pivots", "module_restrict_action", "_classes"):
        assert not hasattr(graded, name)
    assert not hasattr(graded.Chart, "misses")
    module = alg.artinian_reduction(l1, l2)
    assert module.pieces == (1, 7, 7, 1, 0)
    # for each q <= window - 1: the empty kernel, then [l1 A_q | l2 A_q]^T
    assert calls == [
        shape for q in range(alg.window) for shape in ((0, alg.pieces[q + 1]), (2 * alg.pieces[q], alg.pieces[q + 1]))
    ]
