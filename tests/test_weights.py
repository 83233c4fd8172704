"""Connected components of Koszul cells, against the whole-cell computation.

``KoszulCalculator`` ranks each cell one connected component of its
nonzero pattern at a time (``koszul._pattern``, ``koszul._components``).
The oracle is the rank of the whole assembled cell, and for the vectorised
assembler the python loop it replaced (``oracles.loop_koszul_differential``).
A split ribbon's ring S~ = S (+) epsilon J has epsilon-weights, S at 0 and
epsilon J at 1, that the package no longer carries: the tests recompute
them (``oracles.epsilon_weights``, ``oracles.reduced_epsilon_weights``) to
check that the components refine the weight blocks, and that a tampered
cross-weight entry merges components without changing any rank.
"""

import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ribbonsyz import fflinalg, koszul, ribbon
from ribbonsyz.curves import (
    HyperellipticCurve,
    random_hyperelliptic,
    random_plane_curve,
    random_split_cubic,
)
from ribbonsyz.fflinalg import PrimeField, rank
from ribbonsyz.graded import Chart, GradedModule
from ribbonsyz.koszul import KoszulCalculator, koszul_differential
from ribbonsyz.ribbon import build_split_ribbon

import oracles
from oracles import colex, colex_rank, loop_koszul_differential, module_restrict_action, total_weights

PRIMES = (2, 13, 101, 1048573)


def zoo(p: int = 101):
    """(name, ring) for the five curve families, each with p_a between 6 and 9."""
    f = PrimeField(p)
    return [
        ("plane quartic", build_split_ribbon(random_plane_curve(f, 4, np.random.default_rng(0)), 1)),
        ("genus 0", build_split_ribbon(HyperellipticCurve(f, [0, 1]), 8)),
        ("hyperelliptic g=2", build_split_ribbon(random_hyperelliptic(f, 2, np.random.default_rng(1)), 4)),
        ("hyperelliptic g=3", build_split_ribbon(random_hyperelliptic(f, 3, np.random.default_rng(2)), 2)),
        ("elliptic", build_split_ribbon(random_split_cubic(f, np.random.default_rng(3)), 6)),
    ]


def reduced(ring):
    """The Artinian reduction that ``ring.betti()`` ranks: forms drawn on S_1."""
    return koszul._artinian_module(ring.algebra, ring.support)


@pytest.fixture(scope="module")
def gate_ring():
    """W6: the split ribbon over a genus-3 hyperelliptic curve at p_a = 14, the 6g - 4 gate."""
    return build_split_ribbon(random_hyperelliptic(PrimeField(101), 3, np.random.default_rng(0)), 9)


@pytest.fixture(scope="module")
def w5_ring():
    """W5: the split ribbon over a genus-2 hyperelliptic curve at p_a = 12."""
    return build_split_ribbon(random_hyperelliptic(PrimeField(101), 2, np.random.default_rng(0)), 9)


def components(module, p: int, q: int) -> list:
    return koszul._components(*koszul._pattern(module, p, q))


def cells(module: GradedModule):
    return [(p, q) for q in range(module.window) for p in range(module.n + 2)]


def whole_rank(module: GradedModule, p: int, q: int) -> int:
    full = koszul_differential(module, p, q)
    return rank(full, module.field.p) if full.size and p > 0 else 0


def whole_table(module: GradedModule) -> list:
    """The Koszul table of ``KoszulCalculator.dim``, from whole-cell ranks."""
    n = module.n
    return [
        [math.comb(n, p) * module.pieces[q] - whole_rank(module, p, q) - (whole_rank(module, p + 1, q - 1) if q else 0) for p in range(n + 1)]
        for q in range(module.window)
    ]


def assert_split_matches_unsplit(module: GradedModule, max_entries: int | None = None) -> int:
    """Summed component ranks equal the rank of the whole cell on every cell (of at most
    ``max_entries`` entries when given); returns the cells compared."""
    calc = KoszulCalculator(module)
    compared = 0
    for p, q in cells(module):
        n_rows = math.comb(module.n, p - 1) * module.pieces[q + 1] if p else 0
        if max_entries is not None and n_rows * math.comb(module.n, p) * module.pieces[q] > max_entries:
            continue
        assert calc.rank_d(p, q) == whole_rank(module, p, q), (p, q)
        compared += 1
    return compared


def random_weighted_module(rng, prime: int) -> tuple[GradedModule, np.ndarray, list]:
    """A random module whose action respects random weights (not commuting), and those weights."""
    n = int(rng.integers(2, 6))
    pieces = tuple(int(d) for d in rng.integers(0, 5, size=4))
    v_weights = rng.integers(0, 2, n)
    weights = [rng.integers(0, 3, d) for d in pieces]
    action = []
    for q in range(3):
        a = rng.integers(0, prime, (n, pieces[q + 1], pieces[q]))
        allowed = weights[q + 1][None, :, None] == v_weights[:, None, None] + weights[q][None, None, :]
        action.append(np.where(allowed, a, 0))
    return GradedModule(PrimeField(prime), n, pieces, tuple(action)), v_weights, weights


def assert_refines(module, v_weights, weights, p: int, q: int) -> None:
    """Every component of d_{p,q} lies in one weight block, and per weight the components
    cover the block's nonzero rows and columns."""
    src, tgt = total_weights(v_weights, p, weights[q]), total_weights(v_weights, p - 1, weights[q + 1])
    full = koszul_differential(module, p, q)
    for rows, cols in components(module, p, q):
        assert len(set(tgt[rows].tolist()) | set(src[cols].tolist())) == 1, (p, q)
    covered = np.zeros(full.shape, dtype=bool)
    for rows, cols in components(module, p, q):
        covered[np.ix_(rows, cols)] = True
    assert not np.any(full[~covered]), (p, q)


def tampered(module: GradedModule, v_weights, weights) -> GradedModule:
    """``module`` with one cross-weight entry: a weight-1 x_k sends a weight-1 vector of M_1
    to a weight-0 one of M_2."""
    action = [a.copy() for a in module.action]
    k = int(np.flatnonzero(v_weights == 1)[0])
    i = int(np.flatnonzero(weights[2] == 0)[0])
    j = int(np.flatnonzero(weights[1] == 1)[0])
    action[1][k, i, j] = 1 + action[1][k, i, j]
    return replace(module, action=tuple(action))


class TestWedgeArrays:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_colex_subsets_and_faces(self, n):
        for p in range(0, n + 2):
            subsets, faces = koszul._wedge_arrays(n, p)
            want = colex(n, p)
            assert subsets.shape == (len(want), p)
            assert [tuple(s) for s in subsets.tolist()] == want
            for r, s in enumerate(want):
                for j in range(p):
                    assert faces[r, j] == colex_rank(s[:j] + s[j + 1 :])


class TestPattern:
    """The pattern is the nonzero set of the cell, and the components are those of its graph."""

    def test_pattern_is_the_nonzero_set_of_the_cell(self):
        # every action entry is reduced mod p, so each pattern entry is a
        # signed nonzero entry: the pattern is exactly the cell's nonzeros
        modules = [reduced(ring) for _, ring in zoo()] + [zoo()[2][1].algebra]
        rng = np.random.default_rng(5)
        modules += [random_weighted_module(rng, prime)[0] for prime in PRIMES]
        for module in modules:
            for p, q in cells(module):
                rows, cols = koszul._pattern(module, p, q)
                want = math.comb(module.n - 1, p - 1) * np.count_nonzero(module.action[q]) if p >= 1 else 0
                assert len(rows) == len(cols) == want, (p, q)
                full = koszul_differential(module, p, q)
                got = set(zip(rows.tolist(), cols.tolist()))
                assert len(got) == want and got == set(zip(*map(np.ndarray.tolist, np.nonzero(full)))), (p, q)

    @pytest.mark.parametrize("seed", range(6))
    def test_components_against_union_find(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = (int(d) for d in rng.integers(1, 40, size=2))
        count = int(rng.integers(0, 60))
        rows, cols = rng.integers(0, n_rows, count), rng.integers(0, n_cols, count)
        parent = list(range(n_rows + n_cols))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for r, c in zip(rows.tolist(), cols.tolist()):
            parent[root(r)] = root(n_rows + c)
        groups = {}
        for r in sorted(set(rows.tolist())):
            groups.setdefault(root(r), ([], []))[0].append(r)
        for c in sorted(set(cols.tolist())):
            groups.setdefault(root(n_rows + c), ([], []))[1].append(c)
        want = sorted((tuple(r), tuple(c)) for r, c in groups.values())
        got = koszul._components(rows, cols)
        assert [int(c[0]) for _, c in got] == sorted(int(c[0]) for _, c in got)  # ordered by first column
        assert sorted((tuple(r.tolist()), tuple(c.tolist())) for r, c in got) == want

    @pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
    def test_a_long_path_takes_few_rounds(self, order, monkeypatch):
        # a path through 20000 rows and columns is one component; its roots
        # fall by a fraction each round, so it takes about log2 of its length
        # in rounds, where moving labels one hop a round would take thousands
        n = 20000
        perm = {"sorted": np.arange(n), "reversed": np.arange(n)[::-1]}.get(order)
        rows, cols = (np.random.default_rng(7).permutation(n) for _ in range(2)) if perm is None else (perm, perm)
        hooks = []

        class Minimum:
            __call__ = staticmethod(np.minimum)

            def at(self, *args):
                hooks.append(args)
                np.minimum.at(*args)

        counting = SimpleNamespace(**vars(np))
        counting.minimum = Minimum()
        monkeypatch.setattr(koszul, "np", counting)
        ((got_rows, got_cols),) = koszul._components(np.concatenate([rows, rows[:-1]]), np.concatenate([cols, cols[1:]]))
        assert np.array_equal(got_rows, np.arange(n)) and np.array_equal(got_cols, np.arange(n))
        assert len(hooks) // 2 <= 20

    def test_zero_cell_and_empty_sides(self):
        # no entry, no component, rank 0, nothing assembled
        field = PrimeField(101)
        zero = GradedModule(field, 3, (2, 3, 4), (np.zeros((3, 3, 2), dtype=np.int64), np.zeros((3, 4, 3), dtype=np.int64)))
        empty = GradedModule(field, 3, (2, 0, 4), (np.zeros((3, 0, 2), dtype=np.int64), np.zeros((3, 4, 0), dtype=np.int64)))
        for module in (zero, empty):
            calc = KoszulCalculator(module)
            for p in range(1, 4):
                for q in (0, 1):
                    assert components(module, p, q) == []
                    assert calc.rank_d(p, q) == 0 == whole_rank(module, p, q)
        assert koszul_differential(empty, 2, 0).shape == (0, 6)


class TestAssembler:
    def test_matches_loop_on_the_zoo(self):
        for name, ring in zoo():
            for module in (ring.algebra, reduced(ring)):
                for p, q in cells(module):
                    if math.comb(module.n, p) * module.pieces[q] > 4000:
                        continue
                    got = koszul_differential(module, p, q)
                    assert np.array_equal(got, loop_koszul_differential(module, p, q)), (name, p, q)

    @pytest.mark.parametrize("prime", PRIMES)
    def test_matches_loop_on_random_modules(self, prime):
        rng = np.random.default_rng(prime)
        for _ in range(6):
            module = random_weighted_module(rng, prime)[0]
            for p, q in cells(module):
                got = koszul_differential(module, p, q)
                assert np.array_equal(got, loop_koszul_differential(module, p, q)), (p, q)

    def test_blocks_are_the_weight_slices_and_cover_the_cell(self):
        # each component of the quartic's reduction is the slice of the cell
        # on its rows and columns, lies in one epsilon-weight block, and the
        # components hold every nonzero; in row 1 each weight block's nonzero
        # rows and columns are one component
        _, ring = zoo()[0]
        module = reduced(ring)
        weights = oracles.reduced_epsilon_weights(ring)
        for p, q in cells(module):
            full = koszul_differential(module, p, q)
            covered = 0
            for rows, cols in components(module, p, q):
                block = koszul_differential(module, p, q, (rows, cols))
                assert np.array_equal(block, full[np.ix_(rows, cols)]), (p, q)
                covered += np.count_nonzero(block)
            assert covered == np.count_nonzero(full), (p, q)
            if p:
                assert_refines(module, weights[1], weights, p, q)
            if q == 1 and p:
                src = total_weights(weights[1], p, weights[1])
                live = np.flatnonzero(full.any(axis=0))
                assert len(components(module, p, q)) == len(set(src[live].tolist())), p

    def test_quartic_block_shapes(self):
        # d_{4,1} of the quartic's reduced module: 245 x 245 whole, 108 x 108 at most
        _, ring = zoo()[0]
        module = reduced(ring)
        assert koszul_differential(module, 4, 1).shape == (245, 245)
        shapes = [koszul_differential(module, 4, 1, block).shape for block in components(module, 4, 1)]
        assert shapes == [(12, 4), (70, 51), (108, 108), (51, 70), (4, 12)]
        assert sum(r for r, _ in shapes) == 245 and sum(c for _, c in shapes) == 245

    def test_block_argument_is_a_submatrix(self):
        # with no 4th argument the whole cell; with (rows, cols) its slice on them
        _, ring = zoo()[0]
        module = ring.algebra
        full = koszul_differential(module, 2, 1)
        assert full.shape == koszul._cell_shape(module, 2, 1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            rows = np.flatnonzero(rng.random(full.shape[0]) < 0.3)
            cols = np.flatnonzero(rng.random(full.shape[1]) < 0.3)
            assert np.array_equal(koszul_differential(module, 2, 1, (rows, cols)), full[np.ix_(rows, cols)])
        everything = (np.arange(full.shape[0]), np.arange(full.shape[1]))
        assert np.array_equal(koszul_differential(module, 2, 1, everything), full)


class TestSplitRanks:
    def test_zoo_cells(self):
        # every cell of the reduced modules the tables use; the direct modules'
        # cells up to 3 000 000 entries
        compared = 0
        for name, ring in zoo():
            compared += assert_split_matches_unsplit(reduced(ring))
            compared += assert_split_matches_unsplit(ring.algebra, 3_000_000)
        assert compared > 150

    @pytest.mark.parametrize("prime", (13, 1048573))
    def test_ribbons_over_other_fields(self, prime):
        for name, ring in zoo(prime)[:3]:
            assert_split_matches_unsplit(reduced(ring))
            assert ring.betti().method == "artinian"

    @pytest.mark.parametrize("prime", PRIMES)
    def test_random_weighted_modules(self, prime):
        # the components are found without the weights, and refine them
        rng = np.random.default_rng(1000 + prime)
        for _ in range(8):
            module, v_weights, weights = random_weighted_module(rng, prime)
            assert_split_matches_unsplit(module)
            for p, q in cells(module):
                if 1 <= p <= module.n:
                    assert_refines(module, v_weights, weights, p, q)

    def test_w5_and_w6_cells(self, w5_ring, gate_ring):
        # the reductions that W5's and W6's tables rank, every cell of at
        # most 3 000 000 entries
        assert assert_split_matches_unsplit(reduced(w5_ring), 3_000_000) > 30
        assert assert_split_matches_unsplit(reduced(gate_ring), 3_000_000) > 30

    @pytest.mark.parametrize("genus", (3, 4))
    def test_direct_rings(self, genus):
        # hyperelliptic --conormal -1: no reduction is certified, the table
        # ranks the ring itself, and its cells split far finer than its
        # epsilon-weights
        ring = build_split_ribbon(random_hyperelliptic(PrimeField(101), genus, np.random.default_rng(0)), 1)
        assert reduced(ring) is None and ring.betti().method == "direct"
        assert assert_split_matches_unsplit(ring.algebra, 3_000_000) > 20
        weights = oracles.epsilon_weights(ring)
        blocks = len(set(total_weights(weights[1], 3, weights[1]).tolist()))
        assert len(components(ring.algebra, 3, 1)) > 4 * blocks

    def test_each_block_is_dropped_before_the_next_is_built(self, monkeypatch):
        # rank_d holds no block past its rank call: when a block is built,
        # every block built before it is already freed
        module = reduced(zoo()[0][1])
        built = []
        assemble = koszul.koszul_differential

        def tracked(*args):
            assert all(ref() is None for ref in built)
            block = assemble(*args)
            built.append(weakref.ref(block))
            return block

        monkeypatch.setattr(koszul, "koszul_differential", tracked)
        calc = KoszulCalculator(module)
        counts = []
        for p in range(1, module.n + 1):
            before = len(built)
            calc.rank_d(p, 1)
            counts.append(len(built) - before)
        assert max(counts) > 1  # some cell is ranked in several blocks
        assert all(ref() is None for ref in built)


class TestCertificate:
    """What the weight certificate once checked, read off the components."""

    def test_reduction_keeps_the_weights(self):
        # the forms lie in S_1, so the reduction respects the epsilon-weights
        # of the coordinates it keeps and keeps the J_1 coordinates in V
        for name, ring in zoo():
            module = reduced(ring)
            weights = oracles.reduced_epsilon_weights(ring)
            assert [len(w) for w in weights] == list(module.pieces), name
            assert oracles.respects(module, weights[1], weights), name
            assert ring.betti().method == "artinian", name
            assert np.count_nonzero(weights[1]) == np.count_nonzero(~ring.support), name

    def test_tampered_cross_block_entry_merges_components(self):
        # one cross-weight entry: the weights are no longer respected, the
        # components of every cell it reaches merge across them, and the table
        # is the one ranked whole, cell by cell
        _, ring = zoo()[2]
        module = reduced(ring)
        weights = oracles.reduced_epsilon_weights(ring)
        bad = tampered(module, weights[1], weights)
        assert not oracles.respects(bad, weights[1], weights)
        calc = KoszulCalculator(bad)
        merged = mismatched = 0
        for p, q in cells(bad):
            if p == 0 or q != 1:
                continue
            assert calc.rank_d(p, q) == whole_rank(bad, p, q), p
            merged += len(components(bad, p, q)) < len(components(module, p, q))
            # summing the old weight blocks' ranks would have lost the entry
            src = total_weights(weights[1], p, weights[1])
            tgt = total_weights(weights[1], p - 1, weights[2])
            full = koszul_differential(bad, p, q)
            summed = sum(rank(full[np.ix_(tgt == w, src == w)], 101) for w in set(src.tolist()))
            mismatched += summed != whole_rank(bad, p, q)
        assert merged and mismatched

    def test_subquotient_of_the_ring_splits_as_the_ring(self):
        # cohomology of the ring, each piece charted whole as the kernel of a
        # map with no rows, is the ring's action, and its cells split into the
        # same components
        _, ring = zoo()[2]
        module = ring.algebra
        kept = module.cohomology(Chart.kernel(np.zeros((0, d), dtype=np.int64), module.field.p) for d in module.pieces)
        assert kept.pieces == module.pieces
        assert all(np.array_equal(a, b) for a, b in zip(kept.action, module.action, strict=True))
        for p, q in ((2, 1), (3, 1), (2, 2)):
            mine, theirs = components(kept, p, q), components(module, p, q)
            assert len(mine) == len(theirs) > 1
            assert all(np.array_equal(a, b) for x, y in zip(mine, theirs) for a, b in zip(x, y))
        # in V, the sum of the first S_1 and the first J_1 coordinate vector,
        # which is not homogeneous, merges the weight blocks of the restricted action
        s, j = int(np.flatnonzero(ring.support)[0]), int(np.flatnonzero(~ring.support)[0])
        basis = np.eye(module.n, dtype=np.int64)
        basis[j, s] = 1
        mixed = module_restrict_action(module, basis)
        assert len(components(mixed, 2, 1)) < len(components(module, 2, 1))
        assert KoszulCalculator(mixed).rank_d(2, 1) == KoszulCalculator(module).rank_d(2, 1)


class TestTrivialGrading:
    """A cell whose weight blocks a module does not respect is ranked by its
    components, which merge across the blocks; the table is unchanged by a
    change of basis."""

    def tampered_module(self):
        _, ring = zoo()[2]
        module = reduced(ring)
        weights = oracles.reduced_epsilon_weights(ring)
        return module, weights, tampered(module, weights[1], weights)

    def table(self, module, monkeypatch):
        """The Koszul table of the module, and the shape of every matrix each cell built
        (a ``certificates`` entry names the certificate of each cell ranked from one)."""
        built = {}
        real = koszul.koszul_differential

        def recording(mod, p, q, weight=None):
            out = real(mod, p, q, weight)
            built.setdefault((p, q), []).append(out.shape)
            return out

        monkeypatch.setattr(koszul, "koszul_differential", recording)
        calc = KoszulCalculator(module)
        table = [[calc.dim(p, q) for p in range(module.n + 1)] for q in range(module.window)]
        monkeypatch.undo()
        built["certificates"] = calc.certificates
        return table, built

    def assert_built_by_components(self, module, built):
        # rows 0 and 2 are next to the one-dimensional B_0 and B_3, and the
        # tampers keep both certificates (action[0] is untouched, action[2] at
        # most changes basis): those cells are derived and never built, and so
        # are the row-1 cells that the Gorenstein certificate, when it holds,
        # reads off their mirror; every other cell is built as its components,
        # once each
        certificates = built.pop("certificates")
        derived = set(certificates)
        assert {(p, q) for p in range(1, module.n + 1) for q in (0, 2)} <= derived
        assert {(p, q) for (p, q), c in certificates.items() if c == "gorenstein"} == {
            (p, q) for p, q in derived if q == 1
        }
        for p in range(1, module.n + 1):
            for q in range(module.window):
                want = [] if (p, q) in derived else [(len(r), len(c)) for r, c in components(module, p, q)]
                assert built.get((p, q), []) == want, (p, q)

    def test_tampered_module_is_ranked_by_merged_components(self, monkeypatch):
        # one cross-weight entry: the components of row 1 merge, every cell not
        # derived is built as its components, and the table is the one ranked
        # whole, which differs from the untampered module's
        module, weights, bad = self.tampered_module()
        table, built = self.table(bad, monkeypatch)
        assert "gorenstein" not in built["certificates"].values()  # the tamper does not commute
        self.assert_built_by_components(bad, built)
        n = module.n
        merged = [p for p in range(1, n + 1) if len(components(bad, p, 1)) < len(components(module, p, 1))]
        assert merged
        assert table == whole_table(bad)
        assert table != self.table(module, monkeypatch)[0]

    def test_basis_change_across_blocks_keeps_the_table(self, monkeypatch):
        # e_s + e_j for a weight-0 e_s and a weight-1 e_j of M_2 puts
        # cross-block entries into an isomorphic module: components merge,
        # every cell not derived is built as its components, and the table is
        # the untampered one
        module, weights, _ = self.tampered_module()
        p = module.field.p
        s = int(np.flatnonzero(weights[2] == 0)[0])
        j = int(np.flatnonzero(weights[2] == 1)[0])
        change, inverse = np.eye(module.pieces[2], dtype=np.int64), np.eye(module.pieces[2], dtype=np.int64)
        change[s, j], inverse[s, j] = 1, p - 1
        action = list(module.action)
        action[1] = np.einsum("ab,kbc->kac", change, action[1]) % p
        action[2] = np.einsum("kab,bc->kac", action[2], inverse) % p
        moved = replace(module, action=tuple(action))
        moved.check_commutativity()
        assert not oracles.respects(moved, weights[1], weights)
        table, built = self.table(moved, monkeypatch)
        n = module.n
        mirrored = {(p, 1) for p in range(1, n) if 2 * p > n + 1}
        assert mirrored and {c for c, name in built["certificates"].items() if name == "gorenstein"} == mirrored
        self.assert_built_by_components(moved, built)
        assert any(len(components(moved, p, 1)) < len(components(module, p, 1)) for p in range(1, n + 1))
        assert table == self.table(module, monkeypatch)[0]


class TestCellBudget:
    """``rank_d`` checks the pattern and every component of a cell against the memory budget first."""

    def quartic_module(self):
        _, ring = zoo()[0]
        return reduced(ring)

    def test_largest_block_at_and_over_the_budget(self, monkeypatch):
        # d_{4,1} of the quartic: its largest component is 108 x 108, 32 bytes an entry
        module = self.quartic_module()
        expected = KoszulCalculator(module).rank_d(4, 1)
        need = 32 * 108 * 108
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", need)
        assert KoszulCalculator(module).rank_d(4, 1) == expected
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", need - 1)
        calc = KoszulCalculator(module)  # its certificate ranks d_{1,1} and d_{7,1}, under the budget
        built = []
        monkeypatch.setattr(koszul, "koszul_differential", lambda *args: built.append(args))
        with pytest.raises(fflinalg.MatrixTooLarge) as info:
            calc.rank_d(4, 1)
        message = str(info.value)
        assert "(p, q) = (4, 1)" in message and "108 x 108" in message and str(need) in message
        assert "component 3 of 5" in message
        # refused before any component of the cell is assembled
        assert built == []

    def test_message_gives_the_block_shape(self, monkeypatch):
        # the first component over the budget is named with its (rows, cols)
        module = self.quartic_module()
        rows, cols = components(module, 4, 1)[1]
        shape = koszul_differential(module, 4, 1, (rows, cols)).shape
        assert shape == (70, 51)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * shape[0] * shape[1] - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match=f"component 2 of 5: {shape[0]} x {shape[1]},"):
            KoszulCalculator(module).rank_d(4, 1)

    def test_whole_cell_of_an_unsplit_module(self, monkeypatch):
        # V in a general basis: every x_k is a general combination, so the
        # pattern is full and the cell is one component
        module = self.quartic_module()
        basis = np.random.default_rng(0).integers(1, 101, (module.n, module.n))
        general = module_restrict_action(module, basis)
        assert [(len(r), len(c)) for r, c in components(general, 4, 1)] == [(245, 245)]
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 245 * 245 - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match=r"component 1 of 1: 245 x 245"):
            KoszulCalculator(general).rank_d(4, 1)

    def test_pattern_and_components_are_priced_before_any_array(self, monkeypatch):
        # the pattern of d_{4,1} holds C(6, 3) nnz(action[1]) entries: a budget
        # under it refuses before the pattern is placed or any component found,
        # and one under the largest component refuses before any is assembled
        module = self.quartic_module()
        entries = math.comb(module.n - 1, 3) * np.count_nonzero(module.action[1])
        calc = KoszulCalculator(module)  # its certificate ranks d_{1,1} and d_{7,1}
        real_components = koszul._components
        monkeypatch.setattr(koszul, "_components", lambda *args: pytest.fail("components found"))
        monkeypatch.setattr(koszul, "koszul_differential", lambda *args: pytest.fail("assembled"))
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * entries - 1)
        pattern = rf"\(p, q\) = \(4, 1\), nonzero pattern: {np.count_nonzero(module.action[1])} x {math.comb(module.n - 1, 3)},"
        with pytest.raises(fflinalg.MatrixTooLarge, match=pattern):
            calc.rank_d(4, 1)
        monkeypatch.setattr(koszul, "_components", real_components)
        assert entries < 108 * 108  # the pattern is priced under the dense component
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 108 * 108 - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match="component 3 of 5: 108 x 108"):
            calc.rank_d(4, 1)

    def test_cohomology_checks_both_maps_before_building(self, monkeypatch):
        # K_{3,2} of the quartic: d_out = d_{3,2} is 21 x 245, d_in = d_{4,1} 245 x 245
        module = self.quartic_module()
        expected = koszul.koszul_cohomology(module, 3, 2).dim
        assert koszul_differential(module, 3, 2).shape == (21, 245)
        assert koszul_differential(module, 4, 1).shape == (245, 245)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 245 * 245)
        assert koszul.koszul_cohomology(module, 3, 2).dim == expected
        built = []
        monkeypatch.setattr(koszul, "koszul_differential", lambda *args: built.append(args))
        for budget, named in ((32 * 21 * 245 - 1, "d_out: 21 x 245,"), (32 * 245 * 245 - 1, "d_in: 245 x 245,")):
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", budget)
            with pytest.raises(fflinalg.MatrixTooLarge, match=rf"\(p, q\) = \(3, 2\), {named}"):
                koszul.koszul_cohomology(module, 3, 2)
        assert built == []

    def test_table_through_the_ring(self, monkeypatch):
        _, ring = zoo()[0]
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 100 * 100)
        with pytest.raises(fflinalg.MatrixTooLarge):
            ring.betti()

    def test_table_is_priced_before_the_ring_is_built(self, monkeypatch):
        # build_split_ribbon prices the reduction's always-ranked row-1 cells
        # one epsilon-weight block at a time from the S and epsilon J
        # dimensions alone (koszul.check_table_budget).  Each block is a union
        # of components, so a budget that passes every block lets the table
        # rank all its components; one just under the largest block is refused
        # before the ring is built, with that block named
        model = random_plane_curve(PrimeField(101), 4, np.random.default_rng(0))
        ring = build_split_ribbon(model, 1)
        module, weights = reduced(ring), oracles.reduced_epsilon_weights(ring)
        n = module.n
        blocks = []
        for p in [p for p in range(1, n + 1) if 2 * p <= n + 1 or p == n]:
            src = total_weights(weights[1], p, weights[1])
            tgt = total_weights(weights[1], p - 1, weights[2])
            for w in sorted(set(src.tolist()) & set(tgt.tolist())):
                blocks.append((p, w, int(np.count_nonzero(tgt == w)), int(np.count_nonzero(src == w))))
        largest = max(r * c for _, _, r, c in blocks)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * largest)
        assert np.array_equal(build_split_ribbon(model, 1).betti().entries, ring.betti().entries)
        for budget in (32 * largest - 1, 32 * min(r * c for _, _, r, c in blocks) - 1, 0):
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", budget)
            p, w, r, c = next(b for b in blocks if 32 * b[2] * b[3] > budget)
            with monkeypatch.context() as m:
                m.setattr(ribbon, "GradedAlgebra", lambda *args: pytest.fail("ring built"))
                with pytest.raises(fflinalg.MatrixTooLarge, match=rf"\({p}, 1\), weight block {w}: {r} x {c},"):
                    build_split_ribbon(model, 1)

    def test_priced_pieces_are_the_reductions(self, gate_ring, w5_ring):
        # the price reads B's weight pieces off the S and epsilon J dimensions,
        # for forms on S_1; they are the pieces of the reduction that
        # _artinian_module certifies, on the zoo, W5 and W6 (the gate case)
        rings = [ring for _, ring in zoo()] + [w5_ring, gate_ring]
        for ring in rings:
            assert reduced(ring) is not None, ring
            a = [np.bincount(w, minlength=2) for w in oracles.epsilon_weights(ring)]
            b = [np.bincount(w, minlength=2) for w in oracles.reduced_epsilon_weights(ring)]
            for q in range(3):
                assert np.array_equal(b[q], a[q] - 2 * (a[q - 1] if q else 0) + (a[q - 2] if q > 1 else 0)), (ring, q)

    def test_priced_blocks_are_the_reductions_weight_blocks(self, gate_ring, w5_ring, monkeypatch):
        # check_table_budget's arithmetic on the S and epsilon J dimensions
        # prices exactly the epsilon-weight blocks of the reduction's row-1
        # cells that every module ranks, in increasing p and w
        rings = [ring for _, ring in zoo()] + [w5_ring, gate_ring]
        for ring in rings:
            weights = oracles.reduced_epsilon_weights(ring)
            n = len(weights[1])
            want = []
            for p in [p for p in range(1, n + 1) if 2 * p <= n + 1 or p == n]:
                src = total_weights(weights[1], p, weights[1])
                tgt = total_weights(weights[1], p - 1, weights[2])
                for w in sorted(set(src.tolist()) & set(tgt.tolist())):
                    shape = (int(np.count_nonzero(tgt == w)), int(np.count_nonzero(src == w)))
                    want.append((f"cell (p, q) = ({p}, 1), weight block {w}", shape))
            priced = []
            monkeypatch.setattr(koszul, "check_budget", lambda where, shape: priced.append((where, shape)))
            s_dims, j_dims = zip(*(np.bincount(w, minlength=2) for w in oracles.epsilon_weights(ring)))
            koszul.check_table_budget(s_dims, j_dims)
            monkeypatch.undo()
            assert priced == want, ring

    def test_genus_3_gate_case_fits_the_default_budget(self, gate_ring):
        # the split ribbon over a genus-3 hyperelliptic curve at p_a = 14
        # (``green --curve hyperelliptic --g 3 --conormal -9``): every component
        # its Betti table ranks is under the budget, the largest (the
        # 4158 x 4536 component of d_{6,1} and its transpose in d_{7,1}) at 0.6 GB
        module = reduced(gate_ring)
        largest = {}
        for q in range(4):
            for p in range(1, module.n + 1):
                for rows, cols in components(module, p, q):
                    largest.setdefault(len(rows) * len(cols), []).append((p, q, (len(rows), len(cols))))
        top = max(largest)
        assert largest[top] == [(6, 1, (4158, 4536)), (7, 1, (4536, 4158))]
        assert 32 * top <= fflinalg._MATRIX_BYTES_MAX
