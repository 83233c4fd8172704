"""Weight blocks of split-ribbon Koszul cells, against the unsplit computation.

A split ribbon's ring S~ = S (+) epsilon J carries epsilon-weights (S at 0,
epsilon J at 1), and ``KoszulCalculator`` ranks each cell one weight block
at a time, by the module's weights once ``GradedModule.respects_weights``
certifies them and by the trivial grading (all zeros, one block per cell)
otherwise.  The oracle is the unsplit rank of the whole cell, and for the
vectorised assembler the python loop it replaced
(``oracles.loop_koszul_differential``).
"""

import math
import weakref
from dataclasses import replace

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
from ribbonsyz.graded import Chart, GradedModule, InconsistentDims
from ribbonsyz.koszul import KoszulCalculator, koszul_differential
from ribbonsyz.ribbon import build_split_ribbon

from oracles import colex, colex_rank, loop_koszul_differential, module_restrict_action

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


@pytest.fixture(scope="module")
def gate_ring():
    """W6: the split ribbon over a genus-3 hyperelliptic curve at p_a = 14, the 6g - 4 gate."""
    return build_split_ribbon(random_hyperelliptic(PrimeField(101), 3, np.random.default_rng(0)), 9)


def unweighted(module: GradedModule) -> GradedModule:
    """The same module built without weights: the trivial grading."""
    return GradedModule(module.field, module.n, module.pieces, module.action)


def trivially_graded(module: GradedModule) -> bool:
    return not module.v_weights.any() and not any(w.any() for w in module.weights)


def cells(module: GradedModule):
    return [(p, q) for q in range(module.window) for p in range(module.n + 2)]


def assert_split_matches_unsplit(module: GradedModule, max_entries: int | None = None) -> int:
    """Summed block ranks equal the unsplit rank on every cell (of at most
    ``max_entries`` entries when given); returns the cells compared."""
    calc = KoszulCalculator(module)
    assert calc.module is module  # certified: ranked by its own weights
    plain = KoszulCalculator(unweighted(module))
    assert trivially_graded(plain.module)
    compared = 0
    for p, q in cells(module):
        n_rows = math.comb(module.n, p - 1) * module.pieces[q + 1] if p else 0
        if max_entries is not None and n_rows * math.comb(module.n, p) * module.pieces[q] > max_entries:
            continue
        full = koszul_differential(module, p, q)
        want = rank(full, module.field.p) if full.size and p > 0 else 0
        assert calc.rank_d(p, q) == want, (p, q)
        assert plain.rank_d(p, q) == want, (p, q)  # the whole cell, one block
        compared += 1
    return compared


def random_weighted_module(rng, prime: int) -> GradedModule:
    """A random module whose action respects random weights (not commuting)."""
    n = int(rng.integers(2, 6))
    pieces = tuple(int(d) for d in rng.integers(0, 5, size=4))
    v_weights = rng.integers(0, 2, n)
    weights = [rng.integers(0, 3, d) for d in pieces]
    action = []
    for q in range(3):
        a = rng.integers(0, prime, (n, pieces[q + 1], pieces[q]))
        allowed = weights[q + 1][None, :, None] == v_weights[:, None, None] + weights[q][None, None, :]
        action.append(np.where(allowed, a, 0))
    return GradedModule(PrimeField(prime), n, pieces, tuple(action), v_weights, tuple(weights))


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


class TestAssembler:
    def test_matches_loop_on_the_zoo(self):
        for name, ring in zoo():
            for module in (ring.algebra, koszul._artinian_module(ring.algebra)):
                for p, q in cells(module):
                    if math.comb(module.n, p) * module.pieces[q] > 4000:
                        continue
                    got = koszul_differential(module, p, q)
                    assert np.array_equal(got, loop_koszul_differential(module, p, q)), (name, p, q)

    @pytest.mark.parametrize("prime", PRIMES)
    def test_matches_loop_on_random_modules(self, prime):
        rng = np.random.default_rng(prime)
        for _ in range(6):
            module = unweighted(random_weighted_module(rng, prime))
            for p, q in cells(module):
                got = koszul_differential(module, p, q)
                assert np.array_equal(got, loop_koszul_differential(module, p, q)), (p, q)

    def test_blocks_are_the_weight_slices_and_cover_the_cell(self):
        _, ring = zoo()[0]
        module = koszul._artinian_module(ring.algebra)
        for p, q in cells(module):
            full = koszul_differential(module, p, q)
            src = koszul._total_weights(module, p, q)
            tgt = koszul._total_weights(module, p - 1, q + 1)
            covered = 0
            for w in sorted(set(src.tolist()) | set(tgt.tolist())):
                block = koszul_differential(module, p, q, w)
                assert np.array_equal(block, full[np.ix_(tgt == w, src == w)]), (p, q, w)
                covered += np.count_nonzero(block)
            assert covered == np.count_nonzero(full), (p, q)

    def test_quartic_block_shapes(self):
        # d_{4,1} of the quartic's reduced module: 245 x 245 whole, 108 x 108 at most
        _, ring = zoo()[0]
        module = koszul._artinian_module(ring.algebra)
        assert koszul_differential(module, 4, 1).shape == (245, 245)
        src = koszul._total_weights(module, 4, 1)
        shapes = [koszul_differential(module, 4, 1, w).shape for w in sorted(set(src.tolist()))]
        assert max(shapes) == (108, 108)
        assert sum(r for r, _ in shapes) == 245 and sum(c for _, c in shapes) == 245

    def test_weight_block_needs_weights(self):
        # a module built without weights has the trivial grading: its
        # weight-0 block is the whole cell, and no other weight has a block
        _, ring = zoo()[0]
        module = unweighted(ring.algebra)
        full = koszul_differential(module, 2, 1)
        assert full.shape == koszul_differential(ring.algebra, 2, 1).shape
        assert np.array_equal(koszul_differential(module, 2, 1, 0), full)
        assert koszul_differential(module, 2, 1, 1).shape == (0, 0)


class TestSplitRanks:
    def test_zoo_cells(self):
        # every cell of the reduced modules the tables use; the direct modules'
        # cells up to 3 000 000 entries
        compared = 0
        for name, ring in zoo():
            compared += assert_split_matches_unsplit(koszul._artinian_module(ring.algebra))
            compared += assert_split_matches_unsplit(ring.algebra, 3_000_000)
        assert compared > 150

    @pytest.mark.parametrize("prime", (13, 1048573))
    def test_ribbons_over_other_fields(self, prime):
        for name, ring in zoo(prime)[:3]:
            module = koszul._artinian_module(ring.algebra)
            assert_split_matches_unsplit(module)
            assert ring.betti().method == "artinian"

    @pytest.mark.parametrize("prime", PRIMES)
    def test_random_weighted_modules(self, prime):
        rng = np.random.default_rng(1000 + prime)
        for _ in range(8):
            assert_split_matches_unsplit(random_weighted_module(rng, prime))

    def test_each_block_is_dropped_before_the_next_is_built(self, monkeypatch):
        # rank_d holds no block past its rank call: when a block is built,
        # every block built before it is already freed
        module = koszul._artinian_module(zoo()[0][1].algebra)
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
    def test_reduction_keeps_the_weights(self):
        for name, ring in zoo():
            module = koszul._artinian_module(ring.algebra)
            assert not trivially_graded(module) and module.respects_weights(), name
            assert ring.betti().method == "artinian", name
            # the acting space keeps the J_1 coordinates: the forms lie in S_1
            assert np.count_nonzero(module.v_weights) == np.count_nonzero(ring.algebra.weights[1])

    def test_tampered_cross_block_entry_is_rejected(self):
        _, ring = zoo()[2]
        module = koszul._artinian_module(ring.algebra)
        action = [a.copy() for a in module.action]
        # x_k of weight 1 sends a weight-1 vector of M_1 to a weight-0 one of M_2
        k = int(np.flatnonzero(module.v_weights == 1)[0])
        i = int(np.flatnonzero(module.weights[2] == 0)[0])
        j = int(np.flatnonzero(module.weights[1] == 1)[0])
        action[1][k, i, j] = 1 + action[1][k, i, j]
        tampered = replace(module, action=tuple(action))
        assert not tampered.respects_weights()
        calc = KoszulCalculator(tampered)
        assert calc.module is not tampered and trivially_graded(calc.module)
        plain = KoszulCalculator(unweighted(tampered))
        table = [[calc.dim(p, q) for p in range(module.n + 1)] for q in range(module.window)]
        assert table == [[plain.dim(p, q) for p in range(module.n + 1)] for q in range(module.window)]
        # summing block ranks on the tampered module would have lost the entry
        mismatched = 0
        for p, q in cells(tampered):
            if p == 0 or q != 1:
                continue
            src = koszul._total_weights(tampered, p, q)
            summed = sum(rank(koszul_differential(tampered, p, q, w), tampered.field.p) for w in set(src.tolist()))
            mismatched += summed != plain.rank_d(p, q)
        assert mismatched

    def test_subquotient_of_the_weighted_ring_is_trivially_graded(self):
        # cohomology gives the trivial grading, whatever the weights of the
        # module and of the kept coordinates: every cell is one block.  Each
        # piece is charted whole, as the kernel of a map with no rows
        _, ring = zoo()[2]
        module = ring.algebra
        kept = module.cohomology(Chart.kernel(np.zeros((0, d), dtype=np.int64), module.field.p) for d in module.pieces)
        assert kept.pieces == module.pieces
        assert all(np.array_equal(a, b) for a, b in zip(kept.action, module.action, strict=True))
        assert trivially_graded(kept) and kept.respects_weights()
        assert KoszulCalculator(kept).module is kept
        # in V, the sum of the first S_1 and the first J_1 coordinate vector,
        # which is not homogeneous, drops the weights of the restricted action
        s, j = int(np.flatnonzero(module.weights[1] == 0)[0]), int(np.flatnonzero(module.weights[1] == 1)[0])
        basis = np.eye(module.n, dtype=np.int64)
        basis[j, s] = 1
        assert trivially_graded(module_restrict_action(module, basis))
        assert module_restrict_action(module, np.eye(module.n, dtype=np.int64)).respects_weights()

    def test_weights_are_validated(self):
        _, ring = zoo()[2]
        algebra = ring.algebra
        module = GradedModule(algebra.field, algebra.n, algebra.pieces, algebra.action, algebra.v_weights, algebra.weights)
        assert module.respects_weights()
        # the pieces' weights left out are all zero, which the epsilon J_1
        # coordinates of V (weight 1) do not respect
        zeroed = replace(module, weights=None)
        assert np.array_equal(zeroed.v_weights, module.v_weights)
        assert not any(w.any() for w in zeroed.weights) and not zeroed.respects_weights()
        with pytest.raises(InconsistentDims):
            replace(module, v_weights=module.v_weights[1:])
        with pytest.raises(InconsistentDims):
            replace(module, weights=module.weights[:-1] + (module.weights[-1][1:],))
        with pytest.raises(InconsistentDims):
            replace(module, weights=module.weights[:-1])


class TestTrivialGrading:
    """A module built without weights has the trivial grading, all zeros: one
    weight block per cell, which is the whole cell."""

    def test_module_without_weights_is_trivially_graded(self):
        # its rank_d is the rank of the whole koszul_differential on every
        # zoo cell: ``assert_split_matches_unsplit``, run by TestSplitRanks
        for name, ring in zoo():
            for module in (koszul._artinian_module(ring.algebra), ring.algebra):
                plain = unweighted(module)
                assert plain.v_weights.shape == (plain.n,) and not plain.v_weights.any(), name
                assert [w.shape for w in plain.weights] == [(d,) for d in plain.pieces], name
                assert trivially_graded(plain) and plain.respects_weights(), name
                assert KoszulCalculator(plain).module is plain, name

    def tampered_module(self):
        _, ring = zoo()[2]
        module = koszul._artinian_module(ring.algebra)
        action = [a.copy() for a in module.action]
        k = int(np.flatnonzero(module.v_weights == 1)[0])
        i = int(np.flatnonzero(module.weights[2] == 0)[0])
        j = int(np.flatnonzero(module.weights[1] == 1)[0])
        action[1][k, i, j] = 1 + action[1][k, i, j]
        return module, replace(module, action=tuple(action))

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

    def assert_one_block_per_cell(self, module, built):
        # rows 0 and 2 are next to the one-dimensional B_0 and B_3, and the
        # tampers keep both certificates (action[0] is untouched, action[2] at
        # most changes basis): those cells are derived and never built, and so
        # are the row-1 cells that the Gorenstein certificate, when it holds,
        # reads off their mirror; every other cell is built whole, once
        certificates = built.pop("certificates")
        derived = set(certificates)
        assert {(p, q) for p in range(1, module.n + 1) for q in (0, 2)} <= derived
        assert {(p, q) for (p, q), c in certificates.items() if c == "gorenstein"} == {
            (p, q) for p, q in derived if q == 1
        }
        for p in range(1, module.n + 1):
            for q in range(module.window):
                rows, cols = koszul._cell_shape(module, p, q)
                whole = [(rows, cols)] if rows and cols and (p, q) not in derived else []
                assert built.get((p, q), []) == whole, (p, q)

    def test_tampered_module_is_ranked_as_one_block_per_cell(self, monkeypatch):
        # one cross-block entry: the certificate fails, every cell not derived
        # is built whole, once, and the table is that of the module without weights
        module, tampered = self.tampered_module()
        assert not tampered.respects_weights()
        table, built = self.table(tampered, monkeypatch)
        assert "gorenstein" not in built["certificates"].values()  # the tamper does not commute
        self.assert_one_block_per_cell(tampered, built)
        assert table == self.table(unweighted(tampered), monkeypatch)[0]
        assert table != self.table(module, monkeypatch)[0]

    def test_basis_change_across_blocks_keeps_the_table(self, monkeypatch):
        # e_s + e_j for a weight-0 e_s and a weight-1 e_j of M_2 puts
        # cross-block entries into an isomorphic module: the certificate
        # fails, every cell not derived is built whole, and the table is the
        # untampered one
        module, _ = self.tampered_module()
        p = module.field.p
        s = int(np.flatnonzero(module.weights[2] == 0)[0])
        j = int(np.flatnonzero(module.weights[2] == 1)[0])
        change, inverse = np.eye(module.pieces[2], dtype=np.int64), np.eye(module.pieces[2], dtype=np.int64)
        change[s, j], inverse[s, j] = 1, p - 1
        action = list(module.action)
        action[1] = np.einsum("ab,kbc->kac", change, action[1]) % p
        action[2] = np.einsum("kab,bc->kac", action[2], inverse) % p
        moved = replace(module, action=tuple(action))
        moved.check_commutativity()
        assert not moved.respects_weights()
        table, built = self.table(moved, monkeypatch)
        n = module.n
        mirrored = {(p, 1) for p in range(1, n) if 2 * p > n + 1}
        assert mirrored and {c for c, name in built["certificates"].items() if name == "gorenstein"} == mirrored
        self.assert_one_block_per_cell(moved, built)
        assert table == self.table(module, monkeypatch)[0]


class TestCellBudget:
    """``rank_d`` checks every block of a cell against the memory budget first."""

    def quartic_module(self):
        _, ring = zoo()[0]
        return koszul._artinian_module(ring.algebra)

    def test_largest_block_at_and_over_the_budget(self, monkeypatch):
        # d_{4,1} of the quartic: its largest block is 108 x 108, 32 bytes an entry
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
        assert "weight block 2" in message
        # refused before any block of the cell is assembled
        assert built == []

    def test_message_gives_the_block_shape(self, monkeypatch):
        # the first block over the budget is named with its (rows, cols)
        module = self.quartic_module()
        shape = koszul_differential(module, 4, 1, 1).shape
        assert shape[0] != shape[1]
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * shape[0] * shape[1] - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match=f"weight block 1: {shape[0]} x {shape[1]},"):
            KoszulCalculator(module).rank_d(4, 1)

    def test_whole_cell_of_an_unsplit_module(self, monkeypatch):
        module = unweighted(self.quartic_module())
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 245 * 245 - 1)
        with pytest.raises(fflinalg.MatrixTooLarge, match=r"weight block 0: 245 x 245"):
            KoszulCalculator(module).rank_d(4, 1)

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
        # from the ring's weights alone (koszul.check_table_budget); on a ring
        # whose table takes the Artinian path, its refusal is the one the
        # table itself would give
        model = random_plane_curve(PrimeField(101), 4, np.random.default_rng(0))
        module = koszul._artinian_module(build_split_ribbon(model, 1).algebra)
        n = module.n
        entries = []
        for p in [p for p in range(1, n + 1) if 2 * p <= n + 1 or p == n]:
            for w in set(koszul._total_weights(module, p, 1).tolist()):
                entries.append(koszul_differential(module, p, 1, w).size)
        for budget in (32 * max(entries) - 1, 32 * min(entries) - 1, 0):
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", budget)
            with pytest.raises(fflinalg.MatrixTooLarge) as early:
                build_split_ribbon(model, 1)
            with monkeypatch.context() as m:
                m.setattr(ribbon, "check_table_budget", lambda weights: None)
                ring = build_split_ribbon(model, 1)
                with pytest.raises(fflinalg.MatrixTooLarge) as late:
                    ring.betti()
            assert str(early.value) == str(late.value), budget

    def test_priced_pieces_are_the_reductions(self, gate_ring):
        # the price reads B's weight pieces off the ring's weights, for forms
        # of weight 0; they are the pieces of the reduction that
        # _artinian_module certifies, on the zoo, W5 and W6 (the gate case)
        w5 = build_split_ribbon(random_hyperelliptic(PrimeField(101), 2, np.random.default_rng(0)), 9)
        rings = [ring for _, ring in zoo()] + [w5, gate_ring]
        for ring in rings:
            module = koszul._artinian_module(ring.algebra)
            assert module is not None, ring
            want = koszul._reduced_pieces(ring.algebra.weights)
            for q in range(3):
                got = np.bincount(module.weights[q], minlength=len(want[q]))
                assert np.array_equal(got, want[q]), (ring, q)

    def test_genus_3_gate_case_fits_the_default_budget(self, gate_ring):
        # the split ribbon over a genus-3 hyperelliptic curve at p_a = 14
        # (``green --curve hyperelliptic --g 3 --conormal -9``): every block
        # its Betti table ranks is under the budget, the largest (the
        # 4158 x 4536 block of d_{6,1} and its transpose in d_{7,1}) at 0.6 GB
        module = koszul._artinian_module(gate_ring.algebra)
        largest = {}
        for q in range(4):
            for p in range(1, module.n + 1):
                src = koszul._total_weights(module, p, q)
                tgt = koszul._total_weights(module, p - 1, q + 1)
                for w in set(src.tolist()) & set(tgt.tolist()):
                    shape = (int(np.count_nonzero(tgt == w)), int(np.count_nonzero(src == w)))
                    largest.setdefault(shape[0] * shape[1], []).append((p, q, shape))
        top = max(largest)
        assert largest[top] == [(6, 1, (4158, 4536)), (7, 1, (4536, 4158))]
        assert 32 * top <= fflinalg._MATRIX_BYTES_MAX
