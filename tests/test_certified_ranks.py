"""Koszul cells ranked from exact certificates, against the fully ranked cells.

``KoszulCalculator`` takes rank d_{p,q} = C(n, p) when dim M_q = 1 and the
x_k . m_0 are independent (the map is injective), and C(n, p - 1) when
dim M_{q+1} = 1 and the functionals x_k : M_q -> M_{q+1} are independent
(the map is surjective).  On a Gorenstein module with pieces (1, n, n, 1, 0)
it takes r_{p,1} = r_{n+1-p,1} for 2p > n + 1.  ``certificates`` names the
certificate of each such cell, and its keys are the set of them.  The
oracle is the rank of the assembled cell, one connected component at a
time through ``koszul_differential`` and ``fflinalg.rank``, and the table
of a calculator that derives nothing.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest
from click.testing import CliRunner

from ribbonsyz import fflinalg, koszul
from ribbonsyz.cli import main
from ribbonsyz.curves import random_hyperelliptic
from ribbonsyz.fflinalg import PrimeField, rank
from ribbonsyz.graded import GradedError
from ribbonsyz.greenchk import build_syzygy_module
from ribbonsyz.koszul import (
    KoszulCalculator,
    betti_table,
    duality_check,
    hilbert_check,
    hilbert_dims,
    koszul_differential,
)
from ribbonsyz.ribbon import build_split_ribbon

import oracles
from test_weights import components, reduced, zoo

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def w5_ring():
    # ``betti --curve hyperelliptic --g 2 --conormal -9`` at seed 0 (p_a = 12)
    return build_split_ribbon(random_hyperelliptic(F101, 2, np.random.default_rng(0)), 9)


@pytest.fixture(scope="module")
def modules(w5_ring):
    """(name, module) for the zoo's rings, their reductions and W5's reduction."""
    out = []
    for name, ring in zoo():
        out.append((name, ring.algebra))
        out.append((f"{name}, reduced", reduced(ring)))
    out.append(("W5, reduced", reduced(w5_ring)))
    return out


def assembled_rank(module, p: int, q: int) -> int:
    """rank d_{p,q} as the sum of its connected components' ranks, each one assembled."""
    return sum(rank(koszul_differential(module, p, q, block), module.field.p) for block in components(module, p, q))


def no_certificates(m) -> None:
    """Switch every certificate off inside the monkeypatch context ``m``."""
    m.setattr(koszul, "_certified_ranks", lambda module: {})
    m.setattr(KoszulCalculator, "_gorenstein", lambda self: False)


def underived(monkeypatch, module) -> KoszulCalculator:
    """A calculator for the module that derives nothing: every cell is ranked."""
    with monkeypatch.context() as m:
        no_certificates(m)
        calc = KoszulCalculator(module)
    assert not calc.certificates
    return calc


# The reductions whose Gorenstein certificate holds.  Those of genus 0 at
# t = 8 and of the genus-3 curve at t = 2 have B_1 B_1 = 0 (action[1] is
# zero), so they are not cyclic and rank their whole row 1.
GORENSTEIN = {"plane quartic, reduced", "hyperelliptic g=2, reduced", "elliptic, reduced", "W5, reduced"}


def mirrored_cells(module) -> dict:
    """The row-1 cells a Gorenstein module reads off their mirror."""
    n = module.n
    return {(p, 1): "gorenstein" for p in range(1, n) if 2 * p > n + 1}


def table(calc: KoszulCalculator, rows) -> list[list[int]]:
    return [[calc.dim(p, q) for p in range(calc.module.n + 1)] for q in rows]


def row_cells(module, *rows) -> set:
    return {(p, q) for p in range(1, module.n + 1) for q in rows}


class TestDifferential:
    def test_derived_cells_are_the_rows_next_to_a_one_dimensional_piece(self, modules):
        # a reduction's pieces are (1, n, n, 1, 0): row 0 by injectivity out
        # of B_0, row 2 by surjectivity onto B_3, and row 1 past its middle by
        # Gorenstein duality; a ring derives row 0 only
        for name, module in modules:
            assert module.pieces[0] == 1 and module.pieces[2] > 1, name
            expected = dict.fromkeys(row_cells(module, 0), "injective")
            if module.pieces[3] == 1:
                expected |= dict.fromkeys(row_cells(module, 2), "surjective")
            if name in GORENSTEIN:
                expected |= mirrored_cells(module)
            elif module.pieces[3] == 1:
                assert not module.action[1].any(), name
            calc = KoszulCalculator(module)
            assert calc.certificates == expected, name

    def test_derived_ranks_equal_the_assembled_cells(self, modules, w5_ring):
        compared = 0
        for name, module in modules + [("W5", w5_ring.algebra)]:
            calc = KoszulCalculator(module)
            assert calc.certificates, name
            n = module.n
            for p, q in sorted(calc.certificates):
                want = {
                    "injective": comb(n, p),
                    "surjective": comb(n, p - 1),
                    "gorenstein": assembled_rank(calc.module, n + 1 - p, q),
                }[calc.certificates[p, q]]
                assert calc.rank_d(p, q) == want == assembled_rank(calc.module, p, q), (name, p, q)
                compared += 1
        # the quartic (n = 9, reduced 7 with 2 mirrored cells), four rings with
        # n = 7 (reduced 5, 1 mirrored on two of them), W5 (12, reduced 10, 4 mirrored)
        assert compared == (9 + 2 * 7 + 2) + 4 * (7 + 2 * 5) + 2 + (12 + 2 * 10 + 4)

    def test_tables_equal_the_underived_ones(self, modules, monkeypatch):
        # every row of a reduction; rows 0 and 1 of a ring, the rows that read
        # the derived d_{p,0} (its higher rows are the reductions' business)
        for name, module in modules:
            rows = range(module.window) if module.pieces[3] == 1 else range(2)
            assert table(KoszulCalculator(module), rows) == table(underived(monkeypatch, module), rows), name

    def test_betti_tables_equal_the_underived_ones(self, w5_ring, monkeypatch):
        for name, ring in zoo() + [("W5", w5_ring)]:
            got = betti_table(ring.algebra, ring.support)
            with monkeypatch.context() as m:
                no_certificates(m)
                want = betti_table(ring.algebra, ring.support)
            assert got.method == want.method == "artinian", name
            assert np.array_equal(got.entries, want.entries), name

    def test_derived_cells_skip_the_budget(self, modules, monkeypatch):
        # nothing is assembled for a derived cell, so no budget applies to it;
        # a mirrored cell reads its mirror, ranked here first
        _, module = modules[1]
        calc = KoszulCalculator(module)
        mirrors = {module.n + 1 - p: calc.rank_d(module.n + 1 - p, 1) for p, _ in mirrored_cells(module)}
        assert mirrors
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 0)
        monkeypatch.setattr(koszul, "koszul_differential", lambda *args: pytest.fail("assembled"))
        for p, q in calc.certificates:
            want = {
                "injective": comb(module.n, p),
                "surjective": comb(module.n, p - 1),
                "gorenstein": mirrors.get(module.n + 1 - p),
            }[calc.certificates[p, q]]
            assert calc.rank_d(p, q) == want
        middle = (module.n + 1) // 2  # ranked, and no mirror of a derived cell
        with pytest.raises(fflinalg.MatrixTooLarge, match=rf"\(p, q\) = \({middle}, 1\)"):
            calc.rank_d(middle, 1)


class TestGorenstein:
    """A reduction with pieces (1, n, n, 1, 0) that is cyclic, has socle B_3
    alone and commutes is Gorenstein: r_{p,1} = r_{n+1-p,1}, and the cells
    with 2p > n + 1 are read off their mirror.  Each tamper below fails one
    leg of the certificate, which then returns False without raising, and
    the table is the fully ranked one."""

    def reduced(self):
        _, ring = zoo()[0]
        return reduced(ring)

    def test_row_one_equals_the_assembled_cells(self, modules):
        # every r_{p,1} of every reduction, mirrored or ranked, is the rank
        # of the assembled cell
        for name, module in modules:
            if module.pieces[3] != 1:
                continue
            calc = KoszulCalculator(module)
            assert (set(mirrored_cells(module)) <= set(calc.certificates)) == (name in GORENSTEIN), name
            for p in range(1, module.n + 1):
                assert calc.rank_d(p, 1) == assembled_rank(calc.module, p, 1), (name, p)

    def test_mirrored_cells_are_never_assembled(self, monkeypatch):
        module = self.reduced()
        built = []
        real = koszul.koszul_differential

        def recording(mod, p, q, weight=None):
            built.append((p, q))
            return real(mod, p, q, weight)

        monkeypatch.setattr(koszul, "koszul_differential", recording)
        calc = KoszulCalculator(module)
        # the certificate ranks the mirrored pair d_{1,1} and d_{n,1} once each
        assert set(built) == {(1, 1), (module.n, 1)}
        table(calc, range(module.window))
        assert {c for c in built if c[1] == 1} == {(p, 1) for p in range(1, module.n + 1)} - set(mirrored_cells(module))

    def assert_fully_ranked(self, module, monkeypatch):
        calc = KoszulCalculator(module)
        assert calc._gorenstein() is False
        assert "gorenstein" not in calc.certificates.values()
        rows = range(module.window)
        assert table(calc, rows) == table(underived(monkeypatch, module), rows)

    def test_two_dimensional_socle(self, monkeypatch):
        # every x_k kills one basis vector e_j of B_2, so the socle is e_j and B_3
        module = self.reduced()
        action = list(module.action)
        action[2] = action[2].copy()
        action[2][:, :, 0] = 0
        tampered = replace(module, action=tuple(action))
        assert rank(tampered.action[2].reshape(module.n, module.n), 101) == module.n - 1
        assert rank(tampered.action[1].transpose(1, 0, 2).reshape(module.n, -1), 101) == module.n  # cyclic
        self.assert_fully_ranked(tampered, monkeypatch)

    def test_not_cyclic(self, monkeypatch):
        # V B_2 = 0 misses B_3; the action still commutes
        module = self.reduced()
        action = list(module.action)
        action[2] = np.zeros_like(action[2])
        tampered = replace(module, action=tuple(action))
        tampered.check_commutativity()
        self.assert_fully_ranked(tampered, monkeypatch)

    def test_not_cyclic_reductions_of_the_zoo(self, modules, monkeypatch):
        # genus 0 at t = 8 and the genus-3 curve at t = 2: B_1 B_1 = 0
        for name, module in modules:
            if module.pieces[3] == 1 and name not in GORENSTEIN:
                self.assert_fully_ranked(module, monkeypatch)

    def test_not_commuting(self, monkeypatch):
        # x_0 . e_1 moves inside its weight block, x_1 . e_0 does not: the
        # ranks of the cyclic and socle legs stay full
        module = self.reduced()
        weights = oracles.reduced_epsilon_weights(zoo()[0][1])
        action = list(module.action)
        action[1] = action[1].copy()
        i = int(np.flatnonzero(weights[2] == weights[1][0] + weights[1][1])[0])
        action[1][0, i, 1] = (action[1][0, i, 1] + 1) % 101
        tampered = replace(module, action=tuple(action))
        assert oracles.respects(tampered, weights[1], weights)
        with pytest.raises(GradedError):
            tampered.check_commutativity()
        n = module.n
        assert rank(tampered.action[1].transpose(1, 0, 2).reshape(n, -1), 101) == n
        assert rank(tampered.action[1].reshape(n * n, n), 101) == n
        self.assert_fully_ranked(tampered, monkeypatch)

    def test_tampered_mirrored_pair(self, monkeypatch):
        # r_{n,1} moved by one: the pair disagrees and the whole row is ranked,
        # the tampered cell included
        module = self.reduced()
        n = module.n
        shifted = TestDualityReadsComputedRanks().shift_first_block_of(monkeypatch, (n, 1))
        calc = KoszulCalculator(module)
        assert shifted and calc.rank_d(n, 1) == calc.rank_d(1, 1) + 1
        self.assert_fully_ranked(module, monkeypatch)
        assert len(shifted) == 3  # this calculator, and the two of the comparison


class TestTamper:
    """A certificate that fails derives nothing in its row, and the table is
    then the fully ranked one."""

    def reduced(self):
        _, ring = zoo()[2]
        return reduced(ring)

    def assert_fully_ranked_table(self, module, monkeypatch):
        calc = KoszulCalculator(module)
        rows = range(module.window)
        assert table(calc, rows) == table(underived(monkeypatch, module), rows)
        return calc

    def test_zeroed_row_of_the_socle_pairing(self, monkeypatch):
        # x_k . B_2 = 0: the n x n matrix of B_1 x B_2 -> B_3 is singular
        module = self.reduced()
        action = list(module.action)
        action[2] = action[2].copy()
        action[2][1] = 0
        tampered = replace(module, action=tuple(action))
        weights = oracles.reduced_epsilon_weights(zoo()[2][1])
        assert oracles.respects(tampered, weights[1], weights) and rank(tampered.action[2][:, 0, :], 101) < module.n
        calc = self.assert_fully_ranked_table(tampered, monkeypatch)
        assert set(calc.certificates) == row_cells(module, 0)
        # d_{n,2} sends e_0 ^ ... ^ e_{n-1} (x) B_2 onto the span of the n - 1
        # functionals left, so it misses the C(n, n - 1) = n of a surjection
        assert calc.rank_d(module.n, 2) == module.n - 1

    def test_dependent_images_of_the_unit(self, monkeypatch):
        # x_1 . 1 = x_0 . 1: the images of the unit span less than B_1
        module = self.reduced()
        action = list(module.action)
        action[0] = action[0].copy()
        action[0][1] = action[0][0]
        tampered = replace(module, action=tuple(action))
        assert rank(tampered.action[0][:, :, 0], 101) == module.n - 1
        calc = self.assert_fully_ranked_table(tampered, monkeypatch)
        assert set(calc.certificates) == row_cells(module, 2)
        assert calc.rank_d(1, 0) == module.n - 1  # e_0 - e_1 (x) 1 is a cycle

    def test_syzygy_module_has_no_one_dimensional_piece(self, monkeypatch):
        # M^1 of the genus-2 curve at t = 5 has pieces (8, 3, 4): nothing to derive
        syz = build_syzygy_module(random_hyperelliptic(F101, 2, np.random.default_rng(1)), 5, 1)
        assert syz.module.pieces == (8, 3, 4)
        calc = KoszulCalculator(syz.module)
        assert not calc.certificates
        rows = range(syz.module.window)
        assert table(calc, rows) == table(underived(monkeypatch, syz.module), rows)


class TestDualityReadsComputedRanks:
    """``duality_check`` compares computed ranks.  With the Gorenstein
    certificate off, moving r_{3,1} by one breaks it, while ``hilbert_check``
    still holds (its rank terms telescope).  With it on, r_{1,1} and r_{n,1}
    are both ranked, and moving r_{1,1} by one fails the certificate's
    mirrored pair, so the whole row is ranked and duality fails."""

    W1 = ("betti", "--curve", "plane-quartic", "--random", "--p", "101", "--conormal", "-1", "--seed", "0")

    def shift_first_block_of(self, monkeypatch, cell, by=1):
        """Add ``by`` to the rank of the first component ranked in ``cell``, each time it is ranked.

        A component is known by its first column (the whole cell, with no
        block argument, by None).  Returns the list of the true ranks
        shifted, one per ranking.
        """
        current, first, shifted = [], {}, []
        real_differential, real_rank = koszul.koszul_differential, koszul.rank

        def differential(module, p, q, block=None):
            key = None if block is None else int(block[1][0])
            current[:] = [(p, q, key)]
            first.setdefault((p, q), key)
            return real_differential(module, p, q, block)

        def shifted_rank(a, prime):
            r = real_rank(a, prime)
            if current == [(*cell, first.get(cell))]:
                current.clear()
                shifted.append(r)
                return r + by
            return r

        monkeypatch.setattr(koszul, "koszul_differential", differential)
        monkeypatch.setattr(koszul, "rank", shifted_rank)
        return shifted

    def test_shifted_rank_fails_the_duality_check(self, monkeypatch):
        _, ring = zoo()[0]
        good = betti_table(ring.algebra, ring.support)
        monkeypatch.setattr(KoszulCalculator, "_gorenstein", lambda self: False)
        assert np.array_equal(betti_table(ring.algebra, ring.support).entries, good.entries)
        shifted = self.shift_first_block_of(monkeypatch, (3, 1))
        bad = betti_table(ring.algebra, ring.support)
        assert shifted
        assert bad.entries[1, 3] == good.entries[1, 3] - 1 and bad.entries[2, 2] == good.entries[2, 2] - 1
        assert duality_check(good) and not duality_check(bad)
        assert hilbert_check(bad, hilbert_dims(ring.p_a, 3))

    def test_betti_prints_duality_fail(self, monkeypatch):
        runner = CliRunner()
        ok = runner.invoke(main, list(self.W1), catch_exceptions=False)
        assert ok.exit_code == 0 and "duality: ok   hilbert: ok" in ok.output
        gorenstein = []
        real = KoszulCalculator._gorenstein
        monkeypatch.setattr(KoszulCalculator, "_gorenstein", lambda self: gorenstein.append(real(self)) or gorenstein[-1])
        # one less: b_{0,2} = n - r_{1,1} must stay nonnegative
        shifted = self.shift_first_block_of(monkeypatch, (1, 1), by=-1)
        res = runner.invoke(main, list(self.W1), catch_exceptions=False)
        assert res.exit_code == 0
        assert len(shifted) == 1 and gorenstein == [False]  # the mirrored pair caught the shift
        assert "duality: FAIL   hilbert: ok" in res.output
