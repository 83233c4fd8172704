"""Koszul cells next to a one-dimensional piece, ranked from exact certificates.

``KoszulCalculator`` takes rank d_{p,q} = C(n, p) when dim M_q = 1 and the
x_k . m_0 are independent (the map is injective), and C(n, p - 1) when
dim M_{q+1} = 1 and the functionals x_k : M_q -> M_{q+1} are independent
(the map is surjective); ``derived`` names those cells.  The oracle is the
rank of the assembled cell, one weight block at a time through
``koszul_differential`` and ``fflinalg.rank``, and the table of a
calculator that derives nothing.
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

from test_weights import zoo

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
        out.append((f"{name}, reduced", koszul._artinian_module(ring.algebra)))
    out.append(("W5, reduced", koszul._artinian_module(w5_ring.algebra)))
    return out


def assembled_rank(module, p: int, q: int) -> int:
    """rank d_{p,q} as the sum of its weight blocks' ranks, each one assembled."""
    src = koszul._total_weights(module, p, q)
    return sum(rank(koszul_differential(module, p, q, w), module.field.p) for w in set(src.tolist()))


def underived(monkeypatch, module) -> KoszulCalculator:
    """A calculator for the module that derives nothing: every cell is ranked."""
    with monkeypatch.context() as m:
        m.setattr(koszul, "_certified_ranks", lambda module: {})
        calc = KoszulCalculator(module)
    assert not calc.derived
    return calc


def table(calc: KoszulCalculator, rows) -> list[list[int]]:
    return [[calc.dim(p, q) for p in range(calc.module.n + 1)] for q in rows]


def row_cells(module, *rows) -> set:
    return {(p, q) for p in range(1, module.n + 1) for q in rows}


class TestDifferential:
    def test_derived_cells_are_the_rows_next_to_a_one_dimensional_piece(self, modules):
        # a reduction's pieces are (1, n, n, 1, 0): row 0 by injectivity out
        # of B_0, row 2 by surjectivity onto B_3; a ring derives row 0 only
        for name, module in modules:
            assert module.pieces[0] == 1 and module.pieces[2] > 1, name
            expected = row_cells(module, 0, 2) if module.pieces[3] == 1 else row_cells(module, 0)
            assert KoszulCalculator(module).derived == expected, name

    def test_derived_ranks_equal_the_assembled_cells(self, modules, w5_ring):
        compared = 0
        for name, module in modules + [("W5", w5_ring.algebra)]:
            calc = KoszulCalculator(module)
            assert calc.derived, name
            for p, q in sorted(calc.derived):
                want = comb(module.n, p) if q == 0 else comb(module.n, p - 1)
                assert calc.rank_d(p, q) == want == assembled_rank(calc.module, p, q), (name, p, q)
                compared += 1
        # the quartic (n = 9, reduced 7), four rings with n = 7 (reduced 5), W5 (12, reduced 10)
        assert compared == (9 + 2 * 7) + 4 * (7 + 2 * 5) + (12 + 2 * 10)

    def test_tables_equal_the_underived_ones(self, modules, monkeypatch):
        # every row of a reduction; rows 0 and 1 of a ring, the rows that read
        # the derived d_{p,0} (its higher rows are the reductions' business)
        for name, module in modules:
            rows = range(module.window) if module.pieces[3] == 1 else range(2)
            assert table(KoszulCalculator(module), rows) == table(underived(monkeypatch, module), rows), name

    def test_betti_tables_equal_the_underived_ones(self, w5_ring, monkeypatch):
        for name, ring in zoo() + [("W5", w5_ring)]:
            got = betti_table(ring.algebra)
            with monkeypatch.context() as m:
                m.setattr(koszul, "_certified_ranks", lambda module: {})
                want = betti_table(ring.algebra)
            assert got.method == want.method == "artinian", name
            assert np.array_equal(got.entries, want.entries), name

    def test_derived_cells_skip_the_budget(self, modules, monkeypatch):
        # nothing is assembled for a derived cell, so no budget applies to it
        _, module = modules[1]
        calc = KoszulCalculator(module)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 0)
        monkeypatch.setattr(koszul, "koszul_differential", lambda *args: pytest.fail("assembled"))
        for p, q in calc.derived:
            assert calc.rank_d(p, q) in (comb(module.n, p), comb(module.n, p - 1))
        with pytest.raises(fflinalg.MatrixTooLarge, match=r"\(p, q\) = \(1, 1\)"):
            calc.rank_d(1, 1)


class TestTamper:
    """A certificate that fails derives nothing in its row, and the table is
    then the fully ranked one."""

    def reduced(self):
        _, ring = zoo()[2]
        return koszul._artinian_module(ring.algebra)

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
        assert tampered.respects_weights() and rank(tampered.action[2][:, 0, :], 101) < module.n
        calc = self.assert_fully_ranked_table(tampered, monkeypatch)
        assert calc.derived == row_cells(module, 0)
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
        assert calc.derived == row_cells(module, 2)
        assert calc.rank_d(1, 0) == module.n - 1  # e_0 - e_1 (x) 1 is a cycle

    def test_syzygy_module_has_no_one_dimensional_piece(self, monkeypatch):
        # M^1 of the genus-2 curve at t = 5 has pieces (8, 3, 4): nothing to derive
        syz = build_syzygy_module(random_hyperelliptic(F101, 2, np.random.default_rng(1)), 5, 1)
        assert syz.module.pieces == (8, 3, 4)
        calc = KoszulCalculator(syz.module)
        assert not calc.derived
        rows = range(syz.module.window)
        assert table(calc, rows) == table(underived(monkeypatch, syz.module), rows)


class TestDualityReadsComputedRanks:
    """Row 1 is always ranked, so ``duality_check`` compares computed ranks:
    moving r_{3,1} by one breaks it, while ``hilbert_check`` still holds (its
    rank terms telescope)."""

    W1 = ("betti", "--curve", "plane-quartic", "--random", "--p", "101", "--conormal", "-1", "--seed", "0")

    def shift_first_block_of(self, monkeypatch, cell):
        """Add one to the rank of the first weight block ranked in ``cell``."""
        current, shifted = [], []
        real_differential, real_rank = koszul.koszul_differential, koszul.rank

        def differential(module, p, q, weight=None):
            current[:] = [(p, q)]
            return real_differential(module, p, q, weight)

        def shifted_rank(a, prime):
            r = real_rank(a, prime)
            if current == [cell] and not shifted:
                shifted.append(r)
                return r + 1
            return r

        monkeypatch.setattr(koszul, "koszul_differential", differential)
        monkeypatch.setattr(koszul, "rank", shifted_rank)
        return shifted

    def test_shifted_rank_fails_the_duality_check(self, monkeypatch):
        _, ring = zoo()[0]
        good = betti_table(ring.algebra)
        shifted = self.shift_first_block_of(monkeypatch, (3, 1))
        bad = betti_table(ring.algebra)
        assert shifted
        assert bad.entries[1, 3] == good.entries[1, 3] - 1 and bad.entries[2, 2] == good.entries[2, 2] - 1
        assert duality_check(good) and not duality_check(bad)
        assert hilbert_check(bad, hilbert_dims(ring.p_a, 3))

    def test_betti_prints_duality_fail(self, monkeypatch):
        runner = CliRunner()
        ok = runner.invoke(main, list(self.W1), catch_exceptions=False)
        assert ok.exit_code == 0 and "duality: ok   hilbert: ok" in ok.output
        self.shift_first_block_of(monkeypatch, (3, 1))
        res = runner.invoke(main, list(self.W1), catch_exceptions=False)
        assert res.exit_code == 0
        assert "duality: FAIL   hilbert: ok" in res.output
