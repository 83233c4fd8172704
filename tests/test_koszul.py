import json

import numpy as np
import pytest

from ribbonsyz.curves import HyperellipticCurve, PlaneCurve
from ribbonsyz.fflinalg import PrimeField, matmul_mod, rank
from ribbonsyz.graded import GradedModule
from ribbonsyz.koszul import (
    BettiTable,
    KoszulCalculator,
    OutOfWindow,
    betti_table,
    duality_check,
    hilbert_check,
    hilbert_dims,
    koszul_cohomology,
    koszul_differential,
    rcliff,
)

from oracles import algebra_from_sections, eagon_northcott_b_p1, kernel_basis, oracle_koszul_dim

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def quartic_ring():
    c = PlaneCurve(F101, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)
    return algebra_from_sections([c.sections(q) for q in range(5)])


def monomial_quotient_module(nvars, window, rng, prime=101):
    """Random monomial-quotient module: commuting action for free.

    Pieces are degree-q monomials in nvars variables with a random monomial
    ideal removed; the action multiplies by a variable and kills anything
    in the ideal.  nvars <= 3 keeps pieces small.
    """
    from itertools import combinations_with_replacement

    def monos(q):
        return [
            tuple(sorted(c)) for c in combinations_with_replacement(range(nvars), q)
        ]

    dead: set = set()
    for q in range(1, window + 1):
        for m in monos(q):
            parents = [tuple(sorted(m[:i] + m[i + 1 :])) for i in range(len(m))]
            if any(par in dead for par in parents) or rng.random() < 0.25:
                dead.add(m)
    bases = [[m for m in monos(q) if m not in dead] for q in range(window + 1)]
    pieces = tuple(len(b) for b in bases)
    action = []
    for q in range(window):
        idx = {m: i for i, m in enumerate(bases[q + 1])}
        a = np.zeros((nvars, pieces[q + 1], pieces[q]), dtype=np.int64)
        for k in range(nvars):
            for j, m in enumerate(bases[q]):
                prod = tuple(sorted(m + (k,)))
                if prod in idx:
                    a[k, idx[prod], j] = 1
        action.append(a)
    return GradedModule(F101, nvars, pieces, tuple(action))


def random_commuting_module(n, dims, rng, prime=101):
    """Random module with commuting action built degree by degree.

    Degree-0 action matrices are free; each next layer is a random point of
    the linear space of commuting extensions (sampled through the kernel of
    the commutator constraints).
    """
    action = [rng.integers(0, prime, (n, dims[1], dims[0]))]
    for q in range(1, len(dims) - 1):
        d_prev, d_mid, d_next = dims[q - 1], dims[q], dims[q + 1]
        nunk = n * d_next * d_mid
        rows = []
        for k in range(n):
            for l in range(k + 1, n):
                # A'_k action[q-1][l] - A'_l action[q-1][k] = 0
                block = np.zeros((d_next * d_prev, nunk), dtype=np.int64)
                for a in range(d_next):
                    for b in range(d_prev):
                        r = a * d_prev + b
                        for c in range(d_mid):
                            block[r, (k * d_next + a) * d_mid + c] += action[q - 1][l][c, b]
                            block[r, (l * d_next + a) * d_mid + c] -= action[q - 1][k][c, b]
                rows.append(block % prime)
        if rows:
            constraint = np.vstack(rows)
            null = kernel_basis(constraint, prime)
            coeffs = rng.integers(0, prime, null.shape[1])
            flat = matmul_mod(null, coeffs.reshape(-1, 1), prime).ravel()
        else:
            flat = rng.integers(0, prime, nunk)
        action.append(flat.reshape(n, d_next, d_mid))
    mod = GradedModule(F101, n, tuple(dims), tuple(np.asarray(a) for a in action))
    mod.check_commutativity()
    return mod


class TestDifferential:
    def test_p0_zero_map(self, quartic_ring):
        mod = quartic_ring
        d = koszul_differential(mod, 0, 1)
        assert d.shape == (0, mod.pieces[1])

    def test_dd_zero_everywhere(self, quartic_ring):
        mod = quartic_ring
        for q in range(mod.window - 1):
            for p in range(1, mod.n + 1):
                d1 = koszul_differential(mod, p, q)
                d2 = koszul_differential(mod, p - 1, q + 1)
                assert not np.any(matmul_mod(d2, d1, 101))

    def test_quartic_multiplication_rank(self, quartic_ring):
        # d_{1,1}: V (x) H^0(O(1)) -> H^0(O(2)) is the multiplication, rank 6
        mod = quartic_ring
        d = koszul_differential(mod, 1, 1)
        assert d.shape == (6, 9)
        assert rank(d, 101) == 6

    def test_out_of_window(self, quartic_ring):
        mod = quartic_ring
        with pytest.raises(OutOfWindow):
            koszul_differential(mod, 2, mod.window)


class TestCohomology:
    def test_k00_is_unit(self, quartic_ring):
        mod = quartic_ring
        grp = koszul_cohomology(mod, 0, 0)
        assert grp.dim == 1

    def test_coboundaries_inside_cocycles(self, quartic_ring):
        # lifted from the chart's free coordinates, the unit vectors are the
        # canonical kernel basis of d_out, and the coboundary rows are a basis
        # of the image of d_in, inside that kernel
        mod = quartic_ring
        grp = koszul_cohomology(mod, 2, 1)
        d, d_in = koszul_differential(mod, 2, 1), koszul_differential(mod, 3, 0)
        cocycles = grp.lifted(np.eye(len(grp.free), dtype=np.int64), 101)
        coboundaries = grp.lifted(grp.rel.T, 101)
        assert np.array_equal(cocycles, kernel_basis(d, 101))
        assert not np.any(matmul_mod(d, coboundaries, 101))
        assert rank(np.hstack([d_in, coboundaries]), 101) == rank(d_in, 101) == coboundaries.shape[1]

    def test_bases_vs_rank_formula(self, quartic_ring):
        mod = quartic_ring
        calc = KoszulCalculator(mod)
        for p in range(0, 4):
            for q in range(0, 3):
                grp = koszul_cohomology(mod, p, q)
                assert grp.dim == calc.dim(p, q)

    def test_monomial_modules_match_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(6):
            mod = monomial_quotient_module(nvars=3, window=3, rng=rng)
            if min(mod.pieces) == 0:
                continue
            actions = [[mod.action[q][k].tolist() for k in range(mod.n)] for q in range(mod.window)]
            calc = KoszulCalculator(mod)
            for i in range(0, mod.n + 1):
                for q in (1, 2):
                    want = oracle_koszul_dim(mod.n, mod.pieces, actions, i, q, 101)
                    assert calc.dim(i, q) == want
                    checked += 1
        assert checked > 0

    def test_random_commuting_modules_match_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(4):
            dims = [int(d) for d in rng.integers(1, 5, size=4)]
            mod = random_commuting_module(2, dims, rng)
            actions = [[mod.action[q][k].tolist() for k in range(mod.n)] for q in range(mod.window)]
            calc = KoszulCalculator(mod)
            for i in range(0, 3):
                for q in (1, 2):
                    want = oracle_koszul_dim(mod.n, mod.pieces, actions, i, q, 101)
                    assert calc.dim(i, q) == want


class TestCalculatorConcurrency:
    def test_concurrent_cell_evaluation(self, quartic_ring):
        # cells are pure; the cache must stay coherent under racing threads
        import threading

        mod = quartic_ring
        calc = KoszulCalculator(mod)
        reference = KoszulCalculator(mod)
        cells = [(p, q) for p in range(0, 4) for q in range(0, 3)]
        results: dict = {}

        def worker(cell):
            results[cell] = calc.dim(*cell)

        threads = [threading.Thread(target=worker, args=(c,)) for c in cells * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for cell in cells:
            assert results[cell] == reference.dim(*cell)


class TestBettiTable:
    def test_rational_normal_curves_eagon_northcott(self):
        line = HyperellipticCurve(F101, [0, 1])
        for n in range(3, 7):
            alg = algebra_from_sections([line.sections(n * q) for q in range(5)])
            t = betti_table(alg)
            assert t.p_a == n + 1
            for p in range(1, n):
                assert t.entries[1, p] == eagon_northcott_b_p1(n, p), (n, p)
            # 2-regularity: nothing in rows 2 and 3
            assert not t.entries[2].any()
            assert not t.entries[3].any()
            assert t.entries[0, 0] == 1 and not t.entries[0, 1:].any()
            h = [n * q + 1 for q in range(n + 3)]
            assert hilbert_check(t, h)

    def test_smooth_genus3_canonical_curve(self, quartic_ring):
        # classical: the canonical model of a non-hyperelliptic genus-3 curve
        # is the quartic itself, so the resolution is 0 <- R <- S <- S(-4) <- 0
        t = betti_table(quartic_ring)
        want = np.zeros((4, 2), dtype=np.int64)
        want[0, 0] = 1
        want[3, 1] = 1
        assert np.array_equal(t.entries, want)
        assert duality_check(t)
        from math import comb

        h = [comb(q + 2, 2) - (comb(q - 2, 2) if q >= 4 else 0) for q in range(6)]
        assert hilbert_check(t, h)

    def test_rcliff(self):
        e = np.zeros((4, 8), dtype=np.int64)
        e[2, 3] = 5
        e[2, 6] = 1
        t = BettiTable(9, e)
        assert rcliff(t) == 3
        assert rcliff(BettiTable(9, np.zeros((4, 8), dtype=np.int64))) is None

    def test_duality_perturbation(self):
        e = np.zeros((4, 8), dtype=np.int64)
        e[0, 0] = 1
        e[3, 7] = 1
        e[1, 1:6] = [21, 64, 90, 64, 20]
        e[2, 2:7] = [20, 64, 90, 64, 21]
        t = BettiTable(9, e)
        assert duality_check(t)
        e2 = e.copy()
        e2[1, 2] += 1
        assert not duality_check(BettiTable(9, e2))

    def test_hilbert_paper_table(self):
        # the arithmetic-genus-9 table against the ribbon Hilbert function
        e = np.zeros((4, 8), dtype=np.int64)
        e[0, 0] = 1
        e[3, 7] = 1
        e[1, 1:6] = [21, 64, 90, 64, 20]
        e[2, 2:7] = [20, 64, 90, 64, 21]
        t = BettiTable(9, e)
        assert hilbert_dims(9, 3) == [1, 9, 24, 40]
        assert hilbert_check(t, hilbert_dims(9, 3))
        e2 = e.copy()
        e2[2, 3] += 1
        assert not hilbert_check(BettiTable(9, e2), hilbert_dims(9, 3))

    def test_trivial_table(self):
        e = np.zeros((4, 1), dtype=np.int64)
        e[0, 0] = 1
        e[3, 0] = 1
        t = BettiTable(2, e)
        assert duality_check(t)

    def test_text_layout(self):
        e = np.zeros((4, 3), dtype=np.int64)
        e[0, 0] = 1
        e[1, 1] = 5
        e[2, 1] = 5
        e[3, 2] = 1
        txt = BettiTable(4, e).to_text()
        lines = txt.splitlines()
        assert lines[1].startswith("total:")
        assert lines[2].split() == ["0:", "1", ".", "."]
        assert "5" in lines[3]

    def test_json_roundtrip(self):
        e = np.zeros((4, 3), dtype=np.int64)
        e[0, 0] = 1
        t = BettiTable(4, e)
        obj = json.loads(json.dumps(t.to_json_obj()))
        assert obj["p_a"] == 4
        assert obj["rows"][0][0] == 1
        assert obj["totals"] == [1, 0, 0]
        assert obj["q3_mode"] == "full" and obj["method"] == "direct"
        assert json.loads(json.dumps(BettiTable(4, e, method="artinian").to_json_obj()))["method"] == "artinian"
        with pytest.raises(ValueError):
            BettiTable(4, e, method="structural")
