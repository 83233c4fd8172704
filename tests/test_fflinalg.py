import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ribbonsyz.fflinalg import (
    NotPrime,
    PrimeField,
    leads,
    matmul_mod,
    pivots,
    rank,
    rref,
)

from ribbonsyz import fflinalg
from ribbonsyz.fflinalg import _MOD_BLOCK

from oracles import eager_eliminate, image_basis, kernel_basis, loop_kernel_basis, naive_rank, naive_solve, solve

P = 101


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPrimeField:
    def test_valid(self):
        assert PrimeField(101).p == 101
        assert PrimeField(2).p == 2

    @pytest.mark.parametrize("bad", [0, 1, 4, 100, 2**31])
    def test_invalid(self, bad):
        with pytest.raises(NotPrime):
            PrimeField(bad)

    def test_inv(self):
        f = PrimeField(101)
        for a in range(1, 101):
            assert (a * f.inv(a)) % 101 == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


class TestRref:
    def test_identity(self):
        r, piv = rref(np.eye(2, dtype=np.int64), P)
        assert np.array_equal(r, np.eye(2, dtype=np.int64))
        assert piv == [0, 1]

    def test_zero(self):
        r, piv = rref(np.zeros((3, 4), dtype=np.int64), P)
        assert not np.any(r)
        assert piv == []

    def test_rank_against_naive_oracle(self):
        # 50 random 20x30 matrices: pivot count must agree with fraction-free
        # elimination written independently in oracles.py
        g = rng(7)
        for _ in range(50):
            a = g.integers(0, P, (20, 30))
            _, piv = rref(a, P)
            assert len(piv) == naive_rank(a.tolist(), P)

    @pytest.mark.parametrize("shape", [(6, 4), (20, 30), (250, 310)])
    def test_pivots_are_the_rref_pivots(self, shape):
        # forward elimination alone gives the canonical pivot columns, on
        # the simple engine and on the blocked one (250 x 310); column 3 is
        # a combination of earlier columns, so it is never a pivot
        g = rng(shape[0])
        for _ in range(3):
            a = g.integers(0, P, shape)
            a[:, 3] = (2 * a[:, 0] + 7 * a[:, 1]) % P
            piv = pivots(a, P)
            assert piv == rref(a, P)[1]
            assert rank(a, P) == len(piv)
            assert 3 not in piv

    def test_idempotent(self):
        g = rng(3)
        for _ in range(10):
            a = g.integers(0, P, (8, 12))
            r1, piv1 = rref(a, P)
            r2, piv2 = rref(r1, P)
            assert np.array_equal(r1, r2)
            assert piv1 == piv2

    def test_blocked_path_rank_deficient(self):
        # large enough to trigger the BLAS-blocked engine
        g = rng(11)
        left = g.integers(0, P, (300, 120))
        right = g.integers(0, P, (120, 400))
        a = matmul_mod(left, right, P)  # rank <= 120
        r = rank(a, P)
        assert r <= 120
        # padding with dependent rows must not change the rank
        stacked = np.vstack([a, a[:50]])
        assert rank(stacked, P) == r

    @pytest.mark.parametrize("case", ["dense", "sparse", "late-pivot"])
    def test_blocked_vs_simple_exact_equality(self, case):
        from ribbonsyz.fflinalg import _eliminate_blocked, _eliminate_simple

        g = rng(23)
        if case == "dense":
            a = g.integers(0, P, (250, 310))
            a[:, 40] = (3 * a[:, 2] + 5 * a[:, 17]) % P
        elif case == "sparse":
            # about 1% dense, and the first 288 rows are zero on the first
            # panel, so that panel's pivots all lie below them
            a = g.integers(1, P, (700, 300)) * (g.random((700, 300)) < 0.01)
            a[:288, :128] = 0
        else:
            # columns 0 and 1 agree on the first 300 rows; only row 300,
            # zero in column 1, makes column 1 a pivot
            a = np.zeros((400, 300), dtype=np.int64)
            a[0, :2] = 1
            a[300, 0] = 1
        for reduced in (False, True):
            w = a.astype(np.float64)
            piv_b = _eliminate_blocked(w, P, reduced)
            s = a.copy()
            piv_s = _eliminate_simple(s, P, reduced)
            assert piv_b == piv_s
            if reduced:
                assert np.array_equal(w.astype(np.int64), s)


def record_mod_calls(monkeypatch) -> list:
    """The shapes of the ``_mod_inplace`` calls, one each.

    Each call's input is checked against the bound |x| < 2**t - p under
    which it is exact, with 2**t read from ``_EXACT_MAX`` when it is made,
    so that a lowered limit applies.
    """
    from ribbonsyz import fflinalg

    calls = []
    exact = fflinalg._mod_inplace

    def checked(x, q):
        assert np.abs(x).max(initial=0) < fflinalg._EXACT_MAX[x.dtype.type] - q
        calls.append(x.shape)
        return exact(x, q)

    monkeypatch.setattr(fflinalg, "_mod_inplace", checked)
    return calls


class TestDriftReset:
    """The blocked engine's drift reset (``_mod_inplace`` of the rows it
    updates inside ``_eliminate_blocked``), forced by lowering the exactness
    bound it guards.  A reset is one more ``_mod_inplace`` call for each of
    the two row ranges, below and above the pivot block, and no other call
    moves, so the surplus calls of a run at the lowered bound are its
    resets."""

    @staticmethod
    def surplus_calls(a, p, monkeypatch, dtype=np.float64) -> tuple[list, np.ndarray, list]:
        """The blocked engine's reset calls in ``dtype``, as shapes, forward
        and reduced, and its reduced result; one update fits under the
        dtype's lowered bound, the next must reset first."""
        from ribbonsyz import fflinalg

        calls = record_mod_calls(monkeypatch)

        def run(reduced):
            calls.clear()
            w = a.astype(dtype)
            piv = fflinalg._eliminate_blocked(w, p, reduced)
            return Counter(calls), w, piv

        plain = [run(reduced)[0] for reduced in (False, True)]
        step = fflinalg._PANEL * (p - 1) ** 2
        monkeypatch.setitem(fflinalg._EXACT_MAX, dtype, p + 2 * step)
        forward, _, piv = run(False)
        reduced, w, rpiv = run(True)
        assert piv == rpiv
        return [forward - plain[0], reduced - plain[1]], w.astype(np.int64), piv

    def assert_forced_reset_matches_simple(self, p, monkeypatch, dtype=np.float64):
        """Returns the matrix and its RREF by the simple engine."""
        from ribbonsyz import fflinalg

        g = rng(p % 97)
        # several panels wide and rank-deficient, with zero and repeated columns
        a = matmul_mod(g.integers(0, p, (420, 330)), g.integers(0, p, (330, 640)), p)
        a[:, 100:110] = 0
        a[:, 300] = a[:, 7]
        s = a.copy()
        piv_s = fflinalg._eliminate_simple(s, p, reduced=True)
        surplus, w, piv = self.surplus_calls(a, p, monkeypatch, dtype)
        assert piv == piv_s and np.array_equal(w, s)
        # pivots 118, 128 and 84 in the first three panels, rank 330: the
        # second and third updates reset the rows below, 174 and 90 of them,
        # and with reduced the 118 and 246 rows above too
        assert [sum(c // fflinalg._PANEL == i for c in piv) for i in range(5)] == [118, 128, 84, 0, 0]
        assert surplus[0] == Counter({(174, 512): 1, (90, 384): 1})
        assert surplus[1] == surplus[0] + Counter({(118, 512): 1, (246, 384): 1})
        return a, s

    @pytest.mark.parametrize("p", [1048573, 101])
    def test_forced_reset_matches_simple(self, p, monkeypatch):
        self.assert_forced_reset_matches_simple(p, monkeypatch)

    def test_forced_reset_in_float32_matches_simple(self, monkeypatch):
        # the same resets in float32, the working dtype of every elimination
        # at p = 101, under its lowered exact-integer limit; rref, still
        # under that limit, returns the float32 RREF of the simple engine
        a, s = self.assert_forced_reset_matches_simple(P, monkeypatch, np.float32)
        r, _ = rref(a, P)
        assert r.dtype == np.float32 and np.array_equal(r, s)

    def test_reset_of_the_rows_above_alone(self, monkeypatch):
        # full rank 300 in panels of 128, 128 and 44 pivots: the last panel
        # leaves no row below, so with reduced its update, and the reset
        # before it, goes to the 256 rows above alone
        p = 101
        a = rng(59).integers(0, p, (300, 400))
        eager = a.copy()
        piv_e = eager_eliminate(eager, p, True)
        assert piv_e == list(range(300))
        surplus, w, piv = self.surplus_calls(a, p, monkeypatch)
        assert piv == piv_e and np.array_equal(w, eager)
        assert surplus[0] == Counter({(44, 272): 1})
        assert surplus[1] == Counter({(44, 272): 1, (128, 272): 1, (256, 144): 1})

    @pytest.mark.parametrize("p", [2, 13, 101, 65521, 1048573])
    def test_mod_inplace_is_exact(self, p):
        # negative intermediates, exact multiples and their neighbours, where
        # floor(x/p) misrounds (to -1 at p = 13, to p at p = 65521), and
        # values near 2**53 - p, in a matrix of several row blocks
        assert_mod_inplace_exact(p, np.float64)

    @pytest.mark.parametrize("p", [2, 3, 13, 101, 251])
    def test_mod_inplace_is_exact_in_float32(self, p):
        # the same in float32, up to 2**24 - p; the float32 quotient
        # misrounds for every p here but 2, whose inverse is exact
        misrounded = assert_mod_inplace_exact(p, np.float32)
        assert (misrounded > 0) == (p > 2)


def assert_mod_inplace_exact(p, dtype) -> int:
    """Check ``_mod_inplace`` below the dtype's limit 2**t - p; returns how
    many raw quotients floor(x * (1/p)) were off, which it corrected."""
    from ribbonsyz.fflinalg import _EXACT_MAX, _MOD_BLOCK, _mod_inplace

    g = rng(5)
    top = _EXACT_MAX[dtype] - p  # |x| < top
    k = (top - 2) // p  # the largest multiple k p whose neighbours stay below top
    near = g.integers(-k, k + 1, 2 * _MOD_BLOCK) * p
    ends = [p, -p, top - 1, 1 - top, k * p - 1, k * p + 1, 1 - k * p, -1 - k * p]
    ints = np.concatenate([g.integers(1 - top, top, 2 * _MOD_BLOCK), near, near - 1, near + 1, ends])
    x = ints.astype(dtype).reshape(-1, 4)
    assert x.dtype == dtype and np.array_equal(x.ravel().astype(np.int64), ints)
    assert x.shape[0] > _MOD_BLOCK // 4
    raw = np.floor(x * dtype(1.0 / p)).ravel().astype(np.int64)
    assert _mod_inplace(x, p) is x and x.dtype == dtype
    assert np.array_equal(x.ravel().astype(np.int64), ints % p)
    return int(np.count_nonzero(raw != ints // p))


class TestFloat32Boundary:
    """p = 251 is the largest prime whose working dtype is float32, p = 257
    the smallest past it.  Both are differentially checked against the
    simple engine on the blocked path."""

    @pytest.mark.parametrize("p, dtype", [(2, np.float32), (101, np.float32), (251, np.float32),
                                          (257, np.float64), (1048573, np.float64), (1048583, np.int64)])
    def test_dtype_is_picked_from_p(self, p, dtype):
        from ribbonsyz.fflinalg import _work_dtype

        assert _work_dtype(p) is dtype

    @pytest.mark.parametrize("p", [251, 257])
    @pytest.mark.parametrize("case", ["near-top", "rank-deficient"])
    def test_blocked_path_matches_simple(self, p, case, monkeypatch):
        from ribbonsyz import fflinalg

        g = rng(p)
        if case == "near-top":  # entries near p - 1: the largest products and sums
            a = g.integers(p - 3, p, (420, 260))
            a[:, 100] = a[:, 3]
        else:  # rank 150 over three panels, with zero and repeated columns
            a = matmul_mod(g.integers(0, p, (300, 150)), g.integers(0, p, (150, 420)), p)
            a[:, 200:210] = 0
            a[:, 300] = a[:, 7]
        s = a.copy()
        piv = fflinalg._eliminate_simple(s, p, reduced=True)
        dtypes = []
        blocked = fflinalg._eliminate_blocked

        def recording(w, q, reduced):
            dtypes.append((reduced, w.dtype))
            return blocked(w, q, reduced)

        monkeypatch.setattr(fflinalg, "_eliminate_blocked", recording)
        assert pivots(a, p) == piv and rank(a, p) == len(piv)
        r, rpiv = rref(a, p)
        assert rpiv == piv and r.dtype == fflinalg._work_dtype(p) and np.array_equal(r, s)
        k = kernel_basis(a, p)
        assert np.array_equal(k, loop_kernel_basis(s, piv, p)) and not np.any(matmul_mod(a, k, p))
        # forward and reduced passes alike reduce a copy in the working dtype
        forward = np.float32 if p < 256 else np.float64
        assert dtypes == [(False, forward)] * 2 + [(True, forward)] * 2

    @pytest.mark.parametrize("p", [251, 257])
    def test_matmul_mod_over_several_chunks(self, p):
        # at p = 251 one float32 chunk holds 2**24 // p**2 = 266 products; an
        # inner dimension of 1000 spans four chunks, and a product of more
        # than _MOD_BLOCK entries is written in row blocks
        if p == 251:
            assert (1 << 24) // (p * p) == 266
        g = rng(p)
        x = g.integers(p - 2, p, (5, 1000))  # near p - 1: the largest sums
        y = g.integers(p - 2, p, (1000, 7))
        x[2] = g.integers(0, p, 1000)
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))
        x, y = g.integers(-p, 2 * p, (300, 700)), g.integers(0, p, (700, 60))
        assert x.shape[0] * y.shape[1] > _MOD_BLOCK
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))

    def test_drift_reset_at_the_float32_limit(self, monkeypatch):
        # at p = 251 one update adds up to step = 128 * 250**2 = 8 000 000,
        # so two fit below 2**24 - p and a third resets the rows it updates
        # first.  A float64 copy never resets, so the surplus _mod_inplace
        # calls of the float32 run count its resets.  A dense 900 x 1100
        # matrix has pivots in eight panels: forward, seven updates of the
        # rows below, reset before the third, fifth and seventh; reduced,
        # an eighth of the rows above alone, and each reset goes to the rows
        # below and above
        from ribbonsyz import fflinalg

        p = 251
        step = fflinalg._PANEL * (p - 1) ** 2
        assert p + 2 * step < (1 << 24) - p <= p + 3 * step
        a = rng(53).integers(0, p, (900, 1100))
        s = a.copy()
        piv = fflinalg._eliminate_simple(s, p, reduced=True)
        assert piv == list(range(900))
        calls = record_mod_calls(monkeypatch)

        def run(dtype, reduced):
            calls.clear()
            w = a.astype(dtype)
            assert fflinalg._eliminate_blocked(w, p, reduced) == piv
            return w, len(calls)

        resets = []
        for reduced in (False, True):
            w, single = run(np.float32, reduced)
            resets.append(single - run(np.float64, reduced)[1])
        assert resets == [3, 6]
        assert w.dtype == np.float32 and np.array_equal(w.astype(np.int64), s)


MODULI = [2, 13, 101, 65521, 1048573, 2**31 - 1]


def exact_product(x, y, p):
    """x @ y mod p in python integers."""
    return np.array((np.asarray(x, dtype=object) @ np.asarray(y, dtype=object)) % p, dtype=np.int64)


def shaped_cases(p, seed=0):
    """Matrices in [0, p) of every shape and structure the elimination meets."""
    g = rng(seed)
    sparse = g.integers(0, p, (20, 18)) * (g.random((20, 18)) < 0.15)
    deficient = exact_product(g.integers(0, p, (25, 4)), g.integers(0, p, (4, 30)), p)
    deficient[:, 7] = deficient[:, 2]
    late = g.integers(0, p, (16, 12))
    late[:9, :5] = 0  # the first pivots lie below zero rows: swaps
    return {
        "dense": g.integers(0, p, (12, 15)),
        "sparse": sparse,
        "tall": g.integers(0, p, (40, 7)),
        "wide": g.integers(0, p, (6, 45)),
        "zero": np.zeros((5, 8), dtype=np.int64),
        "rank-deficient": deficient,
        "late-pivot": late,
    }


def record_resets(monkeypatch) -> list:
    """The simple engine's drift resets, one (lo, hi) row range each.

    A reset shows in the bound ``_rank1_update`` returns: it starts again
    from p - 1 instead of growing by (p - 1)**2 from the bound given.  The
    bound returned must bound every entry of the matrix.
    """
    from ribbonsyz import fflinalg

    resets = []
    update = fflinalg._rank1_update

    def recording(a, row, col, lo, hi, hit, p, bound):
        out = update(a, row, col, lo, hi, hit, p, bound)
        assert np.abs(a).max() <= out
        if out != bound + (p - 1) ** 2:
            resets.append((lo, hi))
        return out

    monkeypatch.setattr(fflinalg, "_rank1_update", recording)
    return resets


class TestLazyElimination:
    """``_eliminate_simple`` reduces lazily; pivots, matrix and row order must
    be those of the eager two-pass loop that reduces after every update."""

    @pytest.mark.parametrize("p", MODULI)
    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("with_order", [False, True])
    def test_matches_eager_oracle(self, p, reduced, with_order):
        from ribbonsyz.fflinalg import _eliminate_simple

        for name, a in shaped_cases(p, seed=p % 1000).items():
            lazy, eager = a.copy(), a.copy()
            lazy_order = np.arange(a.shape[0]) if with_order else None
            eager_order = np.arange(a.shape[0]) if with_order else None
            piv = _eliminate_simple(lazy, p, reduced, lazy_order)
            assert piv == eager_eliminate(eager, p, reduced, eager_order), name
            assert np.array_equal(lazy, eager), name
            assert lazy.min(initial=0) >= 0 and lazy.max(initial=0) < p, name
            if with_order:
                assert np.array_equal(lazy_order, eager_order), name
            assert len(piv) == naive_rank(a.tolist(), p), name

    def test_forced_reset_mid_matrix(self, monkeypatch):
        # a limit three updates above the start lets the first two updates
        # pass and resets before every second one after them.  Rank 30:
        # forward, 29 updates of the rows below, 14 resets; reduced, 30
        # updates (the last of the rows above alone), each of rows 0..29, so
        # 14 resets of the whole matrix
        from ribbonsyz import fflinalg

        p = 101
        step = (p - 1) ** 2
        monkeypatch.setattr(fflinalg, "_INT_DRIFT_MAX", p - 1 + 3 * step)
        resets = record_resets(monkeypatch)
        a = rng(41).integers(0, p, (30, 40))
        a[:, 5] = (2 * a[:, 1] + a[:, 3]) % p
        for reduced in (False, True):
            lazy, eager = a.copy(), a.copy()
            order, eager_order = np.arange(30), np.arange(30)
            piv = fflinalg._eliminate_simple(lazy, p, reduced, order)
            assert piv == eager_eliminate(eager, p, reduced, eager_order)
            assert np.array_equal(lazy, eager) and np.array_equal(order, eager_order)
            assert len(piv) == 30
        assert resets == [(r + 1, 30) for r in range(2, 29, 2)] + [(0, 30)] * 14

    @pytest.mark.parametrize("p, fires", [(101, False), (2**31 - 1, True)])
    def test_reset_at_the_real_limit(self, p, fires, monkeypatch):
        # never at p = 101; near 2**31 before every update but the first: of
        # the rows below the pivot forward, of the whole matrix reduced, whose
        # last update goes to the rows above alone
        from ribbonsyz import fflinalg

        resets = record_resets(monkeypatch)
        a = rng(43).integers(1, p, (20, 24))
        for reduced in (False, True):
            resets.clear()
            lazy, eager = a.copy(), a.copy()
            piv = fflinalg._eliminate_simple(lazy, p, reduced)
            assert piv == eager_eliminate(eager, p, reduced) and np.array_equal(lazy, eager)
            assert len(piv) == 20
            want = [(0, 20)] * 19 if reduced else [(r + 1, 20) for r in range(1, 19)]
            assert resets == (want if fires else [])


def tiny_cases(p, seed=0):
    """Matrices in [0, p) for the Python-integer engine: the degenerate
    shapes, dependent rows and the largest square it admits."""
    g = rng(seed)
    dup = g.integers(0, p, (5, 7))
    dup[3] = dup[1]
    side = math.isqrt(fflinalg._TINY_MAX)
    return {
        "0x5": np.zeros((0, 5), dtype=np.int64),
        "5x0": np.zeros((5, 0), dtype=np.int64),
        "1x1": g.integers(1, p, (1, 1)),
        "1x1 zero": np.zeros((1, 1), dtype=np.int64),
        "zero": np.zeros((4, 6), dtype=np.int64),
        "duplicate rows": dup,
        "deficient": exact_product(g.integers(0, p, (6, 2)), g.integers(0, p, (2, 9)), p),
        "late pivots": np.hstack([np.zeros((7, 3), dtype=np.int64), g.integers(0, p, (7, 3)) * (g.random((7, 3)) < 0.5)]),
        "wide": g.integers(0, p, (3, 20)),
        "tall": g.integers(0, p, (20, 3)),
        "largest square": g.integers(0, p, (side, side)),
    }


class TestTinyEngine:
    """``leads``, the engine of forward eliminations of at most _TINY_MAX
    entries, against the oracles and the numpy engine."""

    @pytest.mark.parametrize("p", [2, 3, 101, 65537, 2**31 - 1])
    def test_pivots_match_the_oracles_and_the_numpy_engine(self, p, monkeypatch):
        tiny = []
        real = fflinalg._tiny_pivots
        monkeypatch.setattr(fflinalg, "_tiny_pivots", lambda m, q: tiny.append(m.shape) or real(m, q))
        for name, a in tiny_cases(p, seed=p % 1009).items():
            assert a.size <= fflinalg._TINY_MAX, name
            want = eager_eliminate(a.copy(), p, False)
            assert fflinalg._eliminate(a, p, False)[1] == want, name
            tiny.clear()
            assert pivots(a, p) == want and tiny == [a.shape], name
            assert rank(a, p) == len(want) == naive_rank(a.tolist(), p), name
            # unreduced and negative entries read as their residues
            assert pivots(a + p * rng(1).integers(-2, 3, a.shape), p) == want, name

    @pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
    def test_dispatch_at_the_threshold(self, p, monkeypatch):
        # _TINY_MAX entries run in Python integers, one more in numpy
        limit = fflinalg._TINY_MAX
        engines = []
        real_tiny, real_numpy = fflinalg._tiny_pivots, fflinalg._eliminate
        monkeypatch.setattr(fflinalg, "_tiny_pivots", lambda m, q: engines.append("tiny") or real_tiny(m, q))
        monkeypatch.setattr(fflinalg, "_eliminate", lambda a, q, reduced: engines.append("numpy") or real_numpy(a, q, reduced))
        g = rng(p % 997)
        for shape, engine in [((1, limit), "tiny"), ((limit, 1), "tiny"), ((1, limit + 1), "numpy"), ((limit + 1, 1), "numpy"), ((2, limit // 2), "tiny"), ((3, (limit + 3) // 3), "numpy")]:
            a = g.integers(0, p, shape)
            a[:, : shape[1] // 2] = 0  # the first pivot lies past the middle
            engines.clear()
            got = pivots(a, p)
            assert engines == [engine], shape
            assert got == eager_eliminate(a.copy(), p, False) and len(got) == naive_rank(a.tolist(), p), shape

    def test_largest_square_at_the_largest_prime(self):
        # where the lazy rows grow the most: every column of a random
        # full-rank square is cleared by all the columns kept before it
        p = 2**31 - 1
        side = math.isqrt(fflinalg._TINY_MAX)
        for seed in range(3):
            a = rng(seed).integers(0, p, (side, side))
            assert a.size == fflinalg._TINY_MAX
            want = eager_eliminate(a.copy(), p, False)
            assert pivots(a, p) == want == list(range(side)) and rank(a, p) == naive_rank(a.tolist(), p)
            # a dependent last column, from integer combinations far past p
            b = a.copy()
            b[:, -1] = (a[:, :-1] @ rng(seed + 9).integers(0, 5, side - 1)) % p
            assert pivots(b, p) == list(range(side - 1)) == eager_eliminate(b.copy(), p, False)

    @pytest.mark.parametrize("p", [2, 3, 101, 65537, 2**31 - 1])
    def test_leads_row_by_row(self, p):
        # row i yields None exactly when the rows before it span it, and
        # otherwise its lead: the first column c where adding row i raises
        # the rank of the first c + 1 columns.  Rows of unreduced and
        # negative Python integers are read as residues and left unwritten
        g = rng(p % 1021)
        for trial in range(8):
            n, d = int(g.integers(1, 7)), int(g.integers(1, 7))
            rows = g.integers(0, p, (n, d)).tolist()
            if trial % 2:
                rows[-1] = [(2 * x + y) % p for x, y in zip(rows[0], rows[n // 2])]
            rows[0][0] = 0
            given = [[x + p * int(k) for x, k in zip(row, g.integers(-3, 4, d))] for row in rows]
            before = [list(row) for row in given]
            got = list(leads(given, p))
            assert given == before
            for i, lead in enumerate(got):
                grows = [naive_rank([r[: c + 1] for r in rows[: i + 1]], p) > naive_rank([r[: c + 1] for r in rows[:i]], p) for c in range(d)]
                assert lead == (grows.index(True) if any(grows) else None), (trial, i)


class TestKernel:
    def test_identity_empty(self):
        k = kernel_basis(np.eye(4, dtype=np.int64), P)
        assert k.shape == (4, 0)

    def test_forced_up_to_scale(self):
        k = kernel_basis(np.array([[1, 1]]), P)
        assert k.shape == (2, 1)
        assert (k[0, 0] + k[1, 0]) % P == 0
        assert np.any(k)

    def test_rank_nullity_and_annihilation(self):
        g = rng(5)
        for _ in range(20):
            n, m = int(g.integers(1, 15)), int(g.integers(1, 15))
            a = g.integers(0, P, (n, m))
            k = kernel_basis(a, P)
            assert k.shape[1] == m - naive_rank(a.tolist(), P)
            assert not np.any(matmul_mod(a, k, P))
            if k.shape[1]:
                assert rank(k, P) == k.shape[1]


    @pytest.mark.parametrize("p", [2, 101, 1048573, 2**31 - 1])
    def test_matches_loop_oracle(self, p):
        g = rng(p % 89)
        cases = list(shaped_cases(p).values()) + [
            g.integers(0, p, (9, 13)),
            np.eye(6, dtype=np.int64),  # full rank: no free column
            np.zeros((0, 5), dtype=np.int64),  # no rows: every column free
            np.zeros((4, 0), dtype=np.int64),  # no columns
        ]
        for a in cases:
            r, pivots = rref(a, p)
            want = loop_kernel_basis(r, pivots, p)
            k = kernel_basis(a, p)
            assert k.dtype == np.int64 and np.array_equal(k, want)
            assert not np.any(exact_product(a, k, p))


def in_span(a, v) -> bool:
    """Whether v lies in the column span of a, decided by comparing two ranks."""
    return rank(np.column_stack([a, v]), P) == rank(a, P)


class TestImageMembership:
    def test_zero_vector(self):
        g = rng(1)
        a = g.integers(0, P, (5, 3))
        assert in_span(a, np.zeros(5, dtype=np.int64))

    def test_identity_all(self):
        g = rng(2)
        v = g.integers(0, P, 6)
        assert in_span(np.eye(6, dtype=np.int64), v)

    def test_matches_oracle_solve(self):
        g = rng(9)
        for _ in range(40):
            a = g.integers(0, P, (8, 4))
            v = g.integers(0, P, 8)
            expected = naive_solve(a.tolist(), v.tolist(), P) is not None
            assert in_span(a, v) == expected


class TestSolve:
    def test_roundtrip(self):
        g = rng(13)
        for _ in range(20):
            a = g.integers(0, P, (9, 5))
            while naive_rank(a.tolist(), P) < 5:
                a = g.integers(0, P, (9, 5))
            x = g.integers(0, P, (5, 3))
            b = matmul_mod(a, x, P)
            assert np.array_equal(solve(a, b, P), x)


class TestImageBasis:
    def test_spans_and_independent(self):
        g = rng(17)
        a = g.integers(0, P, (10, 14))
        b = image_basis(a, P)
        assert rank(b, P) == b.shape[1] == rank(a, P)
        for j in range(a.shape[1]):
            assert in_span(b, a[:, j])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(2, 9))
def test_rank_equals_rank_of_transpose(seed, n, m):
    a = np.random.default_rng(seed).integers(0, P, (n, m))
    assert rank(a, P) == rank(a.T, P)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_membership_of_products(seed, n, m):
    g = np.random.default_rng(seed)
    a = g.integers(0, P, (n, m))
    x = g.integers(0, P, m)
    v = matmul_mod(a, x.reshape(-1, 1), P)
    assert in_span(a, v)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32003])
def test_other_moduli(p):
    g = rng(29)
    a = g.integers(0, p, (12, 9))
    assert rank(a, p) == naive_rank(a.tolist(), p)
    k = kernel_basis(a, p)
    assert not np.any(matmul_mod(a, k, p))


def product_dtypes(monkeypatch) -> list:
    """The working dtype of each ``_product_rows`` call of ``matmul_mod``, one a block of rows."""
    dtypes = []
    real = fflinalg._product_rows

    def recording(x, yw, p):
        dtypes.append(yw.dtype)
        return real(x, yw, p)

    monkeypatch.setattr(fflinalg, "_product_rows", recording)
    return dtypes


# p: the working dtype of a product past the int64 crossover, and the chunk,
# the inner columns summed before each reduction, in int64 and in that
# dtype: the largest c with (p - 1) + c (p - 1)**2 below the dtype's
# exact-integer limit (2**24, 2**53 or 2**63) less p
PRODUCT_CHUNKS = {
    2: (np.float32, 9223372036854775804, 16777212),
    3: (np.float32, 2305843009213693950, 4194302),
    101: (np.float32, 922337203685477, 1677),
    251: (np.float32, 147573952589676, 268),
    257: (np.float64, 140737488355327, 137438953471),
    65537: (np.float64, 2147483647, 2097151),
    1048573: (np.float64, 8388672, 8192),
    1048583: (np.int64, 8388512, 8388512),
    2**31 - 1: (np.int64, 2, 2),
}


@pytest.mark.parametrize("p", list(PRODUCT_CHUNKS))
def test_matmul_mod_against_python_integers(p, monkeypatch):
    # the one product rule against a product in Python integers: each dtype
    # at one, two and several chunks where its chunk allows it (float32 at
    # p = 101 and 251, float64 at 1048573, int64 at 2**31 - 1), products on
    # both sides of the int64 crossover, empty ones, and results of several
    # row blocks.  Operands are unreduced and negative, their residues near
    # p - 1, where the sums are largest; every reduction's input is checked
    # below the dtype's exact-integer limit less p
    work, int_chunk, work_chunk = PRODUCT_CHUNKS[p]
    assert fflinalg._work_dtype(p) is work
    g = rng(p % 997)
    limit = fflinalg._INT_PRODUCT_MAX

    def operand(shape):
        return g.integers(max(0, p - 4), p, shape) + p * g.integers(-3, 3, shape)

    cases = []  # (rows, inner, columns, the blocks' dtypes, chunks if one block)
    for dtype, chunk, small in ((np.int64, int_chunk, True), (work, work_chunk, False)):
        for k in sorted({1, 7, chunk, chunk + 1, 3 * chunk + 1}):
            # three rows and columns below the crossover; past it one row,
            # one block, and the fewest columns that cross it
            r = c = 3
            if not small:
                r, c = 1, limit // k + 1
            if k <= 30000 and (r * k * c <= limit) == small:
                cases.append((r, k, c, [dtype], -(-k // chunk)))
    for r, k, c in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (20000, 0, 2)]:
        cases.append((r, k, c, [np.int64] * max(1, -(-r * c // _MOD_BLOCK)), None))
    cases += [(200, 3, 100, [work] * 2, None), (100, 1, 200, [work] * 2, None)]
    assert {n for *_, n in cases} >= ({1, 2, 4} if p in (101, 251, 1048573, 2**31 - 1) else {1})
    dtypes = product_dtypes(monkeypatch)
    mods = record_mod_calls(monkeypatch)
    for r, k, c, blocks, chunks in cases:
        x, y = operand((r, k)), operand((k, c))
        dtypes.clear()
        mods.clear()
        got = matmul_mod(x, y, p)
        assert got.dtype == np.int64 and np.array_equal(got, exact_product(x, y, p)), (r, k, c)
        assert dtypes == [np.dtype(d) for d in blocks], (r, k, c)
        if chunks is not None:
            assert len(mods) == chunks, (r, k, c)


class TestMatmulMod:
    def test_float_path_crosses_a_chunk_boundary(self):
        # at p = 1048573 one float chunk holds 8192 products
        p = 1048573
        assert (2**53 - 2 * p) // (p - 1) ** 2 == 8192
        g = rng(37)
        x = g.integers(p - 40, p, (3, 9001))  # near p - 1: the largest sums
        y = g.integers(p - 40, p, (9001, 4))
        x[1] = g.integers(0, p, 9001)
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))

    @pytest.mark.parametrize("p", [2, 13, 101])
    def test_float_path_one_chunk(self, p, monkeypatch):
        # a product small enough for one int64 matmul: forced onto the float path
        monkeypatch.setattr(fflinalg, "_INT_PRODUCT_MAX", -1)
        g = rng(p)
        x, y = g.integers(0, p, (7, 300)), g.integers(0, p, (300, 5))
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))

    @pytest.mark.parametrize("p", [1048583, 2147483629])
    def test_int64_path_above_2_20(self, p, monkeypatch):
        # int64 chunks of inner columns, forced into _work_dtype(p) as above:
        # one chunk at p = 1048583, 25 chunks of 2 at p = 2147483629
        monkeypatch.setattr(fflinalg, "_INT_PRODUCT_MAX", -1)
        g = rng(p % 97)
        x, y = g.integers(p - 1000, p, (6, 50)), g.integers(0, p, (50, 8))
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))

    @pytest.mark.parametrize("p", [2, 101, 65537, 2**31 - 1])
    def test_small_int64_product_matches_the_blocked_path(self, p, monkeypatch):
        # a product of at most _INT_PRODUCT_MAX multiply-adds runs in int64,
        # on unreduced and negative operands alike, in chunks of two inner
        # columns at p = 2**31 - 1; it must equal the same product forced
        # into _work_dtype(p)
        dtypes = product_dtypes(monkeypatch)
        g = rng(p % 1013)
        limit = fflinalg._INT_PRODUCT_MAX
        work = np.dtype(fflinalg._work_dtype(p))
        for r, k, c in [(1, 1, 1), (3, 2, 5), (7, 2, 7), (4, 0, 3), (0, 4, 3), (3, 5, 0), (5, 9, 6), (16, 32, 32)]:
            x, y = g.integers(-3 * p, 3 * p, (r, k)), g.integers(-3 * p, 3 * p, (k, c))
            want = exact_product(x, y, p)
            assert r * k * c <= limit
            dtypes.clear()
            got = matmul_mod(x, y, p)
            assert got.dtype == np.int64 and np.array_equal(got, want), (r, k, c)
            assert dtypes == [np.dtype(np.int64)], (r, k, c)
            monkeypatch.setattr(fflinalg, "_INT_PRODUCT_MAX", -1)
            dtypes.clear()
            assert np.array_equal(matmul_mod(x, y, p), want), (r, k, c)
            assert dtypes == [work], (r, k, c)
            monkeypatch.setattr(fflinalg, "_INT_PRODUCT_MAX", limit)
        # one multiply-add past the limit takes _work_dtype(p)
        x, y = g.integers(0, p, (1, 1)), g.integers(0, p, (1, limit + 1))
        dtypes.clear()
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p)) and dtypes == [work]

    @pytest.mark.parametrize("p", MODULI)
    @pytest.mark.parametrize("shape", [(300, 40, 70), (17000, 2, 1), (90, 5, 200)])
    def test_row_blocks(self, p, shape):
        # results of more than one block of rows, each on both paths; the
        # last block is short
        g = rng(p % 89)
        r, k, c = shape
        x, y = g.integers(-p, 2 * p, (r, k)), g.integers(0, p, (k, c))
        assert r * c > _MOD_BLOCK and r % max(1, _MOD_BLOCK // c)
        assert np.array_equal(matmul_mod(x, y, p), exact_product(x, y, p))

    def test_empty_inner_and_outer(self):
        assert np.array_equal(matmul_mod(np.ones((2, 0)), np.ones((0, 3)), P), np.zeros((2, 3)))
        assert matmul_mod(np.ones((0, 4)), np.ones((4, 3)), P).shape == (0, 3)
        assert matmul_mod(np.ones((2, 4)), np.ones((4, 0)), P).shape == (2, 0)


def traced_peak(f) -> int:
    """Peak bytes allocated while f runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingCopies:
    """What a product or an elimination holds beside its input and result."""

    def test_rank_on_the_blocked_path(self):
        # the caller's matrix, one float copy and temporaries of _PANEL rows
        a = rng(47).integers(0, P, (1200, 1600))
        a[:, 900:] = matmul_mod(a[:, :60], rng(48).integers(0, P, (60, 700)), P)
        r = []
        assert traced_peak(lambda: r.append(rank(a, P))) <= 1.5 * a.nbytes
        assert r == [900]

    def test_rref_on_the_blocked_path(self):
        # the RREF is the float32 working copy, half the int64 input, and
        # equals the simple engine's, zero rows below the rank included;
        # kernel_basis holds that copy beside its int64 result
        from ribbonsyz.fflinalg import _eliminate_simple

        g = rng(51)
        a = matmul_mod(g.integers(0, P, (1000, 300)), g.integers(0, P, (300, 1400)), P)
        out = []
        assert traced_peak(lambda: out.append(rref(a, P))) <= 0.75 * a.nbytes
        r, piv = out[0]
        s = a.copy()
        assert piv == _eliminate_simple(s, P, reduced=True)
        assert len(piv) == 300 and r.dtype == np.float32 and np.array_equal(r, s)
        out = []
        assert traced_peak(lambda: out.append(kernel_basis(a, P))) <= 1.8 * a.nbytes
        k = out[0]
        assert k.dtype == np.int64 and k.shape == (1400, 1100) and not np.any(matmul_mod(a, k, P))
        assert np.array_equal(image_basis(a, P), a[:, piv])

    def test_rank_holds_a_float32_copy(self):
        # at p = 101 the working copy takes 4 bytes an entry, half the int64 input
        a = rng(47).integers(0, P, (1200, 1600))
        a[:, 900:] = matmul_mod(a[:, :60], rng(48).integers(0, P, (60, 700)), P)
        r = []
        assert traced_peak(lambda: r.append(rank(a, P))) <= 0.75 * a.nbytes
        assert r == [900]

    def test_matmul_mod_writes_its_result_by_row_blocks(self):
        g = rng(49)
        x, y = g.integers(0, P, (760, 60)), g.integers(0, P, (60, 760))
        out = []
        peak = traced_peak(lambda: out.append(matmul_mod(x, y, P)))
        assert peak <= out[0].nbytes + (1 << 20)
        assert np.array_equal(out[0], (x @ y) % P)


def test_large_p_fallback_path():
    # p > 2**20 forces the int64 engine; exactness must survive
    p = 2147483629  # prime just under 2**31
    g = rng(31)
    a = g.integers(0, p, (10, 7))
    assert rank(a, p) == naive_rank(a.tolist(), p)
    k = kernel_basis(a, p)
    assert not np.any(matmul_mod(a, k, p))

