import math
import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from ribbonsyz.curves import (
    CurveError,
    HyperellipticCurve,
    PlaneCurve,
    PointNotOnCurve,
    evaluation_matrix,
    mult_map,
    random_hyperelliptic,
    random_plane_curve,
    random_split_cubic,
    rational_points,
)
from ribbonsyz.fflinalg import PrimeField, pivots, rank
from ribbonsyz.rng import SeededStream
from ribbonsyz import strata
from ribbonsyz.strata import (
    _PREFIX_MAX,
    _TABLE_P_MAX,
    EllipticGroup,
    ExtensionClass,
    NotFound,
    SearchTooLarge,
    StrataError,
    ZeroSpan,
    ambient_space,
    blowup_index_bruteforce,
    blowup_sweep,
    class_in_span,
    gonality_bounds,
    make_witness,
    random_class,
    span_membership,
    w4_witnesses_elliptic,
    _STACK_ENTRIES,
    _bucket_pairs,
    _inverse_table,
    _inverses,
    _pool,
    _reduce,
)

from oracles import (
    first_witness,
    naive_blowup_index,
    naive_first_witness,
    naive_rank,
    restriction,
    vectorised_blowup_index,
)

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def elliptic():
    return random_split_cubic(F101, np.random.default_rng(7))


@pytest.fixture(scope="module")
def hyp2():
    return HyperellipticCurve(F101, [1, 3, 0, 0, 0, 1])


@pytest.fixture(scope="module")
def quartic():
    return PlaneCurve(F101, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)


def models_with_conormal(elliptic, hyp2, quartic):
    return [(elliptic, 6), (hyp2, 5), (quartic, 1)]


class TestSpanMembership:
    def test_evaluation_class_of_single_point(self, elliptic):
        space = ambient_space(elliptic, 6)
        pt = rational_points(elliptic)[3]
        w = make_witness(space, [pt])
        e = ExtensionClass(space, w.rows[0])
        assert span_membership(e, w)

    def test_full_span_contains_everything(self, elliptic):
        space = ambient_space(elliptic, 6)
        pts = rational_points(elliptic)[:20]
        w = make_witness(space, pts)
        assert rank(w.rows, 101) == space.dim
        e = random_class(space, np.random.default_rng(1))
        assert span_membership(e, w)

    def test_generic_class_misses_small_spans(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(2)
        misses = 0
        for _ in range(20):
            e = random_class(space, rng)
            pts = [pool[int(i)] for i in rng.choice(len(pool), size=2, replace=False)]
            if not span_membership(e, make_witness(space, pts)):
                misses += 1
        assert misses >= 19  # codim-3 condition over F_101

    def test_monotone_under_enlargement(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(3)
        for _ in range(25):
            sub = [pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)]
            e = class_in_span(space, sub, rng)
            w_small = make_witness(space, sub)
            extra = [q for q in pool if q not in sub][:2]
            w_big = make_witness(space, sub + extra)
            assert span_membership(e, w_small)
            assert span_membership(e, w_big)

    def test_one_rule_with_the_search(self, elliptic, monkeypatch):
        # _in_span, the search's confirmation, against comparing two ranks:
        # dependent and zero rows, no rows at all, and the zero vector, all
        # as Python integers
        rng = np.random.default_rng(6)
        for trial in range(60):
            n, d = int(rng.integers(0, 6)), int(rng.integers(1, 6))
            basis = rng.integers(0, 101, (int(rng.integers(0, d + 1)), d))
            rows = rng.integers(0, 101, (n, len(basis))) @ basis % 101  # dependent once n > len(basis)
            vec = [np.zeros(d, dtype=np.int64), rng.integers(0, 101, len(basis)) @ basis % 101, rng.integers(0, 101, d)][trial % 3]
            want = rank(np.vstack([rows, vec]), 101) == rank(rows, 101)
            assert strata._in_span(vec.tolist(), rows.tolist(), 101) == want
        # span_membership and the confirmation both go through it
        space = ambient_space(elliptic, 6)
        w = make_witness(space, rational_points(elliptic)[:3])
        e = class_in_span(space, list(w.points), rng)
        calls = []
        monkeypatch.setattr(strata, "_in_span", lambda vec, rows, p: calls.append(len(rows)) or True)
        assert span_membership(e, w) and strata._confirm(e.vec, w.rows, [(0, 2)], 101) == (0, 2)
        assert calls == [3, 2]


class TestPushoutPullback:
    def test_restriction_zero_iff_membership(self, elliptic, hyp2, quartic):
        # the secant-variety criterion: e in span(beta) <=> restriction dies
        rng = np.random.default_rng(4)
        for model, t in models_with_conormal(elliptic, hyp2, quartic):
            space = ambient_space(model, t)
            pool = rational_points(model)
            for trial in range(30):
                deg = int(rng.integers(1, 5))
                pts = [pool[int(i)] for i in rng.choice(len(pool), size=deg, replace=False)]
                w = make_witness(space, pts)
                e = (
                    class_in_span(space, pts, rng)
                    if trial % 2 == 0
                    else random_class(space, rng)
                )
                assert span_membership(e, w) == (not restriction(e, w.rows)[1].any())

    def test_pushout_equals_pullback(self, elliptic, hyp2, quartic):
        rng = np.random.default_rng(5)
        for model, t in models_with_conormal(elliptic, hyp2, quartic):
            space = ambient_space(model, t)
            pool = rational_points(model)
            for _ in range(30):
                deg = int(rng.integers(1, 6))
                pts = [pool[int(i)] for i in rng.choice(len(pool), size=deg, replace=False)]
                w = make_witness(space, pts)
                e = random_class(space, rng)
                po_basis, po_coords = restriction(e, w.rows)
                pb_basis, pb_coords = restriction(e, w.rows[::-1])
                assert np.array_equal(po_basis, pb_basis)
                assert np.array_equal(po_coords, pb_coords)

    def test_point_class_restricted_to_its_own_divisor(self, hyp2):
        space = ambient_space(hyp2, 5)
        pt = rational_points(hyp2)[4]
        w = make_witness(space, [pt])
        e = ExtensionClass(space, w.rows[0])
        assert not restriction(e, w.rows)[1].any()

    def test_exhausted_subspace(self, elliptic):
        # enough conditions that no sections vanish on all points
        space = ambient_space(elliptic, 6)
        pts = rational_points(elliptic)[:space.dim + 2]
        w = make_witness(space, pts)
        if rank(w.rows, 101) == space.dim:
            e = random_class(space, np.random.default_rng(6))
            basis, coords = restriction(e, w.rows)
            assert basis.shape[1] == 0
            assert not coords.any()


class TestBlowupIndex:
    def test_zero_class_is_split(self, elliptic):
        space = ambient_space(elliptic, 6)
        res = blowup_index_bruteforce(np.zeros(space.dim, dtype=np.int64), [], space, 3)
        assert res.index == 0 and res.bound == "exact"

    def test_constructed_two_span(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(8)
        exact_two = 0
        for _ in range(10):
            pts = [pool[int(i)] for i in rng.choice(len(pool), size=2, replace=False)]
            e = class_in_span(space, pts, rng)
            res = blowup_index_bruteforce(e, pool, space, 3)
            assert res.index <= 2
            if res.index == 2:
                exact_two += 1
                w = make_witness(space, list(res.witness))
                assert span_membership(e, w)
        assert exact_two >= 8  # proportionality to one point is a 1/p event

    def test_index_never_exceeds_generic_bound(self, elliptic):
        # 0 <= b <= ceil((p_a + g - 2) / 2) for everything found
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        p_a, g = 7, 1
        bound = math.ceil((p_a + g - 2) / 2)
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = class_in_span(
                space, [pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)], rng
            )
            res = blowup_index_bruteforce(e, pool, space, 3)
            assert 0 <= res.index <= bound

    def test_not_found_raises(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        e = random_class(space, np.random.default_rng(123))
        # a uniform class almost never sits on a rational-reduced 1- or 2-span
        with pytest.raises(NotFound):
            blowup_index_bruteforce(e, pool, space, 2)

    def test_sweep_concentrates_at_span_size(self, elliptic):
        sw = blowup_sweep(elliptic, 6, 20, np.random.default_rng(10))
        hist = {int(k): v for k, v in sw["histogram"].items()}
        assert hist.get(3, 0) >= 16
        assert all(k in (2, 3) for k in hist)


def assert_matches_naive(space, pool, e, b_max):
    """blowup_index_bruteforce against the itertools + naive_rank oracle."""
    p = space.field.p
    rows = evaluation_matrix(space, pool).tolist()
    expected = naive_blowup_index(e.vec.tolist(), rows, b_max, p)
    try:
        res = blowup_index_bruteforce(e, pool, space, b_max)
    except NotFound:
        assert expected is None
        return None
    assert expected is not None
    b, combo = expected
    assert (res.index, res.bound, res.witness) == (b, "exact", tuple(pool[i] for i in combo))
    return b


class TestProjectionSearch:
    @pytest.mark.parametrize("p", [13, 17, 23])
    def test_matches_naive_oracle_small_fields(self, p):
        # degrees 4 and 5 run through the projection search too, well
        # inside the prefix budget
        field = PrimeField(p)
        model = random_split_cubic(field, np.random.default_rng(0))
        space = ambient_space(model, 8)
        pool = rational_points(model)
        assert math.comb(len(pool), 3) <= _PREFIX_MAX
        rng = np.random.default_rng(100 + p)
        seen = set()
        for span in (1, 2, 3, 4, 5, 5, 0, 0):
            e = (
                class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=span, replace=False)], rng)
                if span
                else random_class(space, rng)
            )
            seen.add(assert_matches_naive(space, pool, e, 5))
        assert {4, 5} <= seen

    def test_matches_naive_oracle_on_elliptic_pool(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(16)
        for span in (1, 2, 3):
            e = class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=span, replace=False)], rng)
            assert assert_matches_naive(space, pool, e, 3) == span

    def test_dependent_pool_against_oracle(self):
        # four-dimensional rows over F_5: dependent rows and degenerate
        # collisions everywhere
        p = 5
        rng = np.random.default_rng(17)
        for _ in range(40):
            rows = rng.integers(0, p, (9, 4))
            vec = rng.integers(0, p, 4)
            if not vec.any():
                continue
            expected = naive_blowup_index(vec.tolist(), rows.tolist(), 4, p)
            got = None
            for b in range(1, 5):
                found = first_witness(vec, rows, b, p)
                if found is not None:
                    got = (b, found)
                    break
            assert got == expected

    def test_prefix_spanning_the_whole_space(self):
        # span(vec, row 0) is the whole plane: nothing is left to project onto
        rows = np.array([[1, 0], [2, 0], [3, 0]], dtype=np.int64)
        vec = np.array([0, 1], dtype=np.int64)
        assert first_witness(vec, rows, 3, 7) is None
        assert naive_blowup_index(vec.tolist(), rows.tolist(), 3, 7) is None

    def test_base_point_is_never_a_witness(self):
        # on L(Pinf) of an elliptic curve the point at infinity evaluates to zero
        model = random_split_cubic(F101, np.random.default_rng(0))
        space = ambient_space(model, 1)
        pool = rational_points(model)
        assert pool[0] == "inf" and not evaluation_matrix(space, pool[:1]).any()
        e = random_class(space, np.random.default_rng(0))
        res = blowup_index_bruteforce(e, pool, space, 1)
        assert (res.index, res.witness) == (1, (pool[1],))
        assert span_membership(e, make_witness(space, res.witness))

    @pytest.mark.parametrize(
        "seed, witness",
        [
            (0, ("inf", (9, 61), (11, 93), (52, 94))),
            (1, ("inf", (0, 26), (2, 95), (4, 79))),
            (2, ("inf", (0, 92), (13, 73), (26, 0))),
            (4, ("inf", (3, 100), (85, 10), (96, 59))),
        ],
    )
    def test_degree_four_goldens_against_vectorised_oracle(self, seed, witness):
        # the classes of the golden `--span-size 4 --bmax 4` CLI cases, drawn
        # as the CLI draws them: no subset of degree <= 3, and no
        # lexicographically earlier 4-subset, has the class in its span
        rng = np.random.default_rng(seed)
        model = random_split_cubic(F101, rng)
        pool = rational_points(model)
        space = ambient_space(model, 6)
        e = class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=4, replace=False)], rng)
        expected = vectorised_blowup_index(e.vec, evaluation_matrix(space, pool), 4, 101)
        assert expected == (4, tuple(pool.index(pt) for pt in witness))
        res = blowup_index_bruteforce(e, pool, space, 4)
        assert (res.index, res.bound, res.witness) == (4, "exact", witness)

    def test_search_too_large_raises_before_searching(self, elliptic, monkeypatch):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(18)
        e = class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)], rng)
        assert blowup_index_bruteforce(e, pool, space, 3).index == 3
        # degrees 1 and 2 have one empty prefix each; degree 3 has n
        monkeypatch.setattr(strata, "_PREFIX_MAX", len(pool) - 1)
        with pytest.raises(SearchTooLarge) as info:
            blowup_index_bruteforce(e, pool, space, 3)
        assert (info.value.b, info.value.n, info.value.prefixes) == (3, len(pool), len(pool))
        assert f"degree 3 over {len(pool)} points needs {len(pool)} prefixes" in str(info.value)
        # a witness found below the refused degree is still returned
        e2 = class_in_span(space, pool[1:3], rng)
        assert blowup_index_bruteforce(e2, pool, space, 3).index == 2

    def test_zero_span_raises_instead_of_looping(self):
        # the point at infinity spans {0} in H^0(2K - L)^* for L = -Pinf,
        # and genus 0 with L = -Pinf has a zero ambient space
        model = random_split_cubic(F101, np.random.default_rng(0))
        space = ambient_space(model, 1)
        with pytest.raises(ZeroSpan, match="base points"):
            class_in_span(space, ["inf"], np.random.default_rng(0))
        with pytest.raises(ZeroSpan, match="no points were given"):
            class_in_span(space, [], np.random.default_rng(0))
        line = HyperellipticCurve(F101, [0, 1])
        empty = ambient_space(line, 1)
        assert empty.dim == 0
        with pytest.raises(ZeroSpan):
            random_class(empty, np.random.default_rng(0))
        with pytest.raises(ZeroSpan):
            class_in_span(empty, rational_points(line)[:1], np.random.default_rng(0))

    def test_degenerate_collision_is_rejected(self, monkeypatch):
        # rows 1 and 2 project to the same point from span(vec, row 0)
        # because row 2 = row 0 + row 1, not because vec lies in their span
        import ribbonsyz.strata as strata

        p = 13
        rows = np.array(
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
            dtype=np.int64,
        )
        vec = np.array([1, 0, 1, 1, 0], dtype=np.int64)
        checked = []
        real = strata._in_span
        monkeypatch.setattr(strata, "_in_span", lambda v, r, q: checked.append(r.copy()) or real(v, r, q))
        assert first_witness(vec, rows, 3, p) == (0, 3, 4)
        # the candidate (0, 1, 2) reaches the exact check, as the rows
        # [rows 0, 1, 2], and is rejected there: vec is not in their span
        degenerate = rows[[0, 1, 2]]
        assert any(np.array_equal(r, degenerate) for r in checked)
        assert not real(vec.tolist(), degenerate.tolist(), p)
        assert 3 in pivots(np.vstack([degenerate, vec]).T, p)
        assert naive_blowup_index(vec.tolist(), rows.tolist(), 3, p) == (3, (0, 3, 4))


def structured_pool(rng, p: int, n: int, d: int) -> np.ndarray:
    """Random rows plus a base point, a duplicate, a scaled copy and a sum."""
    rows = rng.integers(0, p, (n, d))
    rows[3] = 0
    rows[7] = rows[2]
    rows[9] = rows[5] * 3 % p
    rows[10] = (rows[0] + rows[1]) % p
    return rows


def search_index(vec, rows, b_max: int, p: int):
    """(degree, witness) from first_witness called for b = 1, 2, ... in turn."""
    for b in range(1, b_max + 1):
        found = first_witness(vec, rows, b, p)
        if found is not None:
            return b, found
    return None


class TestDifferentialSearch:
    """The depth-first search against the naive and vectorised oracles."""

    @pytest.mark.parametrize("p", [13, 101, 1048573])
    def test_structured_pools_against_both_oracles(self, p):
        # base point, duplicate and dependent rows; degrees up to 5, so
        # the prefixes of size 2 and 3 go through the depth-first walk
        rng = np.random.default_rng(p % 1000)
        n, d = 12, 6
        rows = structured_pool(rng, p, n, d)
        seen = set()
        for span in (1, 2, 3, 4, 5, 5, 6):
            vec = rng.integers(0, p, span) @ rows[rng.choice(n, span, replace=False)] % p
            if not vec.any():
                continue
            got = search_index(vec, rows, 5, p)
            assert got == vectorised_blowup_index(vec, rows, 5, p)
            b_found = got[0] if got else 6
            for b in range(1, min(b_found, 5) + 1):
                want = naive_first_witness(vec.tolist(), rows.tolist(), b, p)
                assert first_witness(vec, rows, b, p) == want
            seen.add(b_found)
        assert {4, 5} <= seen

    @pytest.mark.parametrize("p", [13, 101, 1048573])
    def test_pool_larger_than_one_chunk(self, p):
        # the last prefix level spans several chunks of the projection stack
        rng = np.random.default_rng(p % 997)
        n, d = 32, 6
        assert n - 2 > _STACK_ENTRIES // (n * d)
        rows = structured_pool(rng, p, n, d)
        for span in (3, 4, 5):
            pick = rng.choice(np.arange(11, n), span, replace=False)  # late rows
            vec = rng.integers(1, p, span) @ rows[pick] % p
            got = search_index(vec, rows, 5, p)
            assert got == vectorised_blowup_index(vec, rows, 5, p)
            assert got is not None and got[0] <= span

    @pytest.mark.parametrize("p", [101, 1048573])
    def test_witness_at_every_position(self, p, monkeypatch):
        # chunks of about three points: a planted witness ends a walk level,
        # starts or ends a chunk, or takes the pool's last rows
        n, d = 16, 6
        monkeypatch.setattr(strata, "_STACK_ENTRIES", 3 * n * d)
        rng = np.random.default_rng(p % 983)
        rows = rng.integers(1, p, (n, d))
        planted = [(i, n - 2, n - 1) for i in range(n - 2)]
        planted += [(0, i, n - 2, n - 1) for i in range(1, n - 2)] + [tuple(range(n - 4, n))]
        planted += [(0, 1, i, n - 2, n - 1) for i in range(2, n - 2)] + [tuple(range(n - 5, n))]
        for pick in planted:
            vec = rng.integers(1, p, len(pick)) @ rows[list(pick)] % p
            got = search_index(vec, rows, 5, p)
            assert got == vectorised_blowup_index(vec, rows, 5, p)
            assert got[0] <= len(pick)
            if p > 1000:  # no other subset meets the class, with near certainty
                assert got == (len(pick), pick)

    @pytest.mark.parametrize("p", [13, 101, 1048573])
    def test_prefix_spanning_the_whole_space_at_degree_five(self, p):
        # the rows span a hyperplane and vec lies off it: every prefix that
        # spans the hyperplane spans the whole space with vec, and no degree works
        rng = np.random.default_rng(p % 991)
        rows = np.zeros((9, 4), dtype=np.int64)
        rows[:, :3] = rng.integers(0, p, (9, 3))
        rows[4] = 0
        rows[6] = rows[1]
        vec = np.array([1, 2, 3, 1], dtype=np.int64)
        assert search_index(vec, rows, 5, p) is None
        assert vectorised_blowup_index(vec, rows, 5, p) is None
        for b in (4, 5):
            assert naive_first_witness(vec.tolist(), rows.tolist(), b, p) is None

    @pytest.mark.parametrize("p", [13, 101, 2147483647])
    def test_every_image_in_one_bucket(self, p, monkeypatch):
        # with an all-zero radix every nonzero image shares the key 0, so
        # the exact check alone picks the witness; chunks of 3 and 5 points
        # leave an odd chunk, and the last chunk, at every walk level
        n, d = 14, 5
        monkeypatch.setattr(strata, "_radix", lambda q, dim: np.zeros(dim, dtype=np.uint64))
        rng = np.random.default_rng(p % 977)
        rows = structured_pool(rng, p, n, d)
        for chunk in (3, 5):
            monkeypatch.setattr(strata, "_STACK_ENTRIES", chunk * n * d)
            for span in (2, 3, 4, 5):
                # each product reduced before the sum, which stays exact at p near 2**31
                terms = rng.integers(1, p, (span, 1)) * rows[rng.choice(n, span, replace=False)] % p
                vec = terms.sum(axis=0) % p
                if not vec.any():
                    continue
                got = search_index(vec, rows, 5, p)
                assert got == vectorised_blowup_index(vec, rows, 5, p)
                assert got is not None and got[0] <= span

    @pytest.mark.parametrize("p", [2, 13, 101, 1048573, 2147483647])
    def test_reduce_equals_remainder(self, p):
        # the search's int64 values: products of two residues, and a residue
        # minus such a product, so down to -(p - 1)**2
        g = np.random.default_rng(p % 1000)
        x = g.integers(0, p, 4000) * g.integers(0, p, 4000)
        x = np.concatenate([x, g.integers(0, p, 4000) - x, [0, p - 1, -(p - 1) ** 2, (p - 1) ** 2]])
        assert np.array_equal(_reduce(x.copy(), p), x % p)

    # 101 and 65521 (the largest prime under _TABLE_P_MAX) read the inverse
    # table; 65537 (the first prime above it) and the larger ones use Fermat
    @pytest.mark.parametrize("p", [2, 3, 13, 101, 65521, 65537, 1048573, 2147483647])
    def test_inverses(self, p):
        a = np.concatenate([np.arange(min(p, 500)), np.random.default_rng(0).integers(0, p, 500)])
        a = np.concatenate([a, a - p, a + p])  # unreduced residues too
        _inverse_table.cache_clear()
        inv = _inverses(a, p)
        assert np.array_equal(a % p * inv % p, (a % p != 0).astype(np.int64))
        assert _inverse_table.cache_info().currsize == (p <= _TABLE_P_MAX)  # no table above the bound

    @pytest.mark.parametrize("p", [13, 101, 1048573, 2147483647])
    def test_proportional_vectors_share_a_bucket(self, p):
        # the keys of 8 entries wrap modulo 2**64 at the two largest p;
        # proportional rows must still meet in one bucket
        rng = np.random.default_rng(1)
        x = rng.integers(0, p, (5, 8))
        x[:, 0] = 0  # leading zeros
        scale = rng.integers(1, p, 5)
        stack = np.concatenate([x, x * scale[:, None] % p, np.zeros((2, 8), dtype=np.int64)])
        pairs = _bucket_pairs(np.stack([stack, stack]), np.array([0, 3]), p)
        assert {(0, i, i + 5) for i in range(5)} | {(1, i, i + 5) for i in range(3, 5)} <= set(pairs)
        assert all(j >= 3 for t, j, _ in pairs if t == 1)
        assert all(10 not in pair and 11 not in pair for pair in pairs)  # zero rows are never bucketed
        assert pairs == sorted(pairs)


@dataclass(frozen=True)
class RowSpace:
    """A stand-in for a SectionSpace whose pool is given as rows (``rows_search``)."""

    field: PrimeField
    dim: int


def rows_search(monkeypatch, rows, vec, b_max: int, p: int):
    """(index, witness) of ``blowup_index_bruteforce`` over the given rows, or None.

    The pool is the rows' indices, and the witness a tuple of them.
    """
    monkeypatch.setattr(strata, "evaluation_matrix", lambda space, pts: rows[list(pts)])
    _pool.cache_clear()
    try:
        res = blowup_index_bruteforce(vec, range(len(rows)), RowSpace(PrimeField(p), rows.shape[1]), b_max)
    except NotFound:
        return None
    finally:
        _pool.cache_clear()
    assert res.bound == "exact"
    return res.index, res.witness


def combination(rng, rows, pick, p: int) -> np.ndarray:
    """A combination of the picked rows with nonzero coefficients, each product reduced before the sum."""
    return sum(int(rng.integers(1, p)) * rows[k] % p for k in pick) % p


def planted_pool(rng, p: int, n: int = 11, d: int = 5) -> np.ndarray:
    """Random rows with the degeneracies the normalised search meets.

    Row 2 is a base point, row 6 a multiple of row 1, and row 8 depends on
    rows 0 and 3.  Rows 4 and 9 are zero in their first two columns: for
    a class with a nonzero first entry, their images in V/<e> lead after
    the first column, so a prefix point leading there leaves them as they
    are, and they keep one key across a chunk's prefix points.
    """
    rows = rng.integers(0, p, (n, d))
    rows[2] = 0
    rows[6] = rows[1] * int(rng.integers(1, p)) % p
    rows[8] = combination(rng, rows, [0, 3], p)
    rows[[4, 9], :2] = 0
    return rows


def keys_shared_across_prefix_points(unit, kept, p: int) -> bool:
    """Whether two prefix points t of a stack have a kept vector with one unsalted key."""
    keys = unit.view(np.uint64) @ strata._radix(p, unit.shape[2])
    owners: dict[int, set] = {}
    for t, r in zip(*kept.nonzero()):
        owners.setdefault(int(keys[t, r]), set()).add(int(t))
    return any(len(ts) > 1 for ts in owners.values())


class TestNormalisedSearch:
    """The search in V/<e>: one normalisation per class, keys salted per
    prefix point, and the confirmation in Python integers, against the
    naive oracle.  65537 is the first prime whose inverses come from
    Fermat, not the table; at 2**31 - 1 the base-p keys wrap modulo 2**64."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 65537, 2147483647])
    def test_planted_pools_against_naive(self, p, monkeypatch):
        rng = np.random.default_rng(p % 1009)
        rows = planted_pool(rng, p)
        n, d = rows.shape
        stacks = []
        real = strata._equal_pairs
        monkeypatch.setattr(strata, "_equal_pairs", lambda u, k, f, q: stacks.append((u, k)) or real(u, k, f, q))
        # a multiple of row 5 (index 1), a multiple of row 6 (whose first
        # witness is row 1), spans of two to four rows, among them the
        # dependent triple (0, 3, 8) and rows 4 and 9, and a random class
        picks = [[5], [6], [0, 3], [1, 5], [0, 3, 8], [5, 7, 10], [0, 1, 5, 7], [3, 4, 9, 10]]
        for pick in picks + [None]:
            vec = rng.integers(0, p, d) if pick is None else combination(rng, rows, pick, p)
            if not vec.any():
                continue
            want = naive_blowup_index(vec.tolist(), rows.tolist(), 4, p)
            if pick is not None:
                assert want is not None and want[0] <= len(pick)
            for entries in (_STACK_ENTRIES, 2 * n * d):  # one chunk, or chunks of about two points
                monkeypatch.setattr(strata, "_STACK_ENTRIES", entries)
                assert search_index(vec, rows, 4, p) == want
                assert rows_search(monkeypatch, rows, vec, 4, p) == want
        # the salt path ran: some chunk had one key at two prefix points
        # (over F_2 this pool meets every class by degree 2, before any chunk)
        assert p == 2 or any(u.shape[0] > 1 and keys_shared_across_prefix_points(u, k, p) for u, k in stacks)

    def test_keys_shared_across_prefix_points_skip_the_grouping(self, monkeypatch):
        # one vector repeated at every prefix point, and no equal vectors
        # within one: salted, its keys differ and the sort finds nothing to
        # group; unsalted, they reach the exact grouping, which pairs nothing
        p = 101
        stack = np.random.default_rng(3).integers(1, p, (3, 6, 4))
        stack[:, 5] = stack[0, 5]
        unit, _, nonzero = strata._units(stack, p)
        assert all(len({tuple(v) for v in unit[t].tolist()}) == 6 for t in range(3))
        assert keys_shared_across_prefix_points(unit, nonzero, p)
        grouped = []
        real = strata.combinations
        monkeypatch.setattr(strata, "combinations", lambda js, k: grouped.append(js) or real(js, k))
        assert _bucket_pairs(stack, range(3), p) == []
        assert grouped == []
        monkeypatch.setattr(strata, "_salts", lambda t: np.zeros((t, 1), dtype=np.uint64))
        assert _bucket_pairs(stack, range(3), p) == []
        assert grouped == [[5], [5], [5]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_top_degree_rule_against_naive(self, p, monkeypatch):
        # b_max at or above the rank r: degree r is answered by the greedy
        # basis without a search, and a class off the rows' span raises
        # NotFound there, whatever b_max
        rng = np.random.default_rng(p)
        searched = []
        real = strata._search_degree
        monkeypatch.setattr(strata, "_search_degree", lambda v, r, u, b, q: searched.append(b) or real(v, r, u, b, q))
        seen = set()
        for trial in range(40):
            n, d = int(rng.integers(3, 7)), 4
            rows = rng.integers(0, p, (n, d))
            if trial % 3 == 1:
                rows[:, 3] = 0  # rank <= 3 < d
            vec = rng.integers(0, p, d)
            if not vec.any():
                continue
            r = rank(rows, p)
            want = naive_blowup_index(vec.tolist(), rows.tolist(), 6, p)
            searched.clear()
            assert rows_search(monkeypatch, rows, vec, 6, p) == want
            assert all(b < r for b in searched)
            seen.add("none" if want is None else "top" if want[0] == r else "below")
            if want is not None and want[0] == r:
                assert want[1] == tuple(pivots(rows.T, p))
        assert seen == {"none", "top", "below"}

    def test_top_degree_answers_past_the_prefix_budget(self, monkeypatch):
        # six rows of rank 3 in F_101^4 and a budget of one prefix: degree 3
        # would scan six prefixes, but it is the rank, so the greedy basis
        # answers it, and a class off the rows' span raises NotFound there
        p = 101
        rows = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]], dtype=np.int64
        )
        monkeypatch.setattr(strata, "_PREFIX_MAX", 1)
        assert rows_search(monkeypatch, rows, np.array([1, 2, 3, 0]), 6, p) == (3, (1, 3, 5))
        assert rows_search(monkeypatch, rows, np.array([0, 0, 0, 1]), 6, p) is None
        # below the rank the budget still holds
        full = np.vstack([rows, [[0, 0, 0, 1]]])
        with pytest.raises(SearchTooLarge):
            rows_search(monkeypatch, full, np.array([1, 2, 3, 4]), 6, p)


def recorded_sweep(monkeypatch, model, t: int, count: int, rng, span_size: int, b_max: int):
    """(space, pool, calls) of a ``blowup_sweep``: per class (e, its bounds, its result or None).

    The bounds are the keywords the sweep passes and "floor", the floor the
    search computed, or None if it computed none.
    """
    calls, floors = [], []
    real, real_floor = strata.blowup_index_bruteforce, strata._floor

    def floor(vec, space):
        floors.append(real_floor(vec, space))
        return floors[-1]

    def record(e, pool, space, b, **bounds):
        floors.clear()
        try:
            res = real(e, pool, space, b, **bounds)
        except NotFound:
            res = None
        assert len(floors) <= 1
        calls.append((e, {**bounds, "floor": floors[0] if floors else None}, res))
        if res is None:
            raise NotFound(b)
        return res

    monkeypatch.setattr(strata, "blowup_index_bruteforce", record)
    monkeypatch.setattr(strata, "_floor", floor)
    out = blowup_sweep(model, t, count, rng, span_size=span_size, b_max=b_max)
    monkeypatch.setattr(strata, "blowup_index_bruteforce", real)
    monkeypatch.setattr(strata, "_floor", real_floor)
    assert [None if res is None else res.index for _, _, res in calls] == [r["index"] for r in out["results"]]
    return ambient_space(model, t), rational_points(model), calls


def exhaustive_index(e, pool, space, b_max: int):
    try:
        return blowup_index_bruteforce(e, pool, space, b_max).index
    except NotFound:
        return None


def floor_of(space, vec) -> int:
    return strata._floor(np.asarray(vec), space)


def collinear_triple(pool, p: int) -> list:
    """Three points of a plane pool over F_p on one line, or []."""
    for a, b in combinations(pool, 2):
        line = np.cross(a, b)  # the line through a and b, as a row of coefficients
        on = [pt for pt in pool if not int(np.dot(line, pt)) % p]
        if len(on) >= 3:
            return on[:3]
    return []


# (model maker, t): every family, at every p where it exists
BRACKETED_FAMILIES = {
    "elliptic": (lambda field, rng: random_split_cubic(field, rng), 6),
    "hyperelliptic-g2": (lambda field, rng: random_hyperelliptic(field, 2, rng), 5),
    "genus0": (lambda field, rng: HyperellipticCurve(field, [0, 1]), 9),
    "plane-cubic": (lambda field, rng: random_plane_curve(field, 3, rng), 3),
    "plane-quartic": (lambda field, rng: random_plane_curve(field, 4, rng), 1),
}


class TestBracketedSweep:
    """The sweep's search between the determinantal floor and the drawing
    span, against the exhaustive search of every degree."""

    @pytest.mark.parametrize("family", sorted(BRACKETED_FAMILIES))
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_sweep_gives_the_exhaustive_index(self, family, p, monkeypatch):
        make, t = BRACKETED_FAMILIES[family]
        try:
            model = make(PrimeField(p), np.random.default_rng(p))
        except CurveError:  # hyperelliptic models and split cubics need odd p
            assert p == 2 and family not in ("plane-cubic", "plane-quartic")
            return
        n = len(rational_points(model))
        for span_size in range(1, min(4, n) + 1):
            space, pool, calls = recorded_sweep(
                monkeypatch, model, t, 6, np.random.default_rng(span_size), span_size, span_size
            )
            for e, bounds, res in calls:
                assert bounds["span"] is not None and len(bounds["span"]) == span_size
                want = exhaustive_index(e, pool, space, span_size)
                assert (None if res is None else res.index) == want
                if span_size == 1:  # the span answers degree 1, and no floor is computed
                    assert bounds["floor"] is None
                else:
                    assert bounds["floor"] == floor_of(space, e.vec)
                if res is not None:
                    assert (bounds["floor"] or 1) <= res.index == len(res.witness)
                    assert span_membership(e, make_witness(space, res.witness))

    def test_floor_equals_the_index_on_the_benchmark_sweep(self, monkeypatch):
        # strata --curve elliptic-split --conormal -6 --sweep 100 --seed 2026:
        # the floor meets the index on every class, so the only degree
        # searched is 2, on the classes of index 2, and no degree-3 walk runs
        rng = SeededStream(2026)
        model = random_split_cubic(F101, rng)
        searched = []
        real = strata._search_degree
        monkeypatch.setattr(strata, "_search_degree", lambda v, r, u, b, q: searched.append(b) or real(v, r, u, b, q))
        space, pool, calls = recorded_sweep(monkeypatch, model, 6, 100, rng, 3, 3)
        assert len(pool) == 84 and len(calls) == 100
        indices = [res.index for _, _, res in calls]
        assert {b: indices.count(b) for b in set(indices)} == {2: 2, 3: 98}
        assert searched == [2, 2]
        for e, bounds, res in calls:
            assert bounds["floor"] == res.index == exhaustive_index(e, pool, space, 3)
            if res.index == 3:
                assert res.witness == tuple(pool[i] for i in sorted(bounds["span"]))

    def test_gap_search_on_genus0(self, monkeypatch):
        # the pinned genus-0 sweep: a floor of at most 3 below spans of 4,
        # so degree 3 is searched between them
        searched = []
        real = strata._search_degree
        monkeypatch.setattr(strata, "_search_degree", lambda v, r, u, b, q: searched.append(b) or real(v, r, u, b, q))
        model = HyperellipticCurve(F101, [0, 1])
        space, pool, calls = recorded_sweep(monkeypatch, model, 9, 20, np.random.default_rng(0), 4, 4)
        assert all(bounds["floor"] <= 3 for _, bounds, _ in calls)
        assert searched.count(3) == 20 and set(searched) == {3}
        for e, _, res in calls:
            assert res.index == exhaustive_index(e, pool, space, 4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537])
    def test_floor_at_most_the_index_on_planted_pools(self, p):
        # classes drawn in planted spans of up to 4 pool points, among them
        # repeated and dependent ones; the pool is at most 24 points
        rng = np.random.default_rng(p)
        seen = 0
        for family in sorted(BRACKETED_FAMILIES):
            make, t = BRACKETED_FAMILIES[family]
            try:
                model = make(PrimeField(p), np.random.default_rng(p))
            except CurveError:
                continue
            if isinstance(model, PlaneCurve) and p == 65537:
                continue  # p**2 + p + 1 candidate points: past the point-scan budget
            space = ambient_space(model, t)
            pool = rational_points(model)[:24]
            for _ in range(6):
                size = int(rng.integers(1, min(4, len(pool)) + 1))
                e = class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=size, replace=False)], rng)
                index = exhaustive_index(e, pool, space, 4)
                assert index is not None and floor_of(space, e.vec) <= index <= size
                seen += 1
        assert seen >= 6

    @pytest.mark.parametrize("p", [101, 65537, 2147483647])
    def test_floor_is_the_rank_of_the_contracted_tensor(self, p, monkeypatch):
        # the floor pairs e with the product table: one int64 product while
        # dim * (p - 1)**2 < 2**63, matmul_mod at 2**31 - 1; both against
        # mult_map's tensor contracted in Python integers.  The
        # matrix goes to fflinalg.rank, whose engine is tested on its own
        ranked = []
        real = strata.rank
        monkeypatch.setattr(strata, "rank", lambda a, q: ranked.append(np.asarray(a).tolist()) or real(a, q))
        rng = np.random.default_rng(p % 1009)
        field = PrimeField(p)
        for model, t in [
            (random_split_cubic(field, rng), 6),
            (random_hyperelliptic(field, 2, rng), 5),
            (random_plane_curve(field, 3, rng), 4),  # products reduced by f: entries up to p - 1
        ]:
            space = ambient_space(model, t)
            a = space.tag // 2
            mm = mult_map(model.sections(a), model.sections(space.tag - a)).tolist()
            for _ in range(5):
                e = random_class(space, rng).vec.tolist()
                matrix = [[sum(x * y for x, y in zip(column, e)) % p for column in zip(*rows)] for rows in mm]
                ranked.clear()
                assert floor_of(space, e) == naive_rank(matrix, p)
                assert [[x % p for x in row] for row in ranked[0]] == matrix

    def test_floor_below_the_index_at_three_collinear_points(self, quartic):
        # a line through three points of the quartic is a zero row of the
        # (O(1), O(2)) split, so the floor is 2; the index is 3, and the
        # sweep's bounds give the exhaustive index and witness
        space = ambient_space(quartic, 1)
        pool = rational_points(quartic)
        triple = collinear_triple(pool, 101)
        assert len(triple) == 3
        rng = np.random.default_rng(5)
        for _ in range(4):
            e = class_in_span(space, triple, rng)
            want = blowup_index_bruteforce(e, pool, space, 3)
            assert floor_of(space, e.vec) == 2 and want.index == 3
            got = blowup_index_bruteforce(
                e, pool, space, 3, span=[pool.index(pt) for pt in triple]
            )
            assert got.index == 3 and set(got.witness) == set(triple)

    def test_floor_with_a_base_point_in_the_pool(self):
        # on a split cubic at t = 1, 2K - L = P_inf, whose one section is
        # constant: P_inf is a base point (a zero row), and any other point
        # spans the whole dual space
        model = random_split_cubic(F101, np.random.default_rng(7))
        space = ambient_space(model, 1)
        pool = rational_points(model)
        assert pool[0] == "inf" and not evaluation_matrix(space, pool[:1]).any()
        rng = np.random.default_rng(6)
        with pytest.raises(ZeroSpan):
            class_in_span(space, pool[:1], rng)
        for size in (2, 3):
            e = class_in_span(space, pool[:size], rng)
            assert floor_of(space, e.vec) == 1 == exhaustive_index(e, pool, space, 3)

    def test_span_without_e_falls_back_to_the_search(self, elliptic, monkeypatch):
        # e drawn in one 3-span, the bounds given another: the certificate
        # fails, degree 3 is searched, and the lexicographically first
        # witness is returned, as without bounds
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        searched = []
        real = strata._search_degree
        monkeypatch.setattr(strata, "_search_degree", lambda v, r, u, b, q: searched.append(b) or real(v, r, u, b, q))
        rng = np.random.default_rng(11)
        for _ in range(5):
            drawn, other = rng.choice(len(pool), size=(2, 3), replace=False)
            e = class_in_span(space, [pool[int(i)] for i in drawn], rng)
            want = blowup_index_bruteforce(e, pool, space, 3)
            assert not span_membership(e, make_witness(space, [pool[int(i)] for i in other]))
            searched.clear()
            got = blowup_index_bruteforce(e, pool, space, 3, span=other.tolist())
            assert got == want and want.index in searched

    def test_budget_holds_below_the_floor(self):
        # a class of floor 7 in a 7-span over the 96-point pool at t = 14:
        # degree 6 is below the floor, yet its 3321960 prefixes are refused
        # there, as the exhaustive search refuses them
        model = random_split_cubic(F101, SeededStream(0))
        space, pool = ambient_space(model, 14), rational_points(model)
        rng = np.random.default_rng(0)
        while True:
            span = rng.choice(len(pool), size=7, replace=False).tolist()
            e = class_in_span(space, [pool[i] for i in span], rng)
            if floor_of(space, e.vec) == 7:
                break
        for bounds in ({}, {"span": span}):
            with pytest.raises(SearchTooLarge) as refused:
                blowup_index_bruteforce(e, pool, space, 7, **bounds)
            assert (refused.value.b, refused.value.n, refused.value.prefixes) == (6, 96, 3321960)

    @pytest.mark.parametrize("span_size, b_max", [(1, 3), (3, 1), (2, 2)])
    def test_floor_only_where_it_can_skip_a_degree(self, span_size, b_max, monkeypatch):
        # a span of one point answers degree 1, and b_max 1 searches only
        # degree 1, so neither computes the floor nor builds the product
        # table of the ambient tag, which at large tags costs more than the
        # sweep; spans of 2 with b_max 2 need both
        model = random_split_cubic(F101, np.random.default_rng(3))
        space, _, calls = recorded_sweep(monkeypatch, model, 6, 5, np.random.default_rng(4), span_size, b_max)
        needed = min(span_size, b_max) >= 2
        assert all((bounds["floor"] is not None) == needed for _, bounds, _ in calls)
        assert (space.tag in model._tables) == needed

    def test_search_without_a_span_computes_no_floor(self, elliptic, monkeypatch):
        # --task blowup passes no span: the exhaustive search, no floor
        monkeypatch.setattr(strata, "_floor", lambda vec, space: pytest.fail("floor computed"))
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        e = class_in_span(space, pool[1:4], np.random.default_rng(2))
        assert blowup_index_bruteforce(e, pool, space, 3).index == 3

    @pytest.mark.parametrize("p", [2, 101, 2147483647])
    def test_draws_match_matmul_mod(self, p):
        # a class is the combination of the rows by coefficients drawn in
        # one call each, redrawn while it is zero: the same vector as the
        # product in Python integers of the same draws
        rows = np.random.default_rng(p % 1009).integers(0, p, (5, 7))
        space = RowSpace(PrimeField(p), 7)
        for seed in range(20):
            got = strata._class_in_rows(space, list(range(5)), rows, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            while True:
                coefficients = rng.integers(0, p, 5).tolist()
                want = [sum(a * int(b) for a, b in zip(coefficients, column)) % p for column in rows.T]
                if any(want):
                    break
            assert got.vec.tolist() == want


class TestGonalityBounds:
    def test_split_hyperelliptic_case(self):
        # b = 0, g = 2, m = 2, p_a = 8: upper = min(4, 5) = 4 = expected gonality
        out = gonality_bounds(0, 2, 2, 8)
        assert out["upper"] == 4
        assert out["upper_valid"]  # 8 > 2*2 - 1 + 4 = 7

    def test_lower_bound_zero_case(self):
        assert gonality_bounds(2 * 3 - 2, 3, 3, 20)["lower"] == 0

    def test_quartic_hypothesis_fails(self):
        out = gonality_bounds(0, 3, 3, 9)
        assert not out["upper_valid"]  # 9 <= 2*3 - 1 + 6 = 11

    def test_negative_index_rejected(self):
        with pytest.raises(StrataError, match="at least 0"):
            gonality_bounds(-7, 2, 2, 8)


class TestEllipticGroupAndW4:
    def test_group_axioms_sampled(self, elliptic):
        grp = EllipticGroup(elliptic)
        pts = grp.points
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (pts[int(i)] for i in rng.integers(0, len(pts), 3))
            assert grp.add(a, "inf") == a
            assert grp.add(a, "inf" if a == "inf" else (a[0], -a[1] % 101)) == "inf"
            assert grp.add(a, b) == grp.add(b, a)
            assert grp.add(grp.add(a, b), c) == grp.add(a, grp.add(b, c))
            assert grp.add(a, b) in pts

    def test_identity_witness_is_two_torsion(self, elliptic):
        grp = EllipticGroup(elliptic)
        halves = grp.halvings("inf")
        assert len(halves) == 4
        assert "inf" in halves
        assert all(h == "inf" or h[1] == 0 for h in halves)

    def test_witnesses_span_p3(self, elliptic):
        wits, skipped = w4_witnesses_elliptic(elliptic, 6)
        assert wits
        for w in wits:
            assert len(w.points) == 4
            assert rank(w.rows, 101) == 4
        # [E(F_p) : 2E(F_p)] = #E[2](F_p) = 4: three quarters of translates skip
        assert skipped == 3 * len(wits)

    def test_membership_of_class_in_witness_span(self, elliptic):
        wits, _ = w4_witnesses_elliptic(elliptic, 6)
        space = ambient_space(elliptic, 6)
        rng = np.random.default_rng(12)
        e = class_in_span(space, wits[0].points, rng)
        assert span_membership(e, wits[0])
        generic = random_class(space, rng)
        hits = sum(1 for w in wits if span_membership(generic, w))
        assert hits == 0  # codim-2 condition per witness, 24 witnesses

    def test_wd_containment(self, elliptic):
        wits, _ = w4_witnesses_elliptic(elliptic, 6)
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        rng = np.random.default_rng(13)
        for trial in range(25):
            pts = [pool[int(i)] for i in rng.choice(len(pool), size=2, replace=False)]
            alpha = make_witness(space, pts)
            e = class_in_span(space, pts, rng) if trial % 2 else random_class(space, rng)
            for w in wits[:3]:
                # e in span(alpha) implies e in span(alpha + R)
                union = make_witness(space, list(alpha.points) + [q for q in w.points if q not in alpha.points])
                assert not span_membership(e, alpha) or span_membership(e, union)


class TestPoolRows:
    """The pool's evaluation matrix, cached for the last (space, pool) asked."""

    def test_same_pool_in_two_spaces(self, elliptic):
        # each space gets its own rows, as an array and as Python rows
        pool = tuple(rational_points(elliptic))
        for t in (5, 6, 5):
            space = ambient_space(elliptic, t)
            rows, ints, _ = _pool(space, pool)
            assert rows.shape == (len(pool), space.dim)
            assert np.array_equal(rows, evaluation_matrix(space, pool))
            assert len(ints) == len(pool) and all(len(row) == space.dim for row in ints)
            assert [list(row) for row in ints] == rows.tolist()
        assert ambient_space(elliptic, 5).dim != ambient_space(elliptic, 6).dim

    def test_second_pool_gives_fresh_rows(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = tuple(rational_points(elliptic))
        first, first_ints, _ = _pool(space, pool)
        hit = _pool(space, pool)
        assert hit[0] is first and hit[1] is first_ints  # a hit is the same rows
        other = pool[::-1]
        rows, ints, _ = _pool(space, other)
        assert np.array_equal(rows, evaluation_matrix(space, other))
        assert not np.array_equal(rows, first)
        # the Python rows are rebuilt with the array
        assert ints is not first_ints and [list(row) for row in ints] == evaluation_matrix(space, other).tolist()

    def test_cached_rows_refuse_writes(self, elliptic):
        rows, ints, _ = _pool(ambient_space(elliptic, 6), tuple(rational_points(elliptic)))
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        # the Python rows are tuples of Python integers, so the lazy engine
        # reads them exactly and can write neither them nor their entries
        assert type(ints) is tuple and all(type(row) is tuple for row in ints)
        assert all(type(x) is int for row in ints for x in row)
        with pytest.raises(TypeError):
            ints[0] = ints[1]
        with pytest.raises(TypeError):
            ints[0][0] = 1

    def test_off_curve_point_raises_on_every_call(self, elliptic):
        space = ambient_space(elliptic, 6)
        pool = rational_points(elliptic)
        on = set(pool)
        off = next((x, y) for x in range(101) for y in range(101) if (x, y) not in on)
        bad = tuple(pool[:5]) + (off,)
        e = class_in_span(space, pool[:2], np.random.default_rng(0))
        for _ in range(2):
            with pytest.raises(PointNotOnCurve, match=re.escape(str(off))):
                _pool(space, bad)
            with pytest.raises(PointNotOnCurve):
                blowup_index_bruteforce(e, bad, space, 3)

    def test_sweep_calls_the_search_once_per_class(self, elliptic, monkeypatch):
        # the benchmark times each class at this call: bench/worker.py wraps
        # the module global blowup_index_bruteforce
        calls = []
        real = strata.blowup_index_bruteforce
        monkeypatch.setattr(strata, "blowup_index_bruteforce", lambda *a, **k: calls.append(a) or real(*a, **k))
        for count in (1, 7):
            calls.clear()
            out = blowup_sweep(elliptic, 6, count, np.random.default_rng(count), span_size=3, b_max=3)
            assert len(calls) == count == len(out["results"])

    def test_sweep_evaluates_the_pool_once(self, elliptic, monkeypatch):
        pool = rational_points(elliptic)
        sizes = []
        real = strata.evaluation_matrix
        monkeypatch.setattr(strata, "evaluation_matrix", lambda s, pts: sizes.append(len(pts)) or real(s, pts))
        _pool.cache_clear()
        out = blowup_sweep(elliptic, 6, 20, np.random.default_rng(3), span_size=3, b_max=3)
        assert out["pool_size"] == len(pool)
        # one evaluation in all: each class is drawn from the cached rows
        assert sizes == [len(pool)]
        # the same draws as evaluating each class's points with class_in_span
        rng, space = np.random.default_rng(3), ambient_space(elliptic, 6)
        for got in out["results"]:
            e = class_in_span(space, [pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)], rng)
            assert got == {"index": blowup_index_bruteforce(e, pool, space, 3).index, "bound": "exact"}


class TestValidation:
    def test_zero_class_rejected(self, elliptic):
        space = ambient_space(elliptic, 6)
        with pytest.raises(StrataError):
            ExtensionClass(space, np.zeros(space.dim, dtype=np.int64))

    def test_duplicate_points_rejected(self, elliptic):
        space = ambient_space(elliptic, 6)
        pt = rational_points(elliptic)[0]
        with pytest.raises(StrataError):
            make_witness(space, [pt, pt])

    def test_proportionality(self, elliptic):
        space = ambient_space(elliptic, 6)
        e = random_class(space, np.random.default_rng(14))
        scaled = ExtensionClass(space, (7 * e.vec) % 101)
        other = random_class(space, np.random.default_rng(15))
        assert rank(np.vstack([e.vec, scaled.vec]), 101) == 1
        assert rank(np.vstack([e.vec, other.vec]), 101) == 2
