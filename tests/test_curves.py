import math

import numpy as np
import pytest

from ribbonsyz import curves
from ribbonsyz.curves import (
    CurveError,
    HyperellipticCurve,
    NotSmooth,
    PlaneCurve,
    PointNotOnCurve,
    TargetOverflow,
    WrongDegree,
    evaluation_matrix,
    mult_map,
    product_index,
    random_hyperelliptic,
    random_plane_curve,
    random_split_cubic,
    rational_points,
)
from ribbonsyz.fflinalg import MatrixTooLarge, PrimeField, rank

from oracles import (
    evaluation_by_family,
    hyperelliptic_mult_by_pairs,
    plane_mult_by_pairs,
    plane_points_exhaustive,
    smooth_every_degree,
)

F101 = PrimeField(101)


def multiply(mm, va, vb, p=101):
    """The product of coordinate vectors va and vb under the multiplication map mm."""
    return np.einsum("i,j,ikj->k", va, vb, mm) % p


def fermat_quartic(field=F101):
    return PlaneCurve(field, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)


def lead_x3y_quartic(field=F101):
    # x^3 y + y^4 + z^4, smooth for p >= 5, whose lex-leading monomial is x^3 y
    return PlaneCurve(field, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)


@pytest.fixture(scope="module")
def quartic():
    return fermat_quartic()


@pytest.fixture(scope="module")
def hyp2():
    # y^2 = x^5 + 3x + 1 over F_101 (checked squarefree on construction)
    return HyperellipticCurve(F101, [1, 3, 0, 0, 0, 1])


class TestPlaneConstruction:
    def test_fermat_smooth_genus3(self, quartic):
        assert quartic.genus == 3
        assert quartic.gonality == 3

    def test_nonreduced_rejected(self):
        with pytest.raises(NotSmooth):
            PlaneCurve(F101, {(4, 0, 0): 1}, 4)

    def test_nodal_rejected(self):
        # z^2 y^2 = x^4 + x^3 y has a singular point at [0:0:1]
        with pytest.raises(NotSmooth):
            PlaneCurve(F101, {(0, 2, 2): 1, (4, 0, 0): -1, (3, 1, 0): -1}, 4)

    def test_wrong_degree(self):
        with pytest.raises(WrongDegree):
            PlaneCurve(F101, {(3, 0, 0): 1, (0, 4, 0): 1}, 4)
        with pytest.raises(WrongDegree):
            PlaneCurve(F101, {}, 4)

    def test_random_seeded_smooth(self):
        rng = np.random.default_rng(0)
        c = random_plane_curve(F101, 4, rng)
        assert c.genus == 3
        # determinism: same seed, same curve
        c2 = random_plane_curve(F101, 4, np.random.default_rng(0))
        assert c.coeffs == c2.coeffs


def plane_monomials(d: int) -> list[tuple[int, int, int]]:
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]


def random_form(d: int, p: int, rng, terms: int | None = None) -> dict:
    """A nonzero form of degree d over F_p: dense, or on ``terms`` random monomials."""
    monos = plane_monomials(d)
    while True:
        if terms is None:
            coeffs = dict(zip(monos, rng.integers(0, p, len(monos)).tolist()))
        else:
            picked = rng.choice(len(monos), size=min(terms, len(monos)), replace=False)
            coeffs = {monos[i]: int(c) for i, c in zip(picked, rng.integers(1, p, len(picked)))}
        coeffs = {m: c for m, c in coeffs.items() if c}
        if coeffs:
            return coeffs


def times(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m, a in f.items():
        for n, b in g.items():
            key = (m[0] + n[0], m[1] + n[1], m[2] + n[2])
            out[key] = (out.get(key, 0) + a * b) % p
    return {m: c for m, c in out.items() if c}


def smoothness_verdict(field, coeffs: dict, d: int) -> bool:
    try:
        PlaneCurve(field, coeffs, d)
    except NotSmooth:
        return False
    return True


class TestSmoothnessCertificate:
    """The one Macaulay matrix at D = 3(d - 1) - 2 against every degree from d - 1 up."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_agrees_with_every_degree(self, p):
        field = PrimeField(p)
        rng = np.random.default_rng(p)
        smooth = 0
        for d in (3, 4, 5, 6):
            cases = [("random", random_form(d, p, rng)) for _ in range(22)]
            cases += [("sparse", random_form(d, p, rng, terms=int(rng.integers(1, 6)))) for _ in range(20)]
            cases += [
                ("line x form", times(random_form(1, p, rng), random_form(d - 1, p, rng), p))
                for _ in range(10)
            ]
            for kind, coeffs in cases:
                verdict = smoothness_verdict(field, coeffs, d)
                assert verdict == smooth_every_degree(coeffs, d, p), (kind, d, coeffs)
                assert not (verdict and kind == "line x form")  # a reducible curve is singular
                smooth += verdict
        assert 0 < smooth < 4 * 52

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_named_curves(self, p):
        fermat = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
        nodal = {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}  # y^2 z = x^3 + x^2 z, node at [0:0:1]
        field = PrimeField(p)
        assert smoothness_verdict(field, fermat, 4) == smooth_every_degree(fermat, 4, p) == (p != 2)
        assert smoothness_verdict(field, nodal, 3) == smooth_every_degree(nodal, 3, p) is False

    def test_budget_prices_the_macaulay_shape(self, monkeypatch):
        # the Fermat quartic's matrix at D = 7: 10 + 3 * 15 rows, C(9, 2) = 36 columns
        from ribbonsyz import fflinalg

        fermat = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 55 * 36)
        PlaneCurve(F101, fermat, 4)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 55 * 36 - 1)
        with pytest.raises(MatrixTooLarge, match="degree-4 smoothness certificate, Macaulay matrix: 55 x 36,"):
            PlaneCurve(F101, fermat, 4)
        # a zero partial leaves its rows out: in characteristic 2, x^4 + y^4 + z^4
        # has none, and f alone gives C(5, 2) = 10 rows
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 10 * 36 - 1)
        with pytest.raises(MatrixTooLarge, match="Macaulay matrix: 10 x 36,"):
            PlaneCurve(PrimeField(2), fermat, 4)

    def test_random_model_does_not_retry_an_oversized_certificate(self):
        # d = 40: 11935 x 6786 entries, refused at the first draw, before any matrix is built
        draws = []
        rng = np.random.default_rng(0)

        class Counted:
            def integers(self, *args):
                draws.append(args)
                return rng.integers(*args)

        with pytest.raises(MatrixTooLarge, match="degree-40 smoothness certificate, Macaulay matrix: 11935 x 6786,"):
            random_plane_curve(F101, 40, Counted())
        assert len(draws) == 1

    def test_random_model_prices_f_alone_before_drawing(self, monkeypatch):
        # f's own rows, C(2d - 3, 2) of C(3d - 3, 2) columns, bound the matrix
        # from below; past the budget from d = 46 on, they refuse the degree
        # before its monomials are listed or a coefficient drawn
        from ribbonsyz import curves, fflinalg

        class Listed(Exception):
            pass

        def listing(q):
            raise Listed(q)

        monkeypatch.setattr(curves, "_monomials", listing)
        assert 32 * 3741 * 8646 <= fflinalg._MATRIX_BYTES_MAX < 32 * 3916 * 9045
        with pytest.raises(Listed):
            random_plane_curve(F101, 45, None)
        with pytest.raises(MatrixTooLarge, match="f's rows alone of its Macaulay matrix: 3916 x 9045,"):
            random_plane_curve(F101, 46, None)
        with pytest.raises(MatrixTooLarge, match="f's rows alone of its Macaulay matrix: 1993006 x 4489506,"):
            random_plane_curve(F101, 1000, None)
        with pytest.raises(MatrixTooLarge, match="degree-1000000 smoothness certificate"):
            random_plane_curve(F101, 10**6, None)


class TestSections:
    def test_quartic_canonical_dim_is_genus(self, quartic):
        assert quartic.sections(1).dim == 3 == quartic.genus

    def test_quartic_q2_riemann_roch(self, quartic):
        # deg O(2) = 8 >= 2g-1: dim = 8 - 3 + 1
        assert quartic.sections(2).dim == 6

    def test_plane_dim_formula_sweep(self, quartic):
        from math import comb

        for q in range(0, 9):
            want = comb(q + 2, 2) - (comb(q - 2, 2) if q >= 4 else 0)
            assert quartic.sections(q).dim == want

    def test_hyperelliptic_riemann_roch(self, hyp2):
        assert hyp2.sections(7).dim == 6  # m - g + 1
        for m in range(3, 30):  # all tags >= 2g-1
            assert hyp2.sections(m).dim == m - hyp2.g + 1

    def test_hyperelliptic_canonical(self, hyp2):
        assert hyp2.sections(hyp2.canonical_tag).dim == hyp2.g

    def test_low_tags(self, hyp2):
        assert hyp2.sections(0).dim == 1
        assert hyp2.sections(1).dim == 1  # Weierstrass gap
        assert hyp2.sections(-3).dim == 0

    def test_overflow(self, quartic, hyp2):
        with pytest.raises(TargetOverflow):
            quartic.sections(100)
        with pytest.raises(TargetOverflow):
            hyp2.sections(5000)


class TestMultiplication:
    def test_unit_law(self, quartic, hyp2):
        for model, tag in [(quartic, 2), (hyp2, 7)]:
            one = model.sections(0)
            s = model.sections(tag)
            mm = mult_map(one, s)
            assert mm.shape == (1, s.dim, s.dim) and not mm.flags.writeable
            assert np.array_equal(mm[0], np.eye(s.dim, dtype=np.int64))

    def test_quartic_o1_squares_surjective(self, quartic):
        mm = mult_map(quartic.sections(1), quartic.sections(1))
        mat = mm.transpose(1, 0, 2).reshape(quartic.sections(2).dim, -1)
        assert mat.shape == (6, 9)
        assert rank(mat, 101) == 6

    def test_hyperelliptic_defining_relation(self, hyp2):
        s5 = hyp2.sections(5)
        y_idx = s5.basis.index((0, 1))
        mm = mult_map(s5, s5)
        prod = mm[y_idx, :, y_idx]
        target = hyp2.sections(10)
        expect = np.zeros(target.dim, dtype=np.int64)
        for k, c in enumerate(hyp2.h):
            if c:
                expect[target.basis.index((k, 0))] = c
        assert np.array_equal(prod, expect)

    def test_commutativity(self, quartic, hyp2):
        for model, tags in [(quartic, (1, 2)), (hyp2, (5, 7))]:
            a, b = model.sections(tags[0]), model.sections(tags[1])
            mab = mult_map(a, b)
            mba = mult_map(b, a)
            assert np.array_equal(mab, mba.transpose(2, 1, 0))

    def test_associativity_seeded_triples(self, quartic, hyp2):
        rng = np.random.default_rng(42)
        for model, tags in [(quartic, (1, 1, 2)), (hyp2, (2, 5, 7))]:
            sa, sb, sc = (model.sections(t) for t in tags)
            ab = mult_map(sa, sb)
            ab_c = mult_map(model.sections(sa.tag + sb.tag), sc)
            bc = mult_map(sb, sc)
            a_bc = mult_map(sa, model.sections(sb.tag + sc.tag))
            for _ in range(100):
                va = rng.integers(0, 101, sa.dim)
                vb = rng.integers(0, 101, sb.dim)
                vc = rng.integers(0, 101, sc.dim)
                left = multiply(ab_c, multiply(ab, va, vb), vc)
                right = multiply(a_bc, va, multiply(bc, vb, vc))
                assert np.array_equal(left, right)

    def test_product_values_match_pointwise_products(self, quartic, hyp2):
        # multiplication tables must commute with evaluation at curve points
        rng = np.random.default_rng(3)
        for model, tags in [(quartic, (1, 2)), (hyp2, (4, 7))]:
            pts = rational_points(model)[:12]
            sa, sb = model.sections(tags[0]), model.sections(tags[1])
            mm = mult_map(sa, sb)
            for pt in pts:
                ea = evaluation_matrix(sa, [pt])[0]
                eb = evaluation_matrix(sb, [pt])[0]
                ec = evaluation_matrix(model.sections(sa.tag + sb.tag), [pt])[0]
                va = rng.integers(0, 101, sa.dim)
                vb = rng.integers(0, 101, sb.dim)
                lhs = int(ec @ multiply(mm, va, vb)) % 101
                rhs = (int(ea @ va) * int(eb @ vb)) % 101
                assert lhs == rhs

    def test_product_index_pairs_a_functional_without_the_tensor(self, quartic, hyp2):
        # a functional on the target, paired through the table, is the
        # tensor contracted over its target axis
        rng = np.random.default_rng(5)
        for model, tags in [(quartic, (1, 2)), (quartic, (0, 3)), (hyp2, (4, 5)), (hyp2, (1, 1))]:
            sa, sb = model.sections(tags[0]), model.sections(tags[1])
            table, at = product_index(sa, sb)
            mm = mult_map(sa, sb)
            assert np.array_equal(table[at], mm.transpose(0, 2, 1))
            e = rng.integers(0, 101, mm.shape[1])
            assert np.array_equal((table @ e % 101)[at], np.einsum("ikj,k->ij", mm, e) % 101)
        with pytest.raises(CurveError, match="different models"):
            product_index(quartic.sections(1), hyp2.sections(1))
        with pytest.raises(CurveError, match="different models"):
            mult_map(quartic.sections(1), hyp2.sections(1))


def assert_same_tensors(model, tags_a, tags_b, oracle):
    for ta in tags_a:
        for tb in tags_b:
            got = mult_map(model.sections(ta), model.sections(tb))
            want = oracle(model, ta, tb)
            assert got.dtype == want.dtype and np.array_equal(got, want), (model, ta, tb)


class TestProductTables:
    """mult_map's one table per target tag against the pair-by-pair tensors.

    The tags include negative ones (empty bases, and an empty target), 0,
    and products that use f or y^2 = h(x) more than once.
    """

    @pytest.mark.parametrize("p", [2, 3, 7, 101, 65537])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_plane_matches_pair_by_pair_reduction(self, d, p):
        model = random_plane_curve(PrimeField(p), d, np.random.default_rng(10 * d + p))
        assert_same_tensors(model, (-1, 0, 1, 2, d - 3, d), (-2, 0, 1, 3, d), plane_mult_by_pairs)

    @pytest.mark.parametrize("p", [5, 7, 101, 65537])
    def test_lead_off_x4(self, p):
        model = lead_x3y_quartic(PrimeField(p))
        assert model.lead == (3, 1, 0)
        assert_same_tensors(model, (-1, 0, 1, 2, 3), (-1, 0, 1, 2, 5, 8), plane_mult_by_pairs)

    @pytest.mark.parametrize("p", [3, 7, 101])
    @pytest.mark.parametrize("g", range(6))
    def test_hyperelliptic_matches_pair_by_pair(self, g, p):
        model = random_hyperelliptic(PrimeField(p), g, np.random.default_rng(100 * g + p))
        tags_a = (-1, 0, 1, 2, 2 * g - 2, 2 * g + 1, 4 * g + 3)
        assert_same_tensors(model, tags_a, (-3, 0, 1, 3, 2 * g + 1, 4 * g + 2), hyperelliptic_mult_by_pairs)

    def test_one_table_per_target_tag(self, monkeypatch):
        model = fermat_quartic()
        built = []
        build = PlaneCurve._product_table
        monkeypatch.setattr(PlaneCurve, "_product_table", lambda self, tag: built.append(tag) or build(self, tag))
        for ta, tb in [(1, 2), (2, 1), (0, 3), (1, 1), (3, 0)]:
            mult_map(model.sections(ta), model.sections(tb))
        assert built == [3, 2]

    def test_table_is_priced_where_it_is_built(self, monkeypatch):
        # degree 5 on a quartic: 6 x 6 rows [a, b] over h0(O(5)) = 18 columns;
        # tag 9 on genus 2: 5 x 3 rows [i, a] over h0(9 Pinf) = 8 columns
        from ribbonsyz import fflinalg

        hyp = HyperellipticCurve(F101, [1, 3, 0, 0, 0, 1])
        for model, ta, tb, shape, where in [
            (fermat_quartic(), 2, 3, (6, 6, 18), "degree-5 product table of the plane model"),
            (hyp, 4, 5, (5, 3, 8), "tag-9 product table of the hyperelliptic model"),
        ]:
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * math.prod(shape) - 1)
            with pytest.raises(MatrixTooLarge, match=f"{where}: {shape[0]} x {shape[1]} x {shape[2]},"):
                mult_map(model.sections(ta), model.sections(tb))
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * math.prod(shape))
            assert mult_map(model.sections(ta), model.sections(tb)).shape[1] == shape[2]


class TestRationalPoints:
    def test_fermat_points_satisfy_f(self, quartic):
        pts = rational_points(quartic)
        assert pts
        assert quartic._on_curve_rows(np.array(pts, dtype=np.int64)).all()

    def test_fermat_count_vs_exhaustive_oracle(self, quartic):
        got = rational_points(quartic)
        want = plane_points_exhaustive({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 101)
        assert got == want

    def test_hyperelliptic_infinity_first(self, hyp2):
        pts = rational_points(hyp2)
        assert pts[0] == "inf"
        assert hyp2._on_curve_rows(np.array(pts[1:], dtype=np.int64)).all()

    def test_hyperelliptic_count_vs_scan(self, hyp2):
        pts = rational_points(hyp2)
        count = 1  # infinity
        for x in range(101):
            rhs = (pow(x, 5, 101) + 3 * x + 1) % 101
            count += sum(1 for y in range(101) if (y * y) % 101 == rhs)
        assert len(pts) == count

    def test_scan_budget(self, quartic, hyp2, monkeypatch):
        # p^2 + p + 1 = 10 303 plane candidates and p = 101 hyperelliptic ones
        from ribbonsyz import curves

        monkeypatch.setattr(curves, "_POINT_SCAN_MAX", 10_302)
        with pytest.raises(curves.PointScanTooLarge, match="10303 candidate points over F_101"):
            rational_points(quartic)
        assert len(rational_points(hyp2)) > 1
        monkeypatch.setattr(curves, "_POINT_SCAN_MAX", 10_303)
        assert rational_points(quartic) == plane_points_exhaustive({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 101)
        monkeypatch.setattr(curves, "_POINT_SCAN_MAX", 100)
        with pytest.raises(curves.PointScanTooLarge, match="101 candidate points"):
            rational_points(hyp2)


class TestEvaluation:
    def test_standard_basis_point(self):
        # [1:0:0] lies on x^3 y + y^4 + z^4 = 0; O(1) basis (x, y, z) evaluates to (1,0,0)
        c = PlaneCurve(F101, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, 4)
        v = evaluation_matrix(c.sections(1), [(1, 0, 0)])[0]
        assert np.array_equal(v, [1, 0, 0])

    def test_scaling_representative(self, quartic):
        s = quartic.sections(2)
        pt = rational_points(quartic)[0]
        lam = 7
        scaled = tuple((lam * c) % 101 for c in pt)
        v1 = evaluation_matrix(s, [pt])[0]
        v2 = evaluation_matrix(s, [scaled])[0]
        # scaled by lambda^q globally: still the same projective functional
        assert np.array_equal(v2, (v1 * pow(lam, 2, 101)) % 101)

    def test_point_not_on_curve(self, quartic):
        with pytest.raises(PointNotOnCurve):
            evaluation_matrix(quartic.sections(1), [(1, 0, 0)])

    def test_general_position_rank(self, hyp2):
        s = hyp2.sections(9)  # dim 8
        pts = rational_points(hyp2)
        mat = evaluation_matrix(s, pts)
        # the full point set spans everything, and some 8 points realize dim
        assert rank(mat, 101) == 8
        assert rank(mat[:20], 101) == 8

    def test_infinity_evaluation(self, hyp2):
        s = hyp2.sections(9)
        v = evaluation_matrix(s, ["inf"])[0]
        # pole orders: x^i -> 2i (0,2,4,6,8), x^i y -> 2i+5 (5,7,9): exactly x^2 y hits 9
        assert v.sum() == 1
        assert v[s.basis.index((2, 1))] == 1

    def test_base_point_gives_zero_vector(self, hyp2):
        # tag 2g-1 = 3: no section has pole order exactly 3 at infinity
        v = evaluation_matrix(hyp2.sections(3), ["inf"])[0]
        assert not np.any(v)


def pointwise_evaluation(space, point, p: int) -> list[int]:
    """One point's evaluation vector by python-integer pow, basis element by basis element."""
    model = space.model
    if isinstance(model, PlaneCurve):
        x, y, z = point
        return [pow(x, a, p) * pow(y, b, p) * pow(z, c, p) % p for a, b, c in space.basis]
    if point == "inf":
        return [int(model._pole_order(tok) == space.tag) for tok in space.basis]
    x, y = point
    return [pow(x, i, p) * (y if has_y else 1) % p for i, has_y in space.basis]


class TestVectorisedEvaluation:
    def test_matches_pointwise_reference(self, quartic, hyp2):
        models = [
            (quartic, range(-1, 6)),
            (lead_x3y_quartic(), range(-1, 6)),
            (hyp2, range(-1, 12)),
            (HyperellipticCurve(F101, [0, 1]), range(4)),
        ]
        for model, tags in models:
            pts = rational_points(model)
            for tag in tags:
                space = model.sections(tag)
                want = [pointwise_evaluation(space, pt, 101) for pt in pts]
                assert evaluation_matrix(space, pts).tolist() == want
                assert np.array_equal(evaluation_matrix(space, pts), evaluation_by_family(space, pts))
                assert evaluation_matrix(space, []).shape == (0, space.dim)

    @pytest.mark.parametrize("p", [1048573, 2147483647])
    def test_large_p_does_not_overflow(self, p):
        # one planted point per model, with representatives and coordinates
        # far outside [0, p) for the plane curve
        rng = np.random.default_rng(p % 1000)
        field = PrimeField(p)
        x0, y0 = (int(v) for v in rng.integers(1, p, 2))
        h = [0, int(rng.integers(1, p)), 0, 0, 0, 1]
        h[0] = (y0 * y0 - pow(x0, 5, p) - h[1] * x0) % p
        hyp = HyperellipticCurve(field, h)
        plane_coeffs = {m: int(c) for m, c in zip([(4, 0, 0), (3, 1, 0), (1, 2, 1), (0, 4, 0)], rng.integers(1, p, 4))}
        plane_coeffs[(0, 0, 4)] = -sum(c * pow(x0, a, p) * pow(y0, b, p) for (a, b, _), c in plane_coeffs.items()) % p
        plane = PlaneCurve(field, plane_coeffs, 4)
        for model, pts in [
            (hyp, ["inf", (x0, y0), (x0, p - y0), (x0 + 3 * p, y0 - 2 * p)]),
            (plane, [(x0, y0, 1), (x0 * 5 % p, y0 * 5 % p, 5), (x0 - 7 * p, y0 + p, 1 + p)]),
        ]:
            for tag in (4, 9):
                space = model.sections(tag)
                want = [pointwise_evaluation(space, pt, p) for pt in pts]
                assert evaluation_matrix(space, pts).tolist() == want
                assert np.array_equal(evaluation_matrix(space, pts), evaluation_by_family(space, pts))
                assert [evaluation_matrix(space, [pt])[0].tolist() for pt in pts] == want

    def test_first_point_off_the_curve_is_named(self, quartic, hyp2):
        good = rational_points(quartic)[0]
        with pytest.raises(PointNotOnCurve, match=r"\(1, 0, 0\) does not lie"):
            evaluation_matrix(quartic.sections(2), [good, (1, 0, 0), (0, 0, 0)])
        with pytest.raises(PointNotOnCurve, match=r"\(0, 0, 0\) does not lie"):
            evaluation_matrix(quartic.sections(2), [good, (0, 0, 0)])
        with pytest.raises(PointNotOnCurve, match=r"\(0, 2\) does not lie"):
            evaluation_matrix(hyp2.sections(5), ["inf", rational_points(hyp2)[1], (0, 2)])


class TestGenusDegenerations:
    def test_genus1_cubic(self):
        e = HyperellipticCurve(F101, [1, 1, 0, 1])  # y^2 = x^3 + x + 1
        assert e.g == 1
        assert e.canonical_tag == 0
        assert e.sections(0).dim == 1

    def test_genus0_line(self):
        l0 = HyperellipticCurve(F101, [0, 1])  # y^2 = x
        assert l0.g == 0
        assert l0.gonality == 1
        for m in range(0, 12):
            assert l0.sections(m).dim == m + 1

    def test_split_cubic_two_torsion(self):
        e = random_split_cubic(F101, np.random.default_rng(5))
        # three affine ramification points with y = 0
        xs = np.arange(101, dtype=np.int64)
        roots = np.flatnonzero(e._on_curve_rows(np.column_stack([xs, np.zeros_like(xs)])))
        assert len(roots) == 3

    def test_random_hyperelliptic_seeded(self):
        h1 = random_hyperelliptic(F101, 2, np.random.default_rng(9))
        h2 = random_hyperelliptic(F101, 2, np.random.default_rng(9))
        assert h1.h == h2.h

    def test_monic_required(self):
        with pytest.raises(WrongDegree):
            HyperellipticCurve(F101, [0, 0, 0, 0, 0, 2])

    def test_oversized_genus_refused_before_the_draw(self):
        # g = 514: canonical tag 1026, past the hyperelliptic tag range
        class NoDraws:
            def integers(self, *args, **kwargs):
                pytest.fail("a coefficient was drawn")

        for g in (514, 10**6):
            with pytest.raises(CurveError, match=f"genus {g} beyond supported range") as info:
                random_hyperelliptic(F101, g, NoDraws())
            assert not isinstance(info.value, TargetOverflow)
        assert random_hyperelliptic(F101, 513, np.random.default_rng(0)).canonical_tag == 1024

    def test_oversized_genus_refused_before_the_gcd(self, monkeypatch):
        monkeypatch.setattr(curves, "_poly_gcd", lambda *a: pytest.fail("the squarefree gcd ran"))
        with pytest.raises(CurveError, match="genus 514 beyond supported range") as info:
            HyperellipticCurve(F101, [1] + [0] * 1028 + [1])
        assert not isinstance(info.value, TargetOverflow)

    def test_squarefree_required(self):
        # (x-1)^2 (x-2)(x-3)(x-4)
        h = [1]
        from ribbonsyz.curves import _poly_mul

        for r in (1, 1, 2, 3, 4):
            h = _poly_mul(h, [(-r) % 101, 1], 101)
        with pytest.raises(NotSmooth):
            HyperellipticCurve(F101, h)
