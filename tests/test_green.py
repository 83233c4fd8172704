import math
import warnings
import weakref

import numpy as np
import pytest

from ribbonsyz.curves import (
    HyperellipticCurve,
    mult_map,
    random_hyperelliptic,
    random_plane_curve,
)
from ribbonsyz.fflinalg import PrimeField, matmul_mod, rank
from ribbonsyz import fflinalg, graded, greenchk, koszul
from ribbonsyz.greenchk import (
    HypothesisUnmetWarning,
    IllDefined,
    build_syzygy_module,
    green_split_report,
    lemma_hypotheses,
    module_koszul_vanishing,
    phi_map,
)
from ribbonsyz.koszul import koszul_differential
from ribbonsyz.ribbon import UnsupportedConormal, conormal_tags

from oracles import oracle_koszul_dim, syzygy_module_by_ambient

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def quartic():
    return random_plane_curve(F101, 4, np.random.default_rng(0))


@pytest.fixture(scope="module")
def hyp2():
    return random_hyperelliptic(F101, 2, np.random.default_rng(1))


def brute_force_piece_dims(model, t, p):
    """M^p_q dims by naive three-term ranks on independently flattened tensors."""
    k_tag = model.canonical_tag
    w_tag = k_tag + t
    u = model.sections(w_tag)
    dims = []
    for q in range(3):
        spaces = [model.sections(q * k_tag + j * w_tag) for j in range(3)]
        actions = []
        for j in range(2):
            mm = mult_map(u, spaces[j])
            actions.append([mm[k].tolist() for k in range(u.dim)])
        dims.append(
            oracle_koszul_dim(u.dim, [s.dim for s in spaces], actions, p, 1, 101)
        )
    return dims


class TestSyzygyModule:
    def test_quartic_m0_dims_match_brute_force(self, quartic):
        syz = build_syzygy_module(quartic, 1, 0)
        assert list(syz.module.pieces) == brute_force_piece_dims(quartic, 1, 0)

    def test_quartic_m1_dims_match_brute_force(self, quartic):
        syz = build_syzygy_module(quartic, 1, 1)
        assert list(syz.module.pieces) == brute_force_piece_dims(quartic, 1, 1)

    def test_hyperelliptic_m_dims_match_brute_force(self, hyp2):
        for j in (0, 1):
            syz = build_syzygy_module(hyp2, 5, j)
            assert list(syz.module.pieces) == brute_force_piece_dims(hyp2, 5, j)

    def test_wedge_overflow_pieces_vanish(self, hyp2):
        # p beyond h^0(K-L) - 1: every graded piece is zero
        u_dim = hyp2.sections(hyp2.canonical_tag + 5).dim
        for p in (u_dim, u_dim + 1):
            syz = build_syzygy_module(hyp2, 5, p)
            assert syz.module.pieces == (0, 0, 0)

    def test_action_commutes(self, quartic):
        syz = build_syzygy_module(quartic, 1, 2)
        syz.module.check_commutativity()  # would raise on failure

    def test_bad_conormal(self, hyp2):
        with pytest.raises(UnsupportedConormal):
            build_syzygy_module(hyp2, 0, 1)

    def test_genus0_trivial_action_space(self):
        # H^0(K_P1) = 0: the acting space is trivial and every wedge with
        # i >= 1 vanishes on both sides of Phi
        line = HyperellipticCurve(F101, [0, 1])
        syz = build_syzygy_module(line, 6, 1)
        assert syz.g == 0
        v = phi_map(syz, 1)
        assert v.src == 0 and v.tgt == 0 and v.surjective

    def test_vanishing_beyond_genus_wedge(self, hyp2):
        # i > g: wedge^i of a g-dimensional space is zero
        syz = build_syzygy_module(hyp2, 5, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisUnmetWarning)
            assert module_koszul_vanishing(syz, hyp2.g + 1) == 0

    def test_each_degree_is_released_once_copied(self, hyp2, monkeypatch):
        # the chart of degree 0 is copied into the lifts that degree 1 pushes
        # through each x_k; no reference may keep it past that, so it is gone
        # before degree 2 is charted
        degree0 = []
        real_group, real_rref = greenchk.koszul_cohomology, graded.rref

        def recording(module, p, q):
            chart = real_group(module, p, q)
            if not degree0:
                degree0.append(weakref.ref(chart))
            return chart

        reduced = []

        def tracked(a, p):
            if len(reduced) >= 4:  # degree 2's eliminations
                assert degree0[0]() is None
            reduced.append(a.shape)
            return real_rref(a, p)

        monkeypatch.setattr(greenchk, "koszul_cohomology", recording)
        monkeypatch.setattr(graded, "rref", tracked)
        assert build_syzygy_module(hyp2, 5, 1).module.pieces == (8, 3, 4)
        assert len(reduced) == 6

    def test_two_eliminations_per_degree(self, hyp2, monkeypatch):
        # M^1 of hyp2 at t = 5: w = 6 copies of (6, 8, 10).  Each degree
        # reduces d_out, then the free rows of d_in, transposed, and nothing
        # else: no joint matrix, no forward pass, no rank
        charts, reduced = [], []
        real_group, real_rref = greenchk.koszul_cohomology, graded.rref
        monkeypatch.setattr(greenchk, "koszul_cohomology", lambda *a: charts.append(real_group(*a)) or charts[-1])
        monkeypatch.setattr(graded, "rref", lambda a, p: reduced.append(np.shape(a)) or real_rref(a, p))
        assert not hasattr(graded, "pivots") and not hasattr(graded, "rank")
        monkeypatch.setattr(koszul, "rank", lambda *a: pytest.fail("a rank"))
        assert build_syzygy_module(hyp2, 5, 1).module.pieces == (8, 3, 4)
        # d_out = d_{1,1} : U (x) H^0(K^q W) -> H^0(K^q W^2) with dim U = 6, and
        # d_in = d_{2,0} has C(6, 2) = 15 columns for each dimension of H^0(K^q)
        assert reduced[::2] == [(13, 36), (15, 48), (17, 60)]
        assert reduced[1::2] == [(15 * c, len(chart.free)) for c, chart in zip((1, 2, 3), charts)]


class TestAgainstAmbient:
    """M^p from its coefficient module equals M^p from the dense ambient id (x) mult."""

    @pytest.mark.parametrize(
        "case, t, p",
        [("hyp2", 5, j) for j in (0, 1, 2, 3, 7)]  # j = 7 > dim U = 6: no wedge, w = 0
        + [("quartic", t, j) for t in (1, 2) for j in (0, 1, 2)]
        + [("genus0", 6, j) for j in (0, 1, 2)]
        + [("elliptic", 6, j) for j in (1, 2)]
        + [("hyp2_p7", 5, j) for j in (1, 2)],
    )
    def test_equals_the_ambient_oracle(self, case, t, p, quartic, hyp2):
        model = {
            "hyp2": hyp2,
            "quartic": quartic,
            "genus0": HyperellipticCurve(F101, [0, 1]),
            "elliptic": HyperellipticCurve(F101, [1, 1, 0, 1]),
            "hyp2_p7": random_hyperelliptic(PrimeField(7), 2, np.random.default_rng(1)),
        }[case]
        got = build_syzygy_module(model, t, p).module
        want = syzygy_module_by_ambient(model, t, p)
        assert got.n == want.n and got.pieces == want.pieces
        for a, b in zip(got.action, want.action, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_no_dense_ambient(self, quartic, monkeypatch):
        # M^2 of the quartic at t = 1 lies in w = 15 copies of each coefficient
        # piece; every action product is one of the coefficient module's
        monkeypatch.setattr(np, "einsum", lambda *a, **k: pytest.fail("np.einsum called"))
        left = []
        real = graded.matmul_mod
        monkeypatch.setattr(graded, "matmul_mod", lambda a, b, p: left.append(a.shape) or real(a, b, p))
        syz = build_syzygy_module(quartic, 1, 2)
        k_tag, w_tag, _ = conormal_tags(quartic, 1)
        c = [quartic.sections(q * k_tag + w_tag).dim for q in range(3)]
        g = syz.g
        # one product per x_k and degree, with the coefficient module's matrix of x_k
        pushed = [shape for shape in left if shape in ((c[1], c[0]), (c[2], c[1]))]
        assert pushed == [(c[1], c[0])] * g + [(c[2], c[1])] * g
        # and no operator as wide as w = C(6, 2) copies of a piece, as x_k on the ambient would be
        assert not {cols for _, cols in left} & {15 * d for d in c}


class TestCohomologyBudget:
    """The lifts and the x_k images of each degree of M^p are priced at 32 bytes an entry first."""

    def test_matrix_over_the_budget_is_refused_before_it_is_built(self, hyp2, monkeypatch):
        # M^1 of hyp2 at t = 5: w = 6 copies of (6, 8, 10), and the cocycles of
        # degree 1 have 33 free coordinates.  In degree 2 their lifts fill
        # 48 x 33, and the images of the lifts under one x_k 60 x 33
        real, default = greenchk.koszul_cohomology, fflinalg._MATRIX_BYTES_MAX

        def unbudgeted(module, p, q):  # isolates the cohomology's guards from the groups'
            with monkeypatch.context() as m:
                m.setattr(fflinalg, "_MATRIX_BYTES_MAX", default)
                return real(module, p, q)

        monkeypatch.setattr(greenchk, "koszul_cohomology", unbudgeted)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 60 * 33)
        build_syzygy_module(hyp2, 5, 1)  # at the budget exactly
        lifted, left = [], []
        real_lifted, real_product = graded.Chart.lifted, graded.matmul_mod
        monkeypatch.setattr(graded.Chart, "lifted", lambda c, u, p: lifted.append(u.shape) or real_lifted(c, u, p))
        monkeypatch.setattr(graded, "matmul_mod", lambda a, b, p: left.append(np.shape(a)) or real_product(a, b, p))
        # degree 0's 23 lifts are built in either case, and each of the g = 2
        # matrices of x_k from degree 0 to 1 (8 x 6) applied; degree 1's 33
        # lifts only when they are not the matrix refused; x_k from degree 1
        # to 2 (10 x 8) never
        for where, shape, built in (("images under x_k", (60, 33), 2), ("lifts of degree 1", (48, 33), 1)):
            lifted.clear()
            left.clear()
            monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * (shape[0] * shape[1] - 1))
            with pytest.raises(fflinalg.MatrixTooLarge, match=rf"cohomology in degree 2, {where}: {shape[0]} x {shape[1]},"):
                build_syzygy_module(hyp2, 5, 1)
            assert lifted == [(23, 23), (33, 33)][:built]
            assert left.count((8, 6)) == 2 and (10, 8) not in left


class TestIllDefined:
    """Fault injection: each exact check of the construction must fire."""

    @staticmethod
    def corrupt_degree_one(monkeypatch, edit):
        # build_syzygy_module charts K_{p,1} of the coefficient complexes of
        # degrees 0, 1, 2 in that order; edit the chart of degree 1
        charts = []

        def fake(module, p, q):
            chart = koszul.koszul_cohomology(module, p, q)
            charts.append(chart)
            return edit(chart) if len(charts) == 2 else chart

        monkeypatch.setattr(greenchk, "koszul_cohomology", fake)

    def test_d_squared_nonzero(self, hyp2, monkeypatch):
        real = koszul.koszul_differential

        def fake(module, p, q):
            d = real(module, p, q)
            return np.ones_like(d) if q == 0 else d  # a wrong incoming map

        monkeypatch.setattr(koszul, "koszul_differential", fake)
        with pytest.raises(IllDefined, match="d o d != 0"):
            build_syzygy_module(hyp2, 5, 1)

    def test_cocycles_not_preserved(self, hyp2, monkeypatch):
        # sub_1 gains a vector that is not a cocycle: the chart is rebuilt from
        # the RREF of d_out less its last row, whose pivot column turns free
        def edit(chart):
            r = np.zeros((len(chart.pivots), chart.size), dtype=np.int64)
            r[np.arange(len(chart.pivots)), chart.pivots] = 1
            r[:, chart.free] = chart.lift
            wider = graded.Chart.kernel(r[:-1], 101)
            assert len(wider.free) == len(chart.free) + 1
            return wider.modulo(chart.lifted(chart.rel.T, 101)[wider.free], 101)

        self.corrupt_degree_one(monkeypatch, edit)
        with pytest.raises(IllDefined, match="maps sub_1 outside sub_2"):
            build_syzygy_module(hyp2, 5, 1)

    def test_coboundaries_not_preserved(self, hyp2, monkeypatch):
        # rel_1 = every cocycle, so M^1_1 = 0 while x_k M^1_1 != 0 in M^1_2
        self.corrupt_degree_one(
            monkeypatch, lambda chart: chart.modulo(np.eye(len(chart.free), dtype=np.int64), 101)
        )
        with pytest.raises(IllDefined, match="maps rel_1 outside rel_2"):
            build_syzygy_module(hyp2, 5, 1)


class TestPhi:
    def test_wedge_overflow_source_zero(self, hyp2):
        # i + 1 > g: the source wedge vanishes; surjective iff target zero
        syz = build_syzygy_module(hyp2, 5, 1)
        v = phi_map(syz, 5)
        assert v.src == 0
        assert v.surjective == (v.tgt == 0)

    def test_phi_and_vanishing_share_one_rank_cache(self, hyp2, monkeypatch):
        # K_{i,1}(M^p) needs rank d_{i+1,0}, which Phi_{i,p,1} has just computed
        import ribbonsyz.koszul as koszul

        syz = build_syzygy_module(hyp2, 5, 1)
        calls = []
        real = koszul.rank
        monkeypatch.setattr(koszul, "rank", lambda a, p: calls.append(a.shape) or real(a, p))
        verdict = phi_map(syz, 1)
        assert (verdict.tgt, verdict.src) == (6, 8)

        def blocks(p, q):
            # the shapes of the components of d_{p,q}, each ranked once
            return [(len(r), len(c)) for r, c in koszul._components(*koszul._pattern(syz.module, p, q))]

        assert calls == blocks(2, 0) == [(2, 1), (2, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisUnmetWarning)
            dim = module_koszul_vanishing(syz, 1)
        assert calls == blocks(2, 0) + blocks(1, 1)  # only d_{1,1} is new
        assert dim == oracle_koszul_dim(
            syz.module.n,
            syz.module.pieces,
            [[a.tolist() for a in act] for act in syz.module.action],
            1,
            1,
            101,
        )

    def test_phi_composes_to_zero(self, quartic):
        # consecutive Koszul differentials of M^p vanish on cohomology
        syz = build_syzygy_module(quartic, 1, 1)
        first = koszul_differential(syz.module, 3, 0)  # wedge^3 (x) M_0 -> wedge^2 (x) M_1
        second = koszul_differential(syz.module, 2, 1)  # wedge^2 (x) M_1 -> wedge^1 (x) M_2
        n, dims = syz.module.n, syz.module.pieces
        for (p, q), mat in (((3, 0), first), ((2, 1), second)):
            assert mat.shape == (math.comb(n, p - 1) * dims[q + 1], math.comb(n, p) * dims[q])
            assert syz.koszul.rank_d(p, q) == rank(mat, 101)
        if first.size and second.size:
            assert not np.any(matmul_mod(second, first, 101))

    def test_surjectivity_always_implies_vanishing(self, quartic, hyp2):
        # the unconditional direction of the equivalence
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisUnmetWarning)
            for model, t in [(quartic, 1), (hyp2, 5)]:
                for j in range(0, 3):
                    syz = build_syzygy_module(model, t, j)
                    for i in range(0, 3):
                        if phi_map(syz, i).surjective:
                            assert module_koszul_vanishing(syz, i) == 0

    def test_quartic_some_phi_fails_on_critical_antidiagonal(self, quartic):
        # Green fails for this ribbon, so some Phi_{i,j,1} with i+j = 3 must fail
        verdicts = []
        for j in range(0, 4):
            syz = build_syzygy_module(quartic, 1, j)
            verdicts.append(phi_map(syz, 3 - j).surjective)
        assert not all(verdicts)


class TestLemmaCrossPath:
    def test_agreement_where_hypotheses_hold(self, quartic):
        # quartic with t = 2: h^1(-L) = h^0(O(-1)) = 0 and 2g - 4 = 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisUnmetWarning)
            for j in (0, 2):
                syz = build_syzygy_module(quartic, 2, j)
                assert all(lemma_hypotheses(syz).values())
                for i in range(0, 4):
                    surj = phi_map(syz, i).surjective
                    van = module_koszul_vanishing(syz, i) == 0
                    assert surj == van, (i, j)

    def test_hypotheses_matter_regression(self, quartic):
        # j = 3 > 2g - 4: vanishing without surjectivity actually occurs,
        # in the only direction the theory permits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisUnmetWarning)
            syz = build_syzygy_module(quartic, 2, 3)
            assert not all(lemma_hypotheses(syz).values())
            v = phi_map(syz, 1)
            assert not v.surjective
            assert module_koszul_vanishing(syz, 1) == 0

    def test_warning_raised(self, quartic):
        syz = build_syzygy_module(quartic, 1, 1)  # h^1(-L) = 1 for t = 1
        with pytest.warns(HypothesisUnmetWarning):
            module_koszul_vanishing(syz, 0)


class TestGreenReport:
    def test_hyperelliptic_g2_all_conditions_true(self, hyp2):
        rep = green_split_report(hyp2, 5)
        assert rep["gate"] is True
        assert rep["rcliff"] == rep["lcliff"] == 2
        assert rep["conditions"] == {
            "rcliff_equals_lcliff": True,
            "phi_surjective": True,
            "vanishing": True,
        }
        assert rep["consistent"] is True
        assert {(e["i"], e["j"]) for e in rep["phi"]} == {(0, 1), (1, 0)}

    def test_each_syzygy_module_is_built_once(self, hyp2, monkeypatch):
        # the pairs (i, 2m - 3 - i), 0 <= i <= 2m - 3, meet each j once
        built = []
        real = greenchk.build_syzygy_module
        monkeypatch.setattr(greenchk, "build_syzygy_module", lambda model, t, j: built.append(j) or real(model, t, j))
        rep = green_split_report(hyp2, 5)
        assert len(built) == 2 * rep["m"] - 2 == 2
        assert built == [e["j"] for e in rep["phi"]] == [1, 0]

    def test_genus0_degenerates_gracefully(self):
        line = HyperellipticCurve(F101, [0, 1])
        rep = green_split_report(line, 6)
        assert rep["m"] == 1
        assert rep["phi"] == [] and rep["m_vanishing"] == []
        assert rep["conditions"]["phi_surjective"] is True  # vacuous
        assert rep["conditions"]["vanishing"] is True
        assert rep["rcliff"] == 0 == rep["lcliff"]
        assert rep["consistent"] is True

    def test_elliptic_experiment(self):
        # the paper asserts the elliptic case without proof: treated as an
        # experiment; consistency bookkeeping must still hold
        e = HyperellipticCurve(F101, [1, 1, 0, 1])
        rep = green_split_report(e, 6)
        assert rep["g"] == 1 and rep["m"] == 2 and rep["p_a"] == 7
        assert rep["gate"] is True
        assert rep["consistent"] is True
        assert rep["conditions"]["rcliff_equals_lcliff"] == rep["conditions"]["phi_surjective"]
