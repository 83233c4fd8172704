"""The syzygy module M^p, its Koszul maps, and the split-ribbon equivalences.

For a curve C with a negative-degree bundle L, write W = K_C - L and fix p.
The graded pieces

    M^p_q = K_{p,1}(C, K_C^q, W)

are middle cohomologies of three-term complexes in wedge powers of
U = H^0(W); multiplication by H^0(K_C) on coefficients descends to
cohomology and makes M^p a module over Sym H^0(K_C).  Its Koszul
differentials are the maps Phi_{i,p,q}, and the split-ribbon resolution
Clifford index question reduces to their surjectivity at q = 1 (for
i + j = 2m - 3), equivalently to the vanishing of K_{i,1}(M^j).

M^p is built in its cocycles' own coordinates.  ``koszul_cohomology``
charts piece q in w = C(dim U, p) copies of H^0(K^q W), the free
coordinates of the RREF of d_out, and H^0(K_C) acts by multiplication on
the coefficient module [H^0(W), H^0(KW), H^0(K^2 W)], applied to every
copy (``GradedModule.cohomology``), so the block-diagonal action
id (x) multiplication is never written out.  The exact checks live where
the objects are made: ``koszul_cohomology`` checks d o d = 0, and
``cohomology`` that the action keeps the cocycles and the coboundaries; a
failure raises IllDefined (a bug, not a mathematical state).  So does the
memory budget (``fflinalg.check_budget``): ``koszul_cohomology`` prices
its two maps, and ``cohomology`` each degree's lifts and images.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

from ribbonsyz.curves import mult_map
from ribbonsyz.graded import GradedModule, NotASubmodule
from ribbonsyz.koszul import (
    IllDefined,
    KoszulCalculator,
    koszul_cohomology,
    rcliff,
)
from ribbonsyz.ribbon import (
    build_split_ribbon,
    conormal_tags,
    hypothesis_gate,
    split_invariants,
)

__all__ = [
    "IllDefined",
    "HypothesisUnmetWarning",
    "SyzygyModule",
    "PhiVerdict",
    "build_syzygy_module",
    "phi_map",
    "module_koszul_vanishing",
    "green_split_report",
    "recompute_consistency",
]


class HypothesisUnmetWarning(UserWarning):
    """Lemma hypotheses fail; the computed value is returned regardless."""


@dataclass(frozen=True)
class SyzygyModule:
    """M^p as a module over Sym H^0(K_C), with explicit presentations."""

    p: int
    g: int
    module: GradedModule
    h1_neg_l: int

    @cached_property
    def koszul(self) -> KoszulCalculator:
        """One rank cache for every Koszul map of the module (Phi and K_{i,1})."""
        return KoszulCalculator(self.module)


@dataclass(frozen=True)
class PhiVerdict:
    """Surjectivity verdict for Phi_{i,j,1}."""

    i: int
    j: int
    src: int
    tgt: int
    rank: int

    @property
    def surjective(self) -> bool:
        return self.rank == self.tgt


def build_syzygy_module(model, conormal_multiple: int, p: int) -> SyzygyModule:
    """Construct M^p with pieces for q = 0, 1, 2 and a verified action.

    Each piece is the middle cohomology of

      wedge^{p+1} U (x) H^0(K^q)  ->  wedge^p U (x) H^0(K^q W)  ->  wedge^{p-1} U (x) H^0(K^q W^2),

    computed as K_{p,1} of the coefficient module [H^0(K^q), H^0(K^q W),
    H^0(K^q W^2)] over U and charted by ``koszul_cohomology`` in
    w = C(dim U, p) copies of H^0(K^q W); M^p is their cohomology over the
    module [H^0(W), H^0(KW), H^0(K^2 W)] of H^0(K_C) acting by
    multiplication (``GradedModule.cohomology``, see there for the basis and
    the checks).  Raises MatrixTooLarge before a map of a cohomology group,
    or the lifts or images of a degree, over the memory budget is assembled.
    """
    k_tag, w_tag, _ = conormal_tags(model, conormal_multiple)
    u_space = model.sections(w_tag)
    k_space = model.sections(k_tag)
    g = k_space.dim

    def coefficient_module(q: int) -> GradedModule:
        spaces = [model.sections(q * k_tag + j * w_tag) for j in range(3)]
        action = tuple(mult_map(u_space, s) for s in spaces[:2])
        return GradedModule(model.field, u_space.dim, tuple(s.dim for s in spaces), action)

    sections = [model.sections(q * k_tag + w_tag) for q in range(3)]
    action = tuple(mult_map(k_space, s) for s in sections[:2])  # (g, tgt, src)
    coefficients = GradedModule(model.field, g, tuple(s.dim for s in sections), action)
    # Phi_{i,p,1} and K_{i,1}(M^p) read no piece past degree 2; each degree
    # is charted when cohomology takes it, and freed once the next is read
    charts = (koszul_cohomology(coefficient_module(q), p, 1) for q in range(3))
    try:
        module = coefficients.cohomology(charts)
    except NotASubmodule as exc:
        raise IllDefined(f"the H^0(K_C) action does not descend to cohomology: {exc}") from exc
    module.check_commutativity()
    h1_neg_l = model.h0(k_tag + (k_tag - w_tag))  # h^1(-L) = h^0(K_C + L)
    return SyzygyModule(p=p, g=g, module=module, h1_neg_l=h1_neg_l)


def phi_map(syz: SyzygyModule, i: int) -> PhiVerdict:
    """The Koszul differential Phi_{i,p,1} of M^p over Sym H^0(K_C).

    Maps wedge^{i+1} H^0(K) (x) M^p_0 -> wedge^i H^0(K) (x) M^p_1;
    surjectivity is decided by the rank from the module's shared cache, so
    the matrix is built once, there.
    """
    module = syz.module
    return PhiVerdict(
        i=i,
        j=syz.p,
        src=math.comb(module.n, i + 1) * module.pieces[0],
        tgt=math.comb(module.n, i) * module.pieces[1],
        rank=syz.koszul.rank_d(i + 1, 0),
    )


def lemma_hypotheses(syz: SyzygyModule) -> dict:
    """The two hypotheses under which surjectivity <=> vanishing is a theorem."""
    return {
        "h1_neg_l_vanishes": syz.h1_neg_l == 0,
        "p_small_enough": syz.p <= 2 * syz.g - 4,
    }


def module_koszul_vanishing(syz: SyzygyModule, i: int) -> int:
    """dim K_{i,1}(M^p, H^0(K_C)), the middle cohomology of the three-term complex.

    Warns (HypothesisUnmetWarning) when the hypotheses tying this to the
    surjectivity of Phi_{i,p,1} fail; the dimension is returned either way.
    """
    hyp = lemma_hypotheses(syz)
    if not all(hyp.values()):
        warnings.warn(
            f"surjectivity<=>vanishing hypotheses unmet for p={syz.p}: {hyp}",
            HypothesisUnmetWarning,
            stacklevel=2,
        )
    return syz.koszul.dim(i, 1)


def green_split_report(model, conormal_multiple: int) -> dict:
    """All three split-ribbon equivalence conditions, computed independently.

    (1) the resolution Clifford index of the split ribbon equals 2m - 2,
        read off the computed Betti table;
    (2) Phi_{i,j,1} is surjective for all i, j >= 0 with i + j = 2m - 3;
    (3) K_{i,1}(M^j) = 0 for the same pairs.

    The consistency flag asserts exactly what the theory guarantees: under
    the p_a gate, (1) and (2) must agree; where additionally the
    surjectivity<=>vanishing hypotheses hold for a pair, its two verdicts
    must agree.  A False flag signals an implementation bug.
    """
    ring = build_split_ribbon(model, conormal_multiple)
    m = model.gonality
    inv = split_invariants(ring.g, m, ring.deg_l)
    gate = hypothesis_gate(ring.g, m, ring.p_a)
    table = ring.betti()

    pairs = [(i, 2 * m - 3 - i) for i in range(2 * m - 2)] if 2 * m - 3 >= 0 else []
    phi_entries = []
    van_entries = []
    for i, j in pairs:  # each j occurs once
        syz = build_syzygy_module(model, conormal_multiple, j)
        verdict = phi_map(syz, i)
        phi_entries.append(
            {
                "i": i,
                "j": j,
                "surjective": verdict.surjective,
                "src": verdict.src,
                "tgt": verdict.tgt,
            }
        )
        # the report records the hypotheses, so it reads dim K_{i,1} without the warning
        met = all(lemma_hypotheses(syz).values())
        van_entries.append({"i": i, "j": j, "dim": syz.koszul.dim(i, 1), "hypotheses_met": met})
    report = {
        "family": model.family,
        "g": ring.g,
        "m": m,
        "p_a": ring.p_a,
        "deg_l": ring.deg_l,
        "rcliff": rcliff(table),
        "lcliff": inv["lcliff"],
        "gonality": inv["gonality"],
        "gate": gate,
        "phi": phi_entries,
        "m_vanishing": van_entries,
        "betti": table.to_json_obj(),
    }
    return recompute_consistency(report)


def recompute_consistency(report: dict) -> dict:
    """Fill the conditions and consistency flag from a report's raw entries.

    Factored out so fault-injection tests can corrupt an entry and watch
    the inconsistency surface through the same code path.
    """
    cond1 = report["rcliff"] == report["lcliff"]
    cond2 = all(e["surjective"] for e in report["phi"])
    cond3 = all(e["dim"] == 0 for e in report["m_vanishing"])
    consistent = True
    if report["gate"] and cond1 != cond2:
        consistent = False
    for phi_e, van_e in zip(report["phi"], report["m_vanishing"]):
        if van_e["hypotheses_met"] and phi_e["surjective"] != (van_e["dim"] == 0):
            consistent = False
    report["conditions"] = {
        "rcliff_equals_lcliff": cond1,
        "phi_surjective": cond2,
        "vanishing": cond3,
    }
    report["consistent"] = consistent
    return report
