"""The canonical ring of a split ribbon, S~ = S (+) epsilon J.

For a split ribbon over a curve C with conormal bundle L (deg L < 0), the
degree-q piece of the canonical ring splits as

    S~_q = H^0(K_C^q L^{-q})  (+)  epsilon H^0(K_C^q L^{-q+1}),

with multiplication (s, ej)(s', ej') = (ss', e(sj' + s'j)) and epsilon^2 = 0.
Both summand families live in the model's one-parameter bundle family, so
the ring, stored as its action by S~_1 (``graded.GradedAlgebra``: the unit
and the products S~_1 x S~_q -> S~_{q+1}, each of shape
(dim S~_1, dim S~_{q+1}, dim S~_q)), is assembled from curve
multiplication tables alone.  The basis of every graded piece puts the S
block first, then the epsilon J block, and the algebra carries these as
epsilon-weights 0 and 1: multiplication adds them, so every Koszul
differential splits into weight blocks (see ``koszul``).

Supported conormal bundles: L = -t * O_C(1) on a plane model (t >= 1) and
L = -k * Pinf on a hyperelliptic model (k >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ribbonsyz.curves import HyperellipticCurve, PlaneCurve, mult_map
from ribbonsyz.graded import GradedAlgebra
from ribbonsyz.koszul import BettiTable, betti_table, check_table_budget

__all__ = [
    "RibbonError",
    "UnsupportedConormal",
    "SplitRibbonRing",
    "build_split_ribbon",
    "conormal_tags",
    "split_invariants",
    "hypothesis_gate",
]


# Degrees of the assembled ring: Betti rows live in q <= 3, and the socle
# rank looks one degree further.
_WINDOW = 4


class RibbonError(Exception):
    pass


class UnsupportedConormal(RibbonError):
    pass


@dataclass(frozen=True)
class SplitRibbonRing:
    """Assembled canonical ring of a split ribbon, with its invariants."""

    model: object
    deg_l: int
    g: int
    p_a: int
    algebra: GradedAlgebra

    def betti(self) -> BettiTable:
        return betti_table(self.algebra)

    def __repr__(self) -> str:
        return (
            f"SplitRibbonRing({self.model.family}, g={self.g}, "
            f"deg L={self.deg_l}, p_a={self.p_a})"
        )


def conormal_tags(model, conormal_multiple: int) -> tuple[int, int, int]:
    """(K_C tag, K_C - L tag, deg L) for the supported conormal L = -t * polarization.

    Both tags live in the model's one-parameter bundle family, where L is
    tag -t: plane models of degree d have deg L = -t d, hyperelliptic ones
    deg L = -t.  A new curve family changes this function, not its callers.
    """
    t = conormal_multiple
    if t < 1:
        raise UnsupportedConormal("conormal bundle must be a negative multiple (t >= 1)")
    if isinstance(model, PlaneCurve):
        deg_l = -t * model.d
    elif isinstance(model, HyperellipticCurve):
        deg_l = -t
    else:
        raise UnsupportedConormal(f"unsupported model {model!r}")
    return model.canonical_tag, model.canonical_tag + t, deg_l


def build_split_ribbon(model, conormal_multiple: int) -> SplitRibbonRing:
    """Assemble the split-ribbon canonical ring through degree _WINDOW.

    Raises UnsupportedConormal when p_a < 3, below the range of canonical
    ribbons, and MatrixTooLarge when ``koszul.check_table_budget`` refuses
    the ring's Betti table, before the ring and its certificate are built.
    """
    # S_q = q(K_C - L) and J_q = S_q + L; J_1 is exactly the canonical bundle
    _, unit, deg_l = conormal_tags(model, conormal_multiple)
    t = conormal_multiple
    g = model.genus
    p_a = split_invariants(g, model.gonality, deg_l)["p_a"]
    if p_a < 3:
        raise UnsupportedConormal(f"p_a = {p_a}: a canonical ribbon needs p_a >= 3")
    s_spaces = [model.sections(q * unit) for q in range(_WINDOW + 1)]
    j_spaces = [model.sections(q * unit - t) for q in range(_WINDOW + 1)]
    s_dims = tuple(s.dim for s in s_spaces)
    j_dims = tuple(j.dim for j in j_spaces)
    if j_dims[0] != 0:
        raise UnsupportedConormal("conormal bundle must have negative degree")
    if s_dims[1] + j_dims[1] != p_a:
        raise UnsupportedConormal(
            f"dim S~_1 = {s_dims[1] + j_dims[1]} != p_a = {p_a}; "
            "the conormal degree is too small for this model"
        )
    weights = [np.repeat([0, 1], [s_dims[q], j_dims[q]]) for q in range(_WINDOW + 1)]
    check_table_budget(weights)
    dims = [s_dims[q] + j_dims[q] for q in range(_WINDOW + 1)]
    # S~_1 x S~_b -> S~_{b+1} in the action layout; epsilon J x epsilon J = 0
    s1, j1 = s_dims[1], j_dims[1]
    products = []
    for b in range(1, _WINDOW):
        sb, sc = s_dims[b], s_dims[b + 1]
        tensor = np.zeros((dims[1], dims[b + 1], dims[b]), dtype=np.int64)
        tensor[:s1, :sc, :sb] = mult_map(s_spaces[1], s_spaces[b])
        if j_dims[b]:
            tensor[:s1, sc:, sb:] = mult_map(s_spaces[1], j_spaces[b])
        if j1:
            tensor[s1:, sc:, :sb] = mult_map(j_spaces[1], s_spaces[b])
        products.append(tensor)
    algebra = GradedAlgebra(model.field, dims, products, weights=weights)
    return SplitRibbonRing(model=model, deg_l=deg_l, g=g, p_a=p_a, algebra=algebra)


def split_invariants(g: int, m: int, deg_l: int) -> dict:
    """Numerical invariants of the split ribbon over an m-gonal genus-g curve, p_a among them."""
    return {"p_a": 2 * g - 1 - deg_l, "gonality": 2 * m, "lcliff": 2 * m - 2}


def hypothesis_gate(g: int, m: int, p_a: int) -> bool:
    """Whether p_a is large enough for the three-way equivalence to be guaranteed."""
    return p_a >= max(2 * g + 2 * m - 1, 6 * g - 4)
