"""Koszul differentials, Koszul cohomology, and Betti tables.

Conventions, fixed project-wide:

* wedge bases are ordered colexicographically (``fflinalg.WedgeIndex``);
* the differential  d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}  acts by
  d(e_{s_1}^...^e_{s_p} (x) m) = sum_j (-1)^{j+1} e_{s_1}^..^{s_j}^..^e_{s_p} (x) x_{s_j}.m;
* the basis of wedge^p V (x) M_q is indexed by  wedge_rank * dim(M_q) + m_index.

Cohomology dimensions are convention-independent; fixing one makes the
representative bases reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ribbonsyz.fflinalg import WedgeIndex, image_basis, kernel_basis, matmul_mod, rank
from ribbonsyz.graded import GradedAlgebra, GradedModule

__all__ = [
    "IllDefined",
    "OutOfWindow",
    "NoNonzero",
    "KoszulGroup",
    "KoszulCalculator",
    "BettiTable",
    "koszul_differential",
    "koszul_cohomology",
    "betti_table",
    "duality_check",
    "hilbert_check",
    "hilbert_dims",
    "rcliff",
]


class IllDefined(Exception):
    """An exact well-definedness check failed: implementation bug."""


class OutOfWindow(Exception):
    """A requested degree needs graded pieces outside the computed window."""


class NoNonzero(Exception):
    """A Betti table with no nonzero entry in the q = 2 row."""


def koszul_differential(module: GradedModule, p: int, q: int) -> np.ndarray:
    """Matrix of d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}.

    For p = 0 the target is the empty wedge and the map is the zero map
    out of M_q (a matrix with zero rows).
    """
    if q < 0 or q + 1 > module.window:
        raise OutOfWindow(f"degree {q} -> {q + 1} outside window 0..{module.window}")
    n = module.n
    w_src = WedgeIndex(n, p)
    w_tgt = WedgeIndex(n, p - 1)
    dmq = module.pieces[q]
    dmq1 = module.pieces[q + 1]
    out = np.zeros((w_tgt.count * dmq1, w_src.count * dmq), dtype=np.int64)
    if p == 0 or w_src.count == 0:
        return out
    act = module.action[q]
    pmod = module.field.p
    for r, subset in enumerate(w_src.subsets):
        c0 = r * dmq
        for j, sj in enumerate(subset):
            t = w_tgt.rank(subset[:j] + subset[j + 1 :])
            block = act[sj] if j % 2 == 0 else (pmod - act[sj]) % pmod
            out[t * dmq1 : (t + 1) * dmq1, c0 : c0 + dmq] = block
    return out


@dataclass(frozen=True)
class KoszulGroup:
    """A computed K_{p,q}: dimension plus representative bases.

    ``cocycles`` columns span ker d_{p,q}; ``coboundaries`` columns span
    im d_{p+1,q-1} inside it.  dim = #cocycle columns - #coboundary columns.
    """

    p: int
    q: int
    dim: int
    cocycles: np.ndarray
    coboundaries: np.ndarray


def koszul_cohomology(module: GradedModule, p: int, q: int) -> KoszulGroup:
    """K_{p,q} of the module with explicit cocycle/coboundary bases.

    Needs pieces q-1 (implicitly zero when q = 0), q, and q+1 in window.
    """
    d_out = koszul_differential(module, p, q)
    z = kernel_basis(d_out, module.field.p)
    if q >= 1:
        d_in = koszul_differential(module, p + 1, q - 1)
        b = image_basis(d_in, module.field.p)
    else:
        b = np.zeros((d_out.shape[1], 0), dtype=np.int64)
    if b.shape[1] and np.any(matmul_mod(d_out, b, module.field.p)):
        raise IllDefined("d o d != 0: coboundaries are not cocycles")
    return KoszulGroup(p, q, z.shape[1] - b.shape[1], z, b)


class KoszulCalculator:
    """Lazy per-cell Koszul dimensions with a rank cache.

    Cells are pure and independent, and the cache keeps the first rank
    stored for a cell (``dict.setdefault``), so evaluating a cell twice,
    even from two threads at once, only repeats work.
    """

    def __init__(self, module: GradedModule):
        self.module = module
        self._ranks: dict[tuple[int, int], int] = {}

    def rank_d(self, p: int, q: int) -> int:
        """rank of d_{p,q}; zero maps (p<=0, q<0, empty wedge) cost nothing."""
        n = self.module.n
        if p <= 0 or q < 0 or p > n:
            return 0
        key = (p, q)
        if key in self._ranks:
            return self._ranks[key]
        d = koszul_differential(self.module, p, q)
        return self._ranks.setdefault(key, rank(d, self.module.field.p) if d.size else 0)

    def dim(self, p: int, q: int) -> int:
        """dim K_{p,q} by the total-rank formula."""
        n = self.module.n
        if not 0 <= p <= n or not 0 <= q <= self.module.window:
            return 0
        middle = WedgeIndex(n, p).count * self.module.pieces[q]
        return middle - self.rank_d(p, q) - self.rank_d(p + 1, q - 1)


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers b_{p,q} of a canonical ring, rows q = 0..3.

    ``entries[q][p]`` for 0 <= p <= p_a - 2, every cell computed.
    ``method`` records which module the Koszul ranks were taken on:
    "artinian" (the certified reduction by two linear forms) or "direct"
    (the ring itself).
    """

    p_a: int
    entries: np.ndarray
    method: str = "direct"

    def __post_init__(self):
        if self.entries.shape != (4, self.p_a - 1):
            raise ValueError(f"entries must be 4 x {self.p_a - 1}")
        if self.method not in ("artinian", "direct"):
            raise ValueError(f"unknown method {self.method!r}")

    def totals(self) -> list[int]:
        return [int(t) for t in self.entries.sum(axis=0)]

    def to_text(self) -> str:
        """Aligned text in the Macaulay2 layout: total row, then rows 0..3."""
        cols = self.p_a - 1
        body = self.entries.astype(object)
        cells = [[str(int(b)) if b else "." for b in row] for row in body]
        totals = [str(t) for t in self.totals()]
        widths = [
            max(len(str(p)), len(totals[p]), *(len(cells[q][p]) for q in range(4)))
            for p in range(cols)
        ]
        head = " " * 7 + " ".join(str(p).rjust(widths[p]) for p in range(cols))
        lines = [head, "total: " + " ".join(totals[p].rjust(widths[p]) for p in range(cols))]
        for q in range(4):
            lines.append(f"{q}:     " + " ".join(cells[q][p].rjust(widths[p]) for p in range(cols)))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "p_a": self.p_a,
            "rows": [[int(b) for b in row] for row in self.entries],
            "totals": self.totals(),
            "q3_mode": "full",  # kept for schema compatibility
            "method": self.method,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


# Seed of the local generator that draws the two linear forms, so a table
# is a pure function of its algebra, and how many pairs are drawn before
# the direct path answers.
_REDUCTION_SEED = 0
_REDUCTION_DRAWS = 4


def _artinian_module(algebra: GradedAlgebra) -> GradedModule | None:
    """The algebra cut by two certified general linear forms, or None."""
    n = algebra.dims[1]
    if n < 2:
        return None
    rng = np.random.default_rng(_REDUCTION_SEED)
    for _ in range(_REDUCTION_DRAWS):
        l1, l2 = rng.integers(0, algebra.field.p, size=(2, n))
        module = algebra.artinian_reduction(l1, l2)
        if module is not None:
            return module
    return None


def betti_table(algebra: GradedAlgebra, p_a: int | None = None) -> BettiTable:
    """Betti table of the algebra as a module over itself, V = degree 1.

    Every cell of rows q = 0..3 is a Koszul dimension from differential
    ranks (the window must reach degree 4).  The ranks are taken on the
    Artinian reduction by two linear forms whenever its certificate holds
    (``GradedAlgebra.artinian_reduction``), and on the algebra itself
    otherwise.
    """
    if p_a is None:
        p_a = algebra.dims[1]
    if p_a != algebra.dims[1]:
        raise ValueError(f"p_a = {p_a} but the degree-one piece has dim {algebra.dims[1]}")
    if algebra.window < 4:
        raise OutOfWindow("betti_table needs pieces through degree 4 (socle rank)")
    module = _artinian_module(algebra)
    method = "artinian"
    if module is None:
        module, method = algebra.as_module(), "direct"
    calc = KoszulCalculator(module)
    entries = np.array(
        [[calc.dim(p, q) for p in range(p_a - 1)] for q in range(4)], dtype=np.int64
    )
    return BettiTable(p_a, entries, method=method)


def duality_check(table: BettiTable) -> bool:
    """Whether b_{p,q} = b_{p_a-2-p, 3-q} for all cells."""
    e = table.entries
    return bool(np.array_equal(e, e[::-1, ::-1]))


def hilbert_dims(p_a: int, up_to: int) -> list[int]:
    """Hilbert function of a canonical ribbon ring: 1, p_a, then (2q-1)(p_a-1)."""
    out = []
    for q in range(up_to + 1):
        if q == 0:
            out.append(1)
        elif q == 1:
            out.append(p_a)
        else:
            out.append((2 * q - 1) * (p_a - 1))
    return out


def hilbert_check(table: BettiTable, h: list[int]) -> bool:
    """Exact Hilbert-series consistency of the table with the dims ``h``.

    Compares sum_q h(q) t^q (1-t)^{p_a} with sum_{p,q} (-1)^p b_{p,q} t^{p+q}
    through degree p_a + 1, as integer polynomials.  ``h`` is extended by
    the ribbon formula (2q-1)(p_a-1) when shorter than p_a + 2.
    """
    p_a = table.p_a
    top = p_a + 1
    h = list(h)
    if len(h) < top + 1:
        h = h + hilbert_dims(p_a, top)[len(h) :]
    # (1-t)^{p_a} coefficients
    from math import comb

    lhs = [0] * (top + 1)
    for q in range(top + 1):
        for k in range(0, top + 1 - q):
            lhs[q + k] += h[q] * (-1) ** k * comb(p_a, k)
    rhs = [0] * (top + 1)
    for q in range(4):
        for p in range(p_a - 1):
            if p + q <= top:
                rhs[p + q] += (-1) ** p * int(table.entries[q, p])
    return lhs == rhs


def rcliff(table: BettiTable) -> int:
    """Resolution Clifford index: smallest p with b_{p,2} != 0."""
    row = table.entries[2]
    nz = np.nonzero(row)[0]
    if nz.size == 0:
        raise NoNonzero("no nonzero entry in the q = 2 row")
    return int(nz[0])
