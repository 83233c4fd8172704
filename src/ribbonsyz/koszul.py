"""Koszul differentials, Koszul cohomology, and Betti tables.

Conventions, fixed project-wide:

* wedge bases are ordered colexicographically (``_wedge_arrays``);
* the differential  d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}  acts by
  d(e_{s_1}^...^e_{s_p} (x) m) = sum_j (-1)^{j+1} e_{s_1}^..^{s_j}^..^e_{s_p} (x) x_{s_j}.m;
* the basis of wedge^p V (x) M_q is indexed by  wedge_rank * dim(M_q) + m_index.

Cohomology dimensions are convention-independent; fixing one makes the
charts of ``koszul_cohomology`` (``graded.Chart``) reproducible.

Components.  The nonzero pattern of d_{p,q} is read off the action
alone (``_pattern``): a nonzero (x_k)[m', m] puts one entry in column
(S, m) and row (S - k, m') for each of the C(n - 1, p - 1) subsets S that
hold k.  The rows and columns joined by these entries form a bipartite
graph, and its connected components (``_components``) are the finest
block-diagonal split of the cell under any permutation (the coarse
decomposition of Pothen and Fan, ACM TOMS 16, 1990): the rank of the cell
is the sum of its components' ranks, an identity that needs no
certificate.  ``KoszulCalculator.rank_d`` prices the pattern and then
every component against the memory budget (``fflinalg.check_budget``,
which ``koszul_cohomology`` applies to its two maps too) before it
assembles the first, and assembles, ranks and drops one at a time.  On a
split ribbon S~ = S (+) epsilon J, whose products add epsilon-weights (S
at 0, epsilon J at 1), the components refine the weight blocks, the
curve-level Koszul complexes with coefficients in K^q L^{-q} and
K^q L^{-q+1}.  The Betti table reads one set of action tensors, whether it
ranks the ring itself or its Artinian reduction; the reduction
(``GradedAlgebra.artinian_reduction``) is a ``graded.Chart`` a degree, as
``koszul_cohomology`` is, from the RREF its certificate runs anyway.

Cells next to a one-dimensional piece.  Two exact certificates, checked
once per module, give the rank of d_{p,q}, 1 <= p <= n, without assembling
it.  Both read only ``action[q]``, of shape (n, dim M_{q+1}, dim M_q).

* Injective: dim M_q = 1, spanned by m_0, and the n x dim M_{q+1} matrix
  ``action[q][:, :, 0]`` has rank n, so the y_k = x_k.m_0 are independent.
  Then d(e_S (x) m_0) = sum_j +-e_{S - s_j} (x) y_{s_j} is supported on the
  vectors e_T (x) y_k with T + k = S; in a basis of M_{q+1} extending the
  y_k these supports are disjoint and nonempty, so d_{p,q} is injective
  and its rank is C(n, p).
* Surjective: dim M_{q+1} = 1, spanned by t, and the n x dim M_q matrix
  ``action[q][:, 0, :]`` has rank n, so the functionals x_k : M_q -> M_{q+1}
  are independent and M_q holds a dual family m_k (x_l.m_k = delta_kl t).
  Then d(e_S (x) m_k) = +-e_{S - k} (x) t for k in S, and every e_T (x) t,
  |T| = p - 1 < n, is such an image, so d_{p,q} is surjective and its rank
  is C(n, p - 1).

An Artinian reduction of a canonical ribbon has pieces (1, n, n, 1, 0), so
rows q = 0 (the unit) and q = 2 (the socle pairing B_2 x B_1 -> B_3) come
from these certificates; the ring itself gets row 0 through its unit.
``hilbert_check`` holds for any ranks (they telescope out of the Euler
characteristic).  A cell whose certificate fails is ranked as any other.

Row q = 1 by Gorenstein duality.  A third exact certificate, checked once
per module, halves the row that is left.  It holds when the pieces are
(1, n, n, 1, 0), the module is cyclic (B_q = V B_{q-1} for q = 1, 2, 3),
its socle is B_3 alone (no nonzero m in B_q, q <= 2, with x_k.m = 0 for
every k), and the action commutes.  Then B is a graded Artinian quotient
of Sym V with a one-dimensional socle, so it is Gorenstein (Eisenbud, The
Geometry of Syzygies, GTM 229): the pairings B_q x B_{3-q} -> B_3 are
perfect, and through them and wedge^p V x wedge^{n-p} V -> wedge^n V the
map d_{n+1-p,1} is, up to signs, the transpose of d_{p,1}.  So
r_{p,1} = r_{n+1-p,1}, and only the cells with 2p <= n + 1 are ranked.
The certificate also ranks the cheapest mirrored pair, d_{1,1} and the
n^2 x n matrix d_{n,1}, and holds only when the two agree, so
``duality_check`` still compares b_{1,1} with b_{n-1,2}, two ranks
computed independently.  A module whose certificate fails (every ring,
every syzygy module M^p, any reduction that is not Gorenstein) has its
whole row ranked.

Pricing before the ring.  ``check_table_budget`` refuses a table over
the memory budget from the ribbon's S and epsilon J dimensions alone,
before ``ribbon`` builds the ring and runs its commutativity certificate.
``_artinian_module`` draws a ribbon's two forms on S_1, so a certified
reduction B respects the epsilon-weights and has
dim B_q^w = dim A_q^w - 2 dim A_{q-1}^w + dim A_{q-2}^w.  The row-1 cells
that every module ranks (those ``_mirrored`` leaves out) are priced one
weight block at a time, in increasing p and w: the block of total weight
w is a union of components of B's cell, so a table priced here never has
a component of these cells over the budget on the Artinian path.  The
components may be finer than the blocks, so a refusal here is cautious.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from ribbonsyz.fflinalg import MatrixTooLarge, check_budget, rank
from ribbonsyz.graded import Chart, GradedAlgebra, GradedError, GradedModule
from ribbonsyz.rng import SeededStream

__all__ = [
    "IllDefined",
    "OutOfWindow",
    "KoszulCalculator",
    "BettiTable",
    "koszul_differential",
    "koszul_cohomology",
    "betti_table",
    "check_table_budget",
    "duality_check",
    "hilbert_check",
    "hilbert_dims",
    "rcliff",
]


class IllDefined(Exception):
    """An exact well-definedness check failed: implementation bug."""


class OutOfWindow(Exception):
    """A requested degree needs graded pieces outside the computed window."""


def _wedges(n: int, p: int) -> int:
    """dim wedge^p of an n-dimensional space: 0 outside 0 <= p <= n."""
    return comb(n, p) if 0 <= p <= n else 0


def _cell_shape(module: GradedModule, p: int, q: int) -> tuple[int, int]:
    """Shape of d_{p,q}: rows wedge^{p-1} V (x) M_{q+1}, columns wedge^p V (x) M_q."""
    return _wedges(module.n, p - 1) * module.pieces[q + 1], _wedges(module.n, p) * module.pieces[q]


@lru_cache(maxsize=64)
def _wedge_arrays(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(subsets, faces) for the size-p subsets of range(n), colex order.

    ``subsets[r]`` is the r-th subset, increasing; ``faces[r, j]`` is the
    colex rank of ``subsets[r]`` with its j-th element removed.  The colex
    rank of s_0 < ... < s_{k-1} is sum_i C(s_i, i + 1).
    """
    count = _wedges(n, p)
    binom = np.array([comb(v, k) for v in range(n) for k in range(p + 1)], dtype=np.int64)
    binom = binom.reshape(n, max(p + 1, 0))
    subsets = np.empty((count, max(p, 0)), dtype=np.int64)
    if count:
        lex = np.array(list(combinations(range(n), p)), dtype=np.int64).reshape(count, p)
        subsets[binom[lex, np.arange(1, p + 1)].sum(axis=1)] = lex
    faces = np.empty((count, max(p, 0)), dtype=np.int64)
    for j in range(p):
        rest = np.delete(subsets, j, axis=1)
        faces[:, j] = binom[rest, np.arange(1, p)].sum(axis=1)
    subsets.setflags(write=False)
    faces.setflags(write=False)
    return subsets, faces


def _mirrored(n: int, p: int) -> bool:
    """Whether a Gorenstein module reads r_{p,1} off its mirror r_{n+1-p,1} (see the module docstring).

    The row-1 cells that every module ranks are the others: 2p <= n + 1,
    and p = n, the cheapest mirror, which the certificate ranks itself.
    """
    return 2 * p > n + 1 and p < n


def koszul_differential(module: GradedModule, p: int, q: int, block=None) -> np.ndarray:
    """Matrix of d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, or one block of it.

    ``block`` is (row indices, column indices), each increasing: the
    submatrix on them, whose entries in other rows are not read, so this is
    a block of d when no entry of its columns lies outside its rows (a
    component, see the module docstring).  For p = 0 the target is the
    empty wedge and the map is the zero map out of M_q (a matrix with zero
    rows).  Every entry is placed at once: column (r, m) holds
    (-1)^j (x_{s_j})[m', m] in row (faces[r, j], m') for each wedge position
    j of the subset s = subsets[r].
    """
    if q < 0 or q + 1 > module.window:
        raise OutOfWindow(f"degree {q} -> {q + 1} outside window 0..{module.window}")
    dmq, dmq1 = module.pieces[q], module.pieces[q + 1]
    subsets, faces = _wedge_arrays(module.n, p)
    n_rows = _wedges(module.n, p - 1) * dmq1
    kept, cols = (np.arange(n_rows), np.arange(len(subsets) * dmq)) if block is None else block
    local = np.full(n_rows, -1, dtype=np.int64)
    local[kept] = np.arange(len(kept))
    out = np.zeros((len(kept), len(cols)), dtype=np.int64)
    if not out.size:
        return out
    r, m = np.divmod(cols, dmq)
    signs = np.where(np.arange(p) % 2, -1, 1)[None, :, None]
    vals = (module.action[q][subsets[r], :, m[:, None]] * signs) % module.field.p
    rows = local[faces[r][:, :, None] * dmq1 + np.arange(dmq1)]
    keep = rows >= 0
    at = np.broadcast_to(np.arange(len(cols))[:, None, None], rows.shape)
    out[rows[keep], at[keep]] = vals[keep]
    return out


def _pattern(module: GradedModule, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries of d_{p,q} that the action can make nonzero, distinct.

    There are C(n - 1, p - 1) nnz(action[q]) of them, priced against the
    memory budget before any is placed (MatrixTooLarge).
    """
    subsets, faces = _wedge_arrays(module.n, p)
    # row k: the positions r p + j of x_k in ``subsets``, in colex order of r
    holding = np.argsort(subsets, axis=None, kind="stable").reshape(module.n, _wedges(module.n - 1, p - 1))
    k, target, source = np.nonzero(module.action[q])
    check_budget(f"cell (p, q) = ({p}, {q}), nonzero pattern", (len(k), holding.shape[1]))
    at = holding[k]  # one row per nonzero of the action, one column per subset holding its x_k
    rows = faces.ravel()[at] * module.pieces[q + 1] + target[:, None]
    cols = at // max(p, 1) * module.pieces[q] + source[:, None]
    return rows.ravel(), cols.ravel()


def _components(rows: np.ndarray, cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected components of the bipartite graph that the entries (rows, cols) span.

    Each is (row indices, column indices), both increasing, and the list is
    ordered by first column; rows and columns with no entry are left out.
    The columns are nodes 0.., the rows the nodes after them, and every
    node ends labelled by the least node of its component, a column.  Each
    label is a root, a node labelled by itself: a round hooks the root of
    each end of every entry onto the lesser of the two roots
    (``np.minimum.at``), then pointer jumping (label = label[label]) takes
    every node to its new root.  A root that hooks onto a lesser one leaves
    the set of roots, so a component's roots fall by a fraction each round,
    and the rounds stop when none moves.
    """
    if not len(cols):
        return []
    width = int(cols.max()) + 1
    ends = (cols, rows + width)
    label = np.arange(width + int(rows.max()) + 1)
    while True:
        roots = [label[end] for end in ends]
        least, new = np.minimum(*roots), label.copy()
        for root in roots:
            np.minimum.at(new, root, least)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    blocks = []
    for ids, first in ((np.flatnonzero(np.bincount(rows)), width), (np.flatnonzero(np.bincount(cols)), 0)):
        labels = label[ids + first]
        order = np.argsort(labels, kind="stable")
        blocks.append(np.split(ids[order], np.flatnonzero(np.diff(labels[order])) + 1))
    return list(zip(*blocks))


def koszul_cohomology(module: GradedModule, p: int, q: int) -> Chart:
    """K_{p,q} as a ``graded.Chart``: ker d_out / im d_in, d_out = d_{p,q}, d_in = d_{p+1,q-1}.

    Two eliminations, the RREF of d_out and, for q >= 1, that of the free
    rows of d_in, transposed; dim K_{p,q} is the chart's ``dim``.  Needs
    pieces q-1 (zero when q = 0), q and q+1.  Raises MatrixTooLarge, before
    either is assembled, when d_out or d_in is over the memory budget, and
    IllDefined when d o d != 0.
    """
    where = f"K_{{p,q}} at (p, q) = ({p}, {q})"
    check_budget(f"{where}, d_out", _cell_shape(module, p, q))
    if q >= 1:
        check_budget(f"{where}, d_in", _cell_shape(module, p + 1, q - 1))
    prime = module.field.p
    chart = Chart.kernel(koszul_differential(module, p, q), prime)
    if q == 0:
        return chart
    coords = chart.coordinates(koszul_differential(module, p + 1, q - 1), prime)
    if coords is None:
        raise IllDefined("d o d != 0: coboundaries are not cocycles")
    return chart.modulo(coords, prime)


class KoszulCalculator:
    """Lazy per-cell Koszul dimensions with a rank cache.

    Cells are pure and independent, and the cache keeps the first rank
    stored for a cell (``dict.setdefault``), so evaluating a cell twice,
    even from two threads at once, only repeats work.  ``certificates``
    maps each cell whose rank comes from a certificate (see the module
    docstring) to its name: "injective" or "surjective" for the cells next
    to a one-dimensional piece, "gorenstein" for the row-1 cells read off
    their mirror.  Those cells are never assembled.
    """

    def __init__(self, module: GradedModule):
        self.module = module
        certified = _certified_ranks(module)
        self._ranks: dict[tuple[int, int], int] = {cell: r for cell, (_, r) in certified.items()}
        self.certificates: dict[tuple[int, int], str] = {cell: c for cell, (c, _) in certified.items()}
        if self._gorenstein():
            n = module.n
            self.certificates.update({(p, 1): "gorenstein" for p in range(1, n + 1) if _mirrored(n, p)})

    def _gorenstein(self) -> bool:
        """The Gorenstein certificate of the module docstring; never raises.

        The cheap legs run first: the pieces, then the ranks that certify
        cyclic and socle B_3, then commutativity; last, the mirrored pair
        d_{1,1} and d_{n,1} is ranked through ``rank_d`` (so both ranks are
        cached) and must agree.  A pair over the memory budget fails it.
        """
        module, prime = self.module, self.module.field.p
        n, dims = module.n, module.pieces
        if dims != (1, n, n, 1, 0):
            return False
        for q in (1, 2, 3):  # cyclic: V B_{q-1} spans B_q
            spanned = module.action[q - 1].transpose(1, 0, 2).reshape(dims[q], n * dims[q - 1])
            if rank(spanned, prime) != dims[q]:
                return False
        for q in (0, 1, 2):  # no socle below B_3: m -> (x_k.m)_k is injective on B_q
            if rank(module.action[q].reshape(n * dims[q + 1], dims[q]), prime) != dims[q]:
                return False
        try:
            module.check_commutativity()
            return self.rank_d(1, 1) == self.rank_d(n, 1)
        except (GradedError, MatrixTooLarge):
            return False

    def rank_d(self, p: int, q: int) -> int:
        """rank of d_{p,q}; zero maps (p<=0, q<0, empty wedge) and certified cells cost nothing.

        A Gorenstein cell returns the rank of its mirror d_{n+1-p,1}.
        Otherwise the sum of the ranks of the cell's components (see the
        module docstring), each assembled, ranked and dropped before the
        next is built.  The pattern and every component's dense shape are
        checked against the memory budget before the first is assembled:
        one over it raises MatrixTooLarge.
        """
        n = self.module.n
        if p <= 0 or q < 0 or p > n:
            return 0
        key = (p, q)
        if key in self._ranks:
            return self._ranks[key]
        if self.certificates.get(key) == "gorenstein":
            return self._ranks.setdefault(key, self.rank_d(n + 1 - p, q))
        module = self.module
        if q + 1 > module.window:
            raise OutOfWindow(f"degree {q} -> {q + 1} outside window 0..{module.window}")
        blocks = _components(*_pattern(module, p, q))
        for i, (rows, cols) in enumerate(blocks, 1):
            check_budget(f"cell (p, q) = ({p}, {q}), component {i} of {len(blocks)}", (len(rows), len(cols)))
        # no name holds a block past its rank call, so it is freed before the next is built
        total = sum(rank(koszul_differential(module, p, q, block), module.field.p) for block in blocks)
        return self._ranks.setdefault(key, total)

    def dim(self, p: int, q: int) -> int:
        """dim K_{p,q} by the total-rank formula."""
        n = self.module.n
        if not 0 <= p <= n or not 0 <= q <= self.module.window:
            return 0
        middle = comb(n, p) * self.module.pieces[q]
        return middle - self.rank_d(p, q) - self.rank_d(p + 1, q - 1)


def _certified_ranks(module: GradedModule) -> dict[tuple[int, int], tuple[str, int]]:
    """(certificate, rank d_{p,q}) for 1 <= p <= n wherever the injective or surjective one holds."""
    n, prime = module.n, module.field.p
    ranks = {}
    for q, a in enumerate(module.action):
        if module.pieces[q] == 1 and rank(a[:, :, 0], prime) == n:
            ranks.update({(p, q): ("injective", comb(n, p)) for p in range(1, n + 1)})
        elif module.pieces[q + 1] == 1 and rank(a[:, 0, :], prime) == n:
            ranks.update({(p, q): ("surjective", comb(n, p - 1)) for p in range(1, n + 1)})
    return ranks


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


# Seed of the local generator that draws the two linear forms, so a table
# is a pure function of its algebra, and how many pairs are drawn before
# the direct path answers.
_REDUCTION_SEED = 0
_REDUCTION_DRAWS = 4


def _artinian_module(algebra: GradedAlgebra, support: np.ndarray) -> GradedModule | None:
    """The algebra cut by two certified general linear forms, or None.

    The forms are drawn on the coordinates of degree one that ``support``
    marks (0 or 1 each); the regular-sequence certificate decides.
    """
    n = algebra.n
    if n < 2:
        return None
    rng = SeededStream(_REDUCTION_SEED)
    for _ in range(_REDUCTION_DRAWS):
        l1, l2 = rng.integers(0, algebra.field.p, size=(2, n)) * support
        module = algebra.artinian_reduction(l1, l2)
        if module is not None:
            return module
    return None


def _weight_block(v: tuple[int, int], p: int, piece: tuple[int, int], w: int) -> int:
    """Basis vectors of wedge^p V (x) M of total epsilon-weight w.

    ``v`` and ``piece`` are the (weight-0, weight-1) dimensions of V and M: a
    subset of weight j, C(v0, p - j) C(v1, j) of them, times the vectors of M
    of weight w - j.
    """
    return sum(_wedges(v[0], p - j) * _wedges(v[1], j) * piece[w - j] for j in (w - 1, w))


def check_table_budget(s_dims, j_dims) -> None:
    """Refuse a split ribbon's Betti table over the memory budget from the dimensions of S_q and J_q, q <= 2.

    The reduction B by two forms on S_1 has dim B_q^w = dim A_q^w -
    2 dim A_{q-1}^w + dim A_{q-2}^w, A_q^0 = S_q and A_q^1 = epsilon J_q (see
    "Pricing before the ring" in the module docstring).  Its row-1 cells that
    every module ranks are priced one weight block at a time, in increasing p
    and w, each block found on both sides of its cell; the first over the
    budget raises MatrixTooLarge.  Pieces no reduction can have (a negative
    dimension) price nothing.
    """
    (s0, s1, s2), (j0, j1, j2) = s_dims[:3], j_dims[:3]
    v, b2 = (s1 - 2 * s0, j1 - 2 * j0), (s2 - 2 * s1 + s0, j2 - 2 * j1 + j0)  # V is B_1
    if min(v + b2) < 0:
        return
    n = sum(v)
    for p, w in ((p, w) for p in range(1, n + 1) if not _mirrored(n, p) for w in range(p + 2)):
        shape = (_weight_block(v, p - 1, b2, w), _weight_block(v, p, v, w))
        if all(shape):  # a block found on both sides of the cell
            check_budget(f"cell (p, q) = ({p}, 1), weight block {w}", shape)


def betti_table(algebra: GradedAlgebra, support: np.ndarray | None = None) -> BettiTable:
    """Betti table of the algebra as a module over itself, V = degree 1.

    Every cell of rows q = 0..3 is a Koszul dimension from differential
    ranks (the window must reach degree 4).  The ranks are taken on the
    Artinian reduction by two linear forms, drawn on the coordinates of
    degree one that ``support`` marks (all of them when None), whenever its
    certificate holds (``GradedAlgebra.artinian_reduction``), and on the
    algebra itself otherwise.
    """
    p_a = algebra.n
    if algebra.window < 4:
        raise OutOfWindow("betti_table needs pieces through degree 4 (socle rank)")
    module = _artinian_module(algebra, np.ones(algebra.n, dtype=bool) if support is None else support)
    method = "artinian"
    if module is None:
        module, method = algebra, "direct"
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


def rcliff(table: BettiTable) -> int | None:
    """Resolution Clifford index: smallest p with b_{p,2} != 0, or None when the row is zero."""
    nz = np.flatnonzero(table.entries[2])
    return int(nz[0]) if nz.size else None
