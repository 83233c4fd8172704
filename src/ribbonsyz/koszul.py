"""Koszul differentials, Koszul cohomology, and Betti tables.

Conventions, fixed project-wide:

* wedge bases are ordered colexicographically (``_wedge_arrays``);
* the differential  d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}  acts by
  d(e_{s_1}^...^e_{s_p} (x) m) = sum_j (-1)^{j+1} e_{s_1}^..^{s_j}^..^e_{s_p} (x) x_{s_j}.m;
* the basis of wedge^p V (x) M_q is indexed by  wedge_rank * dim(M_q) + m_index.

Cohomology dimensions are convention-independent; fixing one makes the
charts of ``koszul_cohomology`` (``graded.Chart``) reproducible.

Weight blocks.  Every module carries weights (``GradedModule.weights``,
all zero unless given; the split ribbon S~ = S (+) epsilon J puts S at
epsilon-weight 0 and epsilon J at weight 1), and the basis vector
e_{s_1}^...^e_{s_p} (x) m has total weight
weight(x_{s_1}) + ... + weight(x_{s_p}) + weight(m).  If the action
respects the weights, every differential preserves the total weight, so
d_{p,q} is block diagonal, one block per total weight w: the rows and
columns of weight w, each in basis order.  For the split ribbon the
blocks are the curve-level Koszul complexes with coefficients in
K^q L^{-q} and K^q L^{-q+1}.  ``KoszulCalculator`` checks the exact
certificate once per module (``GradedModule.respects_weights``: every
action tensor vanishes outside its weight blocks) and ranks every cell
one weight block at a time, each block assembled on its own, once every
block of the cell has passed the memory budget (``fflinalg.check_budget``,
which ``koszul_cohomology`` applies to its two maps too); a module
whose certificate fails is ranked by its trivial grading, whose one block
is the whole cell.  The Betti table reads one set of action tensors,
whether it ranks the ring itself or its Artinian reduction; the reduction
(``GradedAlgebra.artinian_reduction``) is a ``graded.Chart`` a degree,
as ``koszul_cohomology`` is, from the RREF its certificate runs anyway; it
keeps coordinate vectors of the ring, so it keeps their weights.

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

Pricing before the ring.  ``check_table_budget`` refuses a table over the
memory budget from the ring's weights alone, before ``ribbon`` builds the
ring and runs its commutativity certificate.  ``_artinian_module`` draws
its two forms at weight 0, so a certified reduction B has
dim B_q^w = dim A_q^w - 2 dim A_{q-1}^w + dim A_{q-2}^w
(``_reduced_pieces``), and the row-1 cells that every module ranks (those
``_mirrored`` leaves out) are priced from these pieces, in increasing p,
through the ``_priced_blocks`` that ``rank_d`` uses.  A block of B is a
sub-block of the ring's block of the same weight, so a refusal holds
whichever path the table takes.
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


def _total_weights(module: GradedModule, p: int, q: int) -> np.ndarray:
    """Total weight of each basis vector of wedge^p V (x) M_q, in basis order."""
    return _wedge_weights(module.v_weights, p, module.weights[q])


def _wedge_weights(v_weights: np.ndarray, p: int, piece_weights: np.ndarray) -> np.ndarray:
    """Total weight of each basis vector of wedge^p V (x) M, from the weights of V and of M."""
    subsets, _ = _wedge_arrays(len(v_weights), p)
    wedge = v_weights[subsets].sum(axis=1)
    return (wedge[:, None] + piece_weights[None, :]).ravel()


def _priced_blocks(v_weights, p: int, q: int, src_weights, tgt_weights) -> list[int]:
    """The total weights found on both sides of d_{p,q}, every block priced before any is built.

    ``src_weights`` and ``tgt_weights`` weight M_q and M_{q+1}; a block over
    the memory budget raises MatrixTooLarge.
    """
    src = _wedge_weights(v_weights, p, src_weights)
    tgt = _wedge_weights(v_weights, p - 1, tgt_weights)
    blocks = sorted(set(src.tolist()) & set(tgt.tolist()))
    for w in blocks:
        shape = (int(np.count_nonzero(tgt == w)), int(np.count_nonzero(src == w)))
        check_budget(f"cell (p, q) = ({p}, {q}), weight block {w}", shape)
    return blocks


def _mirrored(n: int, p: int) -> bool:
    """Whether a Gorenstein module reads r_{p,1} off its mirror r_{n+1-p,1} (see the module docstring).

    The row-1 cells that every module ranks are the others: 2p <= n + 1,
    and p = n, the cheapest mirror, which the certificate ranks itself.
    """
    return 2 * p > n + 1 and p < n


def koszul_differential(module: GradedModule, p: int, q: int, weight: int | None = None) -> np.ndarray:
    """Matrix of d : wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, or one weight block of it.

    With ``weight`` given, only the rows and columns of that total weight
    (see the module docstring), in basis order; the entries that the
    action puts outside the block are not read, so this is a block of d
    only when the module's action respects its weights.  For p = 0 the
    target is the empty wedge and the map is the zero map out of M_q (a
    matrix with zero rows).  Every entry is placed at once: column (r, m)
    holds (-1)^j (x_{s_j})[m', m] in row (faces[r, j], m') for each wedge
    position j of the subset s = subsets[r].
    """
    if q < 0 or q + 1 > module.window:
        raise OutOfWindow(f"degree {q} -> {q + 1} outside window 0..{module.window}")
    dmq, dmq1 = module.pieces[q], module.pieces[q + 1]
    subsets, faces = _wedge_arrays(module.n, p)
    n_rows = _wedges(module.n, p - 1) * dmq1
    if weight is None:
        cols, local = np.arange(len(subsets) * dmq), np.arange(n_rows)
    else:
        cols = np.flatnonzero(_total_weights(module, p, q) == weight)
        in_block = _total_weights(module, p - 1, q + 1) == weight
        local = np.where(in_block, np.cumsum(in_block) - 1, -1)
    out = np.zeros((int(np.count_nonzero(local >= 0)), len(cols)), dtype=np.int64)
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
    even from two threads at once, only repeats work.  ``module`` is the
    module as given when its weight certificate holds (checked once), and
    otherwise the same module with the trivial grading.  ``certificates``
    maps each cell whose rank comes from a certificate (see the module
    docstring) to its name: "injective" or "surjective" for the cells next
    to a one-dimensional piece, "gorenstein" for the row-1 cells read off
    their mirror.  Those cells are never assembled.
    """

    def __init__(self, module: GradedModule):
        if not module.respects_weights():
            module = GradedModule(module.field, module.n, module.pieces, module.action)
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
        Otherwise the sum of the ranks of the weight blocks found on both
        sides of the cell, each assembled, ranked and dropped before the next
        is built.
        Every block's shape is checked against the memory budget before the
        first is assembled: one over it raises MatrixTooLarge.
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
        blocks = _priced_blocks(module.v_weights, p, q, module.weights[q], module.weights[q + 1])
        # no name holds a block past its rank call, so it is freed before the next is built
        total = sum(rank(koszul_differential(module, p, q, w), module.field.p) for w in blocks)
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


def _artinian_module(algebra: GradedAlgebra) -> GradedModule | None:
    """The algebra cut by two certified general linear forms, or None.

    The forms are drawn on the weight-0 coordinates of degree one (all of
    them under the trivial grading), so the reduction keeps the weights;
    the regular-sequence certificate decides either way.
    """
    n = algebra.n
    if n < 2:
        return None
    support = algebra.weights[1] == 0
    rng = SeededStream(_REDUCTION_SEED)
    for _ in range(_REDUCTION_DRAWS):
        l1, l2 = rng.integers(0, algebra.field.p, size=(2, n)) * support
        module = algebra.artinian_reduction(l1, l2)
        if module is not None:
            return module
    return None


def _reduced_pieces(weights) -> list[np.ndarray]:
    """dim B_q^w, q = 0, 1, 2, one count per weight w, from the weights of A_0, A_1 and A_2.

    B = A / (l1, l2) for forms of weight 0, as ``_artinian_module`` draws
    them (see "Pricing before the ring" in the module docstring).
    """
    size = 1 + max(int(w.max(initial=0)) for w in weights[:3])
    a = [np.bincount(w, minlength=size) for w in weights[:3]]
    return [a[0], a[1] - 2 * a[0], a[2] - 2 * a[1] + a[0]]


def check_table_budget(weights) -> None:
    """Refuse an algebra's Betti table over the memory budget from its weights, before it is built.

    ``weights`` are the algebra's weight arrays, one per degree (those of
    A_0, A_1 and A_2 are read).  The row-1 cells of the Artinian reduction
    that every module ranks are priced from ``_reduced_pieces`` (see
    "Pricing before the ring" in the module docstring); the first block over
    the budget raises MatrixTooLarge.  Pieces no reduction can have (a
    negative dimension) price nothing.
    """
    pieces = _reduced_pieces(weights)
    if min(c.min() for c in pieces) < 0:
        return
    v, b2 = (np.repeat(np.arange(len(c)), c) for c in pieces[1:])  # V is B_1
    n = len(v)
    for p in range(1, n + 1):
        if not _mirrored(n, p):
            _priced_blocks(v, p, 1, v, b2)


def betti_table(algebra: GradedAlgebra) -> BettiTable:
    """Betti table of the algebra as a module over itself, V = degree 1.

    Every cell of rows q = 0..3 is a Koszul dimension from differential
    ranks (the window must reach degree 4).  The ranks are taken on the
    Artinian reduction by two linear forms whenever its certificate holds
    (``GradedAlgebra.artinian_reduction``), and on the algebra itself
    otherwise.
    """
    p_a = algebra.n
    if algebra.window < 4:
        raise OutOfWindow("betti_table needs pieces through degree 4 (socle rank)")
    module = _artinian_module(algebra)
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
