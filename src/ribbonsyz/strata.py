"""Linear-algebra model of the space of ribbons P H^0(2K_C - L)^*.

A ribbon with conormal bundle L on C is a nonzero functional e on
H^0(K_C^2 L^{-1}) up to scale.  Its blow-up index is the least degree of an
effective divisor whose span (in the embedding by |2K_C - L|) contains the
point e, i.e. the secant order of e.  Divisors are restricted to reduced
sets of rational points.  Every degree b is searched exhaustively, by
projection from span(e, P) for each (b - 2)-subset P, unless a bound
rules it out.  Each piece of work is done at the level it depends on:

* per field: the inverses mod p, read from a table for p <= _TABLE_P_MAX
  (Fermat above it), and the radix of the bucket keys for each dimension;
* per pool: its evaluation matrix, the same rows as tuples of Python
  integers, and its greedy basis, cached together for the last (space,
  pool) and read-only, so a sweep evaluates its pool once and its exact
  checks read the rows with no numpy call;
* per class: in a sweep, two bounds that bracket the index.  The span
  the class was drawn in, confirmed by ``_in_span``, answers its own
  degree, and the floor, the rank of the matrix e(s_i t_j) of a split
  2K_C - L = A + B (``_floor``, its product table cached for the last
  space), rules out every lower degree; only the degrees in between are
  searched.  A degree that is searched reads the pool's rows in V/<e>,
  projected from e without e's leading column and scaled so that each
  first nonzero entry is 1, made once per class;
* per degree: the subsets P, walked depth first with one update and one
  scaling for each point added to P (a unit clears its leading column
  with no inverse), the last point of P vectorised over a numpy stack, a
  chunk of points at a time; later points whose images agree up to scale
  share a key, salted by the last point of P.  One sort of a chunk's keys
  finds the shared ones, and most chunks have none.  The points behind a
  shared key are paired per last point exactly, and each pair is
  confirmed, in lexicographic order, by the exact membership rule
  (``_in_span``).

The degree equal to the rank of the pool's rows is not searched: its first
witness is the pool's greedy basis when e lies in its span, and otherwise
no degree has one.  Any other degree with more than _PREFIX_MAX prefixes
is refused up front (SearchTooLarge), whether or not a bound skips it.
The result is labelled a rational-reduced blow-up index: an upper bound
for the index over the algebraic closure, and equal to it whenever the
witnessing divisor is rational and reduced.

The blow-up along a divisor splits the ribbon iff the restriction of e to
the sections vanishing on the divisor is zero, that is iff e lies in the
span of the divisor's evaluation functionals.  ``span_membership`` and the
search decide that by one lazy forward elimination in Python integers
(``_in_span``, through ``fflinalg.leads``, the engine of ``fflinalg``'s
small eliminations); no kernel of the evaluation matrix is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from ribbonsyz.curves import (
    HyperellipticCurve,
    SectionSpace,
    evaluation_matrix,
    product_index,
    rational_points,
)
from ribbonsyz.fflinalg import leads, matmul_mod, pivots, rank
from ribbonsyz.ribbon import conormal_tags

__all__ = [
    "StrataError",
    "NotFound",
    "SearchTooLarge",
    "ZeroSpan",
    "ExtensionClass",
    "DivisorWitness",
    "BlowupResult",
    "ambient_space",
    "span_membership",
    "blowup_index_bruteforce",
    "gonality_bounds",
    "EllipticGroup",
    "w4_witnesses_elliptic",
    "random_class",
    "class_in_span",
    "blowup_sweep",
]

# (b - 2)-prefixes one degree may scan: about 1.4 s at ~4.7-4.9 us per
# prefix (a full degree-5 scan of the 84-point pool in dimension 10:
# 0.44-0.46 s in process on 2 vCPUs, one BLAS thread)
_PREFIX_MAX = 300_000
# int64 entries in one chunk of the last prefix level's projection stack
# (32 KB): small enough to stop soon after the witness's chunk and to keep
# the temporaries small, large enough to amortise numpy's per-call cost
_STACK_ENTRIES = 1 << 12
# largest p whose inverses are read from a table (2**16 int64 entries, 512 KB);
# it pays on the sweeps that walk: the pins strata-sweep-genus0-gap and
# strata-sweep-bmax4 took 13.4-14.2 and 11.4-12.9 ms in process against
# 21.7-24.5 and 18.1-20.0 ms with Fermat at every p (best of 15, three
# alternations, 2 vCPUs, one BLAS thread)
_TABLE_P_MAX = 1 << 16
# an odd constant: the keys of a chunk's t-th prefix point are offset by
# t times it (modulo 2**64), so keys that agree only across prefix points
# rarely send a chunk into the exact grouping
_SALT = 0x9E3779B97F4A7C15


class StrataError(Exception):
    pass


class NotFound(StrataError):
    """No divisor of the searched degrees has e in its span."""

    def __init__(self, b_max: int):
        self.b_max = b_max
        super().__init__(f"no witness of degree <= {b_max}")


class SearchTooLarge(StrataError):
    """An exhaustive search of one degree would scan more than _PREFIX_MAX prefixes."""

    def __init__(self, b: int, n: int, prefixes: int):
        self.b, self.n, self.prefixes = b, n, prefixes
        super().__init__(
            f"blow-up search too large: degree {b} over {n} points needs {prefixes} prefixes of size {b - 2}, "
            f"more than the budget of {_PREFIX_MAX}"
        )


class ZeroSpan(StrataError):
    """A class was asked for in a span that is {0}: it holds no nonzero class."""


def ambient_space(model, conormal_multiple: int) -> SectionSpace:
    """H^0(2K_C - L) for the supported conormal L = -t * polarization."""
    k_tag, w_tag, _ = conormal_tags(model, conormal_multiple)
    return model.sections(k_tag + w_tag)


@dataclass(frozen=True)
class ExtensionClass:
    """A ribbon as a nonzero functional on H^0(2K_C - L), up to scale."""

    space: SectionSpace
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.int64) % self.space.field.p
        _check_length(v, self.space)
        if not np.any(v):
            raise StrataError("the zero functional is not an extension class")
        object.__setattr__(self, "vec", v)


@dataclass(frozen=True)
class DivisorWitness:
    """Distinct rational points with their evaluation functionals as rows."""

    space: SectionSpace
    points: tuple
    rows: np.ndarray


def make_witness(space: SectionSpace, points) -> DivisorWitness:
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise StrataError("witness points must be distinct")
    rows = evaluation_matrix(space, pts)
    for i, pt in enumerate(pts):
        if not np.any(rows[i]):
            raise StrataError(f"point {pt} has zero evaluation vector (base point)")
    return DivisorWitness(space, pts, rows)


def _check_length(vec: np.ndarray, space: SectionSpace) -> None:
    if vec.shape != (space.dim,):
        raise StrataError(f"functional must have length {space.dim}")


def span_membership(e: ExtensionClass, w: DivisorWitness) -> bool:
    """Whether e lies in the projective span of the witness points.

    As functionals: e must lie in the row space of the evaluation matrix.
    """
    return _in_span(e.vec.tolist(), w.rows.tolist(), e.space.field.p)


def _in_span(vec, rows, p: int) -> bool:
    """Whether vec lies in the row space of rows, both of Python integers:
    vec, eliminated after the rows, clears to zero (``fflinalg.leads``).
    """
    *_, last = leads([*rows, vec], p)
    return last is None


@lru_cache(maxsize=1)
def _floor_map(space: SectionSpace) -> tuple:
    """``product_index`` of the split A + B = ``space.tag`` with A = floor(tag / 2),
    kept for the last space asked: the products s_i * t_j, in ``space``'s
    basis, that ``_floor`` pairs with e.
    """
    model, a = space.model, space.tag // 2
    return product_index(model.sections(a), model.sections(space.tag - a))


def _floor(vec: np.ndarray, space: SectionSpace) -> int:
    """The rank of e(s_i t_j) for the split of ``_floor_map``: no witness of e has a lower degree.

    If e lies in the span of an effective divisor D of degree b, over any
    extension field and reduced or not, every s in H^0(A - D) gives a zero
    row, and H^0(A - D) has codimension at most b in H^0(A).  So the rank
    is at most b: an exact lower bound on the index over the algebraic
    closure, and so on the rational-reduced index.  e is paired with the
    product table, not with the (h^0(A), h^0(B), dim) tensor: by one int64
    product while dim (p - 1)**2 < 2**63, else by ``matmul_mod``.  The
    int64 product makes no table-sized temporary (at genus0 t = 1020 a
    sweep peaked at 53 MB without one and at 71 MB with one) and takes
    0.63 us on W3's 4 x 3 x 6 table against ``matmul_mod``'s 3.7 us, of a
    floor's 6 us.  The rank is ``fflinalg.rank``'s, in Python integers for
    a matrix as small as a sweep's.
    """
    p = space.field.p
    table, at = _floor_map(space)
    if table.shape[-1] * (p - 1) ** 2 < 1 << 63:
        values = table @ vec
    else:
        values = matmul_mod(table.reshape(-1, table.shape[-1]), vec, p).reshape(table.shape[:-1])
    return rank(values[at], p)


@dataclass(frozen=True)
class BlowupResult:
    index: int
    bound: str  # always "exact": every degree is searched exhaustively
    witness: tuple

    def to_json_obj(self) -> dict:
        return {
            "blowup_index": self.index,
            "bound": self.bound,
            "witnesses": [list(map(str, self.witness))],
        }


def _fermat_inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Entrywise a**(p - 2) mod p (Fermat): the inverse of each nonzero entry, 0 for 0."""
    base = a % p
    out = (base != 0).astype(np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@lru_cache(maxsize=16)  # at most 8 MB of tables
def _inverse_table(p: int) -> np.ndarray:
    """Every residue's inverse mod p (0 for 0), read-only; at most 512 KB at _TABLE_P_MAX."""
    table = _fermat_inverses(np.arange(p, dtype=np.int64), p)
    table.setflags(write=False)
    return table


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of each entry of a, 0 for 0: a table lookup up to _TABLE_P_MAX, Fermat above."""
    if p <= _TABLE_P_MAX:
        return _inverse_table(p).take(a, mode="wrap")  # the index wraps modulo p
    return _fermat_inverses(a, p)


@lru_cache(maxsize=None)
def _radix(p: int, d: int) -> np.ndarray:
    """p**c modulo 2**64 for c < d: the digit weights of a bucket key."""
    radix = np.array([pow(p, c, 1 << 64) for c in range(d)], dtype=np.uint64)
    radix.setflags(write=False)
    return radix


@lru_cache(maxsize=None)
def _salts(t: int) -> np.ndarray:
    """_SALT * s modulo 2**64 for s < t, as a column: the offsets of the keys of t prefix points."""
    salts = (np.arange(t, dtype=np.uint64) * np.uint64(_SALT))[:, None]
    salts.setflags(write=False)
    return salts


@lru_cache(maxsize=1)
def _pool(space: SectionSpace, pool: tuple) -> tuple:
    """(rows, ints, basis) of the pool, kept for the last pool asked: its
    evaluation matrix reduced mod p, read-only; the same rows as tuples of
    Python integers, for the exact checks (``_in_span``); and its greedy
    basis, the indices of the rows outside the span of the rows before
    them.

    A point off the curve raises PointNotOnCurve on every call, since
    lru_cache does not keep exceptions.
    """
    rows = evaluation_matrix(space, pool) % space.field.p
    rows.setflags(write=False)
    return rows, tuple(map(tuple, rows.tolist())), tuple(pivots(rows.T, space.field.p))


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place for int64 x, as x - (x // p) * p.

    numpy divides an integer array by a scalar with a multiply and a shift,
    so this is 2-3x faster than ``%`` on the search's stacks; the pin
    strata-sweep-genus0-gap took 13.6-14.3 ms, 16.5-17.3 ms with ``%``.
    """
    q = x // p
    q *= p
    x -= q
    return x


def _units(x: np.ndarray, p: int):
    """(unit, lead, nonzero): the vectors along x's last axis scaled so that
    each first nonzero entry is 1, the columns of those entries, and which
    vectors are nonzero.

    Two vectors are proportional exactly when their units are equal.  A
    zero vector stays zero, with lead 0.
    """
    flat = x.reshape(-1, x.shape[-1])
    lead = (flat != 0).argmax(axis=1)
    first = flat.ravel().take(lead + np.arange(0, flat.size, flat.shape[1]))
    unit = _reduce(flat * _inverses(first, p)[:, None], p)
    return unit.reshape(x.shape), lead.reshape(x.shape[:-1]), (first != 0).reshape(x.shape[:-1])


def _modulo(vec: np.ndarray, rows: np.ndarray, p: int):
    """``_units`` of the rows in V/<vec>: projected from vec, without vec's leading column.

    vec is nonzero and reduced mod p, and the dimension is at least 2.
    Rows j and k have equal nonzero units exactly when some combination
    a * row j - row k is a multiple of vec, and a zero unit marks a row
    that is a multiple of vec.
    """
    c = int((vec != 0).argmax())
    rest = np.arange(len(vec)) != c
    scaled = vec[rest] * pow(int(vec[c]), -1, p) % p
    return _units(_reduce(rows[:, rest] - rows[:, c, None] * scaled, p), p)


def _equal_pairs(unit: np.ndarray, kept: np.ndarray, first, p: int) -> list:
    """Triples (t, j, k), in lexicographic order, with kept[t, j] and
    kept[t, k], first[t] <= j < k, and equal keys of unit[t, j] and
    unit[t, k].

    A key reads a vector of the (t, rows, dim) stack as base-p digits plus
    _SALT * t, wrapping modulo 2**64.  Equal vectors of one t therefore
    always share a key; other vectors share one only by a wrapped
    collision, which the caller's exact check rejects, and vectors of two
    t's rarely do.  One sort of the keys finds the shared ones (most
    stacks have none and return there); the vectors behind them are then
    grouped exactly by (t, key), without those before first[t].  In a
    chunk's stack these are the chunk's earlier points, which meet a later
    vector of t only where their own t meets it too, or by a collision;
    so they are dropped there rather than masked on every stack.
    """
    keys = unit.view(np.uint64) @ _radix(p, unit.shape[2])
    keys += _salts(len(keys))
    s = keys[kept]
    s.sort()
    dup = s[1:][s[1:] == s[:-1]]  # sorted, each shared key at least once
    if not dup.size:
        return []
    k = keys[kept]
    at = np.minimum(dup.searchsorted(k), dup.size - 1)
    hit = np.flatnonzero(dup[at] == k)  # the entries whose key is shared
    t, j = (x[hit].tolist() for x in kept.nonzero())
    groups: dict[tuple, list] = {}
    for tx, jx, kx in zip(t, j, k[hit].tolist()):  # t, then j, ascending
        if jx >= first[tx]:
            groups.setdefault((tx, kx), []).append(jx)
    return sorted((tx, a, b) for (tx, _), js in groups.items() for a, b in combinations(js, 2))


def _bucket_pairs(stack: np.ndarray, first, p: int) -> list:
    """Triples (t, j, k), in lexicographic order, with stack[t, j] and
    stack[t, k] nonzero, first[t] <= j < k, and equal scale-invariant keys
    (``_equal_pairs`` of the stack's units): proportional vectors always
    share one.
    """
    unit, _, nonzero = _units(stack, p)
    return _equal_pairs(unit, nonzero, first, p)


def _confirm(vec: np.ndarray, rows: np.ndarray, candidates, p: int):
    """The first candidate tuple of row indices whose span contains vec (``_in_span``), or None."""
    for cand in candidates:
        if _in_span(vec.tolist(), rows[list(cand)].tolist(), p):
            return cand
    return None


def _walk(vec: np.ndarray, rows: np.ndarray, unit: np.ndarray, lead: np.ndarray, prefix: tuple, depth: int, p: int):
    """First witness prefix + Q + (i, j, k), with Q of size ``depth``.

    ``unit`` holds the rows modulo span(vec, prefix), each scaled to 1 at
    its first nonzero column ``lead`` (``_units``).  So a point's unit
    clears its lead column from any row with one multiply, and no inverse.
    The walk is depth first, with one such update and one ``_units`` for
    each point added to the prefix.  The last prefix point i is
    vectorised: one (points, rows, dim) stack, built a chunk of points at
    a time, projects every later row from span(vec, prefix, i) for each i
    of the chunk.
    """
    n, d = unit.shape
    first = prefix[-1] + 1 if prefix else 0
    if depth:
        for i in range(first, n - depth - 2):
            child, child_lead, _ = _units(_reduce(unit - unit[:, lead[i], None] * unit[i], p), p)
            found = _walk(vec, rows, child, child_lead, prefix + (i,), depth - 1, p)
            if found is not None:
                return found
        return None
    chunk = max(1, _STACK_ENTRIES // max(1, (n - first) * d))
    for i0 in range(first, n - 2, chunk):
        i1 = min(i0 + chunk, n - 2)
        # row r is row i0 + 1 + r of the pool, minus unit_r[lead_i] * unit_i
        stack = unit.T[lead[i0:i1], i0 + 1 :][:, :, None] * unit[i0:i1, None, :]
        np.subtract(unit[i0 + 1 :], stack, out=stack)
        cands = _bucket_pairs(_reduce(stack, p), range(i1 - i0), p)  # j > i: r >= t
        found = _confirm(vec, rows, [prefix + (i0 + t, i0 + 1 + j, i0 + 1 + k) for t, j, k in cands], p)
        if found is not None:
            return found
    return None


def _search_degree(vec: np.ndarray, rows: np.ndarray, units: tuple, b: int, p: int):
    """Lexicographically first b-subset of row indices whose span contains vec, or None.

    vec and rows are reduced mod p, and ``units`` is ``_modulo(vec, rows,
    p)``.  Assumes no set of fewer than b rows has vec in its span, which
    ``blowup_index_bruteforce`` guarantees by searching b = 1, 2, ... in
    turn.  A witness P + (j, k), with P its first b - 2 indices, then
    forces rows j and k to have proportional nonzero images modulo
    span(vec, P).  Degree 1 takes the first nonzero row with a zero unit,
    and degree 2 pairs the equal nonzero units.  Higher degrees walk the
    prefixes P depth first (``_walk``), bucket the later rows by the keys
    of their projections, and confirm every bucketed pair in
    lexicographic order (``_confirm``), which rejects the collisions that
    come from dependent rows (or from wrapped keys) rather than from vec.
    """
    unit, lead, nonzero = units
    if b == 1:
        hit = rows.any(axis=1) & ~nonzero
        return (int(hit.argmax()),) if hit.any() else None
    if b == 2:
        pairs = _equal_pairs(unit[None], nonzero[None], (0,), p)
        return _confirm(vec, rows, [(j, k) for _, j, k in pairs], p)
    return _walk(vec, rows, unit, lead, (), b - 3, p)


def blowup_index_bruteforce(e, pool, space: SectionSpace, b_max: int, *, span=None) -> BlowupResult:
    """Smallest degree of a reduced rational divisor whose span contains e.

    By default every degree 1..b_max is searched exhaustively, so the
    answer is the lexicographically first witness of the pool and always
    exact.  The pool's rows and greedy basis come from ``_pool``, with the
    rows in Python integers for the exact checks of the span and the
    basis, and the rows are normalised in V/<e> once, before the first
    degree searched (``_modulo``).  The zero class is split already: index
    0 by convention.

    ``span``, pool indices whose span contains e, which only
    ``blowup_sweep`` passes, brackets the search: it answers the degree
    len(span) with those points once ``_in_span`` confirms it (if it does
    not, that degree is searched), and below it the determinantal floor
    (``_floor``) skips the degrees where e has no witness.  The floor is
    computed only when it can skip a degree searched, that is with a span
    of at least 2 points and b_max >= 2.  The index stays exact, but a
    witness of degree len(span) is then the span, not the
    lexicographically first one; the sweep prints no witnesses.

    The degree b = r, the rank of the pool's rows, needs no search: every
    b-subset lexicographically before the greedy basis is dependent, so
    with e in its span it would give a witness of a lower degree, which
    the earlier degrees ruled out; and the basis spans every row.  So the
    basis is the first witness of degree r when e lies in its span, and
    otherwise no degree has one.  Raises SearchTooLarge before a degree
    below r whose (b - 2)-prefixes exceed _PREFIX_MAX, even one the
    bounds would skip, and NotFound when nothing of degree <= b_max works.
    """
    p = space.field.p
    vec = np.asarray(e.vec if isinstance(e, ExtensionClass) else e, dtype=np.int64) % p
    if not np.count_nonzero(vec):  # a quarter of vec.any()'s fixed cost on a short vector
        return BlowupResult(0, "exact", ())
    _check_length(vec, space)
    pts = tuple(pool)
    rows, ints, basis = _pool(space, pts)
    floor = _floor(vec, space) if span is not None and min(len(span), b_max) >= 2 else 1
    units = None  # _modulo(vec, rows, p), made for the first degree searched
    n = len(pts)
    for b in range(1, b_max + 1):
        if b >= len(basis):  # b = r, or r = 0 at b = 1
            if not _in_span(vec.tolist(), [ints[i] for i in basis], p):
                break
            return BlowupResult(b, "exact", tuple(pts[i] for i in basis))
        prefixes = math.comb(n, max(b - 2, 0))
        if prefixes > _PREFIX_MAX:
            raise SearchTooLarge(b, n, prefixes)
        if b < floor:
            continue
        if span is not None and b == len(span):
            drawn = sorted(span)
            if _in_span(vec.tolist(), [ints[i] for i in drawn], p):
                return BlowupResult(b, "exact", tuple(pts[i] for i in drawn))
        if units is None:
            units = _modulo(vec, rows, p)
        found = _search_degree(vec, rows, units, b, p)
        if found is not None:
            return BlowupResult(b, "exact", tuple(pts[i] for i in found))
    raise NotFound(b_max)


def gonality_bounds(b: int, g: int, m: int, p_a: int) -> dict:
    """Gonality bounds from the blow-up index, with hypothesis validity flags.

    upper: d <= min(b + 2m, floor((p_a + 3) / 2)), valid when
    p_a > 2g - 1 + 2m (and a smooth divisor in |-2L| exists, which the
    caller vouches for); lower: d >= b - (2g - 2), unconditional.
    Raises StrataError for a negative b, which no class has.
    """
    if b < 0:
        raise StrataError(f"a blow-up index is at least 0, got {b}")
    return {
        "upper": min(b + 2 * m, (p_a + 3) // 2),
        "upper_valid": p_a > 2 * g - 1 + 2 * m,
        "lower": b - (2 * g - 2),
        "lower_valid": True,
    }


class EllipticGroup:
    """Group law on y^2 = cubic(x) with the point at infinity as identity.

    Works for any monic cubic (the x^2 term is folded into the chord
    formula).  Halving is by exhaustive search through the rational points:
    at most p + 1 + 2 sqrt(p) of them at desk scale.
    """

    def __init__(self, model: HyperellipticCurve):
        if not isinstance(model, HyperellipticCurve) or model.g != 1:
            raise StrataError("group law needs a genus-1 model y^2 = cubic(x)")
        self.model = model
        self.p = model.field.p
        self.c2 = model.h[2] if len(model.h) > 2 else 0
        self.c1 = model.h[1]
        self.points = rational_points(model)
        self._halvings: dict | None = None

    def add(self, p1, p2):
        p = self.p
        if p1 == "inf":
            return p2
        if p2 == "inf":
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2 and (y1 + y2) % p == 0:
            return "inf"
        if p1 == p2:
            lam = (3 * x1 * x1 + 2 * self.c2 * x1 + self.c1) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - self.c2 - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return (x3, y3)

    def double(self, pt):
        return self.add(pt, pt)

    def halvings(self, q) -> list:
        """All rational T with [2]T = q."""
        if self._halvings is None:
            table: dict = {}
            for pt in self.points:
                table.setdefault(self.double(pt), []).append(pt)
            self._halvings = table
        return self._halvings.get(q, [])


def w4_witnesses_elliptic(model: HyperellipticCurve, conormal_multiple: int):
    """Ramification-divisor witnesses of the degree-2 maps on a genus-1 curve.

    The degree-2 map attached to the degree-2 class of Q + O ramifies at
    the four halvings of Q in the group law.  Returns (witness list,
    skipped count), skipping translates whose halvings are not all
    rational.  Each witness spans a P^3 (evaluation rank 4), which is
    asserted.
    """
    group = EllipticGroup(model)
    space = ambient_space(model, conormal_multiple)
    p = model.field.p
    witnesses = []
    skipped = 0
    for q in group.points:
        halves = group.halvings(q)
        if len(halves) != 4:
            skipped += 1
            continue
        w = make_witness(space, halves)
        if rank(w.rows, p) != 4:
            raise StrataError(f"ramification witness of {q} does not span a P^3")
        witnesses.append(w)
    return witnesses, skipped


def random_class(space: SectionSpace, rng) -> ExtensionClass:
    """Uniform random nonzero functional on the ambient space.

    Raises ZeroSpan when the ambient space is {0}.
    """
    p = space.field.p
    if space.dim == 0:
        raise ZeroSpan("no nonzero extension class: the ambient space H^0(2K - L)^* is zero")
    while True:
        v = rng.integers(0, p, space.dim)
        if np.any(v):
            return ExtensionClass(space, v)


def class_in_span(space: SectionSpace, points, rng) -> ExtensionClass:
    """Random class supported on the span of the given points' functionals.

    Raises ZeroSpan when that span is {0}: no points are given, or every
    point is a base point.
    """
    points = list(points)
    return _class_in_rows(space, points, evaluation_matrix(space, points), rng)


def _class_in_rows(space: SectionSpace, points: list, rows: np.ndarray, rng) -> ExtensionClass:
    """``class_in_span`` for points whose evaluation rows are already known."""
    p = space.field.p
    if not points:
        raise ZeroSpan("no nonzero extension class: no points were given, and the span of no points is {0}")
    if not np.any(rows):
        raise ZeroSpan(f"no nonzero extension class: the points {list(map(str, points))} are base points of |2K - L|")
    while True:
        v = matmul_mod(rng.integers(0, p, (1, rows.shape[0])), rows, p)[0]
        if np.any(v):
            return ExtensionClass(space, v)


def blowup_sweep(
    model,
    conormal_multiple: int,
    count: int,
    rng,
    span_size: int = 3,
    b_max: int = 3,
) -> dict:
    """Blow-up indices of ``count`` classes drawn in random span_size-point spans.

    This samples the degree-``span_size`` secant stratum: the expected
    index is exactly span_size for almost every draw (a uniform class of
    the full space would instead concentrate above it, since spans of
    rational-reduced divisors cover only a thin slice of the dual space).
    Each class is drawn from the pool's cached rows (``_pool``), so the
    pool is evaluated once for the whole sweep.  Each class's search is
    bracketed (``blowup_index_bruteforce``): from above by the span it was
    drawn in, and from below by its determinantal floor (``_floor``), so
    only the degrees in between are searched.  The indices are the
    exhaustive search's; the sweep prints no witnesses, and a witness of
    degree span_size is the drawn span rather than the lexicographically
    first one.
    """
    space = ambient_space(model, conormal_multiple)
    pool = rational_points(model)
    rows, _, _ = _pool(space, tuple(pool))
    histogram: dict[int, int] = {}
    results = []
    for _ in range(count):
        idx_pts = rng.choice(len(pool), size=span_size, replace=False)
        e = _class_in_rows(space, [pool[int(i)] for i in idx_pts], rows[idx_pts], rng)
        try:
            res = blowup_index_bruteforce(e, pool, space, b_max, span=idx_pts.tolist())
            key = res.index
            results.append({"index": res.index, "bound": res.bound})
        except NotFound:
            key = -1
            results.append({"index": None, "bound": "not-found"})
        histogram[key] = histogram.get(key, 0) + 1
    return {
        "count": count,
        "span_size": span_size,
        "b_max": b_max,
        "pool_size": len(pool),
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "results": results,
    }
