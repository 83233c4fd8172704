"""Exact dense linear algebra over a prime field Z/p.

Matrices are numpy ``int64`` arrays with entries reduced to ``[0, p)``,
but for an RREF, which is returned in its working dtype (below).
Everything here is deterministic and pure: the reduced row echelon form is
the canonical one, so pivot columns, and the coordinates that
``graded.Chart`` reads off them, are reproducible across runs and safe to
use as reference bases elsewhere.

Every RREF, and every forward elimination of more than _TINY_MAX entries,
is one Gauss-Jordan pass.  Each pivot clears the rows below it and, for a
reduced echelon form, the rows above it in the same update; the matrix is
then reduced mod p once, at the end.  Two numpy engines run that pass:

* the simple engine, ``_eliminate_simple`` (``int64``, exact for any
  p < 2**31), pivots one column at a time.  It reduces only the pivot
  column and the pivot row at each step and lets the other entries drift:
  every rank-1 update moves an entry by at most (p - 1)**2, and the rows
  updated are reduced only when that additive bound would reach 2**62,
  the delayed reduction of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
  TOMS 2008), in one update rule (``_rank1_update``).  Its reductions
  stay ``np.remainder``: over the 44 eliminations the numpy engines run
  for the two commands named below, x - (x // p) * p took 12.0-19.7 ms
  against 9.4-9.8 ms (timeit, best of 5, 2 vCPUs),
* the blocked engine, ``_eliminate_blocked``, runs the simple one only on
  panels of at most 128 columns, to find each panel's pivots, and pushes
  the Schur-complement updates through BLAS matmuls in one float dtype
  picked from p: ``float32`` when 2 * 128 * (p - 1)**2 < 2**24 (p <= 256,
  the default p = 101 included), else ``float64`` up to p = 2**20.  Every
  intermediate value then stays below the dtype's exact-integer limit,
  2**24 or 2**53, so the float arithmetic is exact.

A forward elimination of at most _TINY_MAX = 256 entries (``rank`` and
``pivots``) runs in Python integers instead, in the tiny engine ``leads``:
numpy's fixed cost of 10-30 us a call outweighs the arithmetic of such a
matrix.  It is lazy.  A vector is cleared at each lead kept so far with
that kept vector's lead inverse, and no kept vector is rescaled or
reduced as a whole; only the entries a test reads are reduced mod p.
``rank`` and ``pivots`` feed it the matrix's columns and stop once the
rank fills the rows.  ``strata`` feeds it its own rows, for the secant
search's membership rule.  The threshold is measured on the 47 forward
eliminations of ``betti --curve plane-quartic --random --p 101 --conormal
-1 --seed 0`` and ``green --curve hyperelliptic --g 2 --conormal -5
--seed 1`` (timeit, best of 5, 2 vCPUs).  The 31 of at most 256 entries,
up to 8 x 24 and 36 x 6, took 1.1-9x less time in it than in the simple
engine.  From 288 to 576 entries it took 0.5-1.2x the time, and at 880
entries (20 x 44) 2.6x.  A random dense 16 x 16 of full rank takes it
1.7-2x the simple engine's time; no command ranks one.

The blocked engine stays because it pays on the large sparse Koszul
blocks and is no slower on the smallest measured.  Forward passes, best
of 2-3 runs with one BLAS thread (2 vCPUs), blocked against simple:
1.24 s against 15.5 s on the 4158 x 4536 block (0.41% dense) of the
genus-3 gate case ``betti --curve hyperelliptic --g 3 --conormal -9``,
0.43 s against 3.26 s on its 2592 x 3402 block (0.54%), and 0.046 s
against 0.057 s on the 784 x 1232 block (1.2%) of
``betti --curve hyperelliptic --g 2 --conormal -9``.

Memory.  Every elimination, forward or reduced, reduces one working copy
of the caller's matrix, written straight from it in the dtype picked
from p: ``_work_dtype(p)`` on the blocked path (4 bytes an entry at
p <= 256), int64 on the simple one.  Its Schur and rank-1 updates go
_PANEL rows at a time, so their temporaries stay _PANEL rows.  ``rref``
returns that copy, exact integers in [0, p), and its readers cast only
the entries they keep: ``graded.Chart`` casts the free columns of the
pivot rows.  Every product, ``matmul_mod``, follows the same delayed
reduction: it sums as many inner columns at once as its dtype holds
exactly (``_EXACT_MAX``), int64 up to _INT_PRODUCT_MAX multiply-adds and
``_work_dtype(p)`` above, then reduces, a block of result rows at a
time.  The program's one memory budget is here too: every caller prices
a matrix it is about to build with ``check_budget``, which raises
MatrixTooLarge above 1 GiB at 32 bytes an entry.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PrimeField",
    "LinearAlgebraError",
    "DimensionMismatch",
    "NotPrime",
    "MatrixTooLarge",
    "check_budget",
    "rref",
    "rank",
    "pivots",
    "leads",
    "matmul_mod",
]

# Panel width for the blocked engine.  One panel's update adds at most
# _PANEL * (p - 1)**2 to an entry; the working dtype is one whose
# exact-integer limit exceeds twice that (``_work_dtype``), so an update
# always fits after a drift reset: float32 for p <= 256, since
# 2 * 128 * 255**2 < 2**24, and float64 up to p = 2**20.
_PANEL = 128
# The exact-integer limit of each working dtype: every integer of smaller
# magnitude is exact in it.
_EXACT_MAX = {np.float32: 1 << 24, np.float64: 1 << 53, np.int64: 1 << 63}
# Below this size the simple engine wins (no dgemm setup cost).
_BLOCK_MIN = 200
# Forward eliminations of at most this many entries run in Python integers
# (``leads``); the measurement behind it is in the module docstring
_TINY_MAX = 256
_FAST_P_MAX = 1 << 20
# Entries of a block of _mod_inplace's quotient and of matmul_mod's result.
_MOD_BLOCK = 1 << 14
# A product of at most this many multiply-adds runs in int64, whatever p:
# numpy's integer matmul then beats the float path's fixed cost.
# On the 67 products of ``betti --curve plane-quartic --random --p 101
# --conormal -1 --seed 0`` and ``green --curve hyperelliptic --g 2
# --conormal -5 --seed 1`` (timeit, best of 5, 2 vCPUs, one BLAS thread) it
# took 0.23-0.77x the float path's time up to 6.9 k multiply-adds,
# 0.75-1.2x from 10 k to 17.5 k, and 1.0-7x from 24 k up
_INT_PRODUCT_MAX = 1 << 14
# The simple engine lets its trailing entries drift below -p; their bound
# stays under this, so every int64 product and difference stays exact.
_INT_DRIFT_MAX = 1 << 62
# The one memory budget of the program: the largest matrix, priced by
# ``check_budget`` where it is built, that anything agrees to reduce.
# Reducing an r x c matrix, to its rank or its RREF alike, holds the int64
# matrix, the elimination's one working copy (float32 at p <= 256, float64
# above, written straight from the matrix) and temporaries of at most
# _PANEL rows: about 12 r c bytes at p <= 256 and 16 r c bytes above.  The
# budget still prices 32 bytes an entry, the four copies a matrix held
# before the engine kept one, on purpose: it refuses what it refused
# before, and re-pricing it is a change of its own.  The largest Koszul block of the genus-3 gate case
# (p_a = 14), 4158 x 4536, is priced at 0.6 GB of the 1 GiB budget and
# holds about 0.23 GB.
_MATRIX_BYTES_MAX = 1 << 30
_MATRIX_BYTES_PER_ENTRY = 32


class LinearAlgebraError(Exception):
    """Base error for this module."""


class DimensionMismatch(LinearAlgebraError):
    """Operands have incompatible shapes."""


class NotPrime(LinearAlgebraError):
    """The session modulus failed the primality check."""


class MatrixTooLarge(LinearAlgebraError):
    """A matrix would take more memory to reduce than ``_MATRIX_BYTES_MAX``."""


def check_budget(where: str, shape: tuple) -> None:
    """Raise MatrixTooLarge, naming ``where`` and the shape, when reducing a matrix of that
    shape would take more than _MATRIX_BYTES_MAX, at 32 bytes an entry (above).
    """
    estimate = _MATRIX_BYTES_PER_ENTRY * math.prod(shape)
    if estimate > _MATRIX_BYTES_MAX:
        raise MatrixTooLarge(
            f"matrix too large: {where}: {' x '.join(map(str, shape))}, "
            f"about {estimate} bytes, more than the budget of {_MATRIX_BYTES_MAX}"
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


class PrimeField:
    """A prime modulus fixed for one computation session.

    All matrices flowing through a session are understood mod ``p``.  The
    constructor checks primality by trial division and restricts to
    p < 2**31 so that int64 row operations cannot overflow.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p >= 1 << 31:
            raise NotPrime(f"modulus {p} too large (need p < 2**31)")
        if not _is_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Z/p")
        return pow(a, -1, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def _as_matrix(a) -> np.ndarray:
    """Array-like data as a 2-D int64 matrix, unreduced; a view when ``a`` already is one."""
    m = np.asarray(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


# ---------------------------------------------------------------------------
# elimination engines
# ---------------------------------------------------------------------------


def leads(rows, p: int):
    """One lazy forward elimination in Python integers: yields, row by row,
    the leading column the row keeps, or None.

    ``rows`` is an iterable of sequences of Python integers, in any range;
    none is written.  Each row is cleared at the leads kept so far and kept
    unless it clears to zero mod p (None).  So the rows before it span a
    row exactly when it yields None, and the rank is the number of leads.
    The elimination is lazy: a kept row stays as it was cleared, unreduced
    and unscaled, beside the inverse of its lead; a row is cleared with
    f = row[lead] * inverse mod p, and only the entries a test reads are
    reduced, the kept leads and the entries up to the row's own lead.
    Python integers are exact at any size, and the entries grow by about a
    factor of p for each lead kept before them.
    """
    kept: list[tuple] = []  # (lead, inverse of the lead mod p, row)
    for row in rows:
        for lead, inv, k in kept:
            f = row[lead] * inv % p
            if f:
                row = [x - f * y for x, y in zip(row, k)]
        for c, x in enumerate(row):
            if x % p:
                kept.append((c, pow(x, -1, p), row))
                yield c
                break
        else:
            yield None


def _tiny_pivots(m: np.ndarray, p: int) -> list[int]:
    """The pivot columns of a small int64 matrix through ``leads`` on its columns.

    Column c is a pivot exactly when ``leads`` keeps it; once there are as
    many pivots as rows, no later column can be one.
    """
    found: list[int] = []
    for c, lead in enumerate(leads(m.T.tolist(), p)):
        if lead is not None:
            found.append(c)
            if len(found) == m.shape[0]:
                break
    return found


def _swap_rows(x: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j through a copy: cheaper than a fancy-index swap on short rows
    (the 21 numpy eliminations of the betti-quartic pin: 6.0-6.1 ms against 6.6-6.8 ms)."""
    t = x[i].copy()
    x[i] = x[j]
    x[j] = t


def _rank1_update(a, row: int, col: int, lo: int, hi: int, hit, p: int, bound: int) -> int:
    """a[r, col:] -= a[r, col] * a[row, col:] for the rows r = hit of lo..hi-1, unreduced.

    Pivot row ``row`` and multipliers a[r, col] are residues, and ``bound``
    bounds |entry| on rows lo..hi-1; returns the bound after the update.
    Those rows are reduced first when the update could take it to
    _INT_DRIFT_MAX.  Only the rows hit are updated, gathered _PANEL at a
    time; the others are exactly zero in column ``col``.  A view of the
    whole range instead doubled ``betti --curve hyperelliptic --g 2
    --conormal -9`` (347-351 ms against 175-184 ms in process), and its
    temporary spans the range.  The _PANEL blocks stay in cache: 74 us
    against 220 us for one gather of 300 rows of a panel of that command.
    """
    step = (p - 1) ** 2
    if bound + step >= _INT_DRIFT_MAX:
        drifted = a[lo:hi, col + 1 :]
        np.remainder(drifted, p, out=drifted)
        bound = p - 1
    piv = a[row, col:]
    for s in range(0, hit.size, _PANEL):
        rows = hit[s : s + _PANEL]
        rest = a[rows, col:]
        rest -= rest[:, :1] * piv
        a[rows, col:] = rest
    return bound + step


def _eliminate_simple(
    a: np.ndarray, p: int, reduced: bool, order: np.ndarray | None = None
) -> list[int]:
    """In-place row echelon (optionally reduced) for an int64 matrix with entries in [0, p).

    One Gauss-Jordan pass: each pivot clears the rows below it and, with
    ``reduced``, those above it in the same ``_rank1_update``.  Lazy
    reduction: a step reduces only the pivot column, which the nonzero
    search must see as residues, and the pivot row; updates are subtracted
    without ``% p``, each moving an entry by at most (p - 1)**2.  ``bound``
    bounds |entry| in the rows updated, which are reduced only when
    bound + (p - 1)**2 would reach _INT_DRIFT_MAX = 2**62: near p = 2**31
    at every pivot, at p = 101 never.  With ``reduced`` the pivot rows
    drift too, and are reduced once at the end.  Pivots, result and
    ``order`` equal those of reducing after every update.

    Row swaps are mirrored into ``order`` when given, so that afterwards
    ``order[i]`` names the input row now in row i.  Returns the pivot
    column list.
    """
    n, m = a.shape
    pivots: list[int] = []
    bound = p - 1
    row = 0
    for col in range(m):
        if row >= n:
            break
        below = a[row:, col]
        np.remainder(below, p, out=below)
        nz = below.nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = row + int(nz[0])
            _swap_rows(a, row, pr)
            if order is not None:
                _swap_rows(order, row, pr)
        piv = a[row, col:]
        if bound * (p - 1) >= 1 << 63:  # the product with the inverse must stay exact
            np.remainder(piv, p, out=piv)
        np.multiply(piv, pow(int(piv[0]), -1, p), out=piv)
        np.remainder(piv, p, out=piv)
        hit = nz[1:] + row  # the rows hit below, after the swap
        if reduced:  # and the rows above, whose column may have drifted
            above = a[:row, col]
            np.remainder(above, p, out=above)
            hit = np.concatenate((above.nonzero()[0], hit))
        if hit.size:
            bound = _rank1_update(a, row, col, 0 if reduced else row + 1, n, hit, p, bound)
        pivots.append(col)
        row += 1
    if reduced:
        done = a[:row]
        np.remainder(done, p, out=done)
    return pivots


def _work_dtype(p: int) -> type:
    """The working dtype of the blocked engine and of a large product for p, from p alone.

    float32 when 2 * _PANEL * (p - 1)**2 < 2**24 (p <= 256), float64 up to
    _FAST_P_MAX, int64 above.
    """
    if p > _FAST_P_MAX:
        return np.int64
    return np.float32 if 2 * _PANEL * (p - 1) ** 2 < _EXACT_MAX[np.float32] else np.float64


def _inv_small(b: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a small invertible float matrix of residues, in its dtype."""
    k = b.shape[0]
    aug = np.hstack([b.astype(np.int64), np.eye(k, dtype=np.int64)])
    _eliminate_simple(aug, p, reduced=True)
    return aug[:, k:].astype(b.dtype)


def _mod_inplace(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce a working matrix with |x| < 2**t - p, 2**t its dtype's ``_EXACT_MAX``, into [0, p).

    int64 goes to ``np.remainder``.  In place, and returns x.  For float32
    (t = 24) and float64 (t = 53) the quotient q = x * (1/p) is taken
    in x's dtype, two roundings of relative error at most u = 2**-t each,
    so |q - x/p| <= |x| (2u + u**2) / p < 2/p for |x| <= 2**t - p - 1.
    Hence floor(q) is floor(x/p) or off by one: one low only when
    x mod p is 0 or 1, one high only when it is p - 1.  Either way
    floor(q) * p lies in [-2**t, 2**t - p], which the dtype holds exactly,
    and one masked add and one masked subtract make the remainder exact,
    negative intermediates included.  4-9x faster than np.mod's fmod path
    on the engine's matrices.  Rows go a block at a time, so the quotient
    temporary stays under _MOD_BLOCK entries.
    """
    if x.dtype == np.int64:
        return np.remainder(x, p, out=x)
    inv = x.dtype.type(1.0 / p)
    step = max(1, _MOD_BLOCK // max(1, x.shape[1]))
    for r in range(0, x.shape[0], step):
        v = x[r : r + step]
        q = v * inv
        np.floor(q, out=q)
        q *= p
        v -= q
        np.add(v, p, out=v, where=v < 0)
        np.subtract(v, p, out=v, where=v >= p)
    return x


def _subtract_product(x: np.ndarray, f: np.ndarray, b: np.ndarray) -> None:
    """x -= f @ b in place, _PANEL rows at a time, skipping the zero row blocks of f.

    The product temporary is at most _PANEL rows of x, not a second x.  The
    skip pays on sparse Koszul blocks: the pin betti-hyperelliptic-w6 took
    3.1-3.8 s with it and 4.0-4.6 s without (three alternating pairs).
    """
    for r in range(0, x.shape[0], _PANEL):
        fr = f[r : r + _PANEL]
        if fr.any():
            rows = x[r : r + _PANEL]
            rows -= fr @ b


def _eliminate_blocked(a: np.ndarray, p: int, reduced: bool) -> list[int]:
    """In-place blocked elimination of a float32 or float64 matrix, entries in [0, p).

    2 * _PANEL * (p - 1)**2 must lie below the dtype's exact-integer limit
    2**t (2**24 or 2**53; ``_work_dtype`` picks such a dtype).

    One pass over panels of columns: find the panel's pivots with
    ``_eliminate_simple`` on an int64 copy of its rows below r0, swap the
    pivot rows up, left-multiply the pivot block by B^{-1} so it carries
    exact unit pivots, and push one Schur update A_rest -= F @ A_piv
    through BLAS, _PANEL rows at a time.  A_rest is the rows below the
    pivot block and, with ``reduced``, those above it; the matrix is then
    reduced into [0, p) once, at the end.  Inner dimensions never exceed
    _PANEL, so an update adds at most _PANEL * (p - 1)**2, and the drift
    reset keeps values below 2**t - p, where ``_mod_inplace`` is exact.
    Without ``reduced``, entries may end unreduced and the rows below the
    rank multiples of p.  Returns the pivot column list.
    """
    n, m = a.shape
    pivots: list[int] = []
    r0 = 0
    c0 = 0
    # A_rest drifts above p, by at most step per update: its multipliers are
    # re-reduced from thin column slices.  It is reduced only when the
    # accumulated bound would reach 2**t - p
    step = _PANEL * (p - 1) ** 2
    limit = _EXACT_MAX[a.dtype.type] - p
    bound = p
    while r0 < n and c0 < m:
        c1 = min(c0 + _PANEL, m)
        order = np.arange(r0, n)
        panel = a[r0:, c0:c1].astype(np.int64)
        pcols_rel = _eliminate_simple(np.remainder(panel, p, out=panel), p, False, order)
        del panel  # before the next panel's copy
        k = len(pcols_rel)
        if k == 0:
            c0 = c1
            continue
        moved = np.flatnonzero(order != np.arange(r0, n))
        a[r0 + moved] = a[order[moved]]  # pivot rows to r0..r0+k-1, in pivot order
        piv_block = a[r0 : r0 + k, c0:]
        _mod_inplace(piv_block, p)
        binv = _inv_small(piv_block[:, pcols_rel], p)
        piv_block[:] = _mod_inplace(binv @ piv_block, p)
        rows = (a[r0 + k :], a[:r0]) if reduced else (a[r0 + k :],)
        rest = [x[:, c0:] for x in rows if len(x)]
        if rest and bound + step >= limit:
            for x in rest:
                _mod_inplace(x, p)
            bound = p
        fs = [_mod_inplace(x[:, pcols_rel], p) for x in rest]  # pivot block is identity there
        for x, f in zip(rest, fs):
            _subtract_product(x, f, piv_block)
        bound += step * any(f.any() for f in fs)
        pivots.extend(c0 + j for j in pcols_rel)
        r0 += k
        c0 = c1
    if reduced:
        _mod_inplace(a, p)
    return pivots


def _eliminate(a, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Reduce one working copy of ``a``.  Returns (working copy, pivots).

    The blocked engine's copy is written from ``a`` by one ``np.remainder``
    in the dtype ``_work_dtype`` picks from p, for a forward and a reduced
    pass alike; the simple engine's is the int64 one ``np.mod`` makes.
    With ``reduced`` the copy ends as the RREF, every entry an exact
    integer in [0, p); without it only the pivots are meaningful.
    """
    m = _as_matrix(a)
    work = _work_dtype(p)
    if work is not np.int64 and min(m.shape) >= _BLOCK_MIN:
        w = np.remainder(m, p, out=np.empty(m.shape, work))
        return w, _eliminate_blocked(w, p, reduced)
    w = np.mod(m, p)
    return w, _eliminate_simple(w, p, reduced)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` mod p and its pivot columns.

    The RREF over a field is unique, hence canonical across engines.
    rank(a) == len(pivots).  It is the elimination's working copy: exact
    integers in [0, p), in the dtype ``_work_dtype(p)`` on the blocked
    path and int64 on the simple one, so a caller casts the entries it
    keeps.
    """
    return _eliminate(a, p, reduced=True)


def pivots(a, p: int) -> list[int]:
    """Pivot columns of ``a`` over Z/p (forward elimination only).

    Column c is a pivot exactly when it is not in the span of the columns
    before it, so the list is canonical across engines.  A matrix of at
    most _TINY_MAX entries is eliminated in Python integers (``leads``).
    """
    m = _as_matrix(a)
    if m.size <= _TINY_MAX:
        return _tiny_pivots(m, p)
    return _eliminate(m, p, reduced=False)[1]


def rank(a, p: int) -> int:
    """Rank of ``a`` over Z/p (forward elimination only)."""
    return len(pivots(a, p))


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact matrix product mod p, int64, formed by ``_product_rows`` a block of about
    _MOD_BLOCK entries (at least one row) at a time.

    The working dtype is int64 for at most _INT_PRODUCT_MAX multiply-adds,
    else ``_work_dtype(p)``.  Beside operands and result it holds one
    working copy of ``b``, one of a block of rows of ``a``, and the
    block's accumulator; a product of one block returns that block.
    """
    x, y = _as_matrix(a), _as_matrix(b)
    (r, k), c = x.shape, y.shape[1]
    if k != y.shape[0]:
        raise DimensionMismatch(f"cannot multiply {x.shape} by {y.shape}")
    yw = _residues(y, p, np.int64 if r * k * c <= _INT_PRODUCT_MAX else _work_dtype(p))
    if r * c <= _MOD_BLOCK or r <= 1:
        return _product_rows(x, yw, p).astype(np.int64, copy=False)
    step = max(1, _MOD_BLOCK // c)
    out = np.empty((r, c), dtype=np.int64)
    for s in range(0, r, step):
        out[s : s + step] = _product_rows(x[s : s + step], yw, p)
    return out


def _residues(m: np.ndarray, p: int, dtype) -> np.ndarray:
    """m mod p as a new array of ``dtype``, written straight from the int64 m."""
    return m % p if dtype is np.int64 else np.remainder(m, p, out=np.empty(m.shape, dtype))


def _product_rows(x: np.ndarray, yw: np.ndarray, p: int) -> np.ndarray:
    """x @ yw mod p in the dtype of the reduced yw, for int64 rows x in any range.

    The inner dimension goes ``chunk`` columns at a time, the most for
    which a reduced accumulator plus their products, (p - 1) + chunk
    (p - 1)**2, stays below the dtype's exact-integer limit less p, where
    ``_mod_inplace`` is exact: 268 at p = 251 (float32), 8192 at 1048573
    (float64), 2 at 2**31 - 1 (int64).  ``dot`` without slices while one
    chunk holds x: 3.1 us against 3.6 us on a 1 x 3 by 3 x 6 product.
    """
    work = yw.dtype.type
    xw = _residues(x, p, work)
    chunk = (_EXACT_MAX[work] - 2 * p) // (p - 1) ** 2
    acc = _mod_inplace(xw.dot(yw) if xw.shape[1] <= chunk else xw[:, :chunk].dot(yw[:chunk]), p)
    for s in range(chunk, xw.shape[1], chunk):
        acc += xw[:, s : s + chunk].dot(yw[s : s + chunk])
        _mod_inplace(acc, p)
    return acc
