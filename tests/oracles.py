"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive and self-contained (pure-python
integers, or one plain elimination batched over numpy arrays where a
python loop would take minutes; no imports from the package's fast paths)
so the production code can be checked against an implementation that
shares nothing with it beyond the problem statement.  The exceptions are
``solve``, ``kernel_basis`` and ``image_basis``, test helpers that the
package no longer uses, which run on ``fflinalg.rref`` and
``fflinalg.pivots``; ``subquotient``, the general subquotient with its
induced action as the package once built it, by one joint RREF per
degree, and the references that call it: ``artinian_by_subquotient`` and
``module_restrict_action``, the Artinian reduction as the package once
computed it, and ``syzygy_module_by_ambient``, the syzygy module M^p as
the package once built it, from a dense ambient action;
``smooth_every_degree``, the smoothness certificate ranked at every degree
up to the Macaulay bound; ``plane_mult_by_pairs`` and
``hyperelliptic_mult_by_pairs``, the multiplication tensors as the package
once built them, one basis pair at a time (on a plane curve each product
reduced on its own by the Groebner loop ``reduce_mod``), and
``evaluation_by_family``, the evaluation vectors as the package once
computed them, by one rule per curve family; and three reference paths the package's
commands never take, kept here because the tests check against them:
``algebra_from_sections`` (a ``GradedAlgebra`` straight from section
spaces), ``restriction`` (the push-out and pull-back restriction of a
class, through ``kernel_basis``) and ``first_witness`` (one degree of the
secant search, through ``strata._modulo`` and ``strata._search_degree``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice

import numpy as np

from ribbonsyz import koszul
from ribbonsyz.curves import PlaneCurve, mult_map
from ribbonsyz.fflinalg import DimensionMismatch, check_budget, matmul_mod, pivots, rank, rref
from ribbonsyz.graded import GradedAlgebra, GradedError, GradedModule, InconsistentDims, NotASubmodule
from ribbonsyz.koszul import koszul_differential
from ribbonsyz.ribbon import conormal_tags
from ribbonsyz.rng import SeededStream
from ribbonsyz.strata import _modulo, _search_degree


class NotASubspace(GradedError):
    """A basis handed to ``subquotient`` or ``module_restrict_action`` is dependent or lies outside its space."""


def subquotient(module: GradedModule, sub, rel) -> GradedModule:
    """The subquotient with pieces span(sub[q]) / span(rel[q]) and the induced action.

    ``sub`` and ``rel`` give, one entry per degree, basis columns of
    subspaces rel_q <= sub_q of w copies of M_q, stacked with the copy
    index slow (row c * dim M_q + m is coordinate m of copy c, koszul's
    layout of wedge^p V (x) M_q); V acts on the M factor of every copy.
    Each entry is read once, in order, so either may be an iterator that
    hands the degrees over one at a time.  w is read off the rows of the
    first degree of nonzero dimension, the same in every degree, and
    w = 1 is M itmodule.
    Piece q is spanned by a complement C_q of rel_q in sub_q: the last
    columns of sub_q that are independent of rel_q and of the sub_q
    columns after them.  One RREF per degree, of

        [rel_q | sub_q, last column first | x_k C_{q-1} | x_k rel_{q-1}],

    picks C_q from its pivots and reads the action on C_{q-1} in
    C_q-coordinates off the same rows; x_k is applied to all w copies at
    once, by one product with the (n dim M_q) x dim M_{q-1} matrix of the
    action.  Raises InconsistentDims when some degree's rows are not
    w dim M_q, NotASubmodule when some x_k maps sub_{q-1} outside sub_q
    or rel_{q-1} outside rel_q, and NotASubspace when rel_q is dependent
    or (sub_q being a basis) not inside span(sub_q), and MatrixTooLarge
    when a degree's RREF input, rows x (nr + ns + n m), is over the memory
    budget, before its products are formed.  The result has the trivial
    grading, whatever the weights of M.  Only one degree is held at a
    time: its sub and rel are copied into that degree's RREF input, and
    C_q and rel_q are read back from it as given; the RREF and the next
    degree's products each reduce their own copy mod p.
    """
    p, n = module.field.p, module.n
    count = f"need sub and rel bases for each of {len(module.pieces)} degrees"
    sub, rel = iter(sub), iter(rel)
    w = None  # copies of M
    comps, action = [], []
    prev = np.zeros((0, 0), dtype=np.int64)  # [C_{q-1} | rel_{q-1}]
    for q, dim in enumerate(module.pieces):
        s, r = next(sub, None), next(rel, None)
        if s is None or r is None:
            raise InconsistentDims(count)
        s, r = np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64)
        if w is None and dim and s.ndim == 2:
            w = s.shape[0] // dim
        rows = w * dim if w else 0
        if s.ndim != 2 or r.ndim != 2 or s.shape[0] != rows or r.shape[0] != rows:
            raise InconsistentDims(f"sub_{q} and rel_{q} need {rows} rows, {dim} a copy")
        ns, nr, m = s.shape[1], r.shape[1], prev.shape[1]
        check_budget(f"subquotient in degree {q}", (rows, nr + ns + n * m))
        images = np.zeros((rows, 0), dtype=np.int64)
        if m:  # x_k applied to the columns of prev, as columns ordered (k, j); w is known
            below = module.pieces[q - 1]
            flat = prev.reshape(w, below, m).transpose(1, 0, 2).reshape(below, w * m)
            images = matmul_mod(module.action[q - 1].reshape(n * dim, below), flat, p)
            del flat
            images = images.reshape(n, dim, w, m).transpose(2, 1, 0, 3).reshape(rows, n * m)
        joint = np.hstack([r, s[:, ::-1], images])
        del images, s, r  # copied into joint: free them before the elimination, the peak of M^p
        red, pivots = rref(joint, p)
        picked = [j - nr for j in pivots if nr <= j < nr + ns]
        if pivots[:nr] != list(range(nr)) or len(picked) != ns - nr:
            raise NotASubspace(f"rel_{q} is dependent or not inside span(sub_{q})")
        if pivots and pivots[-1] >= nr + ns:
            raise NotASubmodule(f"the action maps sub_{q - 1} outside sub_{q}")
        # the complement's pivot rows, reordered to follow sub's column order
        coords = red[nr : nr + len(picked)][::-1, nr + ns :].reshape(len(picked), n, m)
        if q:
            c = comps[-1].shape[1]
            if np.any(coords[:, :, c:]):
                raise NotASubmodule(f"the action maps rel_{q - 1} outside rel_{q}")
            action.append(coords[:, :, :c].transpose(1, 0, 2).astype(np.int64))  # int64, never a view of red
        comps.append(joint[:, [nr + t for t in reversed(picked)]])
        prev = np.hstack([comps[-1], joint[:, :nr]])
        del joint, red, coords  # this degree's matrices go before the next is built
    if next(sub, None) is not None or next(rel, None) is not None:
        raise InconsistentDims(count)
    return GradedModule(module.field, n, tuple(cm.shape[1] for cm in comps), tuple(action))


def kernel_basis(a, p: int) -> np.ndarray:
    """Basis of the right null space of ``a``, as matrix columns.

    Columns are the canonical kernel vectors read off the RREF: one per free
    column f, with 1 in position f and -R[i, pivot_i] above.  Satisfies
    a @ k == 0 and k has cols(a) - rank(a) columns; k is int64, whatever
    the RREF's working dtype.
    """
    r, pivots = rref(a, p)
    ncols = r.shape[1]
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    k = np.zeros((ncols, free.size), dtype=np.int64)
    # R[i, f] = 0 when pivot_i > f, so no order test is needed
    above = r[: len(pivots), free]
    np.negative(above, out=above)
    k[pivots] = np.remainder(above, p, out=above)
    k[free, np.arange(free.size)] = 1
    return k


def image_basis(a, p: int) -> np.ndarray:
    """Columns of ``a`` forming a basis of its column space (pivot columns)."""
    m = np.asarray(a, dtype=np.int64)
    return np.mod(m[:, pivots(m, p)], p)


def degree_one_generates(alg) -> bool:
    """Whether multiplication A_1 x A_k -> A_{k+1} of a GradedAlgebra surjects for 1 <= k < window."""
    for k in range(1, alg.window):
        n, target, source = alg.action[k].shape
        products = alg.action[k].transpose(1, 0, 2).reshape(target, n * source)
        if rank(products, alg.field.p) < target:
            return False
    return True


def module_restrict_action(module: GradedModule, subspace: np.ndarray) -> GradedModule:
    """Same pieces, action restricted to a subspace of V given by basis columns.

    Raises NotASubspace for a basis of the wrong height or with dependent
    columns.
    """
    p = module.field.p
    b = np.asarray(subspace, dtype=np.int64) % p
    if b.ndim != 2 or b.shape[0] != module.n:
        raise NotASubspace(f"basis matrix must have {module.n} rows")
    k = b.shape[1]
    if k and rank(b, p) != k:
        raise NotASubspace("basis columns are dependent")
    action = tuple(
        matmul_mod(b.T, a.reshape(module.n, -1), p).reshape(k, *a.shape[1:]) for a in module.action
    )
    return GradedModule(module.field, k, module.pieces, action)


def algebra_from_sections(spaces) -> GradedAlgebra:
    """Assemble a graded algebra whose degree-q piece is spaces[q], from its degree-one products.

    The spaces must live on one model and have arithmetically consistent
    tags (tag_a + tag_b = tag_{a+b}), so polynomial multiplication realises
    the ring structure.  The unit law is verified against the model's
    degree-0 space.
    """
    if not spaces:
        raise InconsistentDims("need at least the degree-0 space")
    model = spaces[0].model
    if spaces[0].dim != 1:
        raise InconsistentDims("degree-0 space must be one-dimensional")
    tags = [s.tag for s in spaces]
    for q, s in enumerate(spaces):
        if s.model is not model:
            raise InconsistentDims("all spaces must live on one model")
        if q and tags[q] != q * tags[1] + tags[0]:
            raise InconsistentDims("tags must grow linearly with the degree")
    window = len(spaces) - 1
    products = [mult_map(spaces[1], spaces[b]) for b in range(1, window)]
    # unit law from the actual model multiplication
    for q in range(1, window + 1):
        t = mult_map(spaces[0], spaces[q])
        if not np.array_equal(t[0], np.eye(spaces[q].dim, dtype=np.int64)):
            raise GradedError(f"degree-0 section does not act as identity on degree {q}")
    return GradedAlgebra(model.field, [s.dim for s in spaces], products)


def artinian_by_subquotient(alg, l1, l2):
    """A / (l1, l2) by the direct path: both rank conditions checked, then a subquotient.

    For every q <= window - 1: multiplication by l1 must be injective on A_q
    and rank [l1 A_q | l2 A_q] = 2 dim A_q - dim A_{q-1}, else None.  The
    acting space is spanned by the coordinates of A_1 off the pivots of
    <l1, l2>, and B = ``subquotient(identity, rel)`` of A restricted to it,
    rel_q the RREF rows spanning l1 A_{q-1} + l2 A_{q-1} (``reduction_relations``).
    The subquotient keeps the coordinate vectors off the pivots of rel_q.
    """
    found = reduction_relations(alg, l1, l2)
    if found is None:
        return None
    rel = [np.zeros((1, 0), dtype=np.int64)] + [r for r, _ in found]
    acting = np.delete(np.eye(alg.n, dtype=np.int64), found[0][1], axis=1)
    identity = [np.eye(d, dtype=np.int64) for d in alg.pieces]
    return subquotient(module_restrict_action(alg, acting), identity, rel)


def reduction_relations(alg, l1, l2):
    """(rel_q, pivots of rel_q) for q = 1..window, or None: ``artinian_by_subquotient``'s relations.

    rel_q holds, as columns, the RREF rows spanning l1 A_{q-1} + l2 A_{q-1};
    None when l1 is not injective on some A_{q-1} or the rank of
    [l1 A_{q-1} | l2 A_{q-1}] is not 2 dim A_{q-1} - dim A_{q-2}.
    """
    p, n = alg.field.p, alg.n
    forms = np.vstack([l1, l2])
    out = []
    for q, a in enumerate(alg.action):
        by_l = matmul_mod(forms, a.reshape(n, -1), p).reshape(2, *a.shape[1:])
        r, pivots = rref(np.hstack(by_l).T, p)
        below = alg.pieces[q - 1] if q else 0
        if rank(by_l[0], p) != alg.pieces[q] or len(pivots) != 2 * alg.pieces[q] - below:
            return None
        out.append((r[: len(pivots)].T, pivots))
    return out


def epsilon_weights(ring) -> list[np.ndarray]:
    """The epsilon-weight of every basis vector of every piece of a split ribbon's ring.

    Each piece puts its S_q block first, at weight 0, then its epsilon J_q
    block, at weight 1; the dimensions are read off the ring's model.
    """
    t = -ring.deg_l // (ring.model.d if isinstance(ring.model, PlaneCurve) else 1)
    _, unit, _ = conormal_tags(ring.model, t)
    dims = [(ring.model.sections(q * unit).dim, ring.model.sections(q * unit - t).dim) for q in range(len(ring.algebra.pieces))]
    return [np.repeat([0, 1], d) for d in dims]


def reduced_epsilon_weights(ring) -> list[np.ndarray] | None:
    """The epsilon-weights of the coordinates that the reduction of ``ring.betti()`` keeps, or None.

    The forms ``koszul._artinian_module`` draws on ``ring.support`` are
    replayed; the first certified pair keeps the coordinates off the pivots
    of its relations, with their weights in the ring.
    """
    alg, weights = ring.algebra, epsilon_weights(ring)
    draws = SeededStream(koszul._REDUCTION_SEED)
    for _ in range(koszul._REDUCTION_DRAWS):
        l1, l2 = draws.integers(0, alg.field.p, size=(2, alg.n)) * ring.support
        found = reduction_relations(alg, l1, l2)
        if found is not None:
            return [weights[0]] + [np.delete(w, pivots) for w, (_, pivots) in zip(weights[1:], found)]
    return None


def respects(module: GradedModule, v_weights, weights) -> bool:
    """Whether every x_k maps the weight-w basis vectors of M_q into the weight w + v_weights[k] ones of M_{q+1}."""
    for q, a in enumerate(module.action):
        allowed = weights[q + 1][None, :, None] == v_weights[:, None, None] + weights[q][None, None, :]
        if np.any(np.where(allowed, 0, a)):
            return False
    return True


def total_weights(v_weights, p: int, piece_weights) -> np.ndarray:
    """The total weight of each basis vector of wedge^p V (x) M, in ``koszul``'s basis order."""
    subsets = colex(len(v_weights), p)
    wedge = np.asarray(v_weights)[np.array(subsets, dtype=np.int64).reshape(len(subsets), p)].sum(axis=1)
    return (wedge[:, None] + np.asarray(piece_weights)[None, :]).ravel()


def syzygy_module_by_ambient(model, t: int, p: int) -> GradedModule:
    """M^p of ``greenchk.build_syzygy_module`` through the dense ambient module.

    The cocycles and coboundaries of K_{p,1} of each coefficient complex
    are taken as subspaces of the one module wedge^p U (x) H^0(K^q W),
    q = 0, 1, 2, on which H^0(K_C) acts by id (x) multiplication: a dense
    (g, w c_{q+1}, w c_q) tensor per degree, w = C(dim U, p), built by an
    einsum.  Its ``subquotient`` is M^p, without the commutativity check.
    """
    k_tag, w_tag, _ = conormal_tags(model, t)
    u_space, k_space = model.sections(w_tag), model.sections(k_tag)
    g, wedge = k_space.dim, math.comb(u_space.dim, p)
    sub, rel = [], []
    for q in range(3):
        spaces = [model.sections(q * k_tag + j * w_tag) for j in range(3)]
        action = tuple(mult_map(u_space, s) for s in spaces[:2])
        coefficients = GradedModule(model.field, u_space.dim, tuple(s.dim for s in spaces), action)
        sub.append(kernel_basis(koszul_differential(coefficients, p, 1), model.field.p))
        rel.append(image_basis(koszul_differential(coefficients, p + 1, 0), model.field.p))
    action = []
    for q in range(2):
        mult = mult_map(k_space, model.sections(q * k_tag + w_tag))
        blocks = np.einsum("ij,kab->kiajb", np.eye(wedge, dtype=np.int64), mult)
        action.append(blocks.reshape(g, wedge * mult.shape[1], wedge * mult.shape[2]))
    ambient = GradedModule(model.field, g, tuple(s.shape[0] for s in sub), tuple(action))
    return subquotient(ambient, sub, rel)


def _monomial_triples(deg: int) -> list[tuple[int, int, int]]:
    return [(a, b, deg - a - b) for a in range(deg, -1, -1) for b in range(deg - a, -1, -1)]


def smooth_every_degree(coeffs: dict, d: int, p: int) -> bool:
    """Whether (f, f_x, f_y, f_z) contains every form of some degree d - 1 <= D <= 3(d - 1) - 2.

    ``coeffs`` maps exponent triples to the coefficients of f, homogeneous
    of degree d.  Each degree's Macaulay matrix, the products of the
    generators with every monomial that lands in degree D, is ranked in
    turn, lowest first.
    """
    f = {m: c % p for m, c in coeffs.items() if c % p}
    gens = [f]
    for axis in range(3):
        g = {}
        for m, c in f.items():
            if m[axis]:
                key = list(m)
                key[axis] -= 1
                g[tuple(key)] = (g.get(tuple(key), 0) + m[axis] * c) % p
        gens.append({m: c for m, c in g.items() if c})
    gens = [g for g in gens if g]
    for big in range(d - 1, 3 * (d - 1) - 1):
        index = {m: i for i, m in enumerate(_monomial_triples(big))}
        rows = []
        for g in gens:
            deg = sum(next(iter(g)))
            for shift in _monomial_triples(big - deg) if deg <= big else ():
                row = [0] * len(index)
                for m, c in g.items():
                    row[index[(m[0] + shift[0], m[1] + shift[1], m[2] + shift[2])]] = c
                rows.append(row)
        if rows and rank(np.array(rows, dtype=np.int64), p) == len(index):
            return True
    return False


def naive_rank(rows: list[list[int]], p: int) -> int:
    """Rank over Z/p by fraction-free Gaussian elimination on python ints."""
    mat = [[x % p for x in row] for row in rows]
    n = len(mat)
    m = len(mat[0]) if n else 0
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if mat[i][c] % p != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(n):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c]
                g = mat[r][c]
                mat[i] = [(g * mat[i][j] - f * mat[r][j]) % p for j in range(m)]
        r += 1
        if r == n:
            break
    return r


def restriction(e, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class e restricted to the sections vanishing on the points with these evaluation rows.

    Returns (basis, coords): the columns of ``basis`` span the sections
    vanishing on the points, the canonical kernel basis of ``rows``, and
    ``coords`` are e's values on them.  The blow-up along the points splits
    the ribbon iff coords is zero.  Push-out and pull-back differ only in
    the order of the vanishing conditions, ``rows`` or ``rows[::-1]``; the
    kernel basis is read off the canonical RREF, so both give the same
    result.
    """
    p = e.space.field.p
    basis = kernel_basis(rows, p)
    return basis, matmul_mod(e.vec.reshape(1, -1), basis, p).ravel()


def first_witness(vec, rows, b: int, p: int):
    """Lexicographically first b-subset of row indices whose span contains vec, or None.

    One degree of ``strata.blowup_index_bruteforce``'s search, for any vec
    and rows: reduce both mod p, normalise the rows in V/<vec>
    (``strata._modulo``), and call ``strata._search_degree``, which assumes
    no set of fewer than b rows has vec in its span.  vec is nonzero.
    """
    vec = np.asarray(vec, dtype=np.int64) % p
    rows = np.asarray(rows, dtype=np.int64) % p
    return _search_degree(vec, rows, _modulo(vec, rows, p), b, p)


def naive_first_witness(vec: list[int], rows: list[list[int]], b: int, p: int):
    """Lexicographically first b-subset of row indices whose span contains vec.

    Every subset from itertools.combinations, decided by two naive ranks;
    None when no b-subset works.
    """
    for combo in combinations(range(len(rows)), b):
        sub = [rows[i] for i in combo]
        if naive_rank(sub + [vec], p) == naive_rank(sub, p):
            return combo
    return None


def naive_blowup_index(vec: list[int], rows: list[list[int]], b_max: int, p: int):
    """(least degree <= b_max, its first witness), or None if no degree works."""
    for b in range(1, b_max + 1):
        combo = naive_first_witness(vec, rows, b, p)
        if combo is not None:
            return b, combo
    return None


def fermat_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """a**(p - 2) mod p entrywise, by square and multiply (p < 2**31)."""
    out = np.ones_like(a)
    base = a % p
    for bit in bin(p - 2)[2:]:
        out = out * out % p
        if bit == "1":
            out = out * base % p
    return out


def batched_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank over Z/p of each matrix in a (batch, rows, cols) stack.

    Gauss-Jordan on every matrix at once, column by column: the first
    unused row with a nonzero entry is the pivot, it is scaled to 1 and
    cleared from every other row.  No row swaps, so the ranks differ
    freely across the batch.
    """
    mat = np.asarray(mats, dtype=np.int64) % p
    batch, nrows, _ = mat.shape
    used = np.zeros((batch, nrows), dtype=bool)
    every = np.arange(batch)
    for c in range(mat.shape[2]):
        candidates = (mat[:, :, c] != 0) & ~used
        has = candidates.any(axis=1)
        piv = candidates.argmax(axis=1)
        pivot_row = mat[every, piv] * fermat_inverse(mat[every, piv, c], p)[:, None] % p
        factors = np.where(has[:, None], mat[:, :, c], 0)
        factors[every, piv] = 0
        mat = (mat - factors[:, :, None] * pivot_row[:, None, :]) % p
        mat[every[has], piv[has]] = pivot_row[has]
        used[every[has], piv[has]] = True
    return used.sum(axis=1)


def vectorised_blowup_index(vec, rows, b_max: int, p: int, chunk: int = 1 << 14):
    """``naive_blowup_index`` with each chunk of subsets ranked in one batch.

    Walks the b-subsets of row indices in lexicographic order, b = 1, 2,
    ..., b_max, and returns (b, first subset whose span contains vec), or
    None.  Fast enough to scan every subset of a degree with millions.
    """
    vec = np.asarray(vec, dtype=np.int64) % p
    rows = np.asarray(rows, dtype=np.int64) % p
    for b in range(1, b_max + 1):
        subsets = combinations(range(rows.shape[0]), b)
        while True:
            block = np.array(list(islice(subsets, chunk)), dtype=np.int64)
            if not block.size:
                break
            sub = rows[block]
            with_vec = np.concatenate([sub, np.broadcast_to(vec, (len(block), 1, vec.size))], axis=1)
            works = batched_rank(with_vec, p) == batched_rank(sub, p)
            if works.any():
                return b, tuple(int(i) for i in block[works.argmax()])
    return None


def eager_eliminate(a: np.ndarray, p: int, reduced: bool, order: np.ndarray | None = None) -> list[int]:
    """In-place row echelon of an int64 matrix in [0, p), reduced at every step, in two passes.

    The elimination ``fflinalg._eliminate_simple`` ran before it reduced
    lazily and cleared above each pivot in its one forward pass: the first
    row at or below the current one with a nonzero in the column is
    swapped up (and the swap mirrored into ``order``), scaled to a leading
    1, and cleared from the rows below with a ``% p`` after every update;
    ``reduced`` then clears above each pivot in a backward pass, last pivot
    first.  The RREF is unique, so the one-pass engines must match it.
    Returns the pivot columns.
    """
    n, m = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        nz = a[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
            if order is not None:
                order[[row, pr]] = order[[pr, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row, col:] = (a[row, col:] * inv) % p
        hit = a[row + 1 :, col].nonzero()[0] + row + 1
        a[hit, col:] = (a[hit, col:] - a[hit, col, None] * a[row, col:]) % p
        pivots.append(col)
        row += 1
    if reduced:
        for i in reversed(range(len(pivots))):
            col = pivots[i]
            above = a[:i, col].nonzero()[0]
            a[above, col:] = (a[above, col:] - a[above, col, None] * a[i, col:]) % p
    return pivots


def loop_kernel_basis(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Kernel basis read off an RREF ``r`` with its pivot columns, by a double loop.

    One column per free column f: 1 in row f and -r[i, f] in the row of
    each pivot c_i < f.  The loop ``kernel_basis`` replaced.
    """
    ncols = r.shape[1]
    free = [j for j in range(ncols) if j not in set(pivots)]
    k = np.zeros((ncols, len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        k[f, idx] = 1
        for i, c in enumerate(pivots):
            if c < f:
                k[c, idx] = (-r[i, f]) % p
    return k


def naive_solve(rows: list[list[int]], rhs: list[int], p: int):
    """One solution of A x = rhs over Z/p, or None if inconsistent."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    aug = [[rows[i][j] % p for j in range(m)] + [rhs[i] % p] for i in range(n)]
    pivots = []
    r = 0
    for c in range(m + 1):
        piv = next((i for i in range(r, n) if aug[i][c]), None)
        if piv is None:
            continue
        if c == m:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(aug[i][j] - f * aug[r][j]) % p for j in range(m + 1)]
        pivots.append(c)
        r += 1
    x = [0] * m
    for i, c in enumerate(pivots):
        x[c] = aug[i][m]
    return x


class LinearSolveError(Exception):
    """An exact linear solve had no solution."""


def solve(a, b, p: int) -> np.ndarray:
    """Solve a @ x = b exactly mod p; ``b`` may have several columns.

    Requires ``a`` to have full column rank.  Raises LinearSolveError if
    the system is inconsistent or the basis is rank-deficient.
    """
    m = np.asarray(a, dtype=np.int64) % p
    w = np.asarray(b, dtype=np.int64) % p
    if w.shape[0] != m.shape[0]:
        raise DimensionMismatch("right-hand side has wrong number of rows")
    ncols = m.shape[1]
    r, pivots = rref(np.hstack([m, w]), p)
    if any(c >= ncols for c in pivots):
        raise LinearSolveError("inconsistent system")
    if len(pivots) != ncols:
        raise LinearSolveError("coefficient matrix is rank-deficient")
    return r[:ncols, ncols:].copy()


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q (exact, Fractions) for characteristic-free cross-checks."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    m = len(mat[0]) if n else 0
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(n):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [mat[i][j] - f * mat[r][j] for j in range(m)]
        r += 1
        if r == n:
            break
    return r


def three_term_cohomology_dim(d_in, d_out, middle_dim: int, p: int) -> int:
    """dim of middle cohomology of  A --d_in--> B --d_out--> C  over Z/p.

    d_in, d_out are row-lists (possibly empty).  dim = dim ker(d_out) -
    rank(d_in); the caller guarantees d_out @ d_in = 0.
    """
    rank_out = naive_rank(d_out, p) if d_out and d_out[0] else 0
    rank_in = naive_rank(d_in, p) if d_in and d_in[0] else 0
    return middle_dim - rank_out - rank_in


def eagon_northcott_b_p1(n: int, p: int) -> int:
    """Linear-strand Betti number b_{p,1} of the degree-n rational normal curve."""
    return p * math.comb(n, p + 1)


def oracle_koszul_matrix(n: int, p: int, dim_src: int, dim_tgt: int, action, prime: int):
    """Koszul differential wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, naive build.

    Independent conventions on purpose: subsets enumerated in lexicographic
    order via itertools, basis index = m_index * num_subsets + subset_rank,
    signs (-1)^j with j zero-based.  ``action[k]`` is the matrix (list of
    lists, dim_tgt x dim_src) of the k-th basis vector of V.
    """
    from itertools import combinations

    src_subsets = list(combinations(range(n), p))
    tgt_subsets = list(combinations(range(n), p - 1)) if p >= 1 else []
    tgt_index = {s: i for i, s in enumerate(tgt_subsets)}
    rows = len(tgt_subsets) * dim_tgt
    cols = len(src_subsets) * dim_src
    mat = [[0] * cols for _ in range(rows)]
    for si, s in enumerate(src_subsets):
        for j, sj in enumerate(s):
            ti = tgt_index[s[:j] + s[j + 1 :]]
            sign = 1 if j % 2 == 0 else -1
            for a in range(dim_tgt):
                for b in range(dim_src):
                    v = sign * action[sj][a][b]
                    if v:
                        row = a * len(tgt_subsets) + ti
                        col = b * len(src_subsets) + si
                        mat[row][col] = (mat[row][col] + v) % prime
    return mat


def colex(n: int, k: int) -> list[tuple[int, ...]]:
    """The size-k subsets of range(n), increasing, in colex order."""
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def colex_rank(s) -> int:
    """Position of an increasing subset in colex order."""
    return sum(math.comb(v, j + 1) for j, v in enumerate(s))


def loop_koszul_differential(module, p: int, q: int) -> np.ndarray:
    """d_{p,q} of a graded module by one python loop over (subset, position).

    The package's conventions (colex wedge bases, column index
    wedge_rank * dim M_q + m, sign (-1)^j), one dense action block placed
    per (subset, j): the loop the vectorised assembler replaced.  Reads
    only ``module.n``, ``pieces``, ``action`` and ``field.p``.
    """
    n, prime = module.n, module.field.p
    dmq, dmq1 = module.pieces[q], module.pieces[q + 1]
    src = colex(n, p) if 0 <= p <= n else []
    n_tgt = math.comb(n, p - 1) if 1 <= p <= n + 1 else 0
    out = np.zeros((n_tgt * dmq1, len(src) * dmq), dtype=np.int64)
    if p == 0:
        return out
    act = module.action[q]
    for r, subset in enumerate(src):
        c0 = r * dmq
        for j, sj in enumerate(subset):
            t = colex_rank(subset[:j] + subset[j + 1 :])
            block = act[sj] if j % 2 == 0 else (prime - act[sj]) % prime
            out[t * dmq1 : (t + 1) * dmq1, c0 : c0 + dmq] = block
    return out


def oracle_koszul_dim(n: int, pieces, actions, i: int, q: int, prime: int) -> int:
    """dim K_{i,q} of a graded module by naive three-term ranks.

    ``pieces`` are dims per degree, ``actions[q][k]`` python matrices.
    Requires degrees q-1, q, q+1 in window (q-1 treated as zero when q=0).
    """
    d_out = oracle_koszul_matrix(n, i, pieces[q], pieces[q + 1], actions[q], prime)
    rank_out = naive_rank(d_out, prime) if d_out and d_out[0] else 0
    if q >= 1:
        d_in = oracle_koszul_matrix(n, i + 1, pieces[q - 1], pieces[q], actions[q - 1], prime)
        rank_in = naive_rank(d_in, prime) if d_in and d_in[0] else 0
    else:
        rank_in = 0
    middle = math.comb(n, i) * pieces[q]
    return middle - rank_out - rank_in


def plane_points_exhaustive(coeffs: dict[tuple[int, int, int], int], p: int):
    """All projective F_p-points of a plane curve by scanning P^2 normal forms."""
    pts = []

    def f(x, y, z):
        return sum(c * pow(x, a, p) * pow(y, b, p) * pow(z, g, p) for (a, b, g), c in coeffs.items()) % p

    for y in range(p):
        for z in range(p):
            if f(1, y, z) == 0:
                pts.append((1, y, z))
    for z in range(p):
        if f(0, 1, z) == 0:
            pts.append((0, 1, z))
    if f(0, 0, 1) == 0:
        pts.append((0, 0, 1))
    return pts


def reduce_mod(f: dict, lead: tuple, lead_inv: int, rel: dict, p: int) -> dict:
    """Normal form of f modulo the single homogeneous relation ``rel``.

    A single polynomial is a Groebner basis of the principal ideal it
    generates, so repeatedly cancelling the lex-largest monomial divisible
    by its leading monomial terminates in the canonical remainder.
    """
    work = dict(f)
    while True:
        target = None
        for m in sorted(work, reverse=True):
            if work[m] and all(a >= b for a, b in zip(m, lead)):
                target = m
                break
        if target is None:
            break
        factor = (work[target] * lead_inv) % p
        shift = (target[0] - lead[0], target[1] - lead[1], target[2] - lead[2])
        for m, c in rel.items():
            key = (m[0] + shift[0], m[1] + shift[1], m[2] + shift[2])
            work[key] = (work.get(key, 0) - factor * c) % p
    return {m: c for m, c in work.items() if c}


def plane_mult_by_pairs(model, ta: int, tb: int) -> np.ndarray:
    """A plane curve's multiplication tensor, each basis pair's product reduced on its own by ``reduce_mod``."""
    sa, sb, sc = model.sections(ta), model.sections(tb), model.sections(ta + tb)
    index = {m: i for i, m in enumerate(sc.basis)}
    lead_inv = pow(model.coeffs[model.lead], -1, model.field.p)
    t = np.zeros((sa.dim, sc.dim, sb.dim), dtype=np.int64)
    for i, ma in enumerate(sa.basis):
        for j, mb in enumerate(sb.basis):
            prod = {(ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2]): 1}
            for m, c in reduce_mod(prod, model.lead, lead_inv, model.coeffs, model.field.p).items():
                t[i, index[m], j] = c
    return t


def hyperelliptic_mult_by_pairs(model, ta: int, tb: int) -> np.ndarray:
    """A hyperelliptic curve's multiplication tensor, pair by pair: y * y reduces to h(x)."""
    sa, sb, sc = model.sections(ta), model.sections(tb), model.sections(ta + tb)
    index = {tok: i for i, tok in enumerate(sc.basis)}
    t = np.zeros((sa.dim, sc.dim, sb.dim), dtype=np.int64)
    for i, (ia, ya) in enumerate(sa.basis):
        for j, (ib, yb) in enumerate(sb.basis):
            deg = ia + ib
            if ya and yb:
                for k, c in enumerate(model.h):
                    if c:
                        t[i, index[(deg + k, 0)], j] = c
            else:
                t[i, index[(deg, ya or yb)], j] = 1
    return t


def _powers(x: np.ndarray, top: int, p: int) -> np.ndarray:
    out = np.ones((x.shape[0], top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        out[:, k] = out[:, k - 1] * x % p
    return out


def evaluation_by_family(space, points) -> np.ndarray:
    """Evaluation vectors with one rule per family: exponent triples at the
    plane points; on a hyperelliptic curve, x^i at x times y where the token
    has y, and the pole-order rule at infinity.  The points must lie on the
    curve (nothing is checked).
    """
    model, p = space.model, space.field.p
    points = list(points)
    if model.family == "plane":
        xyz = np.array(points, dtype=np.int64).reshape(-1, 3) % p
        e = np.array(space.basis, dtype=np.int64).reshape(-1, 3)
        top = int(e.max(initial=0))
        px, py, pz = (_powers(xyz[:, i], top, p) for i in range(3))
        return px[:, e[:, 0]] * py[:, e[:, 1]] % p * pz[:, e[:, 2]] % p
    out = np.zeros((len(points), space.dim), dtype=np.int64)
    out[[i for i, pt in enumerate(points) if pt == "inf"]] = [
        1 if model._pole_order(tok) == space.tag else 0 for tok in space.basis
    ]
    listed = [i for i, pt in enumerate(points) if pt != "inf"]
    if listed and space.dim:
        xy = np.array([points[i] for i in listed], dtype=np.int64) % p
        expo = np.array([i for i, _ in space.basis], dtype=np.int64)
        has_y = np.array([bool(y) for _, y in space.basis])
        vals = _powers(xy[:, 0], int(expo.max()), p)[:, expo]
        vals[:, has_y] = vals[:, has_y] * xy[:, 1:2] % p
        out[listed] = vals
    return out
