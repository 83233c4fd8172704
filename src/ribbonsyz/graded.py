"""Graded algebras and graded modules as finite-dimensional pieces plus matrices.

This is the abstraction boundary between geometry and homological algebra,
and it imports nothing from ``curves``: ``ribbon`` and ``greenchk`` turn
section spaces and multiplication tensors into per-degree dimensions and
explicit action matrices, and everything downstream (Koszul differentials,
Betti tables, syzygy modules) consumes only that data.  Pieces of a module
may equally well be cohomology subquotients; nothing in this module
assumes they are section spaces.  A graded algebra is a graded module over
its degree-one piece (``GradedAlgebra``), so every consumer reads one
layout of action tensors.

Weights.  Every module carries an integer weight for each basis vector of
each piece and of V; a module built without them has the trivial grading,
all zeros (the canonical ring S~ = S (+) epsilon J of a split ribbon puts
S at epsilon-weight 0 and epsilon J at weight 1).  They are a claim, not a
fact: ``GradedModule.respects_weights`` is the exact certificate that
every x_k maps weight w of M_q into weight w + weight(x_k) of M_{q+1}, and
``koszul.KoszulCalculator`` splits a cell by weight only on a certified
module, ranking any other by its trivial grading.  ``subquotient`` gives
the trivial grading: the one module that it builds for a command, the
syzygy module M^p of ``greenchk``, is a subquotient of unweighted
coefficients.

Two ways to a smaller module.  ``GradedModule.subquotient`` is the general
one, for any sub and rel in w copies of the module (the syzygy
modules M^p of ``greenchk``, in C(dim U, p) copies of their coefficients).
``GradedAlgebra.artinian_reduction`` cuts the algebra by two linear forms
and reads the quotient off the one RREF per degree that its
regular-sequence certificate runs anyway: every kept basis vector is a
coordinate vector, so the weights pass on unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ribbonsyz.fflinalg import _MOD_BLOCK, PrimeField, check_budget, matmul_mod, pivots, rref

__all__ = [
    "GradedError",
    "InconsistentDims",
    "NotASubspace",
    "NotASubmodule",
    "GradedModule",
    "GradedAlgebra",
]


class GradedError(Exception):
    pass


class InconsistentDims(GradedError):
    pass


class NotASubspace(GradedError):
    pass


class NotASubmodule(GradedError):
    """The action leaves a subspace that ``GradedModule.subquotient`` needs it to keep."""


@dataclass(frozen=True)
class GradedModule:
    """Graded pieces M_0..M_w acted on by a fixed n-dimensional space V.

    ``action[q]`` has shape (n, dim M_{q+1}, dim M_q): the matrix of the
    k-th distinguished basis vector of V is ``action[q][k]``.  The action
    must commute: x.(y.m) = y.(x.m).  ``v_weights`` (length n) and
    ``weights`` (one array per piece) are the integer weights of the basis
    vectors; either one left out is all zeros.
    """

    field: PrimeField
    n: int
    pieces: tuple[int, ...]
    action: tuple[np.ndarray, ...]
    v_weights: np.ndarray = None
    weights: tuple[np.ndarray, ...] = None

    def __post_init__(self):
        if len(self.action) != len(self.pieces) - 1:
            raise InconsistentDims("need one action tensor per consecutive degree pair")
        for q, a in enumerate(self.action):
            want = (self.n, self.pieces[q + 1], self.pieces[q])
            if a.shape != want:
                raise InconsistentDims(f"action[{q}] has shape {a.shape}, expected {want}")
        weights = self.weights or (None,) * len(self.pieces)
        if len(weights) != len(self.pieces):
            raise InconsistentDims("need one weight array per piece")
        object.__setattr__(self, "v_weights", _as_weights(self.v_weights, self.n))
        object.__setattr__(self, "weights", tuple(map(_as_weights, weights, self.pieces)))

    @property
    def window(self) -> int:
        return len(self.pieces) - 1

    def respects_weights(self) -> bool:
        """The exact weight certificate: every action tensor vanishes outside its weight blocks.

        True when each x_k maps the weight-w basis vectors of M_q into the
        span of the weight w + v_weights[k] ones of M_{q+1}, for every q;
        always true of the trivial grading.
        """
        for q, a in enumerate(self.action):
            allowed = self.weights[q + 1][None, :, None] == (
                self.v_weights[:, None, None] + self.weights[q][None, None, :]
            )
            if np.any(np.where(allowed, 0, a)):
                return False
        return True

    def check_commutativity(self) -> None:
        """Verify that every pair of basis vectors of V commutes in the action.

        Degree by degree, q = 0, 1, ..., and within a degree one block of
        target rows of M_{q+2} at a time, in row order.  For the rows of a
        block, one ``matmul_mod`` forms all n**2 products x_k x_l : M_q ->
        M_{q+2} restricted to them, about max(_MOD_BLOCK, d1 n d0) entries,
        the larger of the block size and the right operand (at least one
        row), and compares them with their (k, l) transpose: x_k x_l m and
        x_l x_k m land in the same rows, so each block is settled on its
        own.  A degree with an empty piece forms no product.  Raises
        GradedError naming the first failing pair of the first failing block.
        """
        p, n = self.field.p, self.n
        for q in range(self.window - 1):
            d0, d1, d2 = self.pieces[q : q + 3]
            if not n * d0 * d1 * d2:  # nothing to compare, or every product zero
                continue
            right = self.action[q].transpose(1, 0, 2).reshape(d1, n * d0)
            # matmul_mod casts right on every call: a block's product holds
            # about as many entries as right or more, so that cast never dominates
            rows = max(1, max(_MOD_BLOCK, d1 * n * d0) // (n * n * d0))
            for t in range(0, d2, rows):
                left = self.action[q + 1][:, t : t + rows].reshape(-1, d1)
                prod = matmul_mod(left, right, p).reshape(n, -1, n, d0)
                bad = np.argwhere((prod != prod.transpose(2, 1, 0, 3)).any(axis=(1, 3)))
                if bad.size:
                    k, l = bad[0]
                    raise GradedError(
                        f"action does not commute at degree {q} for basis pair ({k},{l})"
                    )

    def subquotient(self, sub, rel) -> GradedModule:
        """The subquotient with pieces span(sub[q]) / span(rel[q]) and the induced action.

        ``sub`` and ``rel`` give, one entry per degree, basis columns of
        subspaces rel_q <= sub_q of w copies of M_q, stacked with the copy
        index slow (row c * dim M_q + m is coordinate m of copy c, koszul's
        layout of wedge^p V (x) M_q); V acts on the M factor of every copy.
        Each entry is read once, in order, so either may be an iterator that
        hands the degrees over one at a time.  w is read off the rows of the
        first degree of nonzero dimension, the same in every degree, and
        w = 1 is M itself.
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
        p, n = self.field.p, self.n
        count = f"need sub and rel bases for each of {len(self.pieces)} degrees"
        sub, rel = iter(sub), iter(rel)
        w = None  # copies of M
        comps, action = [], []
        prev = np.zeros((0, 0), dtype=np.int64)  # [C_{q-1} | rel_{q-1}]
        for q, dim in enumerate(self.pieces):
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
                below = self.pieces[q - 1]
                flat = prev.reshape(w, below, m).transpose(1, 0, 2).reshape(below, w * m)
                images = matmul_mod(self.action[q - 1].reshape(n * dim, below), flat, p)
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
        return GradedModule(self.field, n, tuple(cm.shape[1] for cm in comps), tuple(action))


class GradedAlgebra(GradedModule):
    """A graded commutative algebra with unit, stored as a module over its degree-one piece.

    Every Koszul group computed downstream is K_{p,q}(A, A_1), which sees A
    only as a module over Sym A_1, so the algebra is that module: V = A_1
    (n = dims[1]) acts on the pieces ``dims``, with ``action[0]`` the unit,
    x_k . 1 = e_k (built here, so dims[0] must be 1), and ``action[b]`` =
    ``products[b - 1]`` the products A_1 x A_b -> A_{b+1} for
    1 <= b < window, of shape (dims[1], dims[b+1], dims[b]).  ``weights``,
    one integer array per degree, weight the pieces and, through degree
    one, V; left out, they are all zero.

    The constructor's certificate is exact: ``check_commutativity`` checks
    x_k (x_l m) = x_l (x_k m) for every pair of basis vectors of A_1 and
    every basis vector m of A_q, q <= window - 2, one block of target rows
    of A_{q+2} at a time; at q = 0 it is the symmetry of the products
    A_1 x A_1.  It makes the pieces a graded Sym A_1-module, which
    is all the Koszul groups read; when degree one generates, that module
    is cyclic, hence a quotient ring of Sym A_1.  Raises GradedError, and
    InconsistentDims for a product of the wrong shape or number.
    """

    def __init__(self, field: PrimeField, dims, products, weights=None):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2 or dims[0] != 1:
            raise InconsistentDims("need dims[0] = 1 (the unit) and a degree-one piece")
        n = dims[1]
        unit = np.eye(n, dtype=np.int64).reshape(n, n, 1)
        action = (unit, *(np.asarray(t, dtype=np.int64) % field.p for t in products))
        super().__init__(field, n, dims, action, weights=weights)
        object.__setattr__(self, "v_weights", self.weights[1])  # V is degree one
        self.check_commutativity()

    def artinian_reduction(self, l1, l2) -> GradedModule | None:
        """The algebra cut by two linear forms, or None if they are not certified.

        Returns B = A / (l1, l2), acted on by the complement of <l1, l2> in
        A_1, read off one elimination per degree: R_{q+1}, of the rows l1 e_i
        and l2 e_i (e_i the basis of A_q), spans rel_{q+1} = l1 A_q + l2 A_q
        with pivot columns P_{q+1}.  R is the RREF, except where the rank
        condition below makes rel_{q+1} all of A_{q+1}: there B_{q+1} = 0, no
        row of R is read, and forward elimination gives the pivots.  B_q is
        spanned by the coordinate vectors off P_q (N_q), the acting space by
        those of A_1 off P_1, so the two share a basis, and x_k maps e_j,
        j in N_q, to

            img[N_{q+1}] - R_{q+1}[:, N_{q+1}]^T img[P_{q+1}]   (mod p),

        img = x_k e_j, its class modulo rel_{q+1}; the weights are the kept
        coordinates' weights.  The certificate, checked exactly for every
        q <= window - 1, is the rank condition

            rank [l1 A_q | l2 A_q] = 2 dim A_q - dim A_{q-1}.

        It implies that multiplication by l1 is injective on each A_q.  At
        q = 0 rank 2 forces l1 != 0, and l1 . 1 = l1.  For q >= 1, let l1 be
        injective on A_{q-1}: the Koszul syzygies (l2 c, -l1 c), c in
        A_{q-1}, lie in the kernel of (a, b) -> l1 a + l2 b (commutativity),
        are dim A_{q-1} independent vectors, and so fill that kernel; l1 a = 0
        puts (a, 0) there, so a = l2 c with l1 c = 0, hence c = 0 and a = 0.
        The action keeps the relations, x_k rel_q in rel_{q+1}, by the same
        certified commutativity: x_k (l1 a + l2 b) = l1 (x_k a) + l2 (x_k b).
        So (l1, l2) is a regular sequence through the window, and then
        K_{p,q}(A, A_1) = K_{p,q}(B, A_1 / <l1, l2>) for q <= window - 1 (the
        hyperplane-section property of Koszul cohomology).
        """
        p, n = self.field.p, self.n
        forms = np.vstack([l1, l2])
        kept, action = [np.arange(1)], []  # N_q: the coordinates off the pivots of rel_q
        for q, a in enumerate(self.action):
            # by_l[k] is the matrix of multiplication by l_k on A_q
            by_l = matmul_mod(forms, a.reshape(n, -1), p).reshape(2, *a.shape[1:])
            rank_want = 2 * self.pieces[q] - (self.pieces[q - 1] if q else 0)
            # where the certified rank fills A_{q+1}, B_{q+1} = 0 and no row of R is read
            full = rank_want == self.pieces[q + 1]
            stacked = np.hstack(by_l).T
            r, piv = (None, pivots(stacked, p)) if full else rref(stacked, p)
            if len(piv) != rank_want:
                return None
            off = np.ones(self.pieces[q + 1], dtype=bool)
            off[piv] = False
            kept.append(np.flatnonzero(off))
            out = a[np.ix_(kept[1], kept[q + 1], kept[q])]
            if not full:
                # x_k e_j modulo rel_{q+1}: img[N_{q+1}] - R_{q+1}[:, N_{q+1}]^T img[P_{q+1}]
                k, c, m = len(kept[1]), len(kept[q + 1]), len(kept[q])
                img = a[np.ix_(kept[1], piv, kept[q])].transpose(1, 0, 2).reshape(len(piv), k * m)
                fold = r[: len(piv), kept[q + 1]].T
                out -= matmul_mod(fold, img, p).reshape(c, k, m).transpose(1, 0, 2)
                out %= p
            action.append(out)
        weights = tuple(w[cols] for w, cols in zip(self.weights, kept))
        return GradedModule(
            self.field, len(kept[1]), tuple(map(len, kept)), tuple(action), weights[1], weights
        )


def _as_weights(given, count: int) -> np.ndarray:
    """``count`` integer weights as an int64 array; None gives the trivial grading, all zeros."""
    w = np.zeros(count, dtype=np.int64) if given is None else np.asarray(given, dtype=np.int64)
    if w.shape != (count,):
        raise InconsistentDims("need one weight per basis vector of V and of each piece")
    return w
