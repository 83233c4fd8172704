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
module, ranking any other by its trivial grading.  ``cohomology`` gives
the trivial grading: the one module that it builds for a command, the
syzygy module M^p of ``greenchk``, is a cohomology of unweighted
coefficients.

One quotient rule.  Every quotient is a ``Chart``: Z = ker d in the free
coordinates F of the RREF of d, modulo B, whose free coordinates span the
rows of an RREF R with pivot columns P.  The class of u, given in F, is
u[N] - R[:, N]^T u[P] in the unit vectors off P, the kept coordinates N
(``Chart.classes``).  Both ways to a smaller module chart their quotients
so: ``GradedModule.cohomology``, of cohomologies Z_q / B_q in w copies of
the module (the syzygy modules M^p of ``greenchk``), and
``GradedAlgebra.artinian_reduction``, of all of A_{q+1} (the kernel of a
map with no rows, so F is every coordinate) modulo l1 A_q + l2 A_q, by the
RREF that its regular-sequence certificate runs in each degree anyway:
every kept basis vector is a coordinate vector, so the weights pass on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ribbonsyz.fflinalg import _MOD_BLOCK, PrimeField, check_budget, matmul_mod, rref

__all__ = [
    "GradedError",
    "InconsistentDims",
    "NotASubmodule",
    "Chart",
    "GradedModule",
    "GradedAlgebra",
]


class GradedError(Exception):
    pass


class InconsistentDims(GradedError):
    pass


class NotASubmodule(GradedError):
    """The action leaves a subspace that ``GradedModule.cohomology`` needs it to keep."""


@dataclass(frozen=True)
class Chart:
    """A quotient Z / B of Z = ker d, in the free coordinates of the RREF R of d.

    ``lift`` is R[:, free] on its pivot rows: a v in Z is v[free]
    (``coordinates``), as v[pivots] = -lift v[free].  ``rel`` is the RREF of
    the free coordinates of B, as rows, pivot columns ``rel_pivots``; Z / B
    has the basis e_f, f in ``kept`` (off ``rel_pivots``), and ``classes``
    reads a class by the quotient rule.  ``kernel`` charts Z / 0 by one RREF,
    of d (with no rows, Z is the whole space), ``modulo`` adds B by one more.
    """

    pivots: np.ndarray
    free: np.ndarray
    lift: np.ndarray
    rel: np.ndarray
    rel_pivots: np.ndarray
    kept: np.ndarray

    @classmethod
    def kernel(cls, d, p: int) -> Chart:
        """ker d modulo nothing, from the RREF of d."""
        r, piv = rref(d, p)
        free = np.delete(np.arange(r.shape[1]), piv)
        lift = r[: len(piv), free].astype(np.int64)
        none = np.zeros((0, len(free)), dtype=np.int64)
        return cls(np.array(piv, dtype=np.int64), free, lift, none, np.zeros(0, dtype=np.int64), np.arange(len(free)))

    def modulo(self, coords, p: int) -> Chart:
        """The same kernel modulo the span of the columns of ``coords``, given in free coordinates."""
        r, piv = rref(np.asarray(coords).T, p)
        rel, rel_pivots = r[: len(piv)].astype(np.int64), np.array(piv, dtype=np.int64)
        return replace(self, rel=rel, rel_pivots=rel_pivots, kept=np.delete(np.arange(len(self.free)), piv))

    @property
    def size(self) -> int:
        return len(self.pivots) + len(self.free)

    @property
    def dim(self) -> int:
        """dim Z / B."""
        return len(self.kept)

    def lifted(self, u, p: int) -> np.ndarray:
        """The vectors of Z whose free coordinates are the columns of u."""
        out = np.zeros((self.size, u.shape[1]), dtype=np.int64)
        out[self.free] = u
        out[self.pivots] = -matmul_mod(self.lift, u, p) % p
        return out

    def coordinates(self, y, p: int) -> np.ndarray | None:
        """y[free], the free coordinates of the columns of y, or None if one has y[pivots] != -lift y[free]."""
        u = y[self.free]
        defect = matmul_mod(self.lift, u, p)
        defect += y[self.pivots]
        return None if np.remainder(defect, p, out=defect).any() else u

    def classes(self, u, p: int) -> np.ndarray:
        """The quotient rule: the classes in Z / B of the columns of u, free coordinates, in the basis of ``kept``.

        A class is u[kept] - rel[:, kept]^T u[rel_pivots] (mod p), what is
        left of u once the rows of ``rel``, scaled by its pivot entries, are
        taken off.  With nothing kept ``rel`` is not read.
        """
        out = u[self.kept]
        if len(self.rel_pivots) and len(self.kept):
            out -= matmul_mod(self.rel[:, self.kept].T, u[self.rel_pivots], p)
            out %= p
        return out


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

    def cohomology(self, charts) -> GradedModule:
        """The module of pieces Z_q / B_q (sub_q / rel_q), one ``Chart`` a degree, and its action.

        Each chart lies in w copies of M_q, the copy index slow (row
        c dim M_q + m is coordinate m of copy c, koszul's layout of
        wedge^p V (x) M_q), and V acts on every copy.  The charts are read
        once, in order, so an iterator may build each when it is taken; w
        is read off the first degree of nonzero dimension.  Piece q has its
        chart's basis.  For q >= 1 a basis of Z_{q-1}, the lifts of its kept
        unit vectors and of its ``rel`` rows, goes through one x_k at a time,
        on all copies by one product with the matrix of x_k on M; each image
        must lie in Z_q, and its class is the action on the kept lifts and
        zero on the rest.  Raises InconsistentDims for a chart not of size
        w dim M_q, NotASubmodule when x_k maps sub_{q-1} outside sub_q or
        rel_{q-1} outside rel_q, and MatrixTooLarge, before they are formed,
        for lifts or images over the memory budget.  The grading is trivial.
        """
        count = f"need a chart for each of {len(self.pieces)} degrees"
        charts = iter(charts)
        w, prev = 0, None  # copies of M, the chart of degree q - 1
        dims, action = [], []
        for q, dim in enumerate(self.pieces):
            chart = next(charts, None)
            if chart is None:
                raise InconsistentDims(count)
            if not w and dim:
                w = chart.size // dim
            if chart.size != w * dim:
                raise InconsistentDims(f"the chart of degree {q} needs size {w * dim}, {dim} a copy")
            if q:
                action.append(self._induced(q, w, prev, chart))
            dims.append(chart.dim)
            prev = chart
        if next(charts, None) is not None:
            raise InconsistentDims(count)
        return GradedModule(self.field, self.n, tuple(dims), tuple(action))

    def _induced(self, q: int, w: int, prev: Chart, chart: Chart) -> np.ndarray:
        """``cohomology``'s checked action from degree q - 1 to q, its images freed on return."""
        p, below, dim = self.field.p, self.pieces[q - 1], self.pieces[q]
        c, m = len(prev.kept), len(prev.free)
        check_budget(f"cohomology in degree {q}, lifts of degree {q - 1}", (w * below, m))
        lifts = prev.lifted(np.hstack([np.eye(m, dtype=np.int64)[:, prev.kept], prev.rel.T]), p)
        flat = lifts.reshape(w, below, m).transpose(1, 0, 2).reshape(below, w * m)
        del lifts
        check_budget(f"cohomology in degree {q}, images under x_k", (w * dim, m))
        out = np.empty((self.n, len(chart.kept), c), dtype=np.int64)
        for k in range(self.n):
            image = matmul_mod(self.action[q - 1][k], flat, p)
            image = image.reshape(dim, w, m).transpose(1, 0, 2).reshape(w * dim, m)
            coords = chart.coordinates(image, p)
            if coords is None:
                raise NotASubmodule(f"the action maps sub_{q - 1} outside sub_{q}")
            classes = chart.classes(coords, p)
            del coords  # before the next image is formed
            if np.any(classes[:, c:]):
                raise NotASubmodule(f"the action maps rel_{q - 1} outside rel_{q}")
            out[k] = classes[:, :c]
        return out


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
        A_1, read off one ``Chart`` per degree: all of A_{q+1} modulo
        rel_{q+1} = l1 A_q + l2 A_q, the columns l1 e_i and l2 e_i (e_i the
        basis of A_q), whose RREF has pivot columns P_{q+1}.  B_q is spanned
        by the coordinate vectors off P_q (N_q, the chart's ``kept``), the
        acting space by those of A_1 off P_1, so the two share a basis, and
        x_k maps e_j, j in N_q, to the class of x_k e_j modulo rel_{q+1} by
        the quotient rule; the weights are the kept coordinates' weights.  The
        certificate, checked exactly for every q <= window - 1, is the rank
        condition

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
            chart = Chart.kernel(np.zeros((0, self.pieces[q + 1]), dtype=np.int64), p).modulo(np.hstack(by_l), p)
            if len(chart.rel_pivots) != 2 * self.pieces[q] - (self.pieces[q - 1] if q else 0):
                return None
            kept.append(chart.kept)
            k, m = len(kept[1]), len(kept[q])  # x_k e_j, j in N_q, for every k at once
            img = a[kept[1]][:, :, kept[q]].transpose(1, 0, 2).reshape(self.pieces[q + 1], k * m)
            action.append(chart.classes(img, p).reshape(len(kept[q + 1]), k, m).transpose(1, 0, 2))
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
