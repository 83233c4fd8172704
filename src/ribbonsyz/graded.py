"""Graded algebras and graded modules as finite-dimensional pieces plus matrices.

This is the abstraction boundary between geometry and homological algebra:
``curves`` produces section spaces and multiplication tensors, everything
downstream (Koszul differentials, Betti tables, syzygy modules) consumes
only the data held here -- per-degree dimensions and explicit action
matrices.  Pieces of a module may equally well be cohomology subquotients;
nothing in this module assumes they are section spaces.

Weights.  A module may carry an integer weight for each basis vector of
each piece and of V (the canonical ring S~ = S (+) epsilon J of a split
ribbon puts S at epsilon-weight 0 and epsilon J at weight 1).  They are a
claim, not a fact: ``GradedModule.respects_weights`` is the exact
certificate that every x_k maps weight w of M_q into weight
w + weight(x_k) of M_{q+1}, and only a certified module is split by
weight downstream (``koszul.KoszulCalculator``).  ``as_module``,
``module_restrict_action`` and ``subquotient`` pass the weights on to the
basis columns they keep, and drop them when a kept column is not
homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ribbonsyz.curves import SectionSpace, mult_map
from ribbonsyz.fflinalg import PrimeField, matmul_mod, rank, rref

__all__ = [
    "GradedError",
    "InconsistentDims",
    "NotASubspace",
    "NotASubmodule",
    "GradedModule",
    "GradedAlgebra",
    "algebra_from_sections",
    "module_restrict_action",
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
    ``weights`` (one array per piece) are the optional integer weights of
    the basis vectors, both given or both None.
    """

    field: PrimeField
    n: int
    pieces: tuple[int, ...]
    action: tuple[np.ndarray, ...]
    v_weights: np.ndarray | None = None
    weights: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if len(self.action) != len(self.pieces) - 1:
            raise InconsistentDims("need one action tensor per consecutive degree pair")
        for q, a in enumerate(self.action):
            want = (self.n, self.pieces[q + 1], self.pieces[q])
            if a.shape != want:
                raise InconsistentDims(f"action[{q}] has shape {a.shape}, expected {want}")
        if (self.v_weights is None) != (self.weights is None):
            raise InconsistentDims("give weights for V and for the pieces, or for neither")
        if self.weights is not None:
            vw = np.asarray(self.v_weights, dtype=np.int64)
            ws = tuple(np.asarray(w, dtype=np.int64) for w in self.weights)
            if vw.shape != (self.n,) or tuple(w.shape for w in ws) != tuple((d,) for d in self.pieces):
                raise InconsistentDims("need one weight per basis vector of V and of each piece")
            object.__setattr__(self, "v_weights", vw)
            object.__setattr__(self, "weights", ws)

    @property
    def window(self) -> int:
        return len(self.pieces) - 1

    def respects_weights(self) -> bool:
        """The exact weight certificate: every action tensor vanishes outside its weight blocks.

        True when weights are given and each x_k maps the weight-w basis
        vectors of M_q into the span of the weight w + v_weights[k] ones of
        M_{q+1}, for every q; False otherwise.
        """
        if self.weights is None:
            return False
        for q, a in enumerate(self.action):
            allowed = self.weights[q + 1][None, :, None] == (
                self.v_weights[:, None, None] + self.weights[q][None, None, :]
            )
            if np.any(np.where(allowed, 0, a)):
                return False
        return True

    def check_commutativity(self) -> None:
        """Verify that every pair of basis vectors of V commutes in the action.

        One product per degree: all n**2 products x_k x_l : M_q -> M_{q+2}
        come from a single ``matmul_mod``, compared with their (k, l)
        transpose.  Raises GradedError naming the first failing pair.
        """
        p, n = self.field.p, self.n
        for q in range(self.window - 1):
            d0, d1, d2 = self.pieces[q : q + 3]
            prod = matmul_mod(
                self.action[q + 1].reshape(n * d2, d1),
                self.action[q].transpose(1, 0, 2).reshape(d1, n * d0),
                p,
            ).reshape(n, d2, n, d0)
            bad = np.argwhere((prod != prod.transpose(2, 1, 0, 3)).any(axis=(1, 3)))
            if bad.size:
                k, l = bad[0]
                raise GradedError(
                    f"action does not commute at degree {q} for basis pair ({k},{l})"
                )

    def subquotient(self, sub, rel) -> GradedModule:
        """The subquotient with pieces span(sub[q]) / span(rel[q]) and the induced action.

        ``sub[q]`` and ``rel[q]`` are basis columns of subspaces
        rel_q <= sub_q of M_q.  Piece q is spanned by a complement C_q of
        rel_q in sub_q: the last columns of sub_q that are independent of
        rel_q and of the sub_q columns after them.  One RREF per degree, of

            [rel_q | sub_q, last column first | x_k C_{q-1} | x_k rel_{q-1}],

        picks C_q from its pivots and reads the action on C_{q-1} in
        C_q-coordinates off the same rows.  Raises NotASubmodule when some
        x_k maps sub_{q-1} outside sub_q or rel_{q-1} outside rel_q, and
        NotASubspace when rel_q is dependent or (sub_q being a basis) not
        inside span(sub_q).  Weights pass to the kept columns of sub_q, and
        are dropped when one of them is not homogeneous.
        """
        p, n = self.field.p, self.n
        if len(sub) != len(self.pieces) or len(rel) != len(self.pieces):
            raise InconsistentDims(f"need sub and rel bases for each of {len(self.pieces)} degrees")
        comps, action = [], []
        prev = np.zeros((0, 0), dtype=np.int64)  # [C_{q-1} | rel_{q-1}]
        for q, dim in enumerate(self.pieces):
            s, r = (np.asarray(b[q], dtype=np.int64) % p for b in (sub, rel))
            if s.ndim != 2 or r.ndim != 2 or s.shape[0] != dim or r.shape[0] != dim:
                raise InconsistentDims(f"sub_{q} and rel_{q} need {dim} rows")
            ns, nr, m = s.shape[1], r.shape[1], prev.shape[1]
            images = np.zeros((dim, 0), dtype=np.int64)
            if q:  # x_k applied to the columns of prev, as columns ordered (k, j)
                images = matmul_mod(self.action[q - 1].reshape(n * dim, len(prev)), prev, p)
                images = images.reshape(n, dim, m).transpose(1, 0, 2).reshape(dim, n * m)
            red, pivots = rref(np.hstack([r, s[:, ::-1], images]), p)
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
                action.append(np.ascontiguousarray(coords[:, :, :c].transpose(1, 0, 2)))
            comps.append(s[:, [ns - 1 - t for t in reversed(picked)]])
            prev = np.hstack([comps[-1], r])
        weights = None
        if self.weights is not None:
            weights = tuple(_column_weights(c, w) for c, w in zip(comps, self.weights))
            if any(w is None for w in weights):
                weights = None
        return GradedModule(
            self.field,
            n,
            tuple(cm.shape[1] for cm in comps),
            tuple(action),
            None if weights is None else self.v_weights,
            weights,
        )


class GradedAlgebra:
    """A graded commutative algebra with unit, given by multiplication tensors.

    ``mult[(a, b)]`` (for 1 <= a <= b, a + b <= window) has shape
    (dims[a], dims[b], dims[a+b]).  Degree 0 is one-dimensional with the
    basis vector acting as the unit; multiplication by degree 0 is
    structural and not stored.  ``weights``, when given, holds one integer
    weight per basis vector of each degree; ``as_module`` hands them on.
    """

    def __init__(self, field: PrimeField, dims, mult: dict, validate: bool = True, weights=None):
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or self.dims[0] != 1:
            raise InconsistentDims("dims[0] must be 1 (the unit)")
        self.weights = None
        if weights is not None:
            self.weights = tuple(np.asarray(w, dtype=np.int64) for w in weights)
            if tuple(w.shape for w in self.weights) != tuple((d,) for d in self.dims):
                raise InconsistentDims("need one weight per basis vector of each degree")
        self.mult = {}
        for (a, b), t in mult.items():
            if a > b:
                a, b, t = b, a, np.swapaxes(t, 0, 1)
            want = (self.dims[a], self.dims[b], self.dims[a + b])
            if t.shape != want:
                raise InconsistentDims(f"mult[{(a, b)}] has shape {t.shape}, expected {want}")
            self.mult[(a, b)] = np.asarray(t, dtype=np.int64) % field.p
        if validate:
            self._validate()

    @property
    def window(self) -> int:
        return len(self.dims) - 1

    def tensor(self, a: int, b: int) -> np.ndarray:
        """Multiplication tensor for degrees (a, b), swapping as needed."""
        if a == 0:
            da = self.dims[b]
            return np.eye(da, dtype=np.int64).reshape(1, da, da)
        if b == 0:
            return np.eye(self.dims[a], dtype=np.int64).reshape(self.dims[a], 1, self.dims[a])
        if (a, b) in self.mult:
            return self.mult[(a, b)]
        if (b, a) in self.mult:
            return np.swapaxes(self.mult[(b, a)], 0, 1)
        raise InconsistentDims(f"no multiplication tensor for degrees {(a, b)}")

    def multiply(self, a: int, va, b: int, vb) -> np.ndarray:
        """The product of va in degree a with vb in degree b.

        Each factor is one vector or a stack of k vectors (shape (k, dim));
        stacks multiply row by row, and one vector pairs with every row of
        the other factor's stack.  The row-wise Kronecker products va (x) vb
        go through the flattened tensor in one ``matmul_mod``.  Returns one
        vector when both factors are vectors, else a (k, dims[a + b]) stack.
        """
        p = self.field.p
        t = self.tensor(a, b)
        da, db, dc = t.shape
        xa, xb = (np.asarray(v, dtype=np.int64) % p for v in (va, vb))
        # products of residues stay below 2**62; matmul_mod reduces them
        kron = np.atleast_2d(xa)[:, :, None] * np.atleast_2d(xb)[:, None, :]
        # explicit sizes: da * db or dc may be 0 (an empty top piece)
        out = matmul_mod(kron.reshape(len(kron), da * db), t.reshape(da * db, dc), p)
        return out[0] if xa.ndim == xb.ndim == 1 else out

    def _validate(self) -> None:
        """Check the symmetric tensors and associativity, exactly on seeded random triples.

        For every split (a, b, c) with a + b + c <= window, five seeded
        triples are drawn as stacks and both bracketings are formed with
        two stacked ``multiply`` calls each, so a split costs four
        ``matmul_mod`` calls (16 at window 4).  Raises GradedError.
        """
        p = self.field.p
        rng = np.random.default_rng(0)
        # commutativity where both orders live in the table
        for (a, b), t in self.mult.items():
            if a == b and not np.array_equal(t, np.swapaxes(t, 0, 1)):
                raise GradedError(f"mult[{(a, a)}] is not symmetric")
        for a in range(1, self.window + 1):
            for b in range(1, self.window + 1 - a):
                for c in range(1, self.window + 1 - a - b):
                    va, vb, vc = (rng.integers(0, p, (5, self.dims[d])) for d in (a, b, c))
                    left = self.multiply(a + b, self.multiply(a, va, b, vb), c, vc)
                    right = self.multiply(a, va, b + c, self.multiply(b, vb, c, vc))
                    if not np.array_equal(left, right):
                        raise GradedError(f"associativity fails on degrees ({a},{b},{c})")

    def as_module(self) -> GradedModule:
        """The algebra as a module over itself, acted on by V = degree 1, weights kept."""
        action = []
        for q in range(self.window):
            t = self.tensor(1, q)
            action.append(np.ascontiguousarray(np.swapaxes(t, 1, 2)))
        v_weights = None if self.weights is None else self.weights[1]
        return GradedModule(self.field, self.dims[1], self.dims, tuple(action), v_weights, self.weights)

    def artinian_reduction(self, l1, l2) -> GradedModule | None:
        """The algebra cut by two linear forms, or None if they are not certified.

        Returns B = A / (l1, l2) = ``subquotient(A_q, rel_q)`` of A acted on by
        the complement of <l1, l2> in A_1, where rel_q = l1 A_{q-1} + l2 A_{q-1}
        is spanned by the certificate's RREF rows.  Taking the last columns,
        ``subquotient`` spans B_q by the coordinate vectors off the pivots of
        rel_q; the acting space is spanned by the ones B_1 keeps, so the two
        share a basis.  The certificate, checked exactly for every
        q <= window - 1:

        * multiplication by l1 is injective on A_q;
        * rank [l1 A_q | l2 A_q] = 2 dim A_q - dim A_{q-1}.

        It makes (l1, l2) a regular sequence through the window, and then
        K_{p,q}(A, A_1) = K_{p,q}(B, A_1 / <l1, l2>) for q <= window - 1 (the
        hyperplane-section property of Koszul cohomology).
        """
        p = self.field.p
        n = self.dims[1]
        forms = np.vstack([l1, l2])
        module = self.as_module()
        rel = [np.zeros((1, 0), dtype=np.int64)]
        for q, a in enumerate(module.action):
            # by_l[k] is the matrix of multiplication by l_k on A_q
            by_l = matmul_mod(forms, a.reshape(n, -1), p).reshape(2, *a.shape[1:])
            r, pivots = rref(np.hstack(by_l).T, p)
            below = self.dims[q - 1] if q else 0
            if rank(by_l[0], p) != self.dims[q] or len(pivots) != 2 * self.dims[q] - below:
                return None
            rel.append(r[: len(pivots)].T)
            if q == 0:  # the coordinates of A_1 off the pivots of <l1, l2>
                acting = np.delete(np.eye(n, dtype=np.int64), pivots, axis=1)
        identity = [np.eye(d, dtype=np.int64) for d in self.dims]
        return module_restrict_action(module, acting).subquotient(identity, rel)

    def degree_one_generates(self, k_max: int | None = None) -> bool:
        """Whether multiplication A_1 x A_k -> A_{k+1} surjects for 1 <= k <= k_max."""
        if k_max is None:
            k_max = self.window - 1
        p = self.field.p
        for k in range(1, k_max + 1):
            t = self.tensor(1, k)
            mat = t.reshape(self.dims[1] * self.dims[k], self.dims[k + 1]).T
            if rank(mat, p) < self.dims[k + 1]:
                return False
        return True


def algebra_from_sections(spaces: list[SectionSpace], validate: bool = True) -> GradedAlgebra:
    """Assemble a graded algebra whose degree-q piece is spaces[q].

    The spaces must live on one model and have arithmetically consistent
    tags (tag_a + tag_b = tag_{a+b}), so polynomial multiplication realises
    the ring structure.  The unit law is verified against the model's
    degree-0 space.
    """
    if not spaces:
        raise InconsistentDims("need at least the degree-0 space")
    model = spaces[0].model
    field = model.field
    if spaces[0].dim != 1:
        raise InconsistentDims("degree-0 space must be one-dimensional")
    tags = [s.tag for s in spaces]
    for q, s in enumerate(spaces):
        if s.model is not model:
            raise InconsistentDims("all spaces must live on one model")
        if q and tags[q] != q * tags[1] + tags[0]:
            raise InconsistentDims("tags must grow linearly with the degree")
    window = len(spaces) - 1
    mult = {}
    for a in range(1, window + 1):
        for b in range(a, window + 1 - a):
            mult[(a, b)] = mult_map(spaces[a], spaces[b]).tensor
    # unit law from the actual model multiplication
    for q in range(1, window + 1):
        t = mult_map(spaces[0], spaces[q]).tensor
        if not np.array_equal(t[0], np.eye(spaces[q].dim, dtype=np.int64)):
            raise GradedError(f"degree-0 section does not act as identity on degree {q}")
    dims = [s.dim for s in spaces]
    return GradedAlgebra(field, dims, mult, validate=validate)


def module_restrict_action(module: GradedModule, subspace: np.ndarray) -> GradedModule:
    """Same pieces, action restricted to a subspace of V given by basis columns.

    The weights stay when every basis column is homogeneous in V.
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
    v_weights = None if module.weights is None else _column_weights(b, module.v_weights)
    weights = None if v_weights is None else module.weights
    return GradedModule(module.field, k, module.pieces, action, v_weights, weights)


def _column_weights(basis: np.ndarray, weights: np.ndarray) -> np.ndarray | None:
    """The weight of each basis column, or None when some column is not homogeneous."""
    nonzero = basis != 0
    big = np.iinfo(np.int64).max
    lo = np.where(nonzero, weights[:, None], big).min(axis=0, initial=big)
    hi = np.where(nonzero, weights[:, None], -big).max(axis=0, initial=-big)
    return lo if np.array_equal(lo, hi) else None
