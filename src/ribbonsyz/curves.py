"""Concrete smooth-curve models with explicit section-space bases.

Two families cover everything the ribbon computations need:

* ``PlaneCurve``: a smooth plane curve f(x,y,z) = 0 of degree d, with the
  one-parameter bundle family O_C(q).  Bases are the degree-q monomials not
  divisible by the leading monomial of f.  Its smoothness certificate
  ranks one Macaulay matrix, priced first by the program's one memory
  budget, ``fflinalg.check_budget``.

* ``HyperellipticCurve``: y^2 = h(x) with h squarefree of odd degree
  2g+1, one Weierstrass point at infinity, and the family O(m * Pinf).
  Genus 1 (h cubic) and genus 0 (h linear) are the low degenerations of the
  same model.  Bases are {x^i : 2i <= m} and {x^i y : 2i + 2g+1 <= m},
  ordered by pole order at infinity.

Both models multiply by one rule (``mult_map``): a product of basis
elements is the row at the sum of their exponents in the model's table of
normal forms for the target tag.  All bases are deterministic, so
multiplication tensors and everything derived from them are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ribbonsyz.fflinalg import PrimeField, check_budget, rank

__all__ = [
    "CurveError",
    "NotSmooth",
    "WrongDegree",
    "TargetOverflow",
    "PointNotOnCurve",
    "PointScanTooLarge",
    "PlaneCurve",
    "HyperellipticCurve",
    "SectionSpace",
    "mult_map",
    "product_index",
    "rational_points",
    "evaluation_matrix",
    "random_plane_curve",
    "random_hyperelliptic",
    "random_split_cubic",
]

# Lazy section-space construction needs some cap to honour the bounded
# precomputed-range contract; generous for desk scale.
_PLANE_TAG_MAX = 64
_HYP_TAG_MAX = 1024
# Candidates rational_points may scan: the p^2 + p + 1 normalized triples
# of a plane model, the p x-coordinates of a hyperelliptic one.  Measured
# at 0.5-1.0 us a plane triple (quartics and quintics, p = 1009 and 2003)
# and 0.3-0.7 us a hyperelliptic x (genus 2 to 30, p = 10^5 to 2^21, one
# vectorised pass; 2 vCPUs), so a scan at the budget takes about 1-2 s on
# either model.
_POINT_SCAN_MAX = 1 << 21
# Draws a random model may take before it gives up.
_RANDOM_TRIES = 200


class CurveError(Exception):
    pass


class NotSmooth(CurveError):
    pass


class WrongDegree(CurveError):
    pass


class TargetOverflow(CurveError):
    """A requested bundle tag exceeds the supported range."""


class PointNotOnCurve(CurveError):
    pass


class PointScanTooLarge(CurveError):
    """Enumerating the rational points would scan more candidates than the budget."""


# ---------------------------------------------------------------------------
# plane-curve polynomial plumbing: dicts {(a,b,c): coeff}, x > y > z lex
# ---------------------------------------------------------------------------


def _monomials(q: int) -> list[tuple[int, int, int]]:
    """Degree-q monomials in descending lex order (x > y > z)."""
    if q < 0:
        return []
    out = []
    for a in range(q, -1, -1):
        for b in range(q - a, -1, -1):
            out.append((a, b, q - a - b))
    return out


def _powers(x: np.ndarray, top: int, p: int) -> np.ndarray:
    """(len(x), top + 1) table whose column k is x**k mod p."""
    out = np.ones((x.shape[0], top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        out[:, k] = out[:, k - 1] * x % p
    return out


def _monomial_values(coords: np.ndarray, monos, p: int) -> np.ndarray:
    """(N, len(monos)) values mod p of the exponent tuples, one exponent a column, at the rows of coords."""
    e = np.array(monos, dtype=np.int64).reshape(-1, coords.shape[1])
    out = np.ones((coords.shape[0], e.shape[0]), dtype=np.int64)
    for x, k in zip(coords.T, e.T):
        out = out * _powers(x, int(k.max(initial=0)), p)[:, k] % p
    return out


def _divides(m: tuple, lead: tuple) -> bool:
    return m[0] >= lead[0] and m[1] >= lead[1] and m[2] >= lead[2]


class PlaneCurve:
    """A smooth plane curve of degree d over a prime field.

    The constructor requires a homogeneous f of the stated degree and
    verifies a Nullstellensatz certificate of smoothness: the Jacobian
    ideal I = (f, f_x, f_y, f_z) must contain every form of degree
    D = 3(d-1) - 2 (the Macaulay bound for three variables), which is
    equivalent to the singular locus being empty over the algebraic
    closure.  One Macaulay matrix, at D, decides: I_D' = S_D' for some
    D' <= D puts S_{D-D'} I_D' = S_D inside I_D.  With three nonzero
    partials the matrix is C(2d - 3, 2) + 3 C(2d - 2, 2) by C(3d - 3, 2);
    one over the memory budget (``fflinalg.check_budget``) raises
    MatrixTooLarge before it is built, so every degree up to 32 is
    certified and d = 40 (11935 x 6786) is refused.
    """

    family = "plane"

    def __init__(self, field: PrimeField, coeffs: dict, d: int):
        self.field = field
        p = field.p
        f = {tuple(m): c % p for m, c in coeffs.items() if c % p}
        if not f:
            raise WrongDegree("the zero polynomial does not define a curve")
        if any(len(m) != 3 or min(m) < 0 for m in f):
            raise WrongDegree("monomials must be exponent triples")
        if any(sum(m) != d for m in f):
            raise WrongDegree(f"f is not homogeneous of degree {d}")
        if d < 3:
            raise WrongDegree("need degree >= 3 (positive-genus plane models)")
        self.d = d
        self.coeffs = f
        self.lead = max(f)  # lex-leading monomial
        self._lead_inv = field.inv(f[self.lead])
        self.genus = (d - 1) * (d - 2) // 2
        self._sections: dict[int, SectionSpace] = {}
        self._tables: dict[int, np.ndarray] = {}
        self._mults: dict[tuple[int, int], np.ndarray] = {}
        self._check_smooth()

    # gonality of a smooth plane curve of degree d >= 3 is d - 1
    @property
    def gonality(self) -> int:
        return self.d - 1

    @property
    def canonical_tag(self) -> int:
        return self.d - 3

    def _check_smooth(self) -> None:
        p = self.field.p
        partials = [self.coeffs]
        for axis in range(3):
            g: dict = {}
            for m, c in self.coeffs.items():
                if m[axis]:
                    key = list(m)
                    key[axis] -= 1
                    g[tuple(key)] = (g.get(tuple(key), 0) + m[axis] * c) % p
            partials.append({m: c for m, c in g.items() if c})
        big = 3 * (self.d - 1) - 2
        gens = list(filter(None, partials))
        degrees = [sum(next(iter(g))) for g in gens]
        shape = (sum(math.comb(big - e + 2, 2) for e in degrees), math.comb(big + 2, 2))
        check_budget(f"degree-{self.d} smoothness certificate, Macaulay matrix", shape)
        shifts = [np.array(_monomials(big - e), dtype=np.int64) for e in degrees]
        # one row per generator and shift: the shifted terms, scattered at
        # once; (a, b, c) sits at (big - a)(big - a + 1)/2 + big - a - b of
        # _monomials(big), whose order is descending lex
        macaulay = np.zeros(shape, dtype=np.int64)
        start = 0
        for g, shift in zip(gens, shifts):
            terms = shift[:, None, :] + np.array(list(g), dtype=np.int64)[None]
            top = big - terms[..., 0]
            cols = top * (top + 1) // 2 + top - terms[..., 1]
            rows = np.arange(start, start + len(shift))[:, None]
            macaulay[rows, cols] = np.array(list(g.values()), dtype=np.int64)
            start += len(shift)
        if rank(macaulay, p) != macaulay.shape[1]:
            raise NotSmooth(f"Jacobian ideal certificate failed at degree {big}")

    def sections(self, tag: int) -> "SectionSpace":
        """H^0(C, O_C(tag)) with the monomial quotient basis."""
        if tag > _PLANE_TAG_MAX:
            raise TargetOverflow(f"plane bundle tag {tag} beyond supported range")
        if tag not in self._sections:
            basis = (
                tuple(m for m in _monomials(tag) if not _divides(m, self.lead))
                if tag >= 0
                else ()
            )
            self._sections[tag] = SectionSpace(self, tag, basis)
        return self._sections[tag]

    def h0(self, tag: int) -> int:
        return self.sections(tag).dim if tag >= 0 else 0

    def _product_table(self, tag: int) -> np.ndarray:
        """Normal form mod f of every degree-``tag`` monomial x^a y^b z^c, at row [a, b].

        In ascending lex order, a monomial off the lead is its own basis
        vector, and lead * s is -lead_inv * sum c_t (t * s) over the other
        terms c_t t of f, each t * s lex-smaller, so its row is already there.
        """
        p = self.field.p
        basis = self.sections(tag).basis
        shape = (max(tag + 1, 0),) * 2 + (len(basis),)
        check_budget(f"degree-{tag} product table of the plane model", shape)
        table = np.zeros(shape, dtype=np.int64)
        for col, (a, b, _) in enumerate(basis):
            table[a, b, col] = 1
        rest = {m: c for m, c in self.coeffs.items() if m != self.lead}
        terms = np.array(list(rest))
        scale = np.array(list(rest.values()))[:, None] * (p - self._lead_inv) % p  # -c_t / c_lead
        la, lb, lc = self.lead
        for a in range(la, tag - lb - lc + 1):
            for b in range(lb, tag - a - lc + 1):
                rows = table[terms[:, 0] + a - la, terms[:, 1] + b - lb]
                table[a, b] = (scale * rows % p).sum(axis=0) % p
        return table

    def _on_curve_rows(self, xyz: np.ndarray) -> np.ndarray:
        """Whether each row of an (N, 3) array with entries in [0, p) is a point of the curve."""
        p = self.field.p
        terms = _monomial_values(xyz, list(self.coeffs), p) * list(self.coeffs.values()) % p
        return xyz.any(axis=1) & (terms.sum(axis=1) % p == 0)

    def __repr__(self) -> str:
        return f"PlaneCurve(d={self.d}, g={self.genus}, p={self.field.p})"


# ---------------------------------------------------------------------------
# hyperelliptic model, y^2 = h(x); univariate coefficient lists, ascending
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_deriv(a: list[int], p: int) -> list[int]:
    return _poly_trim([(i * c) % p for i, c in enumerate(a)][1:])


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    r = _poly_trim([c % p for c in a])
    inv = pow(b[-1], -1, p)
    while r and len(r) >= len(b):
        f = (r[-1] * inv) % p
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[i + shift] = (r[i + shift] - f * c) % p
        r = _poly_trim(r)
    return r


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim([c % p for c in a])
    b = _poly_trim([c % p for c in b])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _check_genus(g: int) -> None:
    """Refuse a genus whose canonical tag 2g - 2 is past ``_HYP_TAG_MAX``: no section space of it exists."""
    if 2 * g - 2 > _HYP_TAG_MAX:
        raise CurveError(f"hyperelliptic genus {g} beyond supported range: canonical tag {2 * g - 2} > {_HYP_TAG_MAX}")


class HyperellipticCurve:
    """y^2 = h(x) with h monic squarefree of odd degree 2g+1.

    One point at infinity, which is a Weierstrass point; x has pole order 2
    and y pole order 2g+1 there.  Genus 1 and genus 0 arise from cubic and
    linear h.  Characteristic 2 is rejected.
    """

    family = "hyperelliptic"

    def __init__(self, field: PrimeField, h: list[int]):
        if field.p == 2:
            raise CurveError("hyperelliptic models need odd characteristic")
        self.field = field
        p = field.p
        h = _poly_trim([c % p for c in h])
        if not h or (len(h) - 1) % 2 == 0:
            raise WrongDegree("h must have odd degree 2g+1")
        if h[-1] != 1:
            raise WrongDegree("h must be monic (normal form for determinism)")
        self.g = (len(h) - 2) // 2
        _check_genus(self.g)  # before the gcd, which is quadratic in deg h
        if len(_poly_gcd(h, _poly_deriv(h, p), p)) > 1:
            raise NotSmooth("h is not squarefree")
        self.h = h
        self.genus = self.g
        self._sections: dict[int, SectionSpace] = {}
        self._tables: dict[int, np.ndarray] = {}
        self._mults: dict[tuple[int, int], np.ndarray] = {}

    @property
    def gonality(self) -> int:
        return 2 if self.g >= 1 else 1

    @property
    def canonical_tag(self) -> int:
        return 2 * self.g - 2

    def sections(self, tag: int) -> "SectionSpace":
        """The Riemann-Roch space L(tag * Pinf).

        Basis tokens are (i, 0) for x^i and (i, 1) for x^i y, sorted by pole
        order at infinity (2i, respectively 2i + 2g+1; all distinct).
        """
        if tag > _HYP_TAG_MAX:
            raise TargetOverflow(f"hyperelliptic bundle tag {tag} beyond supported range")
        if tag not in self._sections:
            toks = []
            if tag >= 0:
                toks += [(i, 0) for i in range(tag // 2 + 1)]
                toks += [(i, 1) for i in range((tag - 2 * self.g - 1) // 2 + 1)]
            toks.sort(key=self._pole_order)
            self._sections[tag] = SectionSpace(self, tag, tuple(toks))
        return self._sections[tag]

    def h0(self, tag: int) -> int:
        return self.sections(tag).dim if tag >= 0 else 0

    def _pole_order(self, tok) -> int:
        i, has_y = tok
        return 2 * i + (2 * self.g + 1) * has_y

    def _product_table(self, tag: int) -> np.ndarray:
        """Normal form of every product x^i y^a (a <= 2) in L(tag * Pinf), at row [i, a].

        x^i y^a with a <= 1 is its own basis vector, and x^i y^2 = x^i h(x)
        is h shifted by i: the sum of h_k times the unit rows of x^(i + k).
        """
        basis = self.sections(tag).basis
        shape = (max(tag // 2 + 1, 0), 3, len(basis))
        check_budget(f"tag-{tag} product table of the hyperelliptic model", shape)
        table = np.zeros(shape, dtype=np.int64)
        i, a = np.array(basis, dtype=np.int64).reshape(-1, 2).T
        table[i, a, np.arange(len(basis))] = 1
        n = max(tag // 2 - len(self.h) + 2, 0)  # x^i y^2 has pole order 2i + 2 deg h
        table[:n, 2] = np.matmul(self.h, table[np.arange(n)[:, None] + np.arange(len(self.h)), 0])
        return table

    def _h_values(self, x: np.ndarray) -> np.ndarray:
        """h(x) mod p for each entry of x in [0, p), by one vectorised Horner loop."""
        p = self.field.p
        out = np.zeros(x.shape[0], dtype=np.int64)
        for c in reversed(self.h):
            out = (out * x + c) % p
        return out

    def _on_curve_rows(self, xy: np.ndarray) -> np.ndarray:
        """Whether each row of an (N, 2) array of affine points in [0, p) is a point of the curve."""
        return xy[:, 1] * xy[:, 1] % self.field.p == self._h_values(xy[:, 0])

    def __repr__(self) -> str:
        return f"HyperellipticCurve(g={self.g}, p={self.field.p})"


# ---------------------------------------------------------------------------
# section spaces and multiplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionSpace:
    """A basis of H^0 of one bundle in the model's one-parameter family."""

    model: object
    tag: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def field(self) -> PrimeField:
        return self.model.field

    def __repr__(self) -> str:
        return f"SectionSpace({self.model.family}, tag={self.tag}, dim={self.dim})"


def mult_map(sa: SectionSpace, sb: SectionSpace) -> np.ndarray:
    """The multiplication H^0(A) x H^0(B) -> H^0(A tensor B) in the action layout.

    A read-only array of shape (dim A, dim target, dim B), cached on the
    model: entry [i, :, j] is the coordinate vector of
    basis_A[i] * basis_B[j] in the basis of ``sections(tag_A + tag_B)``, so
    ``mult_map(sa, sb)[i]`` is the matrix of multiplication by basis_A[i].

    The tensor is one gather from the target tag's product table
    (``product_index``).
    """
    if sa.model is not sb.model:
        raise CurveError("section spaces live on different models")
    model = sa.model
    key = (sa.tag, sb.tag)
    cached = model._mults.get(key)
    if cached is None:
        table, at = product_index(sa, sb)
        cached = np.ascontiguousarray(table[at].transpose(0, 2, 1))
        cached.setflags(write=False)
        model._mults[key] = cached
    return cached


def product_index(sa: SectionSpace, sb: SectionSpace) -> tuple:
    """(table, at): the product table of tag_A + tag_B and where each product lies in it.

    ``table[at]`` has shape (dim A, dim B, dim target), and entry [i, j] is
    the coordinate vector of basis_A[i] * basis_B[j] in the basis of
    ``sections(tag_A + tag_B)``.  Basis keys are exponents, (a, b, c) of
    x^a y^b z^c or (i, a) of x^i y^a, so a product is the monomial at the
    sum of two keys, and ``at`` indexes the table, one per target tag and
    cached on the model (``_product_table``), by the sum's leading
    exponents.  A functional e on the target pairs the two spaces as
    ``(table @ e)[at]`` mod p, the matrix e(s_i t_j), without the tensor.
    """
    if sa.model is not sb.model:
        raise CurveError("section spaces live on different models")
    model = sa.model
    tag = sa.tag + sb.tag
    table = model._tables.get(tag)
    if table is None:
        table = model._tables[tag] = model._product_table(tag)
    n = table.ndim - 1
    ka, kb = (np.array([k[:n] for k in s.basis], dtype=np.int64).reshape(s.dim, n) for s in (sa, sb))
    return table, tuple(ka[:, None, c] + kb[None, :, c] for c in range(n))


# ---------------------------------------------------------------------------
# rational points and evaluation
# ---------------------------------------------------------------------------


def _plane_charts(p: int):
    """The normalized triples [1:y:z], [0:1:z] and [0:0:1], one chart line at a time."""
    zs = np.arange(p, dtype=np.int64)
    for y in range(p):
        yield np.column_stack([np.ones_like(zs), np.full_like(zs, y), zs])
    yield np.column_stack([np.zeros_like(zs), np.ones_like(zs), zs])
    yield np.array([[0, 0, 1]], dtype=np.int64)


def rational_points(model) -> list:
    """Distinct F_p-rational points of the model, in a deterministic order.

    Plane curves: normalized homogeneous triples, charts [1:y:z], [0:1:z],
    [0:0:1] in that order.  Hyperelliptic: the point at infinity first,
    then affine (x, y) sorted by x then y.  Raises PointScanTooLarge,
    before scanning anything, when the full scan has more than
    ``_POINT_SCAN_MAX`` candidates.
    """
    p = model.field.p
    candidates = p * p + p + 1 if isinstance(model, PlaneCurve) else p
    if candidates > _POINT_SCAN_MAX:
        raise PointScanTooLarge(
            f"rational points: {candidates} candidate points over F_{p}, more than the scan budget of {_POINT_SCAN_MAX}"
        )
    pts: list = []
    if isinstance(model, PlaneCurve):
        for line in _plane_charts(p):
            pts += [tuple(map(int, row)) for row in line[model._on_curve_rows(line)]]
    else:
        pts.append("inf")
        # root[s] is the square root r <= (p - 1) / 2 of s, -1 off the squares;
        # the other root of a nonzero s is p - r > r
        ys = np.arange((p + 1) // 2, dtype=np.int64)
        root = np.full(p, -1, dtype=np.int64)
        root[ys * ys % p] = ys
        r = root[model._h_values(np.arange(p, dtype=np.int64))]
        for x, y in zip(np.flatnonzero(r >= 0).tolist(), r[r >= 0].tolist()):
            pts += [(x, y), (x, p - y)] if y else [(x, 0)]
    return pts


def evaluation_matrix(space: SectionSpace, points) -> np.ndarray:
    """Rows are the evaluation vectors of the given points, in one vectorised pass.

    Each row is well-defined up to scale.  A point given by coordinates,
    homogeneous on a plane curve or affine (x, y) on a hyperelliptic one,
    takes the basis keys as exponents.  At infinity the local
    trivialization by t^{-tag} sends the (unique, by parity) basis element
    of pole order exactly ``tag`` to 1 and all others to 0.  Raises
    PointNotOnCurve, naming the first offending point, before anything is
    evaluated.
    """
    model = space.model
    p = model.field.p
    points = list(points)
    plane = isinstance(model, PlaneCurve)
    # the points given by coordinates: all of them on a plane curve
    listed = [i for i, pt in enumerate(points) if plane or pt != "inf"]
    coords = np.array([points[i] for i in listed], dtype=np.int64).reshape(-1, 3 if plane else 2) % p
    on = model._on_curve_rows(coords)
    if not on.all():
        raise PointNotOnCurve(f"{points[listed[int(np.argmin(on))]]} does not lie on {model}")
    out = np.zeros((len(points), space.dim), dtype=np.int64)
    out[listed] = _monomial_values(coords, space.basis, p)
    if len(listed) < len(points):
        out[[i for i, pt in enumerate(points) if pt == "inf"]] = [
            1 if model._pole_order(tok) == space.tag else 0 for tok in space.basis
        ]
    return out


# ---------------------------------------------------------------------------
# seeded random models
# ---------------------------------------------------------------------------


def random_plane_curve(field: PrimeField, d: int, rng) -> PlaneCurve:
    """Random smooth plane curve of degree d: retry until the certificate passes.

    f's own rows of the certificate's Macaulay matrix, C(2d - 3, 2) of its
    C(3d - 3, 2) columns, are priced before any coefficient is drawn.
    """
    if d < 3:
        raise WrongDegree("need degree >= 3 (positive-genus plane models)")
    where = f"degree-{d} smoothness certificate, f's rows alone of its Macaulay matrix"
    check_budget(where, (math.comb(2 * d - 3, 2), math.comb(3 * d - 3, 2)))
    monos = _monomials(d)
    for _ in range(_RANDOM_TRIES):
        coeffs = {m: int(c) for m, c in zip(monos, rng.integers(0, field.p, len(monos)))}
        try:
            return PlaneCurve(field, coeffs, d)
        except (NotSmooth, WrongDegree):
            continue
    raise NotSmooth(f"no smooth degree-{d} curve found in {_RANDOM_TRIES} tries")


def random_hyperelliptic(field: PrimeField, g: int, rng) -> HyperellipticCurve:
    """Random monic squarefree h of degree 2g+1, for a genus in range: retry until squarefree."""
    if g < 0:
        raise WrongDegree(f"genus must be >= 0, got {g}")
    _check_genus(g)
    for _ in range(_RANDOM_TRIES):
        h = [int(c) for c in rng.integers(0, field.p, 2 * g + 1)] + [1]
        try:
            return HyperellipticCurve(field, h)
        except NotSmooth:
            continue
    raise NotSmooth(f"no squarefree degree-{2 * g + 1} polynomial found")


def random_split_cubic(field: PrimeField, rng) -> HyperellipticCurve:
    """Genus-1 model y^2 = (x-r1)(x-r2)(x-r3) with distinct rational roots.

    Full rational 2-torsion makes every point of 2E(F_p) have all four
    halvings rational, which the W_4 witness enumeration wants.
    """
    p = field.p
    if p < 3:
        raise CurveError("a split cubic needs three distinct roots in odd characteristic (p >= 3)")
    roots = sorted(int(r) for r in rng.choice(p, size=3, replace=False))
    h = [1]
    for r in roots:
        h = _poly_mul(h, [(-r) % p, 1], p)
    return HyperellipticCurve(field, h)
