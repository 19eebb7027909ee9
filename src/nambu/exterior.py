"""Exterior algebra of multivector fields and differential forms.

Both kinds of tensor are stored sparsely: a map from strictly increasing
tuples of coordinate positions to polynomial coefficients. Insertion
normalizes index order with the usual permutation sign, so wedge products
and interior products stay canonical by construction.

Canonical text forms:

    @x^@y^@z * (x^2 - 1)        multivector term
    d x ^ d y * (3/2*x)         differential form term

Sign conventions are pinned by two identities that the test suite checks:
the interior product of a one-form follows

    i_a (X1 ^ ... ^ Xk) = sum_j (-1)^(j+1) a(Xj) X1 ^ ... (omit j) ... ^ Xk

and evaluation of a k-vector on k one-forms is the determinant pairing
det[a_i(X_j)], which equals the grade-0 result of applying the interior
product k times, innermost factor first.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence, Union

from .ratpoly import Chart, Poly, Rat, Scalar, lift_poly

MultiIndex = tuple[int, ...]


def sort_with_sign(indices: Sequence[int]) -> Optional[tuple[int, MultiIndex]]:
    """Sort index tuple, counting transpositions. None when an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None
    return sign, tuple(idx)


class GradedTensor:
    """Shared machinery for multivectors and forms."""

    __slots__ = ("chart", "grade", "comps")

    kind = "tensor"

    def __init__(
        self, chart: Chart, grade: int, comps: Mapping[MultiIndex, Poly]
    ) -> None:
        # Grades above chart.dim are allowed but can only hold the zero
        # tensor: strictly increasing index tuples cannot be that long.
        if grade < 0:
            raise ValueError(f"grade {grade} out of range for chart {chart.label}")
        clean: dict[MultiIndex, Poly] = {}
        for idx, p in comps.items():
            idx = tuple(idx)
            if len(idx) != grade:
                raise ValueError(f"index {idx} has wrong length for grade {grade}")
            if any(i < 0 or i >= chart.dim for i in idx):
                raise ValueError(f"index {idx} out of chart range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            if p.chart != chart:
                raise ValueError("component polynomial on the wrong chart")
            if not p.is_zero:
                clean[idx] = p
        self.chart = chart
        self.grade = grade
        self.comps = clean

    @property
    def is_zero(self) -> bool:
        return not self.comps

    @classmethod
    def zero(cls, chart: Chart, grade: int):
        return cls(chart, grade, {})

    @classmethod
    def from_poly(cls, p: Poly):
        """A grade-0 tensor holding one polynomial."""
        return cls(p.chart, 0, {(): p})

    def _new(self, grade: int, comps: dict[MultiIndex, Poly]):
        return type(self)(self.chart, grade, comps)

    def _require_compatible(self, other: "GradedTensor") -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {self.kind} with {other.kind}")
        if self.chart != other.chart:
            raise ValueError("chart mismatch")

    def __add__(self, other):
        self._require_compatible(other)
        if self.grade != other.grade:
            raise ValueError("grade mismatch in sum")
        acc = dict(self.comps)
        for idx, p in other.comps.items():
            q = acc.get(idx)
            acc[idx] = p if q is None else q + p
        return self._new(self.grade, acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Union[Poly, Scalar]):
        if isinstance(c, Poly):
            if c.chart != self.chart:
                raise ValueError("scalar polynomial on the wrong chart")
            return self._new(self.grade, {i: c * p for i, p in self.comps.items()})
        return self._new(self.grade, {i: p.scale(c) for i, p in self.comps.items()})

    def __mul__(self, c):
        if isinstance(c, (Poly, int, Rat)):
            return self.scale(c)
        return NotImplemented

    def __rmul__(self, c):
        if isinstance(c, (Poly, int, Rat)):
            return self.scale(c)
        return NotImplemented

    def wedge(self, other):
        """Graded-commutative exterior product with shuffle signs."""
        self._require_compatible(other)
        acc: dict[MultiIndex, Poly] = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                sorted_ = sort_with_sign(i1 + i2)
                if sorted_ is None:
                    continue
                sign, idx = sorted_
                term = (p1 * p2).scale(sign)
                q = acc.get(idx)
                acc[idx] = term if q is None else q + term
        return self._new(self.grade + other.grade, acc)

    def component(self, idx: Sequence[int]) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.chart))

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.grade == other.grade
            and self.comps == other.comps
        )

    def __hash__(self) -> int:
        return hash(
            (type(self).__name__, self.chart.coords, frozenset(self.comps.items()))
        )

    def _atom(self, position: int) -> str:
        raise NotImplementedError

    def canonical_str(self) -> str:
        if not self.comps:
            return "0"
        if self.grade == 0:
            return f"({self.comps[()].canonical_str()})"
        parts = []
        for idx in sorted(self.comps):
            atoms = "^".join(self._atom(i) for i in idx)
            parts.append(f"{atoms} * ({self.comps[idx].canonical_str()})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical_str()})"


class MultiVec(GradedTensor):
    """A multivector field: wedge combination of coordinate vector fields."""

    kind = "multivector"

    def _atom(self, position: int) -> str:
        return "@" + self.chart.coords[position]

    @staticmethod
    def coordinate_field(chart: Chart, coord: str) -> "MultiVec":
        return MultiVec(chart, 1, {(chart.index(coord),): Poly.one(chart)})

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative along a vector field (grade 1 only)."""
        if self.grade != 1:
            raise ValueError("apply_to needs a grade-1 field")
        if f.chart != self.chart:
            raise ValueError("chart mismatch")
        acc = Poly.zero(self.chart)
        for (i,), c in self.comps.items():
            acc = acc + c * f.partial(i)
        return acc


class Form(GradedTensor):
    """A differential form: wedge combination of coordinate differentials."""

    kind = "form"

    def _atom(self, position: int) -> str:
        return "d " + self.chart.coords[position]

    @staticmethod
    def coordinate_differential(chart: Chart, coord: str) -> "Form":
        return Form(chart, 1, {(chart.index(coord),): Poly.one(chart)})

def wedge_all(factors: Sequence[GradedTensor]) -> GradedTensor:
    if not factors:
        raise ValueError("need at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = acc.wedge(f)
    return acc


def pairing(alpha: Form, x: MultiVec) -> Poly:
    """<alpha, X> for a one-form and a vector field."""
    if alpha.grade != 1 or x.grade != 1:
        raise ValueError("pairing takes a one-form and a vector field")
    if alpha.chart != x.chart:
        raise ValueError("chart mismatch")
    acc = Poly.zero(alpha.chart)
    for (i,), c in alpha.comps.items():
        v = x.comps.get((i,))
        if v is not None:
            acc = acc + c * v
    return acc


def _contract(comps: dict, coeff_of, grade: int, chart: Chart) -> dict:
    acc: dict[MultiIndex, Poly] = {}
    for idx, p in comps.items():
        for j, pos in enumerate(idx):
            c = coeff_of(pos)
            if c is None:
                continue
            key = idx[:j] + idx[j + 1 :]
            term = (c * p) if j % 2 == 0 else -(c * p)
            q = acc.get(key)
            acc[key] = term if q is None else q + term
    return acc


def interior_one_form(alpha: Form, p: MultiVec) -> MultiVec:
    """i_alpha P for a one-form alpha, lowering the grade of P by one."""
    if alpha.grade != 1:
        raise ValueError("interior product here takes a one-form")
    if alpha.chart != p.chart:
        raise ValueError("chart mismatch")
    if p.grade == 0:
        raise ValueError("cannot contract a grade-0 multivector")
    acc = _contract(p.comps, lambda pos: alpha.comps.get((pos,)), p.grade, p.chart)
    return MultiVec(p.chart, p.grade - 1, acc)


def interior_product(p: MultiVec, alphas: Sequence[Form]) -> MultiVec:
    """i_(a1 ^ ... ^ ar) P, applying a1 first (innermost)."""
    out = p
    for a in alphas:
        out = interior_one_form(a, out)
    return out


def vector_interior(x: MultiVec, omega: Form) -> Form:
    """i_X omega for a vector field X, lowering the form degree by one."""
    if x.grade != 1:
        raise ValueError("vector interior product takes a grade-1 field")
    if x.chart != omega.chart:
        raise ValueError("chart mismatch")
    if omega.grade == 0:
        raise ValueError("cannot contract a 0-form")
    acc = _contract(omega.comps, lambda pos: x.comps.get((pos,)), omega.grade, omega.chart)
    return Form(omega.chart, omega.grade - 1, acc)


def poly_det(rows: list[list[Poly]], chart: Chart) -> Poly:
    """Determinant of a small square polynomial matrix, by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Poly.one(chart)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero(chart)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sub = poly_det(minor, chart)
        if sub.is_zero:
            continue
        term = entry * sub
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def evaluate(p: MultiVec, alphas: Sequence[Form]) -> Poly:
    """Evaluate a k-vector on k one-forms: sum_I P^I det[alpha_i(dx_(I_j))].

    Skew-symmetric and C-multilinear in the one-form slots; agrees with the
    grade-0 result of k iterated interior products (tested).
    """
    if len(alphas) != p.grade:
        raise ValueError(f"grade-{p.grade} multivector takes {p.grade} one-forms")
    for a in alphas:
        if a.grade != 1:
            raise ValueError("evaluate takes one-forms")
        if a.chart != p.chart:
            raise ValueError("chart mismatch")
    zero = Poly.zero(p.chart)
    acc = zero
    for idx, coeff in p.comps.items():
        rows = [[a.comps.get((pos,), zero) for pos in idx] for a in alphas]
        d = poly_det(rows, p.chart)
        if not d.is_zero:
            acc = acc + coeff * d
    return acc


def basis_index_tuples(chart: Chart, k: int) -> Iterator[MultiIndex]:
    from itertools import combinations

    return combinations(range(chart.dim), k)


def lift_tensor(t: GradedTensor, big: Chart, positions: Sequence[int]):
    """Reinterpret a tensor on a larger chart via a coordinate position map."""
    acc: dict[MultiIndex, Poly] = {}
    for idx, p in t.comps.items():
        mapped = sort_with_sign(tuple(positions[i] for i in idx))
        if mapped is None:
            raise ValueError("position map is not injective")
        sign, key = mapped
        term = lift_poly(p, big, positions).scale(sign)
        q = acc.get(key)
        acc[key] = term if q is None else q + term
    return type(t)(big, t.grade, acc)
