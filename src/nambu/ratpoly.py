"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are exact rationals: a stored coefficient is an `int` when it
is integral and a reduced `fractions.Fraction` (aliased as `Rat`) otherwise,
so integer arithmetic, the common case, never pays for fractions. Every
operation in the package is exact: no floats, no rounding, no tolerances.
Polynomials live on a `Chart`, an ordered list of coordinate names, and are
stored sparsely as a map from packed monomials to nonzero coefficients.

A packed monomial is one int that holds a whole exponent vector: the
exponent of coordinate i sits in the 32-bit field at bits [32i, 32i + 32).
Every stored exponent is at most MAX_EXPONENT = 2**31 - 1, so the top bit
of each field, its guard bit, is clear, and the sum of two exponents never
carries into the next field. Multiplying two monomials is then one integer
addition and a partial derivative one subtraction of 1 << 32i. A product
whose key has a guard bit set has an exponent above the bound and raises
ValueError. The layout is fixed little-endian, whatever the host's byte
order.

A product of two polynomials writes each operand as integer numerators
over one common denominator (the lcm of its coefficient denominators, 1
for an integer polynomial), adds keys and multiplies integers only, and
divides once per result term.

The canonical text form orders terms by graded lexicographic order (total
degree first, then exponent vector), highest term first:

    3/2*x^2*y - 1
"""

from __future__ import annotations

import re
import struct
from collections.abc import ItemsView, MutableMapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import lcm
from operator import attrgetter, or_
from typing import Iterator, Mapping, Sequence, Union

Rat = Fraction
Exponents = tuple[int, ...]
Scalar = Union[Rat, int]

MAX_EXPONENT = 2**31 - 1
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_TOO_HIGH = f"exponent above {MAX_EXPONENT}"
_denominator = attrgetter("denominator")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*\Z")


def is_identifier(name: str) -> bool:
    return bool(_IDENT.match(name))


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system.

    Identity is structural: two charts are equal when they list the same
    coordinate names in the same order. The display name is a label only.
    A chart also fixes the packed-monomial layout of its polynomials: one
    little-endian 32-bit field per coordinate, and the mask of their guard
    bits.
    """

    coords: tuple[str, ...]
    name: str = field(default="", compare=False)
    _layout: struct.Struct = field(init=False, repr=False, compare=False)
    _guard: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        seen = set()
        for c in self.coords:
            if not is_identifier(c):
                raise ValueError(f"bad coordinate identifier {c!r}")
            if c in seen:
                raise ValueError(f"repeated coordinate {c!r}")
            seen.add(c)
        dim = len(self.coords)
        object.__setattr__(self, "_layout", struct.Struct(f"<{dim}I"))
        object.__setattr__(
            self, "_guard", sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(dim))
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise KeyError(f"{coord!r} is not a coordinate of chart {self.label}") from None

    @property
    def label(self) -> str:
        return self.name or "(" + ", ".join(self.coords) + ")"

    def _pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent vector, checked against this chart and the bound."""
        try:
            key = int.from_bytes(self._layout.pack(*exps), "little")
            if not key & self._guard:
                return key
        except struct.error:
            pass
        # wrong length, a negative or non-integer exponent, or one above the bound
        if len(exps) != self.dim or any(not isinstance(e, int) or e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for chart of dim {self.dim}")
        raise ValueError(_TOO_HIGH)

    def _unpack(self, key: int) -> Exponents:
        return self._layout.unpack(key.to_bytes(self._layout.size, "little"))

    def __repr__(self) -> str:
        return f"Chart({self.label})"


def chart(names: str, label: str = "") -> Chart:
    """Convenience builder: chart("x y z") or chart("x,y,z")."""
    parts = [p for p in re.split(r"[,\s]+", names.strip()) if p]
    return Chart(tuple(parts), label)


def _prime_until_fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    return name


def concat_charts(*charts: Chart, name: str = "") -> tuple[Chart, list[tuple[int, ...]]]:
    """Concatenate charts into one, priming repeated names.

    Returns the combined chart and, for each input chart, the tuple of
    positions its coordinates occupy in the result.
    """
    coords: list[str] = []
    taken: set[str] = set()
    blocks: list[tuple[int, ...]] = []
    for ch in charts:
        block = []
        for c in ch.coords:
            fresh = _prime_until_fresh(c, taken)
            taken.add(fresh)
            block.append(len(coords))
            coords.append(fresh)
        blocks.append(tuple(block))
    return Chart(tuple(coords), name), blocks


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _coeff(c: Scalar) -> Scalar:
    """The stored form of a coefficient: an int when integral, else a reduced Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _from_packed(chart: Chart, terms: dict[int, Scalar]) -> "Poly":
    """A Poly over already packed keys and stored coefficients, unchecked."""
    out = Poly.__new__(Poly)
    out.chart = chart
    out._terms = terms
    return out


def _over(terms: dict[int, Scalar], den: int) -> list[tuple[int, int]]:
    """(key, integer numerator) pairs of `terms` over the common denominator `den`."""
    return [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()]


class _TermsView(MutableMapping):
    """A Poly's terms keyed by exponent tuples.

    Keys are unpacked as they are read; `len` and `values` read the packed
    map directly. A write goes to the polynomial, in stored form.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: "Poly") -> None:
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __iter__(self) -> Iterator[Exponents]:
        return map(self._poly.chart._unpack, self._poly._terms)

    def __getitem__(self, exps: Exponents) -> Scalar:
        try:
            key = self._poly.chart._pack(exps)
        except (TypeError, ValueError):
            raise KeyError(exps) from None
        return self._poly._terms[key]

    def __setitem__(self, exps: Exponents, coeff: Scalar) -> None:
        key = self._poly.chart._pack(exps)
        c = _coeff(coeff)
        if c:
            self._poly._terms[key] = c
        else:
            self._poly._terms.pop(key, None)

    def __delitem__(self, exps: Exponents) -> None:
        del self._poly._terms[self._poly.chart._pack(exps)]

    def values(self) -> ValuesView[Scalar]:
        return self._poly._terms.values()

    def items(self) -> "_TermsItems":
        return _TermsItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _TermsItems(ItemsView):
    """The items of a `_TermsView`, unpacked one at a time."""

    def __iter__(self) -> Iterator[tuple[Exponents, Scalar]]:
        return self._mapping._poly._unpacked()


class Poly:
    """A polynomial with exact rational coefficients on a fixed chart.

    The terms live in a private dict from packed monomials (one int per
    exponent vector, see the module docstring) to nonzero coefficients,
    each an `int` when integral and a `Fraction` with denominator > 1
    otherwise. Since `Fraction(3) == 3` and both hash alike, equality,
    hashing and the canonical text do not depend on that choice.

    `Poly(chart, {exponent tuple: coefficient})` validates and packs its
    input; an exponent above MAX_EXPONENT is a ValueError. `terms` gives the
    same map keyed by exponent tuples, for code outside the kernel; the
    kernel itself never goes through it.
    """

    __slots__ = ("chart", "_terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponents, Scalar]) -> None:
        clean: dict[int, Scalar] = {}
        for exps, coeff in terms.items():
            key = chart._pack(exps)
            c = _coeff(coeff)
            if c:
                clean[key] = c
        self.chart = chart
        self._terms = clean

    @property
    def terms(self) -> "_TermsView":
        """The terms keyed by exponent tuples, as a view of this polynomial."""
        return _TermsView(self)

    def _unpacked(self) -> Iterator[tuple[Exponents, Scalar]]:
        unpack = self.chart._unpack
        return ((unpack(k), c) for k, c in self._terms.items())

    # construction helpers

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return _from_packed(chart, {})

    @staticmethod
    def constant(chart: Chart, value: Scalar) -> "Poly":
        c = _coeff(value)
        return _from_packed(chart, {0: c} if c else {})

    @staticmethod
    def one(chart: Chart) -> "Poly":
        return _from_packed(chart, {0: 1})

    @staticmethod
    def coordinate(chart: Chart, coord: str) -> "Poly":
        return _from_packed(chart, {1 << (_FIELD_BITS * chart.index(coord)): 1})

    @staticmethod
    def monomial(chart: Chart, exps: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return Poly(chart, {tuple(exps): coeff})

    # structure

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self._terms:
            return -1
        unpack = self.chart._unpack
        return max(sum(unpack(k)) for k in self._terms)

    def mentions(self, coord: str) -> bool:
        mask = _FIELD_MASK << (_FIELD_BITS * self.chart.index(coord))
        return any(k & mask for k in self._terms)

    def support_indices(self) -> set[int]:
        """Indices of coordinates that actually occur."""
        used = self.chart._unpack(reduce(or_, self._terms, 0))
        return {i for i, e in enumerate(used) if e}

    def _require_same_chart(self, other: "Poly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ValueError(
                f"chart mismatch: {self.chart.label} vs {other.chart.label}"
            )

    # arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_chart(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                acc.pop(k, None)
        return _from_packed(self.chart, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _from_packed(self.chart, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._require_same_chart(other)
        t1, t2 = self._terms, other._terms
        den1 = lcm(*map(_denominator, t1.values()))
        den2 = lcm(*map(_denominator, t2.values()))
        n1 = t1.items() if den1 == 1 else _over(t1, den1)
        n2 = t2.items() if den2 == 1 else _over(t2, den2)
        acc: dict[int, Scalar] = {}
        get = acc.get
        for k1, c1 in n1:
            for k2, c2 in n2:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        if reduce(or_, acc, 0) & self.chart._guard:
            raise ValueError(_TOO_HIGH)
        den = den1 * den2
        if den != 1:
            for k, s in acc.items():
                q, r = divmod(s, den)
                acc[k] = Fraction(s, den) if r else q
        return _from_packed(self.chart, acc)

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        c = _coeff(c)
        if not c:
            return Poly.zero(self.chart)
        terms: dict[int, Scalar] = {}
        for k, v in self._terms.items():
            s = c * v
            terms[k] = s if type(s) is int or s.denominator != 1 else s.numerator
        return _from_packed(self.chart, terms)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = Poly.one(self.chart)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.chart.coords, frozenset(self._terms.items())))

    # calculus and substitution

    def partial(self, coord: Union[str, int]) -> "Poly":
        """Exact partial derivative with respect to one coordinate."""
        i = coord if isinstance(coord, int) else self.chart.index(coord)
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"no coordinate {i} on chart {self.chart.label}")
        shift = _FIELD_BITS * i
        step = 1 << shift
        terms: dict[int, Scalar] = {}
        for k, c in self._terms.items():
            e = k >> shift & _FIELD_MASK
            if e:
                s = c * e
                terms[k - step] = s if type(s) is int or s.denominator != 1 else s.numerator
        return _from_packed(self.chart, terms)

    def substitute(self, target: Chart, images: Mapping[str, "Poly"]) -> "Poly":
        """Ring homomorphism sending each coordinate to a polynomial on `target`.

        Every coordinate of this polynomial's chart must have an image.
        Each power img**e is taken once per call.
        """
        imgs: list[Poly] = []
        for c in self.chart.coords:
            if c not in images:
                raise ValueError(f"no image given for coordinate {c!r}")
            p = images[c]
            if p.chart is not target and p.chart != target:
                raise ValueError(f"image of {c!r} lives on the wrong chart")
            imgs.append(p)
        unpack = self.chart._unpack
        powers: dict[tuple[int, int], Poly] = {}
        acc = _from_packed(target, {})
        for key, coeff in self._terms.items():
            term = _from_packed(target, {0: coeff})
            for i, e in enumerate(unpack(key)):
                if e:
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[(i, e)] = imgs[i] ** e
                    term = term * p
            acc = acc + term
        return acc

    def subs_some(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Substitute a subset of coordinates; the rest map to themselves.

        Images must live on the same chart.
        """
        full = {c: Poly.coordinate(self.chart, c) for c in self.chart.coords}
        for c, p in images.items():
            self.chart.index(c)
            if p.chart != self.chart:
                raise ValueError(f"image of {c!r} lives on the wrong chart")
            full[c] = p
        return self.substitute(self.chart, full)

    def eval_at(self, point: Mapping[str, Scalar]) -> Rat:
        vals = [Fraction(point[c]) for c in self.chart.coords]
        total = Fraction(0)
        for exps, coeff in self._unpacked():
            v = coeff
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return total

    # printing

    def canonical_str(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[tuple[str, str]] = []
        for exps, coeff in sorted(self._unpacked(), key=lambda t: grlex_key(t[0]), reverse=True):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            factors = []
            for name, e in zip(self.chart.coords, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self.canonical_str()})"


def reduce_mod_solved(p: Poly, solved: Mapping[str, Poly]) -> Poly:
    """Normal form of `p` modulo equations x_s = p_s.

    Each solved coordinate is replaced by its defining polynomial; the
    defining polynomials may only mention unsolved (free) coordinates, so a
    single substitution pass eliminates every solved coordinate. The result
    is the canonical representative of `p` on the constrained locus.
    """
    for s, q in solved.items():
        p.chart.index(s)
        for t in solved:
            if q.mentions(t):
                raise ValueError(
                    f"defining polynomial for {s!r} mentions solved coordinate {t!r}"
                )
    out = p.subs_some(solved)
    for s in solved:
        if out.mentions(s):
            raise AssertionError("solved coordinate survived reduction")
    return out


def monomials_up_to(
    chart: Chart, degree: int, include_constant: bool = False
) -> list[Poly]:
    """All monic monomials of total degree <= degree, in canonical sweep order.

    Order: degree ascending; within a degree, the order induced by
    combinations with replacement of coordinate indices (x1^2, x1*x2, ...,
    x2^2, ...). Used by the family sweeps so that witnesses are deterministic.
    """
    out: list[Poly] = []
    if include_constant:
        out.append(Poly.one(chart))
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(chart.dim), d):
            exps = [0] * chart.dim
            for i in combo:
                exps[i] += 1
            out.append(Poly.monomial(chart, exps))
    return out


def lift_poly(p: Poly, big: Chart, positions: Sequence[int]) -> Poly:
    """Reinterpret `p` on a larger chart, coordinate i -> big coordinate positions[i]."""
    if len(positions) != p.chart.dim:
        raise ValueError("need one target position per source coordinate")
    terms: dict[int, Scalar] = {}
    for exps, coeff in p._unpacked():
        big_exps = [0] * big.dim
        for i, e in enumerate(exps):
            big_exps[positions[i]] = e
        terms[big._pack(big_exps)] = coeff
    return _from_packed(big, terms)
