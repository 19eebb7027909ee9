"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are exact rationals: a stored coefficient is an `int` when it
is integral and a reduced `fractions.Fraction` (aliased as `Rat`) otherwise,
so integer arithmetic, the common case, never pays for fractions. Every
operation in the package is exact: no floats, no rounding, no tolerances.
Polynomials live on a `Chart`, an ordered list of coordinate names, and are
stored sparsely as a map from exponent vectors to nonzero coefficients.

The canonical text form orders terms by graded lexicographic order (total
degree first, then exponent vector), highest term first:

    3/2*x^2*y - 1
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rat = Fraction
Exponents = tuple[int, ...]
Scalar = Union[Rat, int]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*\Z")


def is_identifier(name: str) -> bool:
    return bool(_IDENT.match(name))


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system.

    Identity is structural: two charts are equal when they list the same
    coordinate names in the same order. The display name is a label only.
    """

    coords: tuple[str, ...]
    name: str = field(default="", compare=False)

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


class Poly:
    """A polynomial with exact rational coefficients on a fixed chart.

    `terms` maps exponent vectors to nonzero coefficients, each an `int`
    when integral and a `Fraction` with denominator > 1 otherwise. Since
    `Fraction(3) == 3` and both hash alike, equality, hashing and the
    canonical text do not depend on that choice.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponents, Scalar]) -> None:
        clean: dict[Exponents, Scalar] = {}
        dim = chart.dim
        for exps, coeff in terms.items():
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for chart of dim {dim}")
            c = _coeff(coeff)
            if c:
                clean[tuple(exps)] = c
        self.chart = chart
        self.terms = clean

    # construction helpers

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly(chart, {})

    @staticmethod
    def constant(chart: Chart, value: Scalar) -> "Poly":
        return Poly(chart, {(0,) * chart.dim: value})

    @staticmethod
    def one(chart: Chart) -> "Poly":
        return Poly.constant(chart, 1)

    @staticmethod
    def coordinate(chart: Chart, coord: str) -> "Poly":
        exps = [0] * chart.dim
        exps[chart.index(coord)] = 1
        return Poly(chart, {tuple(exps): 1})

    @staticmethod
    def monomial(chart: Chart, exps: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return Poly(chart, {tuple(exps): coeff})

    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def mentions(self, coord: str) -> bool:
        i = self.chart.index(coord)
        return any(e[i] for e in self.terms)

    def support_indices(self) -> set[int]:
        """Indices of coordinates that actually occur."""
        out: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    out.add(i)
        return out

    def _require_same_chart(self, other: "Poly") -> None:
        if self.chart != other.chart:
            raise ValueError(
                f"chart mismatch: {self.chart.label} vs {other.chart.label}"
            )

    # arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_chart(other)
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            s = acc.get(exps, 0) + c
            if s:
                acc[exps] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                acc.pop(exps, None)
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = acc
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_chart(other)
        acc: dict[Exponents, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(key, 0) + c1 * c2
                if s:
                    acc[key] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    acc.pop(key, None)
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = acc
        return out

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        c = _coeff(c)
        if not c:
            return Poly.zero(self.chart)
        out = Poly.__new__(Poly)
        out.chart = self.chart
        terms: dict[Exponents, Scalar] = {}
        for e, v in self.terms.items():
            s = c * v
            terms[e] = s if type(s) is int or s.denominator != 1 else s.numerator
        out.terms = terms
        return out

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
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.chart.coords, frozenset(self.terms.items())))

    # calculus and substitution

    def partial(self, coord: Union[str, int]) -> "Poly":
        """Exact partial derivative with respect to one coordinate."""
        i = coord if isinstance(coord, int) else self.chart.index(coord)
        acc: dict[Exponents, Scalar] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            s = acc.get(key, 0) + c * e
            if s:
                acc[key] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                acc.pop(key, None)
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = acc
        return out

    def substitute(self, target: Chart, images: Mapping[str, "Poly"]) -> "Poly":
        """Ring homomorphism sending each coordinate to a polynomial on `target`.

        Every coordinate of this polynomial's chart must have an image.
        """
        imgs: list[Poly] = []
        for c in self.chart.coords:
            if c not in images:
                raise ValueError(f"no image given for coordinate {c!r}")
            p = images[c]
            if p.chart != target:
                raise ValueError(f"image of {c!r} lives on the wrong chart")
            imgs.append(p)
        acc = Poly.zero(target)
        for exps, coeff in self.terms.items():
            term = Poly.constant(target, coeff)
            for img, e in zip(imgs, exps):
                if e:
                    term = term * img**e
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
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return total

    # printing

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[tuple[str, str]] = []
        for exps in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[exps]
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
    acc: dict[Exponents, Scalar] = {}
    for exps, coeff in p.terms.items():
        big_exps = [0] * big.dim
        for i, e in enumerate(exps):
            big_exps[positions[i]] = e
        acc[tuple(big_exps)] = coeff
    return Poly(big, acc)
