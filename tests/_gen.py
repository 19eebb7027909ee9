"""Shared input generators for the test suite.

Two flavors: hypothesis strategies for the algebraic-law tests, and a
seeded deterministic sampler for the fixed-count sweeps. Coefficients
stay small rationals so products and brackets remain readable when a
test fails.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from nambu.exterior import Form, MultiVec, wedge_all
from nambu.ratpoly import Chart, Poly, chart

R2 = chart("x1 x2", "R2")
R3 = chart("x1 x2 x3", "R3")
R4 = chart("x1 x2 x3 x4", "R4")

_COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]


def coeff_strategy() -> st.SearchStrategy[Fraction]:
    return st.sampled_from(_COEFFS)


def _exps_from_positions(dim: int, positions: list[int]) -> tuple[int, ...]:
    exps = [0] * dim
    for i in positions:
        exps[i] += 1
    return tuple(exps)


def exponents_strategy(dim: int, max_degree: int) -> st.SearchStrategy[tuple[int, ...]]:
    # a monomial of degree <= d is a multiset of at most d coordinate picks
    return st.lists(
        st.integers(min_value=0, max_value=dim - 1), min_size=0, max_size=max_degree
    ).map(lambda pos: _exps_from_positions(dim, pos))


def poly_strategy(ch: Chart, max_degree: int = 2, max_terms: int = 3) -> st.SearchStrategy[Poly]:
    term = st.tuples(exponents_strategy(ch.dim, max_degree), coeff_strategy())
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Poly(ch, {e: c for e, c in ts})
    )


def tensor_strategy(ch: Chart, grade: int, cls, max_degree: int = 2) -> st.SearchStrategy:
    idx = list(combinations(range(ch.dim), grade))
    comp = st.tuples(st.sampled_from(idx), poly_strategy(ch, max_degree, 2))
    return st.lists(comp, min_size=0, max_size=3).map(
        lambda cs: cls(ch, grade, {i: p for i, p in cs if not p.is_zero})
    )


def multivec_strategy(ch: Chart, grade: int, max_degree: int = 2):
    return tensor_strategy(ch, grade, MultiVec, max_degree)


def form_strategy(ch: Chart, grade: int, max_degree: int = 2):
    return tensor_strategy(ch, grade, Form, max_degree)


class SeededSampler:
    """Deterministic random algebra elements for fixed-count sweeps."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def coeff(self) -> Fraction:
        return self.rng.choice(_COEFFS)

    def poly(self, ch: Chart, max_degree: int = 2, terms: int = 3) -> Poly:
        out: dict[tuple[int, ...], Fraction] = {}
        for _ in range(self.rng.randint(1, terms)):
            while True:
                exps = tuple(
                    self.rng.randint(0, max_degree) for _ in range(ch.dim)
                )
                if sum(exps) <= max_degree:
                    break
            out[exps] = self.coeff()
        return Poly(ch, out)

    def tensor(self, ch: Chart, grade: int, cls, max_degree: int = 2, comps: int = 2):
        idx = list(combinations(range(ch.dim), grade))
        out = {}
        for _ in range(self.rng.randint(1, comps)):
            out[self.rng.choice(idx)] = self.poly(ch, max_degree, 2)
        return cls(ch, grade, out)

    def linear_wedge(self, ch: Chart, grade: int) -> MultiVec:
        """A wedge of `grade` vector fields with affine-linear coefficients."""
        fields = []
        for _ in range(grade):
            slots = self.rng.sample(range(ch.dim), self.rng.randint(1, ch.dim))
            fields.append(MultiVec(ch, 1, {(j,): self.poly(ch, 1, 2) for j in slots}))
        return wedge_all(fields)

    def multivec(self, ch: Chart, grade: int, max_degree: int = 2) -> MultiVec:
        return self.tensor(ch, grade, MultiVec, max_degree)

    def form(self, ch: Chart, grade: int, max_degree: int = 2) -> Form:
        return self.tensor(ch, grade, Form, max_degree)
