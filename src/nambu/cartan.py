"""Coordinate Cartan calculus: exterior derivative, Lie derivative, Schouten bracket.

The Schouten bracket is computed by an odd-coordinate contraction formula
rather than by splitting arguments into wedge factors, because sparse
multivectors are rarely decomposable. Writing i_k for the interior product
by dx_k and D_k for the coordinate partial applied to coefficients,

    [P, Q] = (-1)^(p-1) sum_k i_k(P) ^ D_k(Q)
             - (-1)^((p-1)(q-1)) (-1)^(q-1) sum_k i_k(Q) ^ D_k(P)

Both sums are accumulated in one pass, term by term, into a single map from
index tuples to coefficients; no intermediate tensor is built. The loop
runs over the index positions of each argument's own components, so an
index k that no component holds costs nothing, and D_k of a component is
taken at most once per call, only where a contracted term meets it.

This choice is pinned down (and the tests enforce it) by three identities:

    [X, Q] = L_X Q                                  for vector fields X
    [P, Q ^ R] = [P,Q] ^ R + (-1)^((p-1) q) Q ^ [P,R]
    [P, Q] = -(-1)^((p-1)(q-1)) [Q, P]

together with the graded Jacobi identity

    [P, [Q, R]] = [[P, Q], R] + (-1)^((p-1)(q-1)) [Q, [P, R]].
"""

from __future__ import annotations

from typing import Union

from .exterior import Form, MultiVec, sort_with_sign, vector_interior
from .ratpoly import Poly


def de_rham_d(omega: Union[Poly, Form]) -> Form:
    """Exterior derivative. Satisfies d(d(omega)) = 0 exactly."""
    if isinstance(omega, Poly):
        chart = omega.chart
        comps = {}
        for i in range(chart.dim):
            c = omega.partial(i)
            if not c.is_zero:
                comps[(i,)] = c
        return Form(chart, 1, comps)
    chart = omega.chart
    acc: dict[tuple[int, ...], Poly] = {}
    for idx, p in omega.comps.items():
        for i in range(chart.dim):
            c = p.partial(i)
            if c.is_zero:
                continue
            sorted_ = sort_with_sign((i,) + idx)
            if sorted_ is None:
                continue
            sign, key = sorted_
            term = c.scale(sign)
            q = acc.get(key)
            acc[key] = term if q is None else q + term
    return Form(chart, omega.grade + 1, acc)


def schouten(p: Union[Poly, MultiVec], q: Union[Poly, MultiVec]) -> MultiVec:
    """Schouten bracket of multivector fields (grade 0 means a function)."""
    if isinstance(p, Poly):
        p = MultiVec.from_poly(p)
    if isinstance(q, Poly):
        q = MultiVec.from_poly(q)
    if p.chart != q.chart:
        raise ValueError("chart mismatch")
    gp, gq = p.grade, q.grade
    if gp + gq < 1:
        raise ValueError("bracket of two functions is not defined")
    sign_a = 1 if (gp - 1) % 2 == 0 else -1
    sign_b = 1 if ((gp - 1) * (gq - 1) + (gq - 1)) % 2 == 0 else -1
    acc: dict[tuple[int, ...], Poly] = {}
    for sign, a, b in ((sign_a, p, q), (-sign_b, q, p)):
        # sign * i_k(a) ^ D_k(b) for each position j of k in a component of
        # a; i_k takes the sign (-1)^j of dropping position j, D_k(b) is
        # taken per component only where it is used.
        partials: dict[tuple[int, tuple[int, ...]], Poly] = {}
        for idx, pa in a.comps.items():
            for j, k in enumerate(idx):
                key = idx[:j] + idx[j + 1 :]
                sign_j = sign if j % 2 == 0 else -sign
                for idx_b, pb in b.comps.items():
                    if key:
                        sorted_ = sort_with_sign(key + idx_b)
                        if sorted_ is None:
                            continue
                        s, out = sorted_
                    else:
                        s, out = 1, idx_b
                    db = partials.get((k, idx_b))
                    if db is None:
                        db = partials[k, idx_b] = pb.partial(k)
                    if db.is_zero:
                        continue
                    term = pa * db
                    if s != sign_j:
                        term = -term
                    prev = acc.get(out)
                    acc[out] = term if prev is None else prev + term
    return MultiVec(p.chart, gp + gq - 1, acc)


def lie_derivative(
    x: MultiVec, target: Union[Poly, MultiVec, Form]
) -> Union[Poly, MultiVec, Form]:
    """Lie derivative along a vector field.

    Functions go to X(f), multivectors through the Schouten bracket, forms
    through the Cartan formula L_X = d i_X + i_X d. The two routes agree
    where both apply (duality pairing identity, tested).
    """
    if x.grade != 1:
        raise ValueError("Lie derivative needs a grade-1 field")
    if isinstance(target, Poly):
        return x.apply_to(target)
    if isinstance(target, MultiVec):
        return schouten(x, target)
    if isinstance(target, Form):
        if target.grade == 0:
            return Form.from_poly(x.apply_to(target.component(())))
        inner = vector_interior(x, target)
        acc = de_rham_d(inner.component(()) if inner.grade == 0 else inner)
        d_omega = de_rham_d(target)
        if not d_omega.is_zero:
            acc = acc + vector_interior(x, d_omega)
        return acc
    raise TypeError(f"cannot take a Lie derivative of {type(target).__name__}")
