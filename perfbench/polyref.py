"""The benchmark's own exact polynomial arithmetic, independent of nambu.

A polynomial is a dict from exponent tuples to nonzero `Fraction`s. The
generators use it to build inputs and known answers, and the oracles use it
to evaluate outputs at rational points, so no check relies on the code it
checks. It also reads nambu's canonical text for polynomials and tensors.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

ZERO = Fraction(0)


def const(n: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n: int, i: int) -> dict:
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(1)}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {e: c * v for e, v in a.items()} if c else {}


def sub(a: dict, b: dict) -> dict:
    return add(a, scale(b, -1))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, ZERO) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def compose(p: dict, images: list, n_target: int) -> dict:
    """p(images[0], images[1], ...) as a polynomial in n_target variables."""
    out: dict = {}
    for exps, c in p.items():
        term = const(n_target, c)
        for img, e in zip(images, exps):
            for _ in range(e):
                term = mul(term, img)
        out = add(out, term)
    return out


def deriv(p: dict, i: int) -> dict:
    out: dict = {}
    for exps, c in p.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
    return out


def evaluate(p: dict, point) -> Fraction:
    """p at a rational point, exactly.

    Sums integers over one common denominator (lcm of the coefficient
    denominators times q^degree, q the lcm of the point's denominators), so
    large polynomials evaluate without a Fraction operation per term.
    """
    if not p:
        return Fraction(0)
    point = [Fraction(x) for x in point]
    q = math.lcm(*(x.denominator for x in point))
    nums = [x.numerator * (q // x.denominator) for x in point]
    lcm = math.lcm(*(Fraction(c).denominator for c in p.values()))
    top = max(sum(e) for e in p)
    qpow = [q**k for k in range(top + 1)]
    pows = [[1] for _ in point]
    total = 0
    for exps, c in p.items():
        c = Fraction(c)
        v = c.numerator * (lcm // c.denominator) * qpow[top - sum(exps)]
        for i, e in enumerate(exps):
            if e:
                row = pows[i]
                while len(row) <= e:
                    row.append(row[-1] * nums[i])
                v *= row[e]
        total += v
    return Fraction(total, lcm * qpow[top])


def random_rational(rng, rational: bool) -> Fraction:
    """A nonzero coefficient; with `rational`, never an integer."""
    num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    den = rng.choice([2, 3, 5, 7]) if rational else 1
    if rational and num % den == 0:
        num += 1
    return Fraction(num, den)


def random_poly(rng, n: int, allowed, degree: int, terms: int, rational: bool,
                constant=None, exact: bool = False, coef=None) -> dict:
    """`terms` random monomials of degree 1..degree (or exactly degree) in `allowed`.

    `rng` draws the monomials and `coef`, when given, their coefficients.
    """
    coef = coef or rng
    out = const(n, constant) if constant is not None else {}
    allowed = list(allowed)
    for _ in range(terms):
        e = [0] * n
        for _ in range(degree if exact else rng.randint(1, degree)):
            e[rng.choice(allowed)] += 1
        out = add(out, {tuple(e): random_rational(coef, rational)})
    return out


def dense_poly(rng, n: int, degree: int, rational: bool) -> dict:
    """Every monomial of total degree <= degree, each with a random coefficient."""
    out = {}

    def walk(prefix, left):
        if len(prefix) == n:
            out[tuple(prefix)] = random_rational(rng, rational)
            return
        for e in range(left + 1):
            walk(prefix + [e], left - e)

    walk([], degree)
    return out


def to_nmb(p: dict, names) -> str:
    """Session-language text; powers are parenthesised because `^` binds loosest."""
    if not p:
        return "0"
    parts = []
    for exps in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        c = p[exps]
        factors = [
            name if e == 1 else f"({name}^{e})"
            for name, e in zip(names, exps) if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_canonical(text: str, names) -> dict:
    """Read nambu's canonical polynomial text, e.g. `3/2*x^2*y - 1`."""
    text = text.strip()
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(names)}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM_SPLIT.split(text)
    out: dict = {}
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for s, body in zip(signs, pieces[0::2]):
        coeff = Fraction(1)
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
                continue
            name, _, e = factor.partition("^")
            exps[index[name]] += int(e) if e else 1
        out = add(out, {tuple(exps): s * coeff})
    return out


def parse_tensor(text: str, names) -> dict:
    """Read canonical tensor text, e.g. `d x1 * (-x3) + d x3 * (2)`.

    Returns {index tuple: polynomial dict}.
    """
    text = text.strip()
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(names)}
    out = {}
    depth, start = 0, 0
    chunks = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            chunks.append(text[start:i])
            start = i + 3
    chunks.append(text[start:])
    for chunk in chunks:
        atoms, _, poly = chunk.partition(" * (")
        idx = tuple(index[a.strip().lstrip("@").removeprefix("d ")] for a in atoms.split("^"))
        out[idx] = parse_canonical(poly[:-1], names)
    return out
