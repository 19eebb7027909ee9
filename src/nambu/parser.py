"""Session language: lexer, statement AST, parser, and canonical printer.

Grammar (authoritative; statements separated by newlines or top-level
semicolons, comments run from '#' to end of line):

    statement  := chart | binding | sub | map | group | pair | command | expr
    chart      := "chart" NAME "(" ID ("," ID)* ")"
    binding    := NAME ":=" expr
    sub        := "sub" NAME ":=" "{" ID "=" expr ("," ID "=" expr)* "}"
    map        := "map" NAME ":" NAME "->" NAME ":=" "(" expr ("," expr)* ")"
    group      := "group" NAME ":=" ("translation" NAME | "heisenberg"
                 | "law" NAME "mult" tuple "unit" ratlist "inv" tuple)
    pair       := "pair" NAME ":=" NAME
    command    := "check" ("fi" NAME ["--degree" NUM] | "coisotropic" NAME NAME
                 | "multiplicative" NAME NAME | "wlfb" NAME
                 | "graph" NAME NAME NAME | "subgroupoid" NAME NAME)
                 | "bracket" NAME "(" expr (";" expr)* ")"
                 | "formbracket" NAME "(" expr (";" expr)* ")"
                 | "coinduce" NAME NAME

    expr       := term (("+" | "-") term)*
    term       := "-" term | chain
    chain      := product ("^" (NUM | product))*      # integer exponent = power
    product    := atom ("*" atom)*
    atom       := NUM ["/" NUM] | "@" ID | "d" ID | ID | "(" expr ")"

`*` binds tighter than `^`, which binds tighter than `+`/`-`. A `^` whose
right operand is an integer literal is a power and requires a grade-0 base;
otherwise `^` is the wedge, and a grade-0 operand acts by scaling. A wedge
of two grade-0 values is rejected with a hint to use `*` or a power, so no
expression silently changes meaning between the two readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


KEYWORDS = {
    "chart", "sub", "map", "group", "pair", "check", "bracket", "formbracket",
    "coinduce", "fi", "coisotropic", "multiplicative", "wlfb", "graph",
    "subgroupoid", "translation", "heisenberg", "law", "mult", "unit", "inv", "d",
}


@dataclass(frozen=True)
class Token:
    kind: str  # ID NUM SYM OPT NL EOF
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c == "\n":
            toks.append(Token("NL", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(Token("NUM", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            toks.append(Token("ID", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "-" and i + 1 < n and source[i + 1] == "-":
            j = i + 2
            while j < n and source[j].isalpha():
                j += 1
            if j == i + 2:
                raise ParseError("dangling option marker", line, col)
            toks.append(Token("OPT", source[i + 2 : j], line, col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in (":=", "->"):
            toks.append(Token("SYM", two, line, col))
            i += 2
            col += 2
            continue
        if c in "(){},;:^*+-@=/":
            toks.append(Token("SYM", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# expression nodes

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class FieldAtom:
    coord: str


@dataclass(frozen=True)
class FormAtom:
    coord: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Union[Num, Name, FieldAtom, FormAtom, Neg, BinOp, Power]

# rendering precedence: additive 0, wedge 1, product 2, atom 3
_PREC = {"+": 0, "-": 0, "^": 1, "*": 2}


def render_expr(e: Expr, context: int = 0) -> str:
    if isinstance(e, Num):
        body = str(e.value)
        if e.value < 0:
            return body if context <= 0 else f"({body})"
        return body
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, FieldAtom):
        return "@" + e.coord
    if isinstance(e, FormAtom):
        return "d " + e.coord
    if isinstance(e, Neg):
        body = "-" + render_expr(e.arg, 1)
        return body if context <= 0 else f"({body})"
    if isinstance(e, Power):
        body = f"{render_expr(e.base, 3)}^{e.exponent}"
        return body if context <= 1 else f"({body})"
    prec = _PREC[e.op]
    left = render_expr(e.left, prec)
    right = render_expr(e.right, prec + 1)
    if e.op == "^" and right[:1].isdigit():
        right = f"({right})"  # keep a wedge from re-parsing as a power
    if prec == 0:
        body = f"{left} {e.op} {right}"
    else:
        body = f"{left}{e.op}{right}"
    return body if context <= prec else f"({body})"


# statement nodes

@dataclass(frozen=True)
class ChartDecl:
    name: str
    coords: tuple[str, ...]

    def canonical_text(self) -> str:
        return f"chart {self.name} ({', '.join(self.coords)})"


@dataclass(frozen=True)
class Binding:
    name: str
    expr: Expr

    def canonical_text(self) -> str:
        return f"{self.name} := {render_expr(self.expr)}"


@dataclass(frozen=True)
class SubDecl:
    name: str
    items: tuple[tuple[str, Expr], ...]

    def canonical_text(self) -> str:
        body = ", ".join(f"{c} = {render_expr(e)}" for c, e in self.items)
        return f"sub {self.name} := {{ {body} }}"


@dataclass(frozen=True)
class MapDecl:
    name: str
    source: str
    target: str
    comps: tuple[Expr, ...]

    def canonical_text(self) -> str:
        body = ", ".join(render_expr(e) for e in self.comps)
        return f"map {self.name} : {self.source} -> {self.target} := ({body})"


@dataclass(frozen=True)
class GroupDecl:
    name: str
    kind: str  # translation | heisenberg | law
    chart: Optional[str] = None
    mult: Optional[tuple[Expr, ...]] = None
    unit: Optional[tuple[Fraction, ...]] = None
    inv: Optional[tuple[Expr, ...]] = None

    def canonical_text(self) -> str:
        if self.kind == "translation":
            return f"group {self.name} := translation {self.chart}"
        if self.kind == "heisenberg":
            return f"group {self.name} := heisenberg"
        mult = ", ".join(render_expr(e) for e in self.mult)
        unit = ", ".join(str(u) for u in self.unit)
        inv = ", ".join(render_expr(e) for e in self.inv)
        return (
            f"group {self.name} := law {self.chart} "
            f"mult ({mult}) unit ({unit}) inv ({inv})"
        )


@dataclass(frozen=True)
class PairDecl:
    name: str
    base: str

    def canonical_text(self) -> str:
        return f"pair {self.name} := {self.base}"


@dataclass(frozen=True)
class CheckCommand:
    kind: str  # fi coisotropic multiplicative wlfb graph subgroupoid
    args: tuple[str, ...]
    degree: Optional[int] = None

    def canonical_text(self) -> str:
        text = f"check {self.kind} {' '.join(self.args)}"
        if self.degree is not None:
            text += f" --degree {self.degree}"
        return text


@dataclass(frozen=True)
class EvalCommand:
    kind: str  # bracket | formbracket
    target: str
    args: tuple[Expr, ...]

    def canonical_text(self) -> str:
        body = "; ".join(render_expr(e) for e in self.args)
        return f"{self.kind} {self.target} ({body})"


@dataclass(frozen=True)
class CoinduceCommand:
    map_name: str
    tensor: str

    def canonical_text(self) -> str:
        return f"coinduce {self.map_name} {self.tensor}"


@dataclass(frozen=True)
class ExprStatement:
    expr: Expr

    def canonical_text(self) -> str:
        return render_expr(self.expr)


Statement = Union[
    ChartDecl, Binding, SubDecl, MapDecl, GroupDecl, PairDecl,
    CheckCommand, EvalCommand, CoinduceCommand, ExprStatement,
]


@dataclass(frozen=True)
class Session:
    statements: tuple[Statement, ...]

    def canonical_text(self) -> str:
        return "\n".join(s.canonical_text() for s in self.statements) + "\n"


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == text

    def ident(self, role: str) -> str:
        t = self.expect("ID")
        if t.text in KEYWORDS:
            raise ParseError(f"{t.text!r} is reserved and cannot name a {role}",
                             t.line, t.col)
        return t.text

    # statements

    def session(self) -> Session:
        out: list[Statement] = []
        while True:
            while self.peek().kind == "NL" or self.at_sym(";"):
                self.next()
            if self.peek().kind == "EOF":
                break
            out.append(self.statement())
            t = self.peek()
            if t.kind not in ("NL", "EOF") and not self.at_sym(";"):
                self.fail(f"unexpected {t.text!r} after statement")
        return Session(tuple(out))

    def statement(self) -> Statement:
        t = self.peek()
        if t.kind == "ID":
            head = t.text
            if head == "chart":
                return self.chart_decl()
            if head == "sub":
                return self.sub_decl()
            if head == "map":
                return self.map_decl()
            if head == "group":
                return self.group_decl()
            if head == "pair":
                return self.pair_decl()
            if head == "check":
                return self.check_command()
            if head in ("bracket", "formbracket"):
                return self.eval_command()
            if head == "coinduce":
                self.next()
                return CoinduceCommand(self.ident("map"), self.ident("tensor"))
            after = self.toks[self.pos + 1]
            if after.kind == "SYM" and after.text == ":=":
                name = self.ident("binding")
                self.next()
                return Binding(name, self.expr())
        return ExprStatement(self.expr())

    def chart_decl(self) -> ChartDecl:
        self.next()
        name = self.ident("chart")
        self.expect("SYM", "(")
        coords = [self.ident("coordinate")]
        while self.at_sym(","):
            self.next()
            coords.append(self.ident("coordinate"))
        self.expect("SYM", ")")
        return ChartDecl(name, tuple(coords))

    def sub_decl(self) -> SubDecl:
        self.next()
        name = self.ident("locus")
        self.expect("SYM", ":=")
        self.expect("SYM", "{")
        items = []
        while True:
            coord = self.ident("coordinate")
            self.expect("SYM", "=")
            items.append((coord, self.expr()))
            if self.at_sym(","):
                self.next()
                continue
            break
        self.expect("SYM", "}")
        return SubDecl(name, tuple(items))

    def map_decl(self) -> MapDecl:
        self.next()
        name = self.ident("map")
        self.expect("SYM", ":")
        source = self.ident("chart")
        self.expect("SYM", "->")
        target = self.ident("chart")
        self.expect("SYM", ":=")
        comps = self.paren_exprs(",")
        return MapDecl(name, source, target, comps)

    def group_decl(self) -> GroupDecl:
        self.next()
        name = self.ident("group")
        self.expect("SYM", ":=")
        t = self.expect("ID")
        if t.text == "translation":
            return GroupDecl(name, "translation", chart=self.ident("chart"))
        if t.text == "heisenberg":
            return GroupDecl(name, "heisenberg")
        if t.text != "law":
            raise ParseError(
                "expected 'translation', 'heisenberg', or 'law'", t.line, t.col
            )
        chart_name = self.ident("chart")
        self.expect("ID", "mult")
        mult = self.paren_exprs(",")
        self.expect("ID", "unit")
        unit = self.rational_list()
        self.expect("ID", "inv")
        inv = self.paren_exprs(",")
        return GroupDecl(name, "law", chart=chart_name, mult=mult, unit=unit, inv=inv)

    def pair_decl(self) -> PairDecl:
        self.next()
        name = self.ident("pair model")
        self.expect("SYM", ":=")
        return PairDecl(name, self.ident("tensor"))

    def check_command(self) -> CheckCommand:
        self.next()
        t = self.expect("ID")
        kind = t.text
        arity = {
            "fi": 1, "coisotropic": 2, "multiplicative": 2,
            "wlfb": 1, "graph": 3, "subgroupoid": 2,
        }.get(kind)
        if arity is None:
            raise ParseError(f"unknown check {kind!r}", t.line, t.col)
        args = tuple(self.ident("argument") for _ in range(arity))
        degree = None
        if self.peek().kind == "OPT":
            opt = self.next()
            if opt.text != "degree":
                raise ParseError(f"unknown option --{opt.text}", opt.line, opt.col)
            if kind != "fi":
                raise ParseError(
                    f"--degree applies only to check fi, not check {kind}",
                    opt.line, opt.col,
                )
            t = self.expect("NUM")
            degree = int(t.text)
            if degree < 1:
                raise ParseError("--degree must be at least 1", t.line, t.col)
        return CheckCommand(kind, args, degree)

    def eval_command(self) -> EvalCommand:
        kind = self.next().text
        target = self.ident("tensor")
        args = self.paren_exprs(";")
        return EvalCommand(kind, target, args)

    def paren_exprs(self, sep: str) -> tuple[Expr, ...]:
        self.expect("SYM", "(")
        out = [self.expr()]
        while self.at_sym(sep):
            self.next()
            out.append(self.expr())
        self.expect("SYM", ")")
        return tuple(out)

    def rational_list(self) -> tuple[Fraction, ...]:
        self.expect("SYM", "(")
        out = [self.rational()]
        while self.at_sym(","):
            self.next()
            out.append(self.rational())
        self.expect("SYM", ")")
        return tuple(out)

    def rational(self) -> Fraction:
        negative = False
        if self.at_sym("-"):
            self.next()
            negative = True
        value = self.number()
        return -value if negative else value

    def number(self) -> Fraction:
        """NUM ["/" NUM]; a zero denominator is an error at its token."""
        num = int(self.expect("NUM").text)
        if not self.at_sym("/"):
            return Fraction(num)
        self.next()
        t = self.expect("NUM")
        if int(t.text) == 0:
            raise ParseError("zero denominator", t.line, t.col)
        return Fraction(num, int(t.text))

    # expressions

    def expr(self) -> Expr:
        left = self.term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        if self.at_sym("-"):
            self.next()
            return Neg(self.term())
        return self.chain()

    def chain(self) -> Expr:
        left = self.product()
        while self.at_sym("^"):
            self.next()
            if self.peek().kind == "NUM":
                t = self.next()
                left = Power(left, int(t.text))
            else:
                left = BinOp("^", left, self.product())
        return left

    def product(self) -> Expr:
        left = self.atom()
        while self.at_sym("*"):
            self.next()
            left = BinOp("*", left, self.atom())
        return left

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "NUM":
            return Num(self.number())
        if self.at_sym("@"):
            self.next()
            return FieldAtom(self.expect("ID").text)
        if t.kind == "ID" and t.text == "d":
            self.next()
            return FormAtom(self.expect("ID").text)
        if t.kind == "ID":
            if t.text in KEYWORDS:
                self.fail(f"{t.text!r} is reserved")
            self.next()
            return Name(t.text)
        if self.at_sym("("):
            self.next()
            inner = self.expr()
            self.expect("SYM", ")")
            return inner
        self.fail(f"expected an expression, found {t.text!r}")


def parse(source: str) -> Session:
    return _Parser(tokenize(source)).session()


def parse_expression(source: str) -> Expr:
    p = _Parser(tokenize(source))
    e = p.expr()
    while p.peek().kind == "NL":
        p.next()
    if p.peek().kind != "EOF":
        p.fail("trailing input after expression")
    return e
