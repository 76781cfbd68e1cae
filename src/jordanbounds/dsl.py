"""Textual language for structured group descriptions.

Grammar (whitespace-insensitive):

    expr := LEAF "(" args ")"
          | "product" "(" expr ("," expr)+ ")"
          | "extension" "(" expr "," expr ")"

Leaves: torus(r), unipotent(d), abelian_variety(g), finite(N), gl(n),
gl_q(n), semisimple([A1,...], sc|adjoint), connected(n), aut0(n),
bir_connected(n).  The extension node takes (normal subgroup, quotient),
mirroring the sequence 1 -> G1 -> G -> G2 -> 1.  Files may carry '#' line
comments around a single expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from . import calculus
from .calculus import BoundTriple, DerivationTrace
from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .enumeration import IsogenyClass, SemisimpleType
from .rootsystems import SimpleType


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Torus:
    rank: int


@dataclass(frozen=True)
class Unipotent:
    dim: int


@dataclass(frozen=True)
class AbelianVariety:
    dim: int


@dataclass(frozen=True)
class Finite:
    order: int


@dataclass(frozen=True)
class GL:
    n: int


@dataclass(frozen=True)
class GLRational:
    n: int


@dataclass(frozen=True)
class Semisimple:
    types: Tuple[SimpleType, ...]
    isogeny: str  # "sc" | "adjoint"


@dataclass(frozen=True)
class Connected:
    dim: int


@dataclass(frozen=True)
class Aut0:
    dim: int


@dataclass(frozen=True)
class BirConnected:
    dim: int


@dataclass(frozen=True)
class Product:
    children: Tuple["GroupExpr", ...]


@dataclass(frozen=True)
class Extension:
    normal: "GroupExpr"
    quotient: "GroupExpr"


GroupExpr = Union[Torus, Unipotent, AbelianVariety, Finite, GL, GLRational,
                  Semisimple, Connected, Aut0, BirConnected, Product, Extension]

_LEAF_NAMES = ("torus", "unipotent", "abelian_variety", "finite", "gl", "gl_q",
               "semisimple", "connected", "aut0", "bir_connected")


# --- tokenizer / parser ----------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # name | int | punct
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()[],":
            out.append(_Token("punct", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return out


class _Parser:
    def __init__(self, tokens: List[_Token], length: int):
        self.tokens = tokens
        self.at = 0
        self.length = length

    def _peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def _next(self, expect_kind=None, expect_text=None) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        if expect_kind and tok.kind != expect_kind:
            raise ParseError(f"expected {expect_kind}, found {tok.text!r}", tok.pos)
        if expect_text and tok.text != expect_text:
            raise ParseError(f"expected {expect_text!r}, found {tok.text!r}", tok.pos)
        self.at += 1
        return tok

    def _int(self) -> int:
        return int(self._next("int").text)

    def parse(self) -> GroupExpr:
        expr = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return expr

    def expr(self) -> GroupExpr:
        head = self._next("name")
        self._next("punct", "(")
        if head.text == "product":
            children = [self.expr()]
            while True:
                tok = self._peek()
                if tok and tok.text == ",":
                    self._next()
                    children.append(self.expr())
                else:
                    break
            self._next("punct", ")")
            if len(children) < 2:
                raise ParseError("product needs at least two children", head.pos)
            return Product(tuple(children))
        if head.text == "extension":
            normal = self.expr()
            self._next("punct", ",")
            quotient = self.expr()
            self._next("punct", ")")
            return Extension(normal, quotient)
        if head.text not in _LEAF_NAMES:
            raise ParseError(f"unknown leaf {head.text!r}", head.pos)
        node = self._leaf(head)
        self._next("punct", ")")
        return node

    def _leaf(self, head: _Token) -> GroupExpr:
        name = head.text
        if name == "semisimple":
            self._next("punct", "[")
            types: List[SimpleType] = []
            while True:
                tok = self._next("name")
                try:
                    types.append(SimpleType.parse(tok.text))
                except ValueError as exc:
                    raise ParseError(str(exc), tok.pos) from None
                tok = self._peek()
                if tok and tok.text == ",":
                    self._next()
                    continue
                break
            self._next("punct", "]")
            self._next("punct", ",")
            iso = self._next("name")
            if iso.text not in ("sc", "adjoint"):
                raise ParseError(f"isogeny must be sc or adjoint, found {iso.text!r}", iso.pos)
            return Semisimple(tuple(types), iso.text)
        tok = self._peek()
        if tok is None or tok.kind != "int":
            raise ParseError(f"{name} expects one integer argument",
                             tok.pos if tok else self.length)
        value = self._int()
        if name == "finite" and value < 1:
            raise ParseError("finite group order must be at least 1", tok.pos)
        if name in ("aut0", "bir_connected") and value < 1:
            raise ParseError(f"{name} needs a positive variety dimension", tok.pos)
        if name == "gl_q" and value < 1:
            raise ParseError("gl_q needs a positive dimension", tok.pos)
        return {
            "torus": Torus, "unipotent": Unipotent, "abelian_variety": AbelianVariety,
            "finite": Finite, "gl": GL, "gl_q": GLRational,
            "connected": Connected, "aut0": Aut0, "bir_connected": BirConnected,
        }[name](value)


def parse(text: str) -> GroupExpr:
    """Parse one expression; raises ParseError with a position on bad input."""
    return _Parser(_tokenize(text), len(text)).parse()


def parse_file_text(text: str) -> GroupExpr:
    """Parse a DSL file: '#' starts a comment, one expression overall."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return parse(stripped)


def print_expr(expr: GroupExpr) -> str:
    """Canonical form; parse(print_expr(e)) == e."""
    if isinstance(expr, Torus):
        return f"torus({expr.rank})"
    if isinstance(expr, Unipotent):
        return f"unipotent({expr.dim})"
    if isinstance(expr, AbelianVariety):
        return f"abelian_variety({expr.dim})"
    if isinstance(expr, Finite):
        return f"finite({expr.order})"
    if isinstance(expr, GL):
        return f"gl({expr.n})"
    if isinstance(expr, GLRational):
        return f"gl_q({expr.n})"
    if isinstance(expr, Semisimple):
        types = ",".join(str(t) for t in expr.types)
        return f"semisimple([{types}], {expr.isogeny})"
    if isinstance(expr, Connected):
        return f"connected({expr.dim})"
    if isinstance(expr, Aut0):
        return f"aut0({expr.dim})"
    if isinstance(expr, BirConnected):
        return f"bir_connected({expr.dim})"
    if isinstance(expr, Product):
        return "product(" + ", ".join(print_expr(c) for c in expr.children) + ")"
    if isinstance(expr, Extension):
        return f"extension({print_expr(expr.normal)}, {print_expr(expr.quotient)})"
    raise TypeError(f"not a group expression: {expr!r}")


# --- evaluation ------------------------------------------------------------


def _semisimple_class(node: Semisimple) -> IsogenyClass:
    base = SemisimpleType(node.types)
    if node.isogeny == "sc":
        return IsogenyClass.from_generators(base, [])
    moduli = base.center_moduli
    gens = [tuple(1 if i == j else 0 for i in range(len(moduli)))
            for j in range(len(moduli))]
    return IsogenyClass.from_generators(base, gens)


def evaluate(expr: GroupExpr, caps: Caps = DEFAULT_CAPS
             ) -> Tuple[BoundTriple, DerivationTrace]:
    """Bottom-up fold of an expression into a bound triple plus its trace.

    Cap breaches are re-raised with the path of the offending node attached.
    """
    return _evaluate(expr, caps, "$")


def _evaluate(expr: GroupExpr, caps: Caps, path: str
              ) -> Tuple[BoundTriple, DerivationTrace]:
    try:
        if isinstance(expr, Torus):
            return calculus.leaf_with_trace("torus", expr.rank, caps)
        if isinstance(expr, Unipotent):
            return calculus.leaf_with_trace("unipotent", expr.dim, caps)
        if isinstance(expr, AbelianVariety):
            return calculus.leaf_with_trace("abelian_variety", expr.dim, caps)
        if isinstance(expr, Finite):
            return calculus.leaf_with_trace("finite", expr.order, caps)
        if isinstance(expr, GL):
            return calculus.leaf_with_trace("gl_field", expr.n, caps)
        if isinstance(expr, GLRational):
            return calculus.leaf_with_trace("gl_rational", expr.n, caps)
        if isinstance(expr, Semisimple):
            cls = _semisimple_class(expr)
            if cls.dim > caps.enumeration_dim:
                raise CapExceeded("enumeration dimension", caps.enumeration_dim,
                                  observed=cls.dim, module="group-dsl")
            return calculus.leaf_with_trace("semisimple", cls.dim, caps)
        if isinstance(expr, Connected):
            return calculus.connected_triple(expr.dim, caps)
        if isinstance(expr, Aut0):
            return calculus.aut0_triple(expr.dim, caps)
        if isinstance(expr, BirConnected):
            # a connected subgroup of Bir(X) acts biregularly on a projective
            # model of the same dimension
            return calculus.aut0_triple(expr.dim, caps)
    except CapExceeded as exc:
        raise CapExceeded(f"{exc.what} at node {path} ({print_expr(expr)})",
                          exc.limit, exc.observed, exc.module) from None
    if isinstance(expr, Product):
        triple, trace = _evaluate(expr.children[0], caps, f"{path}.children[0]")
        for i, child in enumerate(expr.children[1:], start=1):
            child_triple, child_trace = _evaluate(child, caps, f"{path}.children[{i}]")
            trace.extend(child_trace)
            triple, step = calculus.combine_product(triple, child_triple)
            trace.extend(step)
        return triple, trace
    if isinstance(expr, Extension):
        normal, trace = _evaluate(expr.normal, caps, f"{path}.normal")
        quotient, qtrace = _evaluate(expr.quotient, caps, f"{path}.quotient")
        trace.extend(qtrace)
        triple, step = calculus.combine_extension(normal, quotient)
        trace.extend(step)
        return triple, trace
    raise TypeError(f"not a group expression: {expr!r}")
