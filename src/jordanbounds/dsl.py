"""Textual language for structured group descriptions.

Grammar (whitespace-insensitive):

    expr := LEAF "(" args ")"
          | "product" "(" expr ("," expr)+ ")"
          | "extension" "(" expr "," expr ")"

Leaves: torus(r), unipotent(d), abelian_variety(g), finite(N), gl(n),
gl_q(n), semisimple([A1,...], sc|adjoint), connected(n), aut0(n),
bir_connected(n).

Every leaf but semisimple parses to Leaf(name, arg), one row of _LEAVES.
The extension node takes (normal subgroup, quotient), mirroring the
sequence 1 -> G1 -> G -> G2 -> 1.  Files may carry '#' line comments
around a single expression, which nests at most MAX_DEPTH levels deep.
The semisimple leaf keeps its isogeny for printing; its bound reads only
the total dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from . import calculus
from .calculus import BoundTriple, DerivationTrace
from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .enumeration import SemisimpleType
from .rootsystems import SimpleType


# deepest nesting that parse accepts, a leaf counting one level: CPython's own
# limit on nested parentheses, well inside the recursion limit for the parser,
# the evaluator and print_expr
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """An integer-parameter leaf such as torus(2); `name` is a key of _LEAVES."""
    name: str
    arg: int


@dataclass(frozen=True)
class Semisimple:
    types: Tuple[SimpleType, ...]
    isogeny: str  # "sc" | "adjoint"


@dataclass(frozen=True)
class Product:
    children: Tuple["GroupExpr", ...]


@dataclass(frozen=True)
class Extension:
    normal: "GroupExpr"
    quotient: "GroupExpr"


GroupExpr = Union[Leaf, Semisimple, Product, Extension]


def _calculus_leaf(kind: str):
    return lambda n, caps: calculus.leaf_with_trace(kind, n, caps)


# leaf name -> (evaluator(arg, caps) -> (triple, trace), parse error when the
# argument must be at least 1, or None when 0 is allowed).  Evaluators look
# the calculus functions up at call time, so wrappers installed on the
# calculus module see every call.
_LEAVES = {
    "torus": (_calculus_leaf("torus"), None),
    "unipotent": (_calculus_leaf("unipotent"), None),
    "abelian_variety": (_calculus_leaf("abelian_variety"), None),
    "finite": (_calculus_leaf("finite"), "finite group order must be at least 1"),
    "gl": (_calculus_leaf("gl_field"), None),
    "gl_q": (_calculus_leaf("gl_rational"), "gl_q needs a positive dimension"),
    "connected": (lambda n, caps: calculus.connected_triple(n, caps), None),
    "aut0": (lambda n, caps: calculus.aut0_triple(n, caps),
             "aut0 needs a positive variety dimension"),
    # a connected subgroup of Bir(X) acts biregularly on a projective model
    # of the same dimension
    "bir_connected": (lambda n, caps: calculus.aut0_triple(n, caps),
                      "bir_connected needs a positive variety dimension"),
}


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

    def expr(self, depth: int = 1) -> GroupExpr:
        if depth > MAX_DEPTH:
            tok = self._peek()
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             tok.pos if tok else self.length)
        head = self._next("name")
        self._next("punct", "(")
        if head.text == "product":
            children = [self.expr(depth + 1)]
            while True:
                tok = self._peek()
                if tok and tok.text == ",":
                    self._next()
                    children.append(self.expr(depth + 1))
                else:
                    break
            self._next("punct", ")")
            if len(children) < 2:
                raise ParseError("product needs at least two children", head.pos)
            return Product(tuple(children))
        if head.text == "extension":
            normal = self.expr(depth + 1)
            self._next("punct", ",")
            quotient = self.expr(depth + 1)
            self._next("punct", ")")
            return Extension(normal, quotient)
        if head.text == "semisimple":
            node = self._semisimple()
        elif head.text in _LEAVES:
            node = self._leaf(head.text)
        else:
            raise ParseError(f"unknown leaf {head.text!r}", head.pos)
        self._next("punct", ")")
        return node

    def _semisimple(self) -> Semisimple:
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

    def _leaf(self, name: str) -> Leaf:
        tok = self._peek()
        if tok is None or tok.kind != "int":
            raise ParseError(f"{name} expects one integer argument",
                             tok.pos if tok else self.length)
        value = self._int()
        message = _LEAVES[name][1]
        if message is not None and value < 1:
            raise ParseError(message, tok.pos)
        return Leaf(name, value)


def parse(text: str) -> GroupExpr:
    """Parse one expression; raises ParseError with a position on bad input."""
    return _Parser(_tokenize(text), len(text)).parse()


def parse_file_text(text: str) -> GroupExpr:
    """Parse a DSL file: '#' starts a comment, one expression overall."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return parse(stripped)


def print_expr(expr: GroupExpr) -> str:
    """Canonical form; parse(print_expr(e)) == e."""
    if isinstance(expr, Leaf):
        return f"{expr.name}({expr.arg})"
    if isinstance(expr, Semisimple):
        types = ",".join(str(t) for t in expr.types)
        return f"semisimple([{types}], {expr.isogeny})"
    if isinstance(expr, Product):
        return "product(" + ", ".join(print_expr(c) for c in expr.children) + ")"
    if isinstance(expr, Extension):
        return f"extension({print_expr(expr.normal)}, {print_expr(expr.quotient)})"
    raise TypeError(f"not a group expression: {expr!r}")


# --- evaluation ------------------------------------------------------------


def evaluate(expr: GroupExpr, caps: Caps = DEFAULT_CAPS
             ) -> Tuple[BoundTriple, DerivationTrace]:
    """Bottom-up fold of an expression into a bound triple plus its trace.

    Cap breaches are re-raised with the path of the offending node attached.
    """
    return _evaluate(expr, caps, "$")


def _evaluate(expr: GroupExpr, caps: Caps, path: str
              ) -> Tuple[BoundTriple, DerivationTrace]:
    try:
        if isinstance(expr, Leaf):
            return _LEAVES[expr.name][0](expr.arg, caps)
        if isinstance(expr, Semisimple):
            return calculus.leaf_with_trace("semisimple", SemisimpleType(expr.types).dim, caps)
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
