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
sequence 1 -> G1 -> G -> G2 -> 1.  Integers and names are ASCII.  Files
may carry '#' line comments around a single expression, which nests at
most MAX_DEPTH levels deep.
The semisimple leaf keeps its isogeny for printing; its bound reads only
the total dimension.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from . import calculus
from .calculus import BoundTriple, DerivationTrace
from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .enumeration import SemisimpleType
from .records import Record
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


class Leaf(Record):
    """An integer-parameter leaf such as torus(2); `name` is a key of _LEAVES."""
    __slots__ = _fields = ("name", "arg")


class Semisimple(Record):
    __slots__ = _fields = ("types", "isogeny")  # isogeny: "sc" | "adjoint"


class Product(Record):
    __slots__ = _fields = ("children",)


class Extension(Record):
    __slots__ = _fields = ("normal", "quotient")


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


# ASCII tokens; whitespace between them is skipped, anything else is "bad"
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<punct>[()\[\],])|(?P<bad>\S)")
# a '#' comment runs to the next line boundary that str.splitlines knows
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _tokenize(text: str) -> List[tuple]:
    """The (kind, text, position) tokens of `text`, closed by ("end", "", len(text))."""
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((m.lastgroup, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: List[tuple]):
        self.tokens = tokens
        self.at = 0

    def _peek(self) -> tuple:
        return self.tokens[self.at]

    def _next(self, expect_kind=None, expect_text=None) -> tuple:
        kind, text, pos = tok = self.tokens[self.at]
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        if expect_kind and kind != expect_kind:
            raise ParseError(f"expected {expect_kind}, found {text!r}", pos)
        if expect_text and text != expect_text:
            raise ParseError(f"expected {expect_text!r}, found {text!r}", pos)
        self.at += 1
        return tok

    def parse(self) -> GroupExpr:
        expr = self.expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return expr

    def expr(self, depth: int = 1) -> GroupExpr:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             self._peek()[2])
        _, head, head_pos = self._next("name")
        self._next("punct", "(")
        if head == "product":
            children = [self.expr(depth + 1)]
            while self._peek()[1] == ",":
                self._next()
                children.append(self.expr(depth + 1))
            self._next("punct", ")")
            if len(children) < 2:
                raise ParseError("product needs at least two children", head_pos)
            return Product(tuple(children))
        if head == "extension":
            normal = self.expr(depth + 1)
            self._next("punct", ",")
            quotient = self.expr(depth + 1)
            self._next("punct", ")")
            return Extension(normal, quotient)
        if head == "semisimple":
            node = self._semisimple()
        elif head in _LEAVES:
            node = self._leaf(head)
        else:
            raise ParseError(f"unknown leaf {head!r}", head_pos)
        self._next("punct", ")")
        return node

    def _semisimple(self) -> Semisimple:
        self._next("punct", "[")
        types: List[SimpleType] = []
        while True:
            _, text, pos = self._next("name")
            try:
                types.append(SimpleType.parse(text))
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
            if self._peek()[1] != ",":
                break
            self._next()
        self._next("punct", "]")
        self._next("punct", ",")
        _, iso, pos = self._next("name")
        if iso not in ("sc", "adjoint"):
            raise ParseError(f"isogeny must be sc or adjoint, found {iso!r}", pos)
        return Semisimple(tuple(types), iso)

    def _leaf(self, name: str) -> Leaf:
        kind, text, pos = self._peek()
        if kind != "int":
            raise ParseError(f"{name} expects one integer argument", pos)
        self.at += 1
        try:
            value = int(text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None
        message = _LEAVES[name][1]
        if message is not None and value < 1:
            raise ParseError(message, pos)
        return Leaf(name, value)


def parse(text: str) -> GroupExpr:
    """Parse one expression; raises ParseError with a position on bad input."""
    return _Parser(_tokenize(text)).parse()


def parse_file_text(text: str) -> GroupExpr:
    """Parse a DSL file: '#' starts a comment, one expression overall.

    Comments turn into as many spaces, so error positions index `text`."""
    return parse(_COMMENT.sub(lambda m: " " * len(m.group()), text))


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
