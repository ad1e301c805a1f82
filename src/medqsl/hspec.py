"""Plain-text Hamiltonian specs: parse, validate, build, pretty-print.

The grammar is deliberately tiny.  A file declares labeled subsystems
and one Hamiltonian, a sum of real-weighted operator products:

    # three qubits, pair couplings through C
    system A:2;
    system B:2;
    system C:2;
    H = 1/sqrt(2)*X(A)@Y(C) + 1/sqrt(2)*Y(B)@X(C);

    spec  := stmt+
    stmt  := "system" LABEL ":" INT ";" | "H" "=" expr ";"
    expr  := ["-"] term (("+" | "-") term)*
    term  := [coeff "*"] prod
    prod  := opref ("@" opref)*
    opref := NAME "(" LABEL ["," INT] ")"
    coeff := NUM | NUM "/" "sqrt" "(" NUM ")"

Operator names: I (identity, any dim), X/Y/Z (dim-2 only), GX(L,j) =
|0><j| + |j><0|, GY(L,j) = -i|0><j| + i|j><0|, P(L,j) = |j><j|.
Subsystems absent from a product act as identity.  Oprefs sharing a
label multiply as matrices in written order, so X(A)@Y(A) means the
product XY on A (and will fail the Hermiticity check, as it should).
Whitespace is insignificant; "#" starts a line comment.  The leading
minus on the first term is the one extension beyond the published
grammar, needed so every formattable Hamiltonian stays parseable.

Coefficients keep their written form: NUM/sqrt(NUM) survives parse,
format, and re-parse without decimal loss, which matters because the
natural couplings here carry 1/sqrt(2)-style weights.  Terms sort into
a canonical order at construction, so summation order (and therefore
the built matrix, bit for bit) never depends on how the file was
written.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ArgOutOfRangeError,
    HSpecSyntaxError,
    PauliOnQuditError,
    UnknownLabelError,
)
from .hamiltonians import (
    Hamiltonian,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    generalized_x,
    generalized_y,
)
from .linalg import kron_stack
from .states import MAX_TOTAL_DIM, SystemLayout, embed_operator

__all__ = [
    "Coefficient",
    "OpRef",
    "Term",
    "HSpecAst",
    "parse",
    "build",
    "format_ast",
    "parse_file",
]

MAX_SOURCE_BYTES = 1 << 20

# each operator: its lowest level argument (None when it takes none),
# whether it needs a dim-2 subsystem, and its matrix on d levels at an argument
OPERATORS = {
    "I": (None, False, lambda d, arg: np.eye(d, dtype=complex)),
    "X": (None, True, lambda d, arg: PAULI_X),
    "Y": (None, True, lambda d, arg: PAULI_Y),
    "Z": (None, True, lambda d, arg: PAULI_Z),
    "GX": (1, False, generalized_x),
    "GY": (1, False, generalized_y),
    "P": (0, False, lambda d, arg: np.diag(np.eye(d, dtype=complex)[arg])),
}
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[;:=+\-*@(),/])"
)


@dataclass(frozen=True)
class Coefficient:
    """A real weight in its written form: num, or num/sqrt(root)."""

    num: float
    root: int | None = None

    @property
    def value(self) -> float:
        return self.num / math.sqrt(self.root) if self.root is not None else self.num

    def formatted(self) -> str:
        # positional, in the fewest digits that read back: NUM has no exponent
        body = np.format_float_positional(abs(self.num), unique=True, trim="-")
        if self.root is not None:
            body += f"/sqrt({self.root})"
        return body

    @property
    def is_unit_magnitude(self) -> bool:
        return self.root is None and abs(self.num) == 1.0


@dataclass(frozen=True)
class OpRef:
    """One operator application: name, subsystem label, optional level index."""

    name: str
    label: str
    arg: int | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def formatted(self) -> str:
        if self.arg is None:
            return f"{self.name}({self.label})"
        return f"{self.name}({self.label},{self.arg})"


@dataclass(frozen=True)
class Term:
    coefficient: Coefficient
    ops: tuple[OpRef, ...]

    def sort_key(self):
        return (
            tuple((o.label, o.name, -1 if o.arg is None else o.arg) for o in self.ops),
            self.coefficient.value,
        )


@dataclass(frozen=True)
class HSpecAst:
    """Declarations plus the canonical, sorted term list."""

    declarations: tuple[tuple[str, int], ...]
    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple(sorted(self.terms, key=Term.sort_key)))

    @property
    def layout(self) -> SystemLayout:
        return SystemLayout(self.declarations)


# ---------------------------------------------------------------------------
# lexing

class _Token(NamedTuple):
    kind: str  # "num" | "name" | "sym" | "eof"
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        return "end of input" if self.kind == "eof" else repr(self.text)


def _lex(text: str) -> tuple[list[_Token], list[str]]:
    """The tokens of ``text``, in one ``finditer`` pass, and its lines.

    Every match starts where the last one ended; a gap is a character no
    token starts with, and is reported at its line and column.
    """
    lines = text.split("\n")
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind, pos = m.lastgroup, m.end()
        if kind == "ws":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + m.group().rfind("\n") + 1
            continue
        if kind == "comment":
            continue
        lexeme, col = m.group(), m.start() - line_start + 1
        if kind == "num" and math.isinf(float(lexeme)):
            raise HSpecSyntaxError(f"number {lexeme[:12]}... does not fit a finite float",
                                   line, col, lines[line - 1])
        tokens.append(_Token(kind, lexeme, line, col))
    if pos < len(text):
        raise HSpecSyntaxError(f"unexpected character {text[pos]!r}",
                               line, pos - line_start + 1, lines[line - 1])
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens, lines


class _Parser:
    def __init__(self, tokens: list[_Token], lines: list[str]):
        self.tokens = tokens
        self.lines = lines
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        excerpt = self.lines[tok.line - 1] if tok.line - 1 < len(self.lines) else ""
        raise HSpecSyntaxError(message, tok.line, tok.col, excerpt)

    def expect_sym(self, sym: str) -> _Token:
        t = self.peek()
        if t.kind != "sym" or t.text != sym:
            self.fail(f"expected {sym!r}, got {t}")
        return self.next()

    def expect_name(self, what: str) -> _Token:
        t = self.peek()
        if t.kind != "name":
            self.fail(f"expected {what}, got {t}")
        return self.next()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        t = self.peek()
        if t.kind != "num" or "." in t.text:
            self.fail(f"expected {what} (an integer)")
        return int(self.next().text), t

    # grammar productions -------------------------------------------------

    def parse_spec(self) -> HSpecAst:
        decls: list[tuple[str, int]] = []
        total = 1
        seen: dict[str, _Token] = {}
        terms: tuple[Term, ...] | None = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "name" and t.text == "system":
                self.next()
                lab_tok = self.expect_name("a subsystem label")
                if lab_tok.text in seen:
                    self.fail(f"subsystem {lab_tok.text!r} already declared", lab_tok)
                self.expect_sym(":")
                dim, dim_tok = self.expect_int("the subsystem dimension")
                if dim < 1:
                    self.fail("subsystem dimension must be >= 1", dim_tok)
                total *= dim
                if total > MAX_TOTAL_DIM:
                    self.fail(f"total dimension {total} exceeds the cap {MAX_TOTAL_DIM}",
                              dim_tok)
                self.expect_sym(";")
                seen[lab_tok.text] = lab_tok
                decls.append((lab_tok.text, dim))
            elif t.kind == "name" and t.text == "H":
                if terms is not None:
                    self.fail("only one H statement is allowed", t)
                self.next()
                self.expect_sym("=")
                terms = self.parse_expr()
                self.expect_sym(";")
            else:
                self.fail(f"expected 'system' or 'H', got {t}")
        if not decls:
            self.fail("no system declarations")
        if terms is None:
            self.fail("missing H statement")
        ast = HSpecAst(tuple(decls), terms)
        _validate(ast, self.lines)
        return ast

    def parse_expr(self) -> tuple[Term, ...]:
        terms = []
        sign = 1.0
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.next()
            sign = -1.0
        terms.append(self.parse_term(sign))
        while self.peek().kind == "sym" and self.peek().text in "+-":
            sign = 1.0 if self.next().text == "+" else -1.0
            terms.append(self.parse_term(sign))
        return tuple(terms)

    def parse_term(self, sign: float) -> Term:
        coeff = Coefficient(sign)
        if self.peek().kind == "num":
            num = float(self.next().text)
            root = None
            if self.peek().kind == "sym" and self.peek().text == "/":
                self.next()
                s = self.expect_name("'sqrt'")
                if s.text != "sqrt":
                    self.fail(f"expected 'sqrt', got {s.text!r}", s)
                self.expect_sym("(")
                root, root_tok = self.expect_int("the sqrt argument")
                if root < 1:
                    self.fail("sqrt argument must be >= 1", root_tok)
                self.expect_sym(")")
            self.expect_sym("*")
            coeff = Coefficient(sign * num, root)
        ops = [self.parse_opref()]
        while self.peek().kind == "sym" and self.peek().text == "@":
            self.next()
            ops.append(self.parse_opref())
        return Term(coeff, tuple(ops))

    def parse_opref(self) -> OpRef:
        name_tok = self.expect_name("an operator name")
        if name_tok.text not in OPERATORS:
            self.fail(f"unknown operator {name_tok.text!r}; "
                      f"expected one of {', '.join(OPERATORS)}", name_tok)
        self.expect_sym("(")
        lab_tok = self.expect_name("a subsystem label")
        arg = None
        if self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            arg, _ = self.expect_int("an operator argument")
        self.expect_sym(")")
        return OpRef(name_tok.text, lab_tok.text, arg,
                     line=name_tok.line, col=name_tok.col)


def _validate(ast: HSpecAst, lines: list[str]) -> None:
    dims = dict(ast.declarations)
    for term in ast.terms:
        for op in term.ops:
            at = (op.line, op.col, lines[op.line - 1] if 0 < op.line <= len(lines) else "")
            if op.label not in dims:
                raise UnknownLabelError(f"undeclared subsystem {op.label!r}", *at)
            d = dims[op.label]
            lo, qubit_only, _ = OPERATORS[op.name]
            if lo is None:
                if op.arg is not None:
                    raise ArgOutOfRangeError(f"{op.name} takes no argument", *at)
                if qubit_only and d != 2:
                    raise PauliOnQuditError(
                        f"{op.name} needs a dim-2 subsystem; {op.label!r} has dim {d}", *at)
            else:
                if op.arg is None:
                    raise ArgOutOfRangeError(f"{op.name} requires a level argument", *at)
                if not lo <= op.arg < d:
                    raise ArgOutOfRangeError(f"{op.name} argument {op.arg} outside "
                                             f"[{lo}, {d - 1}] for {op.label!r} of dim {d}", *at)


def parse(text: str) -> HSpecAst:
    """Parse spec text into a validated, canonically ordered AST."""
    if len(text.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise HSpecSyntaxError("spec text exceeds 1 MB")
    tokens, lines = _lex(text)
    return _Parser(tokens, lines).parse_spec()


def parse_file(path) -> HSpecAst:
    with open(path, encoding="utf-8") as fh:
        # each character is at least one byte, so a file cut off here is over the cap
        return parse(fh.read(MAX_SOURCE_BYTES + 1))


def build(ast: HSpecAst) -> Hamiltonian:
    """Assemble the dense matrix; Hermiticity is verified on construction.

    Each term's factors, one matrix per label (oprefs sharing a label
    multiplied in written order), are chained by ``kron_stack`` in layout
    order and placed on their labels by ``embed_operator``.  Terms are summed
    in the AST's canonical order regardless of how the source was written,
    so permuted inputs build identical matrices.
    Finite coefficients can still sum past the largest float: the first
    term whose addition leaves a non-finite entry is named.
    """
    layout = ast.layout
    total = np.zeros((layout.dim, layout.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in ast.terms:
            factors: dict[str, np.ndarray] = {}
            for op in term.ops:
                m = OPERATORS[op.name][2](layout.dim_of(op.label), op.arg)
                factors[op.label] = factors[op.label] @ m if op.label in factors else m
            labels = [lab for lab in layout.labels if lab in factors]
            chain = functools.reduce(kron_stack, [factors[lab] for lab in labels])
            total += term.coefficient.value * embed_operator(layout, labels, chain)
            if not np.isfinite(total).all():
                op = term.ops[0]
                raise HSpecSyntaxError("the sum of the terms up to this one "
                                       "overflows a float", op.line, op.col)
    return Hamiltonian(layout, total)


def format_ast(ast: HSpecAst) -> str:
    """Canonical rendering; parse(format_ast(ast)) == ast."""
    out = [f"system {lab}:{dim};" for lab, dim in ast.declarations]
    parts: list[str] = []
    for k, term in enumerate(ast.terms):
        c = term.coefficient
        body = "@".join(op.formatted() for op in term.ops)
        if not c.is_unit_magnitude:
            body = f"{c.formatted()}*{body}"
        if k == 0:
            parts.append(f"-{body}" if c.value < 0 else body)
        else:
            parts.append(("- " if c.value < 0 else "+ ") + body)
    out.append("H = " + " ".join(parts) + ";")
    return "\n".join(out) + "\n"
