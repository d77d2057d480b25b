"""Expression and problem-file parsing.

Grammar for polynomial expressions (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-')* atom ('^' integer)?
    atom   := number | variable | '(' expr ')'
    number := integer ('/' integer)?     variable := 'x' digits

Problem files are plain text 'key = value' lines with '#' comments:
n (projective dimension), F (hypersurface equation), R (optional
deformation polynomial).  Diagnostics carry line and column, counted from
the start of the line.  Parentheses nest at most MAX_NESTING deep, n + 1
may not exceed polyring.MAX_PIECE_DIM, and a power past one of the size
budgets of Polynomial.__pow__ is a located parse error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ParseError
from .fields import QQ
from .polyring import MAX_PIECE_DIM, Polynomial

# Each level of parentheses costs four frames of the recursive descent, so
# the bound stays well inside the interpreter's default recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str   # NUM, VAR, OP, LPAREN, RPAREN, END
    text: str
    column: int
    line: int = 1


def _tokenize(text: str, line: int = 1, column: int = 1) -> List[Token]:
    """Split ``text`` into tokens; ``column`` is the column of ``text[0]``."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + column
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], col, line))
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index, like x0", line, col)
            tokens.append(Token("VAR", text[i:j], col, line))
            i = j
        elif ch in "+-*^/":
            tokens.append(Token("OP", ch, col, line))
            i += 1
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, col, line))
            i += 1
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, col, line))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", len(text) + column, line))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token], nvars: int, field):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.nvars = nvars
        self.field = field

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.peek().kind != "END":
            self.fail(f"unexpected {self.peek().text!r}")
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek().kind == "OP" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        base = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "NUM":
                self.fail("exponent must be a non-negative integer")
            self.advance()
            try:
                base = base ** int(tok.text)
            except ValueError as exc:  # past a size budget, or too many digits
                raise ParseError(str(exc), tok.line, tok.column) from None
        return base if sign > 0 else -base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            value = Fraction(int(tok.text))
            if self.peek().kind == "OP" and self.peek().text == "/":
                self.advance()
                den = self.peek()
                if den.kind != "NUM":
                    self.fail("denominator must be an integer")
                self.advance()
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                value = value / int(den.text)
            try:
                coeff = self.field.coerce(value)
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
            return Polynomial.constant(self.nvars, coeff, self.field)
        if tok.kind == "VAR":
            self.advance()
            idx = int(tok.text[1:])
            if idx >= self.nvars:
                raise ParseError(
                    f"unknown variable {tok.text} (expected x0..x{self.nvars - 1})",
                    tok.line, tok.column,
                )
            return Polynomial.variable(self.nvars, idx, self.field)
        if tok.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            self.advance()
            self.depth += 1
            inner = self.expr()
            if self.peek().kind != "RPAREN":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return inner
        if tok.kind == "OP" and tok.text == "/":
            self.fail("'/' is only allowed between integer literals")
        self.fail(f"expected a number, variable or '(', got {tok.text!r}")


def parse_polynomial(text: str, nvars: int, field=QQ, line: int = 1,
                     require_homogeneous: bool = False, column: int = 1) -> Polynomial:
    """Parse an expression into a canonical polynomial; ``line`` and
    ``column`` locate ``text[0]`` in its source."""
    poly = _Parser(_tokenize(text, line, column), nvars, field).parse()
    if require_homogeneous and not poly.is_homogeneous():
        raise ParseError("polynomial is not homogeneous", line, column)
    return poly


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem statement: coordinates, equation, optional deformation."""

    n: int
    nvars: int
    f_text: str
    r_text: Optional[str]
    f_line: int
    r_line: Optional[int]
    f_column: int
    r_column: Optional[int]

    def build(self, field=QQ) -> Tuple[Polynomial, Optional[Polynomial]]:
        F = parse_polynomial(self.f_text, self.nvars, field, line=self.f_line,
                             require_homogeneous=True, column=self.f_column)
        R = None
        if self.r_text is not None:
            R = parse_polynomial(self.r_text, self.nvars, field, line=self.r_line,
                                 require_homogeneous=True, column=self.r_column)
        return F, R


def parse_problem_text(text: str) -> ProblemFile:
    values = {}
    lines = {}
    columns = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ("n", "F", "R"):
            raise ParseError(f"unknown key {key!r}", lineno, 1)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        values[key] = value
        lines[key] = lineno
        columns[key] = raw.index(value, raw.index("=") + 1) + 1
    if "n" not in values:
        raise ParseError("missing 'n = <int>' line")
    if "F" not in values:
        raise ParseError("missing 'F = <expr>' line")
    try:
        n = int(values["n"])
    except ValueError:
        raise ParseError("n must be an integer", lines["n"], 1) from None
    if n < 1:
        raise ParseError("n must be at least 1", lines["n"], 1)
    if n + 1 > MAX_PIECE_DIM:
        raise ParseError(f"n + 1 = {n + 1} coordinates exceed the budget of "
                         f"{MAX_PIECE_DIM} monomials per graded piece",
                         lines["n"], columns["n"])
    return ProblemFile(
        n=n,
        nvars=n + 1,
        f_text=values["F"],
        r_text=values.get("R"),
        f_line=lines["F"],
        r_line=lines.get("R"),
        f_column=columns["F"],
        r_column=columns.get("R"),
    )


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem_text(handle.read())
