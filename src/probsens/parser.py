"""Parser for the probabilistic loop language.

The surface syntax is newline-separated statements with ``end`` block
terminators::

    x, y = 0, 1
    while true:
        x = x + 1 {1/2} x - 1
        if x < 3:
            y = Bernoulli(p)
        end
    end

Numeric literals are kept exact (decimals become fractions).  A name that is
never assigned anywhere is a symbolic parameter; every assigned name is a
program variable and must be definitely assigned before any read.  One scan
of the tokens first collects the assigned names: a statement starts the
source or follows a newline or a header's ``:``, and a name list followed by
``=`` there is an assignment.  One recursive-descent pass then builds the
polynomials, conditions and statements of ``syntax`` directly.  It checks
divisions, that probabilities and distribution arguments read no program
variable, and definite assignment statement by statement, so the first error
in source order is the one raised.  A guarded loop ``while G`` (G not
literally true) is desugared to ``while true`` with the body wrapped in
``if G``.  The values of probabilities and distribution arguments are
checked afterwards, by :func:`validate`: numeric probabilities in [0, 1]
that sum to one, the number of a draw's arguments, and the bounds of
``DiscreteUniform`` and ``Uniform``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .symbolic import ParamExpr
from .syntax import (
    And,
    Assignment,
    AssignRhs,
    BExpr,
    BFalse,
    BTrue,
    Categorical,
    Comparison,
    DIST_KINDS,
    DistDraw,
    IfStatement,
    Not,
    Or,
    PolyExpr,
    Program,
    Statement,
    VarMonomial,
)

KEYWORDS = {"while", "if", "else", "end", "true", "false", "not", "and", "or"}

_PUNCT = [
    ("**", "POW"),
    ("==", "EQ"),
    ("!=", "NE"),
    ("<=", "LE"),
    (">=", "GE"),
    ("=", "ASSIGN"),
    ("<", "LT"),
    (">", "GT"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (":", "COLON"),
]

_UNICODE_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">=", "⋆": "*"}

_CMP_TOKENS = {"EQ": "==", "ASSIGN": "==", "NE": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, NEWLINE, EOF, or a punctuation kind
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)

    def emit(kind: str, text: str):
        tokens.append(Token(kind, text, line, col))

    while i < n:
        ch = source[i]
        if ch in _UNICODE_ALIASES:
            repl = _UNICODE_ALIASES[ch]
            kind = next(k for t, k in _PUNCT if t == repl)
            emit(kind, repl)
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if tokens and tokens[-1].kind != "NEWLINE":
                emit("NEWLINE", "\n")
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            emit("NUMBER", source[i:j])
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            emit("NAME", source[i:j])
            col += j - i
            i = j
            continue
        for text, kind in _PUNCT:
            if source.startswith(text, i):
                emit(kind, text)
                i += len(text)
                col += len(text)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    if tokens and tokens[-1].kind != "NEWLINE":
        tokens.append(Token("NEWLINE", "\n", line, col))
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _assigned_names(tokens: list[Token]) -> frozenset[str]:
    """The names some statement assigns, found in one scan of the tokens.

    A statement starts the token list or follows a NEWLINE or a header's
    ':', and a name list followed by '=' at such a start is an assignment.
    """
    names: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "NAME" or (i > 0 and tokens[i - 1].kind not in ("NEWLINE", "COLON")):
            continue
        j = i
        while tokens[j + 1].kind == "COMMA" and tokens[j + 2].kind == "NAME":
            j += 2
        if tokens[j + 1].kind == "ASSIGN":
            names.update(tokens[k].text for k in range(i, j + 1, 2))
    return frozenset(names)


class _Parser:
    """Recursive descent straight into the syntax tree of ``syntax.py``.

    A name in ``variables`` lowers to a program variable and any other name
    to a parameter.  Variables read are kept in ``reads`` until the
    enclosing statement checks that each one is definitely assigned.
    """

    def __init__(self, tokens: list[Token], variables: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.reads: set[str] = set()
        self.params: set[str] = set()

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise ParseError(f"expected {want}, found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_keyword(word):
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)
        return self.advance()

    def end_of_statement(self):
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r} after statement", tok.line, tok.col)

    def check_reads(self, assigned: set[str], line: int, how: str = "may be read"):
        """Raise unless every variable read since the last check is in
        ``assigned``; the reads are then forgotten."""
        unbound = sorted(self.reads - assigned)
        self.reads = set()
        if unbound:
            raise ParseError(f"variable {unbound[0]!r} {how} before assignment", line)

    # -- arithmetic expressions -------------------------------------------------

    def parse_expr(self) -> PolyExpr:
        left = self._multiplicative()
        while self.peek().kind in ("PLUS", "MINUS"):
            tok = self.advance()
            right = self._multiplicative()
            left = left + right if tok.kind == "PLUS" else left - right
        return left

    def _multiplicative(self) -> PolyExpr:
        left = self._unary()
        while self.peek().kind in ("STAR", "SLASH"):
            tok = self.advance()
            right = self._unary()
            if tok.kind == "STAR":
                left = left * right
                continue
            if not right.is_constant:
                raise ParseError(
                    "division by an expression containing program variables", tok.line, tok.col
                )
            divisor = right.constant_value()
            if divisor.is_zero:
                raise ParseError("division by zero", tok.line, tok.col)
            left = left.scale(ParamExpr(1) / divisor)
        return left

    def _unary(self) -> PolyExpr:
        tok = self.peek()
        if tok.kind == "MINUS":
            self.advance()
            return -self._unary()
        if tok.kind == "PLUS":
            self.advance()
            return self._unary()
        return self._power()

    def _power(self) -> PolyExpr:
        base = self._atom()
        if self.peek().kind == "POW":
            self.advance()
            etok = self.expect("NUMBER", "a natural-number exponent")
            if "." in etok.text:
                raise ParseError("exponent must be a natural number", etok.line, etok.col)
            return base ** int(etok.text)
        return base

    def _atom(self) -> PolyExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return PolyExpr.const(Fraction(tok.text))
        if tok.kind == "NAME":
            if tok.text in KEYWORDS:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            if tok.text in DIST_KINDS and self.peek(1).kind == "LPAREN":
                raise ParseError(
                    f"a {tok.text} draw must be the entire right-hand side, "
                    f"not part of an expression",
                    tok.line,
                    tok.col,
                )
            self.advance()
            if tok.text in self.variables:
                self.reads.add(tok.text)
                return PolyExpr.var(tok.text)
            self.params.add(tok.text)
            return PolyExpr.const(ParamExpr(tok.text))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.col)

    @staticmethod
    def _const(poly: PolyExpr, what: str, line: int) -> ParamExpr:
        if not poly.is_constant:
            offenders = sorted(poly.variables())
            raise ParseError(
                f"{what} must not contain program variables (found {', '.join(offenders)})",
                line,
            )
        return poly.constant_value()

    # -- boolean expressions ------------------------------------------------------

    def parse_bexpr(self) -> BExpr:
        return self._b_or()

    def _b_or(self) -> BExpr:
        left = self._b_and()
        while self.at_keyword("or"):
            self.advance()
            left = Or(left, self._b_and())
        return left

    def _b_and(self) -> BExpr:
        left = self._b_not()
        while self.at_keyword("and"):
            self.advance()
            left = And(left, self._b_not())
        return left

    def _b_not(self) -> BExpr:
        if self.at_keyword("not"):
            self.advance()
            return Not(self._b_not())
        return self._b_atom()

    def _b_atom(self) -> BExpr:
        tok = self.peek()
        if self.at_keyword("true"):
            self.advance()
            return BTrue()
        if self.at_keyword("false"):
            self.advance()
            return BFalse()
        if tok.kind == "STAR":
            # the star guard spelling of `true`
            self.advance()
            return BTrue()
        if tok.kind == "LPAREN" and self._paren_is_bexpr():
            self.advance()
            inner = self._b_or()
            self.expect("RPAREN", "')'")
            return inner
        lhs = self.parse_expr()
        op_tok = self.peek()
        if op_tok.kind not in _CMP_TOKENS:
            raise ParseError(
                f"expected a comparison operator, found {op_tok.text!r}",
                op_tok.line,
                op_tok.col,
            )
        self.advance()
        return Comparison(lhs, _CMP_TOKENS[op_tok.kind], self.parse_expr())

    def _paren_is_bexpr(self) -> bool:
        """Decide whether '(' opens a boolean group or an arithmetic one by
        scanning to the matching ')' for boolean operators or comparisons."""
        depth = 0
        k = 0
        while True:
            tok = self.peek(k)
            if tok.kind == "EOF":
                return False
            if tok.kind == "LPAREN":
                depth += 1
            elif tok.kind == "RPAREN":
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1:
                if tok.kind in _CMP_TOKENS:
                    return True
                if tok.kind == "NAME" and tok.text in ("and", "or", "not", "true", "false"):
                    return True
            k += 1

    # -- assignments ----------------------------------------------------------------

    def parse_assign_rhs(self, line: int) -> AssignRhs:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in DIST_KINDS and self.peek(1).kind == "LPAREN":
            self.advance()
            self.advance()
            args: list[PolyExpr] = []
            if self.peek().kind != "RPAREN":
                args.append(self.parse_expr())
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.parse_expr())
            self.expect("RPAREN", "')'")
            return DistDraw(
                tok.text, tuple(self._const(a, "distribution argument", line) for a in args)
            )

        first = self.parse_expr()
        if self.peek().kind != "LBRACE":
            return Categorical.sure(first)
        choices: list[tuple[PolyExpr, Optional[ParamExpr]]] = [(first, self._parse_prob(line))]
        while self.peek().kind not in ("NEWLINE", "EOF", "COMMA"):
            poly = self.parse_expr()
            if self.peek().kind == "LBRACE":
                choices.append((poly, self._parse_prob(line)))
                continue
            # Only the final probability may be omitted; more polynomial
            # content after a braceless choice means two were dropped.
            choices.append((poly, None))
            nxt = self.peek()
            if nxt.kind in ("NUMBER", "LPAREN", "MINUS", "PLUS") or (
                nxt.kind == "NAME" and nxt.text not in KEYWORDS
            ):
                raise ParseError(
                    "more than one probability omitted in a probabilistic choice",
                    nxt.line,
                    nxt.col,
                )
            break
        total = ParamExpr.zero()
        for _, p in choices:
            if p is not None:
                total = total + p
        return Categorical(
            tuple((poly, ParamExpr.one() - total if p is None else p) for poly, p in choices)
        )

    def _parse_prob(self, line: int) -> ParamExpr:
        self.expect("LBRACE", "'{'")
        prob = self.parse_expr()
        self.expect("RBRACE", "'}'")
        return self._const(prob, "probability", line)

    def parse_assignment(self, assigned: set[str]) -> Assignment:
        """Parse one assignment whose reads must all be in ``assigned``; the
        caller records its targets."""
        start = self.peek()
        targets = [self.expect("NAME", "a variable name").text]
        while self.peek().kind == "COMMA":
            self.advance()
            targets.append(self.expect("NAME", "a variable name").text)
        for t in targets:
            if t in KEYWORDS or t in DIST_KINDS:
                raise ParseError(f"{t!r} cannot be assigned", start.line, start.col)
        self.expect("ASSIGN", "'='")
        rhss = [self.parse_assign_rhs(start.line)]
        while self.peek().kind == "COMMA":
            self.advance()
            rhss.append(self.parse_assign_rhs(start.line))
        if len(rhss) != len(targets):
            raise ParseError(
                f"{len(targets)} target(s) but {len(rhss)} right-hand side(s)",
                start.line,
                start.col,
            )
        if len(set(targets)) != len(targets):
            raise ParseError("duplicate target in simultaneous assignment", start.line, start.col)
        self.end_of_statement()
        self.check_reads(assigned, start.line)
        return Assignment(tuple(targets), tuple(rhss), start.line)

    # -- statements --------------------------------------------------------------------

    def parse_statements(self, terminators: tuple[str, ...], assigned: set[str]) -> tuple[Statement, ...]:
        """Parse statements up to a terminator, 'while' or the end of input,
        adding the variables they definitely assign to ``assigned``."""
        out: list[Statement] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF" or self.at_keyword("while"):
                break
            if tok.kind == "NAME" and tok.text in terminators:
                break
            if self.at_keyword("if"):
                out.append(self.parse_if(assigned))
            else:
                st = self.parse_assignment(assigned)
                assigned.update(st.targets)
                out.append(st)
        return tuple(out)

    def parse_if(self, assigned: set[str]) -> IfStatement:
        """Parse an if/else chain.  An assignment reached on some paths but
        not others implicitly keeps the old value on the paths that skip it,
        so the target must have a value beforehand unless every path through
        the chain assigns it."""
        start = self.expect_keyword("if")
        branches: list[tuple[BExpr, tuple[Statement, ...]]] = []
        paths: list[set[str]] = []
        else_body = None
        while True:
            cond = self.parse_bexpr()
            self.expect("COLON", "':'")
            self.check_reads(assigned, start.line)
            paths.append(set(assigned))
            branches.append((cond, self.parse_statements(("else", "end"), paths[-1])))
            self.skip_newlines()
            if self.at_keyword("end"):
                paths.append(set(assigned))
                break
            if not self.at_keyword("else"):
                tok = self.peek()
                raise ParseError(
                    f"expected 'else' or 'end', found {tok.text!r}", tok.line, tok.col
                )
            self.advance()
            if not self.at_keyword("if"):
                self.expect("COLON", "':'")
                paths.append(set(assigned))
                else_body = self.parse_statements(("end",), paths[-1])
                self.skip_newlines()
                break
            self.advance()
        self.expect_keyword("end")
        self.end_of_statement()
        common = set.intersection(*paths)
        partial = sorted(set.union(*paths) - common - assigned)
        if partial:
            raise ParseError(
                f"variable {partial[0]!r} is assigned only on some paths and has "
                f"no prior value to keep",
                start.line,
            )
        assigned.update(common)
        return IfStatement(tuple(branches), else_body, start.line)

    def parse_program(self) -> tuple[tuple[Assignment, ...], BExpr, tuple[Statement, ...], Token]:
        # Init runs once in order; the loop body may read anything assigned
        # by init or earlier in the same iteration (the first iteration is
        # the binding constraint; later ones only see more).
        assigned: set[str] = set()
        init: list[Assignment] = []
        self.skip_newlines()
        while not (self.at_keyword("while") or self.peek().kind == "EOF"):
            if self.at_keyword("if"):
                raise ParseError(
                    "conditional statements are not supported before the loop", self.peek().line
                )
            st = self.parse_assignment(assigned)
            for t in st.targets:
                if t in assigned:
                    raise ParseError(f"variable {t!r} is initialized twice", st.line)
            assigned.update(st.targets)
            init.append(st)
            self.skip_newlines()
        start = self.expect_keyword("while")
        guard = self.parse_bexpr()
        self.expect("COLON", "':'")
        self.check_reads(assigned, start.line, "is read by the loop guard")
        body = self.parse_statements(("end",), assigned)
        self.skip_newlines()
        self.expect_keyword("end")
        self.skip_newlines()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(
                f"unexpected {tok.text!r} after the loop (only one loop is allowed)",
                tok.line,
                tok.col,
            )
        return tuple(init), guard, body, start


def parse(source: str, name: str = "<program>") -> Program:
    """Parse source text into a Program; :func:`validate` then checks the
    values of its probabilities and distribution arguments."""
    tokens = tokenize(source)
    variables = _assigned_names(tokens)
    parser = _Parser(tokens, variables)
    init, guard, body, while_tok = parser.parse_program()

    # Desugar a guarded loop into an unconditional one.
    if not isinstance(guard, BTrue):
        body = (IfStatement(((guard, body),), None, while_tok.line),)
        guard = BTrue()

    return Program(
        params=frozenset(parser.params),
        init=init,
        guard=guard,
        body=body,
        variables=tuple(sorted(variables)),
        name=name,
    )


def parse_monomial(text: str) -> VarMonomial:
    """Parse a target monomial such as ``x`` or ``x*y**2``; ``1`` is the
    constant monomial.

    Every name in the text is treated as a variable; membership in a given
    program is checked by the caller.
    """
    tokens = tokenize(text)
    p = _Parser(tokens, frozenset(t.text for t in tokens if t.kind == "NAME"))
    poly = p.parse_expr()
    p.skip_newlines()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} in monomial", tok.line, tok.col)
    if len(poly.terms) != 1:
        raise ParseError("expected a single monomial")
    mono, coeff = poly.terms[0]
    if not coeff.is_one:
        raise ParseError("monomial must have coefficient 1")
    return mono


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def validate(prog: Program) -> list[Diagnostic]:
    """Check Program invariants not enforced during parsing.

    Returns diagnostics; an empty list means the program is fully valid.
    Fully numeric probability lists must sum to exactly 1; symbolic sums only
    produce a warning since their validity depends on the parameter values.
    """
    diags: list[Diagnostic] = []

    def check_rhs(rhs: AssignRhs, line: int):
        if isinstance(rhs, Categorical):
            total = ParamExpr.zero()
            symbolic = False
            for _, prob in rhs.choices:
                total = total + prob
                if prob.free_params():
                    symbolic = True
                elif prob.is_rational:
                    frac = prob.as_fraction()
                    if frac < 0 or frac > 1:
                        diags.append(
                            Diagnostic(
                                "error", f"line {line}: probability {frac} outside [0, 1]"
                            )
                        )
            if symbolic:
                if not rhs.is_deterministic:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"line {line}: symbolic probability; validity assumed for "
                            f"values in [0, 1]",
                        )
                    )
            elif not total.is_one:
                diags.append(
                    Diagnostic("error", f"line {line}: probabilities sum to {total}, not 1")
                )
        else:
            if rhs.kind == "Bernoulli" and len(rhs.args) != 1:
                diags.append(Diagnostic("error", f"line {line}: Bernoulli takes 1 argument"))
            if rhs.kind in ("Normal", "Uniform", "DiscreteUniform") and len(rhs.args) != 2:
                diags.append(Diagnostic("error", f"line {line}: {rhs.kind} takes 2 arguments"))
            if rhs.kind == "DiscreteUniform" and len(rhs.args) == 2:
                ok = all(a.is_rational and a.as_fraction().denominator == 1 for a in rhs.args)
                if not ok:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"line {line}: DiscreteUniform requires integer literal bounds",
                        )
                    )
                else:
                    lo, hi = (a.as_fraction() for a in rhs.args)
                    if lo > hi:
                        diags.append(
                            Diagnostic(
                                "error", f"line {line}: DiscreteUniform bounds out of order"
                            )
                        )
            if rhs.kind == "Uniform" and len(rhs.args) == 2:
                a, b = rhs.args
                if (b - a).is_zero:
                    diags.append(Diagnostic("error", f"line {line}: Uniform has an empty range"))

    def walk(statements):
        for st in statements:
            if isinstance(st, Assignment):
                for rhs in st.rhss:
                    check_rhs(rhs, st.line)
            else:
                for _, body in st.branches:
                    walk(body)
                if st.else_body is not None:
                    walk(st.else_body)

    walk(prog.init)
    walk(prog.body)
    return diags

