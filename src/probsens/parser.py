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
program variable and must be definitely assigned before any read.  Because
that distinction only exists once the whole program has been seen, parsing
happens in two stages: a grammar pass building raw expression trees, then a
binding pass that classifies names and lowers the trees into polynomials
over variables with exact parameter coefficients.  A guarded loop
``while G`` (G not literally true) is desugared to ``while true`` with the
body wrapped in ``if G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


# ---------------------------------------------------------------------------
# Raw (unresolved) trees produced by the grammar pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RNum:
    value: Fraction


@dataclass(frozen=True)
class RName:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class RBin:
    op: str  # + - * /
    lhs: "RExpr"
    rhs: "RExpr"
    line: int
    col: int


@dataclass(frozen=True)
class RPow:
    base: "RExpr"
    exp: int


@dataclass(frozen=True)
class RNeg:
    arg: "RExpr"


RExpr = Union[RNum, RName, RBin, RPow, RNeg]


def _expr_names(e: RExpr, acc: set[str]):
    if isinstance(e, RName):
        acc.add(e.name)
    elif isinstance(e, RBin):
        _expr_names(e.lhs, acc)
        _expr_names(e.rhs, acc)
    elif isinstance(e, RPow):
        _expr_names(e.base, acc)
    elif isinstance(e, RNeg):
        _expr_names(e.arg, acc)


@dataclass(frozen=True)
class RCmp:
    lhs: RExpr
    op: str
    rhs: RExpr


@dataclass(frozen=True)
class RNot:
    arg: "RBexpr"


@dataclass(frozen=True)
class RAnd:
    lhs: "RBexpr"
    rhs: "RBexpr"


@dataclass(frozen=True)
class ROr:
    lhs: "RBexpr"
    rhs: "RBexpr"


@dataclass(frozen=True)
class RBool:
    value: bool


RBexpr = Union[RCmp, RNot, RAnd, ROr, RBool]


def _bexpr_names(b: RBexpr, acc: set[str]):
    if isinstance(b, RCmp):
        _expr_names(b.lhs, acc)
        _expr_names(b.rhs, acc)
    elif isinstance(b, RNot):
        _bexpr_names(b.arg, acc)
    elif isinstance(b, (RAnd, ROr)):
        _bexpr_names(b.lhs, acc)
        _bexpr_names(b.rhs, acc)


@dataclass(frozen=True)
class RCat:
    choices: tuple[tuple[RExpr, Optional[RExpr]], ...]


@dataclass(frozen=True)
class RDist:
    kind: str
    args: tuple[RExpr, ...]


RRhs = Union[RCat, RDist]


def _rhs_names(rhs: RRhs, acc: set[str]):
    if isinstance(rhs, RCat):
        for poly, prob in rhs.choices:
            _expr_names(poly, acc)
            if prob is not None:
                _expr_names(prob, acc)
    else:
        for a in rhs.args:
            _expr_names(a, acc)


@dataclass(frozen=True)
class RAssign:
    targets: tuple[str, ...]
    rhss: tuple[RRhs, ...]
    line: int


@dataclass(frozen=True)
class RIf:
    branches: tuple[tuple[RBexpr, tuple["RStmt", ...]], ...]
    else_body: Optional[tuple["RStmt", ...]]
    line: int


RStmt = Union[RAssign, RIf]


# ---------------------------------------------------------------------------
# Grammar pass
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

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

    # -- arithmetic expressions -------------------------------------------------

    def parse_expr(self) -> RExpr:
        left = self._multiplicative()
        while self.peek().kind in ("PLUS", "MINUS"):
            tok = self.advance()
            right = self._multiplicative()
            left = RBin("+" if tok.kind == "PLUS" else "-", left, right, tok.line, tok.col)
        return left

    def _multiplicative(self) -> RExpr:
        left = self._unary()
        while self.peek().kind in ("STAR", "SLASH"):
            tok = self.advance()
            right = self._unary()
            left = RBin("*" if tok.kind == "STAR" else "/", left, right, tok.line, tok.col)
        return left

    def _unary(self) -> RExpr:
        tok = self.peek()
        if tok.kind == "MINUS":
            self.advance()
            return RNeg(self._unary())
        if tok.kind == "PLUS":
            self.advance()
            return self._unary()
        return self._power()

    def _power(self) -> RExpr:
        base = self._atom()
        if self.peek().kind == "POW":
            self.advance()
            etok = self.expect("NUMBER", "a natural-number exponent")
            if "." in etok.text:
                raise ParseError("exponent must be a natural number", etok.line, etok.col)
            return RPow(base, int(etok.text))
        return base

    def _atom(self) -> RExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return RNum(Fraction(tok.text))
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
            return RName(tok.text, tok.line, tok.col)
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.col)

    # -- boolean expressions ------------------------------------------------------

    def parse_bexpr(self) -> RBexpr:
        return self._b_or()

    def _b_or(self) -> RBexpr:
        left = self._b_and()
        while self.at_keyword("or"):
            self.advance()
            left = ROr(left, self._b_and())
        return left

    def _b_and(self) -> RBexpr:
        left = self._b_not()
        while self.at_keyword("and"):
            self.advance()
            left = RAnd(left, self._b_not())
        return left

    def _b_not(self) -> RBexpr:
        if self.at_keyword("not"):
            self.advance()
            return RNot(self._b_not())
        return self._b_atom()

    def _b_atom(self) -> RBexpr:
        tok = self.peek()
        if self.at_keyword("true"):
            self.advance()
            return RBool(True)
        if self.at_keyword("false"):
            self.advance()
            return RBool(False)
        if tok.kind == "STAR":
            # the star guard spelling of `true`
            self.advance()
            return RBool(True)
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
        rhs = self.parse_expr()
        return RCmp(lhs, _CMP_TOKENS[op_tok.kind], rhs)

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

    def parse_assign_rhs(self) -> RRhs:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in DIST_KINDS and self.peek(1).kind == "LPAREN":
            self.advance()
            self.advance()
            args: list[RExpr] = []
            if self.peek().kind != "RPAREN":
                args.append(self.parse_expr())
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.parse_expr())
            self.expect("RPAREN", "')'")
            return RDist(tok.text, tuple(args))

        choices: list[tuple[RExpr, Optional[RExpr]]] = []
        first = self.parse_expr()
        if self.peek().kind != "LBRACE":
            return RCat(((first, None),))
        choices.append((first, self._parse_prob()))
        while True:
            tok = self.peek()
            if tok.kind in ("NEWLINE", "EOF", "COMMA"):
                break
            poly = self.parse_expr()
            if self.peek().kind == "LBRACE":
                choices.append((poly, self._parse_prob()))
            else:
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
        return RCat(tuple(choices))

    def _parse_prob(self) -> RExpr:
        self.expect("LBRACE", "'{'")
        prob = self.parse_expr()
        self.expect("RBRACE", "'}'")
        return prob

    def parse_assignment(self) -> RAssign:
        start = self.peek()
        targets = [self.expect("NAME", "a variable name").text]
        while self.peek().kind == "COMMA":
            self.advance()
            targets.append(self.expect("NAME", "a variable name").text)
        for t in targets:
            if t in KEYWORDS or t in DIST_KINDS:
                raise ParseError(f"{t!r} cannot be assigned", start.line, start.col)
        self.expect("ASSIGN", "'='")
        rhss = [self.parse_assign_rhs()]
        while self.peek().kind == "COMMA":
            self.advance()
            rhss.append(self.parse_assign_rhs())
        if len(rhss) != len(targets):
            raise ParseError(
                f"{len(targets)} target(s) but {len(rhss)} right-hand side(s)",
                start.line,
                start.col,
            )
        if len(set(targets)) != len(targets):
            raise ParseError("duplicate target in simultaneous assignment", start.line, start.col)
        self.end_of_statement()
        return RAssign(tuple(targets), tuple(rhss), start.line)

    # -- statements --------------------------------------------------------------------

    def parse_statements(self, terminators: tuple[str, ...]) -> tuple[RStmt, ...]:
        out: list[RStmt] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "NAME" and tok.text in terminators:
                break
            if self.at_keyword("if"):
                out.append(self.parse_if())
            elif self.at_keyword("while"):
                break
            else:
                out.append(self.parse_assignment())
        return tuple(out)

    def parse_if(self) -> RIf:
        start = self.expect_keyword("if")
        branches: list[tuple[RBexpr, tuple[RStmt, ...]]] = []
        cond = self.parse_bexpr()
        self.expect("COLON", "':'")
        body = self.parse_statements(("else", "end"))
        branches.append((cond, body))
        while True:
            self.skip_newlines()
            if self.at_keyword("else"):
                self.advance()
                if self.at_keyword("if"):
                    self.advance()
                    cond = self.parse_bexpr()
                    self.expect("COLON", "':'")
                    body = self.parse_statements(("else", "end"))
                    branches.append((cond, body))
                else:
                    self.expect("COLON", "':'")
                    else_body = self.parse_statements(("end",))
                    self.skip_newlines()
                    self.expect_keyword("end")
                    self.end_of_statement()
                    return RIf(tuple(branches), else_body, start.line)
            elif self.at_keyword("end"):
                self.advance()
                self.end_of_statement()
                return RIf(tuple(branches), None, start.line)
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected 'else' or 'end', found {tok.text!r}", tok.line, tok.col
                )

    def parse_program(self) -> tuple[tuple[RStmt, ...], RBexpr, tuple[RStmt, ...], Token]:
        init_stmts = self.parse_statements(())
        self.skip_newlines()
        start = self.expect_keyword("while")
        guard = self.parse_bexpr()
        self.expect("COLON", "':'")
        body = self.parse_statements(("end",))
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
        return init_stmts, guard, body, start


# ---------------------------------------------------------------------------
# Binding pass and lowering
# ---------------------------------------------------------------------------


def _collect_assigned_raw(statements, acc: set[str]):
    for st in statements:
        if isinstance(st, RAssign):
            acc.update(st.targets)
        else:
            for _, body in st.branches:
                _collect_assigned_raw(body, acc)
            if st.else_body is not None:
                _collect_assigned_raw(st.else_body, acc)


class _Lowerer:
    def __init__(self, variables: frozenset[str]):
        self.variables = variables

    def poly(self, e: RExpr) -> PolyExpr:
        if isinstance(e, RNum):
            return PolyExpr.const(e.value)
        if isinstance(e, RName):
            if e.name in self.variables:
                return PolyExpr.var(e.name)
            return PolyExpr.const(ParamExpr(e.name))
        if isinstance(e, RNeg):
            return -self.poly(e.arg)
        if isinstance(e, RPow):
            return self.poly(e.base) ** e.exp
        if isinstance(e, RBin):
            lhs = self.poly(e.lhs)
            rhs = self.poly(e.rhs)
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            if e.op == "*":
                return lhs * rhs
            if not rhs.is_constant:
                raise ParseError(
                    "division by an expression containing program variables", e.line, e.col
                )
            divisor = rhs.constant_value()
            if divisor.is_zero:
                raise ParseError("division by zero", e.line, e.col)
            return lhs.scale(ParamExpr(1) / divisor)
        raise AssertionError(e)

    def const(self, e: RExpr, what: str, line: int) -> ParamExpr:
        poly = self.poly(e)
        if not poly.is_constant:
            offenders = sorted(poly.variables())
            raise ParseError(
                f"{what} must not contain program variables (found {', '.join(offenders)})",
                line,
            )
        return poly.constant_value()

    def bexpr(self, b: RBexpr) -> BExpr:
        if isinstance(b, RBool):
            return BTrue() if b.value else BFalse()
        if isinstance(b, RCmp):
            return Comparison(self.poly(b.lhs), b.op, self.poly(b.rhs))
        if isinstance(b, RNot):
            return Not(self.bexpr(b.arg))
        if isinstance(b, RAnd):
            return And(self.bexpr(b.lhs), self.bexpr(b.rhs))
        return Or(self.bexpr(b.lhs), self.bexpr(b.rhs))

    def rhs(self, r: RRhs, line: int) -> AssignRhs:
        if isinstance(r, RDist):
            return DistDraw(r.kind, tuple(self.const(a, "distribution argument", line) for a in r.args))
        lowered: list[tuple[PolyExpr, Optional[ParamExpr]]] = []
        for poly, prob in r.choices:
            lowered.append(
                (
                    self.poly(poly),
                    None if prob is None else self.const(prob, "probability", line),
                )
            )
        if len(lowered) == 1 and lowered[0][1] is None:
            return Categorical.sure(lowered[0][0])
        total = ParamExpr.zero()
        for _, p in lowered:
            if p is not None:
                total = total + p
        final: list[tuple[PolyExpr, ParamExpr]] = []
        for poly, p in lowered:
            final.append((poly, ParamExpr.one() - total if p is None else p))
        return Categorical(tuple(final))

    def statement(self, st: RStmt) -> Statement:
        if isinstance(st, RAssign):
            return Assignment(
                st.targets, tuple(self.rhs(r, st.line) for r in st.rhss), st.line
            )
        return IfStatement(
            tuple(
                (self.bexpr(cond), tuple(self.statement(s) for s in body))
                for cond, body in st.branches
            ),
            None
            if st.else_body is None
            else tuple(self.statement(s) for s in st.else_body),
            st.line,
        )


def _check_bindings(statements, assigned: set[str], variables: frozenset[str]):
    """Definite-assignment analysis over the raw tree.

    An assignment reached on some paths but not others implicitly keeps the
    old value on the paths that skip it, so the target must have a value
    beforehand unless every path through the conditional assigns it.
    """
    for st in statements:
        if isinstance(st, RAssign):
            reads: set[str] = set()
            for rhs in st.rhss:
                _rhs_names(rhs, reads)
            for name in sorted(reads):
                if name in variables and name not in assigned:
                    raise ParseError(
                        f"variable {name!r} may be read before assignment", st.line
                    )
            assigned.update(st.targets)
        else:
            branch_sets: list[set[str]] = []
            for cond, body in st.branches:
                reads = set()
                _bexpr_names(cond, reads)
                for name in sorted(reads):
                    if name in variables and name not in assigned:
                        raise ParseError(
                            f"variable {name!r} may be read before assignment", st.line
                        )
                s = set(assigned)
                _check_bindings(body, s, variables)
                branch_sets.append(s)
            if st.else_body is not None:
                s = set(assigned)
                _check_bindings(st.else_body, s, variables)
                branch_sets.append(s)
            else:
                branch_sets.append(set(assigned))
            common = set.intersection(*branch_sets)
            touched = set.union(*branch_sets)
            partial = sorted(touched - common - assigned)
            if partial:
                raise ParseError(
                    f"variable {partial[0]!r} is assigned only on some paths and has "
                    f"no prior value to keep",
                    st.line,
                )
            assigned.update(common)


def parse(source: str, name: str = "<program>") -> Program:
    """Parse source text into a validated Program."""
    tokens = tokenize(source)
    raw_init, raw_guard, raw_body, while_tok = _Parser(tokens).parse_program()

    for st in raw_init:
        if isinstance(st, RIf):
            raise ParseError(
                "conditional statements are not supported before the loop", st.line
            )

    assigned_anywhere: set[str] = set()
    _collect_assigned_raw(raw_init, assigned_anywhere)
    _collect_assigned_raw(raw_body, assigned_anywhere)
    variables = frozenset(assigned_anywhere)

    read_names: set[str] = set()

    def collect_reads(statements):
        for st in statements:
            if isinstance(st, RAssign):
                for rhs in st.rhss:
                    _rhs_names(rhs, read_names)
            else:
                for cond, body in st.branches:
                    _bexpr_names(cond, read_names)
                    collect_reads(body)
                if st.else_body is not None:
                    collect_reads(st.else_body)

    collect_reads(raw_init)
    collect_reads(raw_body)
    _bexpr_names(raw_guard, read_names)
    params = frozenset(read_names - variables)

    # Definite assignment: init runs once in order; the loop body may read
    # anything assigned by init or earlier in the same iteration (the first
    # iteration is the binding constraint; later ones only see more).
    assigned: set[str] = set()
    for st in raw_init:
        reads: set[str] = set()
        for rhs in st.rhss:
            _rhs_names(rhs, reads)
        for n in sorted(reads):
            if n in variables and n not in assigned:
                raise ParseError(f"variable {n!r} may be read before assignment", st.line)
        for t in st.targets:
            if t in assigned:
                raise ParseError(f"variable {t!r} is initialized twice", st.line)
        assigned.update(st.targets)

    guard_reads: set[str] = set()
    _bexpr_names(raw_guard, guard_reads)
    for n in sorted(guard_reads):
        if n in variables and n not in assigned:
            raise ParseError(
                f"variable {n!r} is read by the loop guard before assignment",
                while_tok.line,
            )
    _check_bindings(raw_body, assigned, variables)

    lower = _Lowerer(variables)
    init = tuple(lower.statement(st) for st in raw_init)
    guard = lower.bexpr(raw_guard)
    body = tuple(lower.statement(st) for st in raw_body)

    # Desugar a guarded loop into an unconditional one.
    if not isinstance(guard, BTrue):
        body = (IfStatement(((guard, body),), None, while_tok.line),)
        guard = BTrue()

    return Program(
        params=params,
        init=init,  # type: ignore[arg-type]
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
    p = _Parser(tokens)
    raw = p.parse_expr()
    p.skip_newlines()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r} in monomial", tok.line, tok.col)
    names: set[str] = set()
    _expr_names(raw, names)
    poly = _Lowerer(frozenset(names)).poly(raw)
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

