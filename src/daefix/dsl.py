"""Text format for DAE systems.

    dae pendulum
    vars x, y, lambda
    params G = 9.8, L = 1
    input h1
    eq f1: x'' + x*lambda = 0

Expressions use + - * / ^ with integer exponents, primes up to ''' for
derivatives (diff(x,k) beyond that), and driving functions always in call
form: h1(t), h1'(t), diff(h1(t),4).  '#' starts a comment.  Decimal literals
are read exactly (9.8 is the rational 49/5).  A line is read as the texts of
its tokens, from one scan; a column is computed only when an error needs one.
An expression nests at most MAX_DEPTH = 200 levels: each unary sign is one,
and so is each parenthesis (grouping, call, diff, driving function or
exponent).  Past that, the token that opens the next level is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional

from .expr import (
    FUNCS, Add, Const, DomainError, DrivingFn, Expr, Func, Mul, Param,
    Pow, StateDeriv, TimeVar, format_expr, simplify, total_derivative,
)
from .model import RESERVED, DaeSystem, ModelError, make_equation

MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.msg = msg
        self.line = line
        self.col = col


# One token after any whitespace.  Group 1 holds the token's text; a
# character no token starts with matches with group 1 empty, and is bad.
_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z_]\w*"
    r"|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    r"|'+"
    r"|[-+*/^(),=:])"
    r"|\S)"
)

# the kinds of tokens by a first character no name or digit has
_KINDS = dict.fromkeys("-+*/^(),=:", "op")
_KINDS.update({"'": "prime", ".": "num", "": "end"})


def _kind(text: str) -> str:
    """name, num, prime, op or end: a token's kind, read from its text."""
    c = text[:1]
    return _KINDS.get(c) or ("num" if c.isdecimal() else "name")


def _tokens(text: str, line: int, col0: int = 1) -> List[str]:
    """The texts of the tokens of text, from one scan, and "" after the
    last; trailing whitespace matches no token."""
    toks = _TOKEN_RE.findall(text)
    if "" in toks:
        col = _column(text, col0, toks.index(""))
        raise ParseError("unexpected character %r" % text[col - col0],
                         line, col)
    toks.append("")
    return toks


def _column(text: str, col0: int, k: int) -> int:
    """The column of token k of text, or of its end past the last token:
    text is scanned again, since only an error needs a column."""
    for m in _TOKEN_RE.finditer(text):
        if not k:
            return col0 + (m.start(1) if m[1] else m.end() - 1)
        k -= 1
    return col0 + len(text)


class _ExprParser:
    """Recursive-descent parser over the token texts of one line, read by
    index i.  A run of + and - becomes one n-ary Add, and a run of * and /
    one n-ary Mul, so a long sum or product is one node deep; ^ binds
    tighter and acts on the run's last factor, and a sign on the power
    after it.

    names is the (variable -> index, parameter set, input set) triple of
    the names declared so far; the parser only reads it.  text is the
    line from column col0 on, and parsing starts at its token i; depth
    counts the levels open."""

    def __init__(self, text: str, line: int, names, col0: int = 1,
                 i: int = 0):
        self.toks = _tokens(text, line, col0)
        self.i = i
        self.line = line
        self.text, self.col0 = text, col0
        self.vars, self.params, self.inputs = names
        self.depth = 0

    def fail(self, msg: str, k: Optional[int] = None):
        """Raises msg at token k, by default the next one."""
        raise ParseError(msg, self.line, _column(
            self.text, self.col0, self.i if k is None else k))

    def enter(self, k: int):
        """Opens a nesting level at token k, which fails past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            self.fail("expression nested deeper than %d levels" % MAX_DEPTH, k)
        self.depth += 1

    def expect(self, op: str):
        i = self.i
        self.i = i + 1
        if self.toks[i] != op:
            self.fail("expected %r" % op, i)

    def parse(self) -> Expr:
        """The sum from the next token on, one term per product."""
        terms = [self.product()]
        while self.toks[self.i] in ("+", "-"):
            sign = self.toks[self.i]
            self.i += 1
            term = self.product()
            terms.append(term if sign == "+" else -term)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def product(self) -> Expr:
        toks = self.toks
        factors = [self.operand()]
        while True:
            i = self.i
            t = toks[i]
            if t == "*":
                self.i = i + 1
                factors.append(self.operand())
            elif t == "^":
                self.i = i + 1
                factors[-1] = Pow(factors[-1], self.integer_exponent())
            elif t == "/":
                self.i = i + 1
                rhs = self.power()
                if not isinstance(rhs, Const):
                    factors.append(Pow(rhs, -1))
                elif rhs.value == 0:
                    self.fail("division by zero", i)
                else:
                    factors.append(Const(Fraction(1) / rhs.value))
            else:
                return factors[0] if len(factors) == 1 \
                    else Mul(tuple(factors))

    def power(self) -> Expr:
        """An operand and the powers it is raised to."""
        e = self.operand()
        while self.toks[self.i] == "^":
            self.i += 1
            e = Pow(e, self.integer_exponent())
        return e

    def operand(self) -> Expr:
        """A signed power, or a primary before its powers."""
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        j = self.vars.get(t)
        if j is not None:
            return StateDeriv(j, self.primes())
        if t == "(":
            self.enter(i)
            e = self.parse()
            self.expect(")")
            self.depth -= 1
            return e
        if t in ("-", "+"):
            self.enter(i)
            e = self.power()
            self.depth -= 1
            return -e if t == "-" else e
        kind = _kind(t)
        if kind == "num":
            return Const(int(t) if t.isdigit() else Fraction(t))
        if kind == "name":
            return self.named(t, i)
        self.fail("expected an expression", i)

    def integer_exponent(self) -> int:
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if t == "(":
            self.enter(i)
            n = self.integer_exponent()
            self.expect(")")
            self.depth -= 1
            return n
        neg = t == "-"
        i += neg
        t = self.toks[i]
        self.i = i + 1
        if not t.isdigit():
            self.fail("exponent must be an integer literal", i)
        return -int(t) if neg else int(t)

    def primes(self) -> int:
        t = self.toks[self.i]
        if t[:1] != "'":
            return 0
        if len(t) > 3:
            self.fail("more than three primes; use diff(...,k)")
        self.i += 1
        return len(t)

    def named(self, name: str, i: int) -> Expr:
        """The node of name, token i, a name no variable has."""
        if name == "t":
            return TimeVar()
        if name == "diff":
            return self.diff_call()
        if name in FUNCS:
            self.expect("(")
            self.enter(self.i - 1)
            arg = self.parse()
            self.expect(")")
            self.depth -= 1
            return Func(name, arg)
        if name in self.inputs:
            order = self.primes()
            if self.toks[self.i] != "(":
                self.fail("driving function %s must be applied to t: %s(t)"
                          % (name, name), i)
            self.enter(self.i)
            self.i += 1
            if self.toks[self.i] != "t":
                self.fail("driving functions take t only")
            self.i += 1
            self.expect(")")
            self.depth -= 1
            return DrivingFn(name, order)
        if name in self.params:
            if self.toks[self.i][:1] == "'":
                self.fail("parameter %s is constant and cannot be "
                          "differentiated" % name, i)
            return Param(name)
        self.fail("unknown name %r" % name, i)

    def diff_call(self) -> Expr:
        self.expect("(")
        self.enter(self.i - 1)
        inner = self.parse()
        self.expect(",")
        k_start = self.i
        k = self.integer_exponent()
        if k < 0:
            self.fail("derivative order must be nonnegative", k_start)
        self.expect(")")
        self.depth -= 1
        if isinstance(inner, StateDeriv):
            return StateDeriv(inner.index, inner.order + k)
        if isinstance(inner, DrivingFn):
            return DrivingFn(inner.name, inner.order + k)
        return total_derivative(inner, k)

    def at_end(self) -> bool:
        return not self.toks[self.i]


def _system_parser(text: str, system: DaeSystem, line: int,
                   col0: int = 1) -> _ExprParser:
    names = ({nm: j for j, nm in enumerate(system.var_names)},
             {p for p, _ in system.params}, set(system.input_names))
    return _ExprParser(text, line, names, col0)


def parse_vector(text: str, system: DaeSystem) -> List[Expr]:
    """Parse a vector of expressions, e.g. "[x2, x1, 1, -1]", to normal form.

    The brackets are optional and entries are separated by top-level
    commas.  Error columns count from the first character of text.
    """
    body = text.strip()
    col0 = len(text) - len(text.lstrip()) + 1
    if body.startswith("[") and body.endswith("]"):
        body, col0 = body[1:-1], col0 + 1
    p = _system_parser(body, system, 1, col0)
    if p.at_end():
        raise ParseError("empty vector", 1, 1)
    entries = []
    while True:
        start = p.i
        try:
            entries.append(simplify(p.parse()))
        except DomainError as err:
            raise ParseError(str(err), 1, _column(body, col0, start)) from err
        if p.at_end():
            return entries
        if p.toks[p.i] != ",":
            p.fail("unexpected trailing input")
        p.i += 1


_NAME_ONLY = re.compile(r"[A-Za-z_]\w*$")


def _declared_name(p: _ExprParser, k: int, what: str) -> str:
    """Token k of p, checked as the name of a declaration."""
    if _kind(p.toks[k]) != "name":
        p.fail("expected %s" % what, k)
    if p.toks[k] in RESERVED:
        p.fail("%r is reserved" % p.toks[k], k)
    return p.toks[k]


def parse_dae(text: str) -> DaeSystem:
    sys_name = None
    var_names: list = []
    params: list = []
    input_names: list = []
    equations: dict = {}     # name -> equation
    # the parser's name tables, grown with each declaration
    names = var_table, param_table, input_table = {}, set(), set()
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        head = stripped.split(None, 1)[0]
        if sys_name is None:
            if head != "dae":
                raise ParseError("file must start with 'dae <name>'", line_no, 1)
            rest = stripped[3:].strip()
            if not _NAME_ONLY.match(rest):
                raise ParseError("invalid system name %r" % rest, line_no, 5)
            sys_name = rest
            continue
        if head == "dae":
            raise ParseError("duplicate 'dae' line", line_no, 1)
        if head in ("vars", "params", "input"):
            body = stripped[len(head):]
            p = _ExprParser(body, line_no, names, len(head) + 1)
            toks = p.toks
            i = 0
            while toks[i]:
                name = _declared_name(p, i, "a name")
                if any(name in table for table in names):
                    p.fail("name %r declared twice" % name, i)
                i += 1
                value = None
                if head == "params" and toks[i] == "=":
                    negative = toks[i + 1] == "-"
                    i += 1 + negative
                    if _kind(toks[i]) != "num":
                        p.fail("expected a number", i)
                    value = Fraction(toks[i])
                    i += 1
                    if toks[i] == "/":
                        i += 1
                        if not toks[i].isdigit():
                            p.fail("expected an integer denominator", i)
                        if not int(toks[i]):
                            p.fail("division by zero", i - 1)
                        value /= int(toks[i])
                        i += 1
                    value = -value if negative else value
                if head == "params":
                    params.append((name, value))
                    param_table.add(name)
                elif head == "vars":
                    var_table[name] = len(var_names)
                    var_names.append(name)
                else:
                    input_table.add(name)
                    input_names.append(name)
                if toks[i] == ",":
                    i += 1
                elif toks[i]:
                    p.fail("expected ',' or end of line", i)
            continue
        if head == "eq":
            body = stripped[2:]
            p = _ExprParser(body, line_no, names, 3, 2)
            toks = p.toks
            eq_name = _declared_name(p, 0, "an equation name")
            if eq_name in equations:
                p.fail("equation name %r declared twice" % eq_name, 0)
            if toks[1] != ":":
                p.fail("expected ':' after equation name", 1)
            lhs = p.parse()
            if toks[p.i] != "=":
                p.fail("expected '=' in equation")
            p.i += 1
            rhs_start = toks[p.i]
            rhs = p.parse()
            if not p.at_end():
                p.fail("unexpected trailing input")
            zero = isinstance(rhs, Const) and rhs.value == 0 \
                and _kind(rhs_start) == "num"
            raw = lhs if zero else Add((lhs, -rhs))
            try:
                equations[eq_name] = make_equation(eq_name, raw)
            except DomainError as err:
                raise ParseError(str(err), line_no, _column(body, 3, 2)) from err
            continue
        raise ParseError("unknown directive %r" % head, line_no, 1)
    if sys_name is None:
        raise ParseError("empty input", 1, 1)
    try:
        return DaeSystem(sys_name, tuple(var_names),
                         tuple(equations.values()), tuple(params),
                         tuple(input_names))
    except ModelError as err:
        raise ParseError(str(err), len(text.splitlines()), 1) from err


def emit_dae(system: DaeSystem) -> str:
    """Render a system back to the text format (normal-form right-hand sides).

    parse_dae(emit_dae(s)) reproduces s up to simplification of each
    equation.  Non-original equations carry their provenance as comments.
    """
    lines = ["dae %s" % system.name]
    if system.var_names:
        lines.append("vars %s" % ", ".join(system.var_names))
    if system.params:
        parts = []
        for nm, v in system.params:
            parts.append(nm if v is None else "%s = %s" % (nm, v))
        lines.append("params %s" % ", ".join(parts))
    if system.input_names:
        lines.append("input %s" % ", ".join(system.input_names))
    for eq in system.equations:
        if eq.origin != "original":
            note = "# %s: %s" % (eq.name, eq.origin.replace("_", " "))
            if eq.alias:
                note += " (%s)" % eq.alias
            lines.append(note)
        lines.append("eq %s: %s = 0"
                     % (eq.name, format_expr(eq.expr, system.var_names)))
    return "\n".join(lines) + "\n"
