"""Text format for DAE systems.

    dae pendulum
    vars x, y, lambda
    params G = 9.8, L = 1
    input h1
    eq f1: x'' + x*lambda = 0

Expressions use + - * / ^ with integer exponents, primes up to ''' for
derivatives (diff(x,k) beyond that), and driving functions always in call
form: h1(t), h1'(t), diff(h1(t),4).  '#' starts a comment.  Decimal literals
are read exactly (9.8 is the rational 49/5).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .expr import (
    FUNCS, Add, Const, DomainError, DrivingFn, Expr, Func, Mul, Param,
    Pow, StateDeriv, TimeVar, format_expr, simplify, total_derivative,
)
from .model import RESERVED, DaeSystem, ModelError, make_equation


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.msg = msg
        self.line = line
        self.col = col


# one token after any whitespace; a character no token starts with is bad
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_]\w*)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<prime>'+)"
    r"|(?P<op>[-+*/^(),=:])"
    r"|(?P<bad>\S))"
)


class _Tok(NamedTuple):
    kind: str   # name | num | prime | op | end
    text: str
    col: int


def _tokenize(s: str, line: int, col0: int = 1) -> List[_Tok]:
    """The tokens of s in one scan, with their columns; trailing
    whitespace matches no token and ends the scan."""
    out = []
    for m in _TOKEN_RE.finditer(s):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError("unexpected character %r" % m[kind], line,
                             col0 + m.start(kind))
        out.append(_Tok(kind, m[kind], col0 + m.start(kind)))
    out.append(_Tok("end", "", col0 + len(s)))
    return out


def _product(factors: List[Expr]) -> Expr:
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


class _ExprParser:
    """Precedence-climbing parser over one tokenized line.

    names is the (variable -> index, parameter set, input set) triple of
    the names declared so far; the parser only reads it."""

    def __init__(self, toks: List[_Tok], line: int, names):
        self.toks = toks
        self.i = 0
        self.line = line
        self.vars, self.params, self.inputs = names

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError("expected %r" % op, self.line, t.col)
        return t

    def fail(self, msg: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        raise ParseError(msg, self.line, tok.col)

    _BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}

    def parse(self, min_bp: int = 0) -> Expr:
        """The expression at binding power min_bp and above.  A run of + and
        - at one level becomes one n-ary Add, and a run of * and / one
        n-ary Mul, so a long sum or product is one node deep; ^ binds
        tighter and acts on the run's last factor."""
        terms = []
        factors = [self.unary()]
        while True:
            t = self.peek()
            if t.kind != "op" or t.text not in self._BP:
                break
            bp = self._BP[t.text]
            if bp < min_bp:
                break
            self.next()
            if t.text == "^":
                factors[-1] = Pow(factors[-1], self.integer_exponent())
                continue
            rhs = self.parse(bp + 1)
            if t.text in "+-":
                terms.append(_product(factors))
                factors = [rhs if t.text == "+" else -rhs]
            elif t.text == "*":
                factors.append(rhs)
            elif isinstance(rhs, Const):
                if rhs.value == 0:
                    self.fail("division by zero", t)
                factors.append(Const(Fraction(1) / rhs.value))
            else:
                factors.append(Pow(rhs, -1))
        terms.append(_product(factors))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def integer_exponent(self) -> int:
        neg = False
        t = self.next()
        if t.kind == "op" and t.text == "(":
            n = self.integer_exponent()
            self.expect_op(")")
            return n
        if t.kind == "op" and t.text == "-":
            neg = True
            t = self.next()
        if t.kind != "num" or not t.text.isdigit():
            raise ParseError("exponent must be an integer literal", self.line, t.col)
        return -int(t.text) if neg else int(t.text)

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return -self.parse(25)
        if t.kind == "op" and t.text == "+":
            self.next()
            return self.parse(25)
        return self.primary()

    def primary(self) -> Expr:
        t = self.next()
        if t.kind == "op" and t.text == "(":
            e = self.parse()
            self.expect_op(")")
            return e
        if t.kind == "num":
            return Const(Fraction(t.text))
        if t.kind == "name":
            return self.named(t)
        self.fail("expected an expression", t)

    def primes(self) -> int:
        t = self.peek()
        if t.kind == "prime":
            self.next()
            if len(t.text) > 3:
                raise ParseError("more than three primes; use diff(...,k)",
                                 self.line, t.col)
            return len(t.text)
        return 0

    def named(self, t: _Tok) -> Expr:
        name = t.text
        if name == "t":
            return TimeVar()
        if name == "diff":
            return self.diff_call()
        if name in FUNCS:
            self.expect_op("(")
            arg = self.parse()
            self.expect_op(")")
            return Func(name, arg)
        if name in self.vars:
            return StateDeriv(self.vars[name], self.primes())
        if name in self.inputs:
            order = self.primes()
            nxt = self.peek()
            if not (nxt.kind == "op" and nxt.text == "("):
                self.fail("driving function %s must be applied to t: %s(t)"
                          % (name, name), t)
            self.next()
            arg = self.next()
            if arg.kind != "name" or arg.text != "t":
                raise ParseError("driving functions take t only", self.line, arg.col)
            self.expect_op(")")
            return DrivingFn(name, order)
        if name in self.params:
            if self.peek().kind == "prime":
                self.fail("parameter %s is constant and cannot be differentiated"
                          % name, t)
            return Param(name)
        self.fail("unknown name %r" % name, t)

    def diff_call(self) -> Expr:
        self.expect_op("(")
        inner = self.parse()
        self.expect_op(",")
        k_tok = self.peek()
        k = self.integer_exponent()
        if k < 0:
            raise ParseError("derivative order must be nonnegative",
                             self.line, k_tok.col)
        self.expect_op(")")
        if isinstance(inner, StateDeriv):
            return StateDeriv(inner.index, inner.order + k)
        if isinstance(inner, DrivingFn):
            return DrivingFn(inner.name, inner.order + k)
        return total_derivative(inner, k)

    def at_end(self) -> bool:
        return self.peek().kind == "end"


def _system_parser(text: str, system: DaeSystem, line: int,
                   col0: int = 1) -> _ExprParser:
    names = ({nm: j for j, nm in enumerate(system.var_names)},
             {p for p, _ in system.params}, set(system.input_names))
    return _ExprParser(_tokenize(text, line, col0), line, names)


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
        start = p.peek()
        try:
            entries.append(simplify(p.parse()))
        except DomainError as err:
            raise ParseError(str(err), 1, start.col) from err
        if p.at_end():
            return entries
        if p.peek().text != ",":
            p.fail("unexpected trailing input")
        p.next()


_NAME_ONLY = re.compile(r"[A-Za-z_]\w*$")


def _check_name(name: str, line: int, col: int):
    if not _NAME_ONLY.match(name):
        raise ParseError("invalid name %r" % name, line, col)
    if name in RESERVED:
        raise ParseError("%r is reserved" % name, line, col)


def parse_dae(text: str) -> DaeSystem:
    sys_name = None
    var_names: list = []
    params: list = []
    input_names: list = []
    equations: list = []
    # the parser's name tables, grown with each declaration
    var_table: dict = {}
    param_table: set = set()
    input_table: set = set()
    names = (var_table, param_table, input_table)
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
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
            toks = _tokenize(stripped[len(head):], line_no, len(head) + 1)
            i = 0
            while toks[i].kind != "end":
                t = toks[i]
                if t.kind != "name":
                    raise ParseError("expected a name", line_no, t.col)
                _check_name(t.text, line_no, t.col)
                i += 1
                if head == "params" and toks[i].kind == "op" and toks[i].text == "=":
                    i += 1
                    negative = False
                    if toks[i].kind == "op" and toks[i].text == "-":
                        negative = True
                        i += 1
                    if toks[i].kind != "num":
                        raise ParseError("expected a number", line_no, toks[i].col)
                    v = Fraction(toks[i].text)
                    i += 1
                    if toks[i].kind == "op" and toks[i].text == "/":
                        slash = toks[i]
                        i += 1
                        if toks[i].kind != "num" or not toks[i].text.isdigit():
                            raise ParseError("expected an integer denominator",
                                             line_no, toks[i].col)
                        if not int(toks[i].text):
                            raise ParseError("division by zero", line_no,
                                             slash.col)
                        v /= Fraction(toks[i].text)
                        i += 1
                    params.append((t.text, -v if negative else v))
                    param_table.add(t.text)
                elif head == "params":
                    params.append((t.text, None))
                    param_table.add(t.text)
                elif head == "vars":
                    var_table[t.text] = len(var_names)
                    var_names.append(t.text)
                else:
                    input_table.add(t.text)
                    input_names.append(t.text)
                if toks[i].kind == "op" and toks[i].text == ",":
                    i += 1
                elif toks[i].kind != "end":
                    raise ParseError("expected ',' or end of line", line_no,
                                     toks[i].col)
            continue
        if head == "eq":
            toks = _tokenize(stripped[2:], line_no, 3)
            if toks[0].kind != "name":
                raise ParseError("expected an equation name", line_no, toks[0].col)
            eq_name = toks[0].text
            _check_name(eq_name, line_no, toks[0].col)
            if toks[1].kind != "op" or toks[1].text != ":":
                raise ParseError("expected ':' after equation name", line_no,
                                 toks[1].col)
            p = _ExprParser(toks[2:], line_no, names)
            lhs = p.parse()
            eq_tok = p.next()
            if eq_tok.kind != "op" or eq_tok.text != "=":
                raise ParseError("expected '=' in equation", line_no, eq_tok.col)
            rhs_start = p.peek()
            rhs = p.parse()
            if not p.at_end():
                p.fail("unexpected trailing input")
            if isinstance(rhs, Const) and rhs.value == 0 \
                    and rhs_start.kind == "num":
                raw = lhs
            else:
                raw = Add((lhs, -rhs))
            try:
                equations.append(make_equation(eq_name, raw))
            except DomainError as err:
                raise ParseError(str(err), line_no, toks[2].col) from err
            continue
        raise ParseError("unknown directive %r" % head, line_no, 1)
    if sys_name is None:
        raise ParseError("empty input", 1, 1)
    try:
        return DaeSystem(sys_name, tuple(var_names), tuple(equations),
                         tuple(params), tuple(input_names))
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
