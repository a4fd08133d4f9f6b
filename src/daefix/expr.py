"""Expression trees for DAE equations.

A tree has no negation node: -e is the product Mul((MINUS_ONE, e)), as in
a computer algebra system's automatically simplified form (Cohen 2002),
and a - b is Add((a, -b)).  Such a product prints as unary minus, "-"
before its factor, which is parenthesised where a negation's operand
would be: -(x*y), -x^2.

Everything is exact: constants are Fractions, arithmetic on trees never
rounds.  evaluate_ex works on integer numerator/denominator pairs and makes
one Fraction of the result.  A function value with no exact form is
correctly rounded (half to even) to _DIGITS = 70 significant digits, and
the caller is told the result is inexact: exp, ln and sqrt by decimal's C
functions, in a context of their own, and sin and cos, which decimal
lacks, by _trig in integer fixed point; decimal's power, which can miss
by one unit in a last place, rounds an integer power of such a value.  A
value of more than _VALUE_BITS = 2^20 bits, and sin or cos of an argument
whose integer part has more than _TRIG_BITS = 65,536 bits, are a
DomainError, so a probe draws another point.

The normal form produced by simplify() is an expanded polynomial over the
atoms (time, state derivatives, driving functions, parameters) and function
factors: an Add of terms, each term a Mul of a rational coefficient, a
Const of a Fraction, and sorted factor powers.  poly does its arithmetic;
here are the trees, the term cap (see `_p_mul` and `_p_pow`) and the rules
for function factors.  All exp factors of a monomial merge into one, so
exp(a)*exp(-a) is 1 and no rewrite depends on the order of the products.
_derive holds the derivative rules; derivative, for a normal form, reads a
term that holds the atom only as a factor atom^k off its node and applies
poly's power rule, and passes only one holding it in a factor to _derive.

Nodes are immutable, laid out and interned by _Interning (hash-consing,
Filliatre and Conchon 2006): a node built equal to an earlier one, by
class and normalised fields, is that one, so `==` and `hash` are
identity.  The table is process-global, with one writer, _node, where a
constructor call ends and where _from_poly builds a normal form in one
pass, its terms and sum with their atom sets.  Each node memoises, in
slots filled on first use, its sort key `_key(e)`, its atoms `atoms(e)`
and its normal form `simplify(e)`.  Set iteration follows addresses, so a
set of nodes that reaches an output is sorted by `_key` or reduced
ignoring order.
"""

from __future__ import annotations

import decimal
import heapq
import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping, Optional, Sequence

from . import poly

NEG_INF = float("-inf")

FUNCS = ("sin", "cos", "exp", "ln", "sqrt")

# significant digits of an inexact value
_DIGITS = 70

# every inexact value rounds here, never in the thread's decimal context;
# the exponent range is decimal's widest, and an overflow, a division by
# zero or an invalid operation raises
_CONTEXT = decimal.Context(
    prec=_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Overflow, decimal.DivisionByZero,
           decimal.InvalidOperation])

_DECIMAL_FUNCS = {"exp": _CONTEXT.exp, "ln": _CONTEXT.ln,
                  "sqrt": _CONTEXT.sqrt}

# the most bits (coefficient plus decimal exponent times log2 10) of an
# inexact value made exact for a probe; past it the integer alone takes
# megabytes, and the Fraction arithmetic after it seconds, so the probe
# draws another point
_VALUE_BITS = 1 << 20
_LOG2_10 = math.log2(10)

# the most bits of the integer part of an argument of sin or cos: Machin's
# pi at that width takes a third of a second, at 300,000 bits 7 s
_TRIG_BITS = 1 << 16
_PI = (0, 3)  # (w, pi * 2**w) for the widest pi asked of _pi so far

# term-count ceiling when distributing products / expanding integer powers
_TERM_CAP = 3000


class DomainError(ValueError):
    """Raised when evaluation leaves a function's domain (ln(x<=0), sqrt(x<0), 0**-n)."""


class MissingBinding(KeyError):
    """An atom had no value in the bindings passed to evaluate_ex()."""

    def __init__(self, atom: "Expr"):
        super().__init__(atom)
        self.atom = atom


# every node built so far, under its class and field values
_INTERNED: dict = {}


def bind_fields(cls, args, kwargs) -> tuple:
    """cls(*args, **kwargs) bound to cls.__match_args__, with the defaults
    cls._defaults; a missing, unknown or repeated argument is a TypeError."""
    fields, defaults, values = cls.__match_args__, cls._defaults, list(args)
    for f in fields[len(args):]:
        if f not in kwargs and f not in defaults:
            break
        values.append(kwargs[f] if f in kwargs else defaults[f])
    if len(values) != len(fields) or kwargs.keys() - fields[len(args):]:
        raise TypeError("%s() takes (%s), not %r and %r"
                        % (cls.__name__, ", ".join(fields), args, kwargs))
    return tuple(values)


class Frozen:
    """Prints as Name(field=value, ...); refuses assignment and deletion."""

    __slots__ = ()

    @classmethod
    def _show(cls, names):
        # the class name first: a getter of one name returns no tuple
        cls._repr_values = attrgetter("__class__.__qualname__", *names)
        cls._repr_format = "%%s(%s)" % ", ".join(f + "=%r" for f in names)

    def __repr__(self):
        return self._repr_format % self._repr_values(self)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class _Interning(type):
    """Lays out and builds the node classes: a class's annotated names are
    its fields and slots, in order, a value in its body a field's default.
    Building a node equal to an interned one returns that one.  The bound
    arguments are tried as the key first: a Const of an int finds the
    Const of the equal Fraction, as the two hash and compare equal.  On a
    miss a class's _check, if any, checks them, and _node interns them."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        # Expr declares the memo slots, and has no fields
        ns["__slots__"] = ns.get("__slots__", ()) + fields
        ns["__match_args__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        cls._show(fields)
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = bind_fields(cls, args, kwargs)
        node = _INTERNED.get((cls, args))
        if node is None:
            if cls._check is not None:
                args = cls._check(*args)
            node = _node(cls, args)
        return node


def _node(cls, values: tuple) -> "Expr":
    """The interned node of class cls with these checked field values."""
    node = _INTERNED.get((cls, values))
    if node is None:
        node = _INTERNED[cls, values] = object.__new__(cls)
        for name, value in zip(cls.__match_args__, values):
            object.__setattr__(node, name, value)
    return node


class Expr(Frozen, metaclass=_Interning):
    # per-node caches, each filled on first use: _key(e), atoms(e),
    # simplify(e)
    __slots__ = ("_sort_key", "_atoms", "_normal")

    # a class's check of its bound arguments, returning its field values
    _check = None

    def __add__(self, other):
        return Add((self, _wrap(other)))

    def __radd__(self, other):
        return Add((_wrap(other), self))

    def __sub__(self, other):
        return Add((self, -_wrap(other)))

    def __rsub__(self, other):
        return Add((_wrap(other), -self))

    def __mul__(self, other):
        return Mul((self, _wrap(other)))

    def __rmul__(self, other):
        return Mul((_wrap(other), self))

    def __neg__(self):
        return Mul((MINUS_ONE, self))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponents must be int")
        return Pow(self, n)

    def __truediv__(self, other):
        other = _wrap(other)
        if isinstance(other, Const):
            return Mul((self, Const(Fraction(1) / other.value)))
        return Mul((self, Pow(other, -1)))

    def __rtruediv__(self, other):
        return Mul((_wrap(other), Pow(self, -1)))


def _wrap(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise TypeError("cannot use %r in an expression" % (v,))


class Const(Expr):
    value: Fraction

    @staticmethod
    def _check(value):
        return (value if isinstance(value, Fraction) else Fraction(value),)


class TimeVar(Expr):
    """The independent variable t."""


class StateDeriv(Expr):
    """order-th time derivative of state variable number `index` (0-based)."""

    index: int
    order: int = 0


class DrivingFn(Expr):
    """order-th derivative of a known driving (input) function of t."""

    name: str
    order: int = 0


class Param(Expr):
    name: str


class Add(Expr):
    children: tuple


class Mul(Expr):
    children: tuple


class Pow(Expr):
    base: Expr
    exponent: int

    @staticmethod
    def _check(base, exponent):
        if not isinstance(exponent, int):
            raise TypeError("Pow exponent must be int")
        return base, exponent


class Func(Expr):
    name: str
    arg: Expr

    @staticmethod
    def _check(name, arg):
        if name not in FUNCS:
            raise ValueError("unknown function %r" % (name,))
        return name, arg


ATOM_TYPES = (TimeVar, StateDeriv, DrivingFn, Param)

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def walk(e: Expr) -> Iterator[Expr]:
    """Every node of e in preorder.  Iterative, so a tree's depth costs
    no Python frames: a conversion can nest deeper than the parser does."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (Add, Mul)):
            stack.extend(reversed(e.children))
        elif isinstance(e, Pow):
            stack.append(e.base)
        elif isinstance(e, Func):
            stack.append(e.arg)


_NO_ATOMS: frozenset = frozenset()


def atoms(e: Expr) -> frozenset:
    """All leaf atoms (TimeVar / StateDeriv / DrivingFn / Param) in e."""
    try:
        return e._atoms
    except AttributeError:
        pass
    if isinstance(e, ATOM_TYPES):
        r = frozenset((e,))
    elif isinstance(e, Const):
        r = _NO_ATOMS
    elif isinstance(e, (Add, Mul)):
        r = _NO_ATOMS.union(*(atoms(c) for c in e.children))
    elif isinstance(e, Pow):
        r = atoms(e.base)
    elif isinstance(e, Func):
        r = atoms(e.arg)
    else:
        raise TypeError("not an Expr: %r" % (e,))
    object.__setattr__(e, "_atoms", r)
    return r


def highest_orders(e: Expr) -> dict:
    """{j: highest order of state j in e as written} in ascending j, from one
    pass over atoms(e), which holds every state derivative the tree holds."""
    row: dict = {}
    for a in atoms(e):
        if isinstance(a, StateDeriv) and a.order > row.get(a.index, -1):
            row[a.index] = a.order
    return dict(sorted(row.items()))


# ---------------------------------------------------------------------------
# normal form

# a polynomial is poly's, its factors canonical non-Const subtrees

def simplify(e: Expr) -> Expr:
    try:
        return e._normal
    except AttributeError:
        pass
    r = _from_poly(_trig_reduce(_poly(e)))
    object.__setattr__(e, "_normal", r)
    object.__setattr__(r, "_normal", r)
    return r


def _key(e: Expr):
    try:
        return e._sort_key
    except AttributeError:
        pass
    if isinstance(e, TimeVar):
        k = (0,)
    elif isinstance(e, StateDeriv):
        k = (1, e.index, e.order)
    elif isinstance(e, DrivingFn):
        k = (2, e.name, e.order)
    elif isinstance(e, Param):
        k = (3, e.name)
    elif isinstance(e, Func):
        k = (4, e.name, _key(e.arg))
    elif isinstance(e, Pow):
        k = (5, _key(e.base), e.exponent)
    elif isinstance(e, Mul):
        k = (6, tuple(_key(c) for c in e.children))
    elif isinstance(e, Add):
        k = (7, tuple(_key(c) for c in e.children))
    elif isinstance(e, Const):
        k = (8, e.value)
    else:
        raise TypeError("not an Expr: %r" % (e,))
    object.__setattr__(e, "_sort_key", k)
    return k


def _mono_key(m):
    # constants (empty monomial) sort after everything else
    if not m:
        return (1,)
    return (0, tuple([(_key(f), k) for f, k in m]))


def _coef(v: Fraction) -> int | Fraction:
    """A polynomial coefficient: v as an int unless it has a denominator."""
    return v.numerator if v.denominator == 1 else v


def _poly(e: Expr) -> dict:
    if isinstance(e, Const):
        return {(): _coef(e.value)} if e.value else {}
    if isinstance(e, ATOM_TYPES):
        return {((e, 1),): 1}
    if isinstance(e, Add):
        # every _poly result is a fresh dict: grow the first child's in place
        out = _poly(e.children[0]) if e.children else {}
        for ch in e.children[1:]:
            for m, c in _poly(ch).items():
                poly.add_term(out, m, c)
        return out
    if isinstance(e, Mul):
        # constants, atoms and powers of atoms make one monomial
        c, exps = 1, {}
        for ch in e.children:
            b, k = (ch.base, ch.exponent) if isinstance(ch, Pow) else (ch, 1)
            if isinstance(ch, Const):
                c *= _coef(ch.value)
            elif isinstance(b, ATOM_TYPES):
                exps[b] = exps.get(b, 0) + k
            else:
                break
        else:
            return {poly.monomial(exps, _key): c} if c else {}
        # else from the first child's terms, which _mono_from_exps keeps
        out = _poly(e.children[0])
        for ch in e.children[1:]:
            out = _p_mul(out, _poly(ch))
        return out
    if isinstance(e, Pow):
        return _p_pow(_poly(e.base), e.exponent)
    if isinstance(e, Func):
        return _func_poly(e.name, simplify(e.arg))
    raise TypeError("not an Expr: %r" % (e,))


def _func_poly(name: str, arg: Expr) -> dict:
    """Poly for name(arg), arg already canonical; folds exact constant cases."""
    if isinstance(arg, Const):
        r = _exact_func(name, arg.value.numerator, arg.value.denominator)
        if r is not None:
            return {(): _coef(r)} if r else {}
    return {((Func(name, arg), 1),): 1}


def _exact_func(name: str, n: int, d: int) -> Optional[Fraction]:
    """name(n/d), d > 0, when the table knows it is rational, else None:
    sin 0 = 0, cos 0 = exp 0 = 1, ln 1 = 0, and the square root of a
    rational square.  DomainError for ln of n/d <= 0 and sqrt of n/d < 0.
    n/d need not be reduced, as a gcd of huge terms takes quadratic time."""
    if name == "ln":
        if n <= 0:
            raise DomainError("ln of nonpositive value %s" % Fraction(n, d))
        return Fraction(0) if n == d else None
    if name == "sqrt":
        if n < 0:
            raise DomainError("sqrt of negative value %s" % Fraction(n, d))
        # n/d is the square of a rational exactly when n*d is a square
        r = math.isqrt(n * d)
        return Fraction(r, d) if r * r == n * d else None
    if n == 0:  # sin, cos, exp
        return Fraction(0 if name == "sin" else 1)
    return None


def _rewrites(m) -> bool:
    """True when m holds an exp or sqrt factor, whose products
    _mono_from_exps rewrites."""
    return any(isinstance(f, Func) and f.name in ("exp", "sqrt") for f, _ in m)


def _mono_from_exps(exps: dict) -> dict:
    """Rebuild a monomial from a factor->exponent map, applying power rewrites.

    All exp factors merge into one, exp(a)^j * exp(b)^k -> exp(j*a + k*b),
    which folds to 1 when that sum is 0; sqrt(u)^(2m+r) -> u^m * sqrt(u)^r.
    The rewritten parts are multiplied back in by _p_mul, which recurses
    when u^m brings exp or sqrt factors of its own.  exps may be changed.
    """
    ex = [(f, k) for f, k in exps.items()
          if k and isinstance(f, Func) and f.name == "exp"]
    extras: list = []
    if len(ex) > 1 or any(k != 1 for _, k in ex):
        total = Add(tuple(Mul((Const(Fraction(k)), f.arg)) for f, k in ex))
        extras.append(_func_poly("exp", simplify(total)))
        exps.update((f, 0) for f, _ in ex)
    m = poly.monomial(exps, _key)
    roots = [(f, k) for f, k in m
             if isinstance(f, Func) and f.name == "sqrt" and not 0 <= k <= 1]
    for f, k in roots:
        half, exps[f] = divmod(k, 2)
        extras.append(_p_pow(_poly(f.arg), half))
    out = {poly.monomial(exps, _key) if roots else m: 1}
    for q in extras:
        out = _p_mul(out, q)
    return out


# the hook poly takes: factors in _key order, and the function rules
_RULES = (_key, _rewrites, _mono_from_exps)


def _p_mul(p: dict, q: dict) -> dict:
    # a side of one term, such as the -1 of -e, leaves the other side's
    # term count: only a product of two sums is capped
    if len(p) > 1 and len(q) > 1 and len(p) * len(q) > _TERM_CAP:
        p, q = {((_from_poly(p), 1),): 1}, {((_from_poly(q), 1),): 1}
    return poly.mul(p, q, _RULES)


def _p_pow(p: dict, n: int) -> dict:
    """p**n in one step (see poly.power).  A sum of t terms is expanded
    while the multinomial's last product p^(n-1)*p would fit _p_mul's cap,
    comb(n+t-2, t-1)*t terms; otherwise, and for n < 0, it is kept whole
    as one factor, as _p_mul keeps whole a product that would not fit."""
    t = len(p)
    if t > 1 and (n < 0 or n > 1 and math.comb(n + t - 2, t - 1) * t
                  > _TERM_CAP):
        return {((_from_poly(p), n),): 1}
    if not p and n < 0:
        raise DomainError("zero raised to a negative power")
    return poly.power(p, n, _RULES)


def _sin_squared(p: dict) -> bool:
    """True when a monomial of p holds sin(a)^k with k >= 2.  It looks at
    every factor of every term on each simplify, hence a plain loop and a
    class test (Func has no subclass), not isinstance in a generator."""
    for m in p:
        for f, k in m:
            if f.__class__ is Func and k >= 2 and f.name == "sin":
                return True
    return False


def _trig_reduce(p: dict) -> dict:
    """Collapse sin(a)^2 * R against a matching cos(a)^2 * R partner.
    p itself comes back when no monomial holds sin(a)^k with k >= 2."""
    if not _sin_squared(p):
        return p
    p = dict(p)
    # least first (_mono_key); a visited monomial waits for its partner
    heap = [(_mono_key(m), m) for m in p]
    heapq.heapify(heap)
    waiting: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        hit = next(((f, k) for f, k in m if k >= 2
                    and isinstance(f, Func) and f.name == "sin"), None)
        if hit is None or m not in p:
            continue
        f, k = hit
        partner = _mono_adjusted(m, f.arg, k - 2, 2)
        c2 = p.get(partner)
        if c2 is None:
            waiting.setdefault(partner, []).append(m)
            continue
        c1 = p.pop(m)
        del p[partner]
        made = _mono_adjusted(m, f.arg, k - 2, 0)
        poly.add_term(p, made, c1)
        if c2 != c1:
            p[partner] = c2 - c1
        if made in p:
            for q in (made, *waiting.pop(made, ())):
                heapq.heappush(heap, (_mono_key(q), q))
    return p


def _mono_adjusted(m, arg, sin_exp, cos_delta):
    """m with sin(arg) at exponent sin_exp and cos(arg)'s raised by
    cos_delta."""
    exps = dict(m)
    sinf, cosf = Func("sin", arg), Func("cos", arg)
    exps[sinf] = sin_exp
    exps[cosf] = exps.get(cosf, 0) + cos_delta
    return poly.monomial(exps, _key)


def _from_poly(p: dict) -> Expr:
    """The tree of p, built in one pass over its monomials in _mono_key
    order.  That order is read off per-call ranks: each distinct factor's
    index among p's factors sorted by _key, so a monomial's key is the
    flat tuple of its (rank, exponent) pairs, and the monomial 1, keyed
    past every rank, comes last.  Each distinct power f^k and each
    coefficient is interned once per call, and each term and the sum with
    its atom set, the union over its factors', so atoms() walks none of
    them."""
    if not p:
        return ZERO
    ms = p
    if len(p) > 1:
        rank = {f: r for r, f in enumerate(
            sorted({f for m in p for f, _ in m}, key=_key))}
        end = (len(rank),)
        ms = sorted(p, key=lambda m: tuple(
            [x for f, k in m for x in (rank[f], k)]) if m else end)
    term_atoms: dict = {}   # a monomial's factors -> their atoms
    powers: dict = {}       # (f, k) -> the node f^k
    coefs: dict = {}        # a coefficient -> its Const
    terms = []
    for m in ms:
        c = p[m]
        fs = tuple([f for f, _ in m])
        a = term_atoms.get(fs)
        if a is None:
            a = term_atoms[fs] = _NO_ATOMS.union(*map(atoms, fs))
        factors = []
        for fk in m:
            if fk[1] == 1:
                factors.append(fk[0])
            else:
                f = powers.get(fk)
                if f is None:
                    f = powers[fk] = _node(Pow, fk)
                factors.append(f)
        if c != 1 or not m:
            k = coefs.get(c)
            if k is None:
                k = coefs[c] = Const(c)
            factors.insert(0, k)
        term = (factors[0] if len(factors) == 1
                else _node(Mul, (tuple(factors),)))
        object.__setattr__(term, "_atoms", a)
        terms.append(term)
    r = terms[0] if len(terms) == 1 else _node(Add, (tuple(terms),))
    object.__setattr__(r, "_atoms", _NO_ATOMS.union(*term_atoms.values()))
    return r


# ---------------------------------------------------------------------------
# calculus

def total_derivative(e: Expr, k: int = 1) -> Expr:
    """k-th total time derivative; returns a raw (unsimplified) tree."""
    for _ in range(k):
        e = _derive(e, None)
    return e


def partial(e: Expr, atom: Expr) -> Expr:
    """Partial derivative with respect to one atom, all other atoms held fixed."""
    return _derive(e, atom)


def derivative(e: Expr, atom: Expr, terms: Optional[list] = None) -> Expr:
    """simplify(partial(e, atom)) for a normal form e, the very node;
    terms, if given, are e's summands that hold atom, in e's order.  A term
    holding atom only as a factor atom^k is differentiated on its monomial;
    one holding it in a function or a kept-whole sum, through partial."""
    if terms is None:
        terms = [t for t in (e.children if isinstance(e, Add) else (e,))
                 if atom in atoms(t)]
    out: dict = {}
    for t in terms:
        fs = t.children if isinstance(t, Mul) else (t,)
        c = _coef(fs[0].value) if isinstance(fs[0], Const) else 1
        m = tuple([(f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
                   for f in fs if not isinstance(f, Const)])
        if any(f is not atom and atom in atoms(f) for f, _ in m):
            for m2, c2 in _poly(partial(t, atom)).items():
                poly.add_term(out, m2, c2)
        else:
            poly.derive_term(out, m, c, atom)
    r = _from_poly(_trig_reduce(out))
    object.__setattr__(r, "_normal", r)
    return r


def _derive(e: Expr, atom) -> Expr:
    """The one table of derivative rules: the partial derivative by atom,
    or the total time derivative when atom is None."""
    if atom is not None and atom not in atoms(e):
        return ZERO
    if isinstance(e, ATOM_TYPES):
        if atom is not None:
            return ONE if e == atom else ZERO
        if isinstance(e, StateDeriv):
            return StateDeriv(e.index, e.order + 1)
        if isinstance(e, DrivingFn):
            return DrivingFn(e.name, e.order + 1)
        return ONE if isinstance(e, TimeVar) else ZERO
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Add):
        # a summand without the atom contributes nothing
        return Add(tuple(_derive(c, atom) for c in e.children
                         if atom is None or atom in atoms(c)))
    if isinstance(e, Mul):
        terms = []
        for i, c in enumerate(e.children):
            dc = _derive(c, atom)
            if dc == ZERO:
                continue
            parts = list(e.children)
            parts[i] = dc
            terms.append(Mul(tuple(parts)))
        if not terms:
            return ZERO
        return terms[0] if len(terms) == 1 else Add(tuple(terms))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        db = _derive(e.base, atom)
        if db == ZERO:
            return ZERO
        return Mul((Const(Fraction(e.exponent)), Pow(e.base, e.exponent - 1), db))
    if isinstance(e, Func):
        da = _derive(e.arg, atom)
        if da == ZERO:
            return ZERO
        if e.name == "sin":
            outer: Expr = Func("cos", e.arg)
        elif e.name == "cos":
            outer = -Func("sin", e.arg)
        elif e.name == "exp":
            outer = e
        elif e.name == "ln":
            outer = Pow(e.arg, -1)
        else:  # sqrt
            outer = Mul((Const(Fraction(1, 2)), Pow(e, -1)))
        return Mul((outer, da))
    raise TypeError("not an Expr: %r" % (e,))


def subst_atoms(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace atom occurrences simultaneously; replacements are not re-scanned."""
    if e in mapping:
        return mapping[e]
    if isinstance(e, (Const, *ATOM_TYPES)):
        return e
    if isinstance(e, Add):
        return Add(tuple(subst_atoms(c, mapping) for c in e.children))
    if isinstance(e, Mul):
        return Mul(tuple(subst_atoms(c, mapping) for c in e.children))
    if isinstance(e, Pow):
        return Pow(subst_atoms(e.base, mapping), e.exponent)
    if isinstance(e, Func):
        return Func(e.name, subst_atoms(e.arg, mapping))
    raise TypeError("not an Expr: %r" % (e,))


# ---------------------------------------------------------------------------
# evaluation

def evaluate_ex(e: Expr, b: Mapping[Expr, Fraction]):
    """Returns (value, exact) where exact is False once a value was
    rounded: a function value with no exact form, or a power of one."""
    n, d, exact = _eval(e, b)
    return Fraction(n, d), exact


def _eval(e: Expr, b) -> tuple:
    """(numerator, denominator, exact) of e, the denominator positive and
    the pair not necessarily reduced.  Integer arithmetic throughout; only
    a function value and an inexact power pass through a Fraction."""
    if isinstance(e, Const):
        v = e.value
        return v.numerator, v.denominator, True
    if isinstance(e, ATOM_TYPES):
        try:
            v = b[e]
        except KeyError:
            raise MissingBinding(e) from None
        if not isinstance(v, Fraction):
            v = Fraction(v)
        return v.numerator, v.denominator, True
    if isinstance(e, Add):
        # over the lcm of the denominators, as Fraction addition keeps it
        n, d, exact = 0, 1, True
        for c in e.children:
            n2, d2, ex = _eval(c, b)
            if d2 == d:
                n += n2
            else:
                g = math.gcd(d, d2)
                n = n * (d2 // g) + n2 * (d // g)
                d = d // g * d2
            exact = exact and ex
        return n, d, exact
    if isinstance(e, Mul):
        n, d, exact = 1, 1, True
        for c in e.children:
            n2, d2, ex = _eval(c, b)
            n *= n2
            d *= d2
            exact = exact and ex
        return n, d, exact
    if isinstance(e, Pow):
        n, d, ex = _eval(e.base, b)
        k = e.exponent
        if n == 0 and k < 0:
            raise DomainError("zero raised to a negative power")
        if not ex:
            # an inexact base carries _DIGITS digits; its exact power would
            # carry exponent times as many
            v = _rounded_pow(n, d, k)
            return v.numerator, v.denominator, False
        # reduced first: a common factor would be raised to the power too
        g = math.gcd(n, d)
        n, d = n // g, d // g
        if k < 0:
            n, d, k = (-d, -n, -k) if n < 0 else (d, n, -k)
        return n ** k, d ** k, True
    if isinstance(e, Func):
        n, d, ex = _eval(e.arg, b)
        r = _exact_func(e.name, n, d)
        if r is None:
            r, ex = _rounded_call(e.name, n, d), False
        return r.numerator, r.denominator, ex
    raise TypeError("not an Expr: %r" % (e,))


def _rounded_call(name: str, n: int, d: int) -> Fraction:
    """name(n/d) rounded to _DIGITS significant digits, made exact."""
    if name in ("sin", "cos"):
        return _decimal_to_fraction(_trig(name, n, d))
    try:
        r = _DECIMAL_FUNCS[name](_CONTEXT.scaleb(
            *_rounded_quotient(n, d, _DIGITS)))
    except decimal.DecimalException:
        raise DomainError("%s of a value is out of range" % name) from None
    return _decimal_to_fraction(r)


def _rounded_pow(n: int, d: int, k: int) -> Fraction:
    """(n/d)**k rounded to _DIGITS significant digits, made exact."""
    if k == 0:
        return Fraction(1)  # decimal's 0**0 is an invalid operation
    try:
        r = _CONTEXT.power(_CONTEXT.scaleb(
            *_rounded_quotient(n, d, _DIGITS)), k)
    except decimal.DecimalException:
        raise DomainError("a value to the power %d is out of range" % k) \
            from None
    return _decimal_to_fraction(r)


def _trig(name: str, n: int, d: int) -> decimal.Decimal:
    """sin or cos of x = n/d, n != 0 < d, correctly rounded to _DIGITS
    digits.  At p bits, |x| >= 1/2 is k*pi/2 + r, |r| <= pi/4, with r
    within 2 units of 2**-p (x and pi at b + 1 more bits, b those of x's
    integer part), and the series at |r| errs by under 1.5 units in each
    of at most p/2 + 1 terms: v, the value in units, is within p of it.
    Ziv's test: when v - p and v + p round to the same Decimal, so does
    the value; else p doubles.  A DomainError, so the probe draws another
    point, for b > _TRIG_BITS and once p passes _VALUE_BITS, where sin of
    |x| < 2**-_VALUE_BITS starts."""
    a = abs(n)
    if a.bit_length() - d.bit_length() > _TRIG_BITS \
            or (b := (a // d).bit_length()) > _TRIG_BITS:
        raise DomainError("%s of a value of more than %d integer bits"
                          % (name, _TRIG_BITS))
    # sin x is about x, so p counts the leading zeros of a small x too
    p = 256 + (name == "sin") * max(0, d.bit_length() - a.bit_length())
    while p <= _VALUE_BITS:
        if 2 * a < d:
            k, r = 0, (n << p) // d
        else:
            pi = _pi(p + b + 1)
            y = (n << p + b + 2) // d
            k = (2 * y + pi) // (2 * pi)
            r = (y - k * pi) >> b + 2
        # sin(x) = sin(r + k*pi/2) and cos(x) = sin(r + (k + 1)*pi/2)
        k += name == "cos"
        v = _taylor(k % 2 == 0, abs(r), p)
        v = -v if (k % 4 > 1) != (k % 2 == 0 and r < 0) else v
        lo, hi = (_CONTEXT.scaleb(*_rounded_quotient(v + e, 1 << p, _DIGITS))
                  for e in (-p, p))
        if lo == hi:
            return lo
        p *= 2
    raise DomainError("%s of a value needs more than %d bits"
                      % (name, _VALUE_BITS))


def _taylor(odd: bool, r: int, p: int) -> int:
    """sin (odd) or cos of r/2**p times 2**p, 0 <= r < 0.8 * 2**p, by
    the Taylor series, each term floored once from the one before."""
    r2, s, t, k = r * r >> p, 0, r if odd else 1 << p, odd
    while t:
        s += -t if k % 4 > 1 else t
        t = (t * r2 >> p) // ((k + 1) * (k + 2))
        k += 2
    return s


def _pi(w: int) -> int:
    """pi * 2**w to within 2, shifted from the widest pi asked so far:
    Machin's formula, each term floored, at guard bits, then rounded."""
    global _PI
    if w > _PI[0]:
        g = w.bit_length() + 10
        v = 0
        for m, c in ((5, 16), (239, -4)):
            t, k = (1 << w + g) // m, 1
            while t:
                v += c * (t // k)
                t, k, c = t // (m * m), k + 2, -c
        _PI = w, (v + (1 << g - 1)) >> g
    return _PI[1] >> (_PI[0] - w)


def _rounded_quotient(n: int, d: int, digits: int) -> tuple:
    """(m, e), n/d cut to more than `digits` digits with a last digit of 1
    when the cut dropped anything (round to odd), so that m * 10**e rounded
    half to even, as _CONTEXT.scaleb does, is n/d correctly rounded; d > 0.
    Linear time, where a Decimal of n or d takes time quadratic in its size."""
    if n == 0:
        return 0, 0
    # |n|/d >= 2**(bits - 1), so the quotient has at least digits + 1 digits
    e = math.floor((abs(n).bit_length() - d.bit_length() - 1)
                   / _LOG2_10) - digits - 1
    q, r = divmod(abs(n) * 10 ** max(0, -e), d * 10 ** max(0, e))
    return (1 if n > 0 else -1) * (q * 10 + (r != 0)), e - 1


def _decimal_to_fraction(r: decimal.Decimal) -> Fraction:
    """The exact value of a finite Decimal."""
    exp = r.as_tuple().exponent
    man = int(_CONTEXT.scaleb(r, -exp))
    _check_width(man.bit_length() + abs(exp) * _LOG2_10)
    return Fraction(*r.as_integer_ratio())


def _check_width(bits):
    """A value of more than _VALUE_BITS bits is a DomainError, so a probe
    draws another point."""
    if bits > _VALUE_BITS:
        raise DomainError("a value of %d bits has no exact value in range"
                          % bits)


# ---------------------------------------------------------------------------
# printing

def _prime_marks(order: int) -> str:
    return "'" * order


def format_expr(e: Expr, var_names: Optional[Sequence[str]] = None) -> str:
    return _fmt(e, var_names, 0)


def _state_name(index: int, var_names) -> str:
    if var_names is not None and 0 <= index < len(var_names):
        return var_names[index]
    return "x%d" % (index + 1)


def _split_sign(e: Expr):
    if isinstance(e, Const) and e.value < 0:
        return True, Const(-e.value)
    if isinstance(e, Mul) and e.children and isinstance(e.children[0], Const) \
            and e.children[0].value < 0:
        c = Const(-e.children[0].value)
        rest = e.children[1:]
        if c.value == 1:
            body = rest[0] if len(rest) == 1 else Mul(rest)
        else:
            body = Mul((c, *rest))
        return True, body
    return False, e


def _fmt(e: Expr, names, prec: int) -> str:
    # precedence: 1 add, 2 mul, 3 unary minus payload, 4 power, 5 atom
    if isinstance(e, Const):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else "%d/%d" % (v.numerator, v.denominator)
        if v < 0 and prec > 1:
            return "(" + s + ")"
        if v.denominator != 1 and prec >= 4:
            return "(" + s + ")"
        return s
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, StateDeriv):
        nm = _state_name(e.index, names)
        if e.order <= 3:
            return nm + _prime_marks(e.order)
        return "diff(%s,%d)" % (nm, e.order)
    if isinstance(e, DrivingFn):
        if e.order <= 3:
            return "%s%s(t)" % (e.name, _prime_marks(e.order))
        return "diff(%s(t),%d)" % (e.name, e.order)
    if isinstance(e, Func):
        return "%s(%s)" % (e.name, _fmt(e.arg, names, 0))
    if isinstance(e, Pow):
        b = _fmt(e.base, names, 4)
        return "%s^%d" % (b, e.exponent)
    if isinstance(e, Mul):
        neg, body = _split_sign(e)
        if neg:
            # -x, the product (-1)*x, prints x as a unary minus payload
            unary = len(e.children) == 2 and e.children[0] is MINUS_ONE
            s = "-" + _fmt(body, names, 3 if unary else 2)
            return "(" + s + ")" if prec >= 2 else s
        parts = [_fmt(c, names, 2) for c in e.children]
        s = "*".join(parts)
        return "(" + s + ")" if prec >= 3 else s
    if isinstance(e, Add):
        first = True
        out = []
        for c in e.children:
            neg, body = _split_sign(c)
            piece = _fmt(body, names, 2)
            if first:
                out.append(("-" + piece) if neg else piece)
                first = False
            else:
                out.append((" - " if neg else " + ") + piece)
        s = "".join(out)
        return "(" + s + ")" if prec >= 2 else s
    raise TypeError("not an Expr: %r" % (e,))
