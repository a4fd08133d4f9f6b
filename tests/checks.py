"""Shared generators and invariant checkers for the rewrite suites.

test_convert and test_acceptance both draw on these: random expression and
system generators, the derivative-shift identity, the combination recovery
identity, and the block-structure check for substitution rewrites; the
pendulum chain that test_structural and test_jacobian grow to size n, the
chain of differentiations whose index is its size, and the Brenan blocks
that test_convert and test_cli grow; the entry-by-entry System Jacobian
and the dense elimination and rank references that test_jacobian and
test_nullspace hold the fast ones to; the fixed-point offsets that
test_structural and test_generated hold the search to; the Fraction-only
normal form and evaluation that test_expr holds the integer kernel to; the
recursive multinomial that test_poly holds poly.power to; the dense,
cell-by-cell tables that test_output holds the sparse ones to; the
tokenizer with kinds and columns, and the random lines, that test_dsl
holds the front end to; and the helpers that only tests call: con,
parse_expr and validate_offsets.

daefix keeps each row of Sigma and of J as {column: entry}, in ascending
columns.  The references here read dense n x n input, and Sigma through
sig.entry(i, j); sparse and dense convert between the two forms.
"""

import math
import re
from fractions import Fraction
from typing import NamedTuple

from daefix.dsl import ParseError, _system_parser, parse_dae
from daefix.expr import (ATOM_TYPES, NEG_INF, ZERO, Add, Const, DomainError,
                         DrivingFn, Func, Mul, Param, Pow, StateDeriv,
                         TimeVar, _TERM_CAP, _exact_func, _key, _mono_key,
                         _rounded_call, _rounded_pow, evaluate_ex, format_expr,
                         highest_orders, partial, simplify, total_derivative,
                         walk)
from daefix.model import DaeSystem, fresh_indexed, make_equation
from daefix.nullspace import EliminationStuck
from daefix.structural import OffsetPair, _matching, signature_matrix

_FUNCS = ("sin", "cos", "exp")
_ATOMS = (StateDeriv(0, 0), StateDeriv(0, 1), StateDeriv(1, 0),
          StateDeriv(1, 2), StateDeriv(2, 1), TimeVar(), DrivingFn("w"))


def sparse(dense_rows):
    """The rows {column: entry} of a dense matrix, in ascending columns:
    NEG_INF (an absent Sigma entry) and the ZERO constant (a zero of J)
    are left out."""
    return tuple({j: e for j, e in enumerate(row)
                  if e is not ZERO and e != NEG_INF} for row in dense_rows)


def walk_orders(tree):
    """{j: highest order of state j} over every node of tree, in ascending
    j: the reference for highest_orders, which reads the memoised atoms."""
    row = {}
    for node in walk(tree):
        if isinstance(node, StateDeriv):
            row[node.index] = max(node.order, row.get(node.index, -1))
    return dict(sorted(row.items()))


def dense(rows, fill):
    """The n x n tuples of the n sparse rows, fill where a row has no
    entry."""
    return tuple(tuple(row.get(j, fill) for j in range(len(rows)))
                 for row in rows)


def assert_one_form(analysis):
    """Each row of Sigma and of J is a dict with strictly ascending int
    columns: Sigma's values are orders >= 0, and J holds only tight
    entries (d_j - c_i = sigma_ij), none of them the ZERO constant.  Dict
    equality ignores key order, so comparing two analyses cannot see an
    order slip; yet the order decides the tight lists of the smallest HVT
    and the greedy pass of the matching."""
    sig, jac = analysis.signature, analysis.jacobian
    for row in sig.rows + (jac.matrix if jac else ()):
        assert type(row) is dict
        keys = list(row)
        assert all(type(j) is int for j in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))
    for row in sig.rows:
        assert all(type(s) is int and s >= 0 for s in row.values())
    if jac is not None:
        off = analysis.offsets
        for i, row in enumerate(jac.matrix):
            assert all(off.d[j] - off.c[i] == sig.rows[i].get(j)
                       for j in row)
            assert all(e is not ZERO for e in row.values())


def sparse_vector(entries):
    """The null-vector form of a list of expressions: {index: normal form}
    over the entries whose normal form is not ZERO, in ascending index."""
    return sparse([[simplify(e) for e in entries]])[0]


def dense_vector(vec, n):
    """The n entries of a null vector, ZERO off its support."""
    return tuple(vec.get(k, ZERO) for k in range(n))


def assert_vector_form(vec, n):
    """A null vector is a dict with strictly ascending int indices in
    0..n-1 whose values are normal forms, none of them ZERO: the form of
    a Jacobian row."""
    assert type(vec) is dict and vec
    keys = list(vec)
    assert all(type(k) is int and 0 <= k < n for k in keys)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(e is not ZERO and simplify(e) is e for e in vec.values())


def con(v):
    """The constant node of the int or Fraction v."""
    return Const(Fraction(v))


def evaluate(e, bindings):
    """The value of e at bindings, exact or rounded (see evaluate_ex)."""
    return evaluate_ex(e, bindings)[0]


def parse_expr(text, system, line=1):
    """Parse a standalone expression in the naming environment of
    `system`."""
    p = _system_parser(text, system, line)
    e = p.parse()
    if not p.at_end():
        p.fail("unexpected trailing input")
    return e


def validate_offsets(sig, c, d):
    """Valid means: nonnegative, d_j - c_i >= sigma_ij wherever finite, and
    equality along some transversal."""
    n = sig.n
    if len(c) != n or len(d) != n:
        return False
    if any(ci < 0 for ci in c) or any(dj < 0 for dj in d):
        return False
    tight = []
    for i, r in enumerate(sig.rows):
        row = []
        for j, s in r.items():
            if d[j] - c[i] < s:
                return False
            if d[j] - c[i] == s:
                row.append(j)
        tight.append(row)
    return _matching(tight) is not None


def pendulum_chain(n):
    """n - 1 masses x_i'' + x_i*lam - x_{i-1} = 0 tied by sum x_i^2 = 1."""
    xs = ["x%d" % i for i in range(1, n)]
    eqs = ["eq e%d: x%d'' + x%d*lam%s = 0"
           % (i, i, i, " - x%d" % (i - 1) if i > 1 else "")
           for i in range(1, n)]
    return "dae chain\nvars %s, lam\n%s\neq g: %s - 1 = 0\n" % (
        ", ".join(xs), "\n".join(eqs), " + ".join(x + "^2" for x in xs))


def index_chain(n):
    """x1 = t and x_{i+1} = x_i' for i < n: structurally well posed, with
    index n and no degrees of freedom."""
    eqs = ["eq g%d: x%d - x%d' = 0" % (i, i + 1, i) for i in range(1, n)]
    return "dae index_chain\nvars %s\neq g0: x1 - t = 0\n%s\n" % (
        ", ".join("x%d" % i for i in range(1, n + 1)), "\n".join(eqs))


def brenan_blocks(k):
    """k decoupled copies of the Brenan system: 2k equations, value k,
    one combination step per block."""
    eqs, xs, hs = [], [], []
    for b in range(1, k + 1):
        xs += ["x%d" % b, "y%d" % b]
        hs += ["h%d" % (2 * b - 1), "h%d" % (2 * b)]
        eqs += ["eq a%d: x%d' + t*y%d' - h%d(t) = 0" % (b, b, b, 2 * b - 1),
                "eq b%d: x%d + t*y%d - h%d(t) = 0" % (b, b, b, 2 * b)]
    return "dae brenan_x%d\nvars %s\ninput %s\n%s\n" % (
        k, ", ".join(xs), ", ".join(hs), "\n".join(eqs))


def rand_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Const(rng.randint(-3, 3))
        return _ATOMS[rng.randrange(len(_ATOMS))]
    k = rng.randrange(6)
    if k == 0:
        return Add((rand_expr(rng, depth - 1), rand_expr(rng, depth - 1)))
    if k == 1:
        return Mul((rand_expr(rng, depth - 1), rand_expr(rng, depth - 1)))
    if k == 2:
        return -rand_expr(rng, depth - 1)
    if k == 3:
        return Pow(rand_expr(rng, depth - 1), rng.choice((2, 3, -1)))
    if k == 4:
        return Func(rng.choice(_FUNCS), rand_expr(rng, depth - 1))
    return Add((rand_expr(rng, depth - 1), -rand_expr(rng, depth - 1)))


def derivative_shift_holds(rng):
    """d(D^p f)/dx_j^(k+p) = df/dx_j^(k) at k, the highest order of x_j in f.

    Returns None for draws that cannot exercise the identity: the variable
    does not occur, or the expression hides a division by zero.
    """
    f = rand_expr(rng)
    j = rng.randrange(3)
    try:
        k = highest_orders(simplify(f)).get(j, NEG_INF)
        if k == NEG_INF:
            return None
        p = rng.randint(1, 3)
        lhs = partial(total_derivative(f, p), StateDeriv(j, k + p))
        rhs = partial(f, StateDeriv(j, k))
        return simplify(Add((lhs, -rhs))) == ZERO
    except DomainError:
        return None


def reference_system_jacobian(system, sig, off):
    """The dense System Jacobian entry by entry over all n^2 positions: the
    normal form of the partial derivative of the whole equation at each
    tight position, the ZERO constant elsewhere."""
    n = system.n
    return tuple(
        tuple(simplify(partial(system.equations[i].expr,
                               StateDeriv(j, int(sig.entry(i, j)))))
              if sig.entry(i, j) != NEG_INF
              and off.d[j] - off.c[i] == sig.entry(i, j) else ZERO
              for j in range(n))
        for i in range(n))


def reference_offsets(sig):
    """The canonical offsets by Pryce's fixed point, swept from c = 0 until
    nothing moves: d_j = max_i (sigma_ij + c_i), then
    c_i = d_h(i) - sigma_i,h(i) over the HVT h.  Each sweep moves the
    offsets one step along a chain of differentiations."""
    n = sig.n
    cols = [[(i, sig.entry(i, j)) for i in range(n)
             if sig.entry(i, j) != NEG_INF] for j in range(n)]
    c = [0] * n
    while True:
        d = [max(s + c[i] for i, s in col) for col in cols]
        c2 = [d[j] - sig.entry(i, j) for i, j in sig.hvt]
        if c2 == c:
            return OffsetPair(tuple(c), tuple(d))
        c = c2


def _factor_term(rng, names, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(names) + "'" * rng.randint(0, 2)
    sub = _factor_term(rng, names, depth - 1)
    if r < 0.4:
        return "(%s)^%d" % (sub, rng.randint(2, 3))
    if r < 0.6:
        return "%s*%s" % (sub, _factor_term(rng, names, depth - 1))
    if r < 0.75:
        return "%s(%s + %s)" % (rng.choice(("sin", "exp", "sqrt")), sub,
                                _factor_term(rng, names, depth - 1))
    if r < 0.9:
        return "%s*%s(%s)" % (_factor_term(rng, names, depth - 1),
                              rng.choice(("sin", "exp", "sqrt")), sub)
    # cancels in the normal form; the formal signature still sees it
    return "(%s - %s)" % (sub, sub)


def rand_factor_text(rng):
    """The .dae text of a square system of one to four equations, each a
    sum of up to four products of state derivatives with sin, exp and sqrt
    factors."""
    n = rng.randint(1, 4)
    names = ["x%d" % j for j in range(1, n + 1)]
    eqs = ["eq f%d: %s = 0" % (i, " + ".join(
        _factor_term(rng, names, 3) for _ in range(rng.randint(1, 4))))
        for i in range(1, n + 1)]
    return "dae r\nvars %s\n%s\n" % (", ".join(names), "\n".join(eqs))


def rand_factor_system(rng):
    """The system of rand_factor_text."""
    return parse_dae(rand_factor_text(rng))


def rand_coupled_text(rng):
    """rand_factor_text with f1 replaced by f1 + f2' when there is an f2.
    Where f2' holds the leading derivatives, row f1 of the System Jacobian
    repeats row f2, so J is singular and a fix takes a step."""
    lines = rand_factor_text(rng).split("\n")
    if lines[3].startswith("eq f2: "):
        lines[2] = "%s + diff(%s, 1) = 0" % (lines[2][:-4], lines[3][7:-4])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# random singular linear systems: A x' + B x = 0 with det(A) = 0, det(B) != 0

def _rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(n):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def singular_linear_system(rng, tag: str) -> DaeSystem:
    n = rng.randint(3, 5)
    while True:
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if _rank(A) < n:
            continue
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if _rank(B) < n:
            continue
        row = rng.randrange(n)
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        coeffs[row] = 0
        if not any(coeffs):
            coeffs[(row + 1) % n] = 1
        A[row] = [sum(coeffs[i] * A[i][j] for i in range(n))
                  for j in range(n)]
        eqs = []
        for i in range(n):
            terms = [Mul((Const(A[i][j]), StateDeriv(j, 1)))
                     for j in range(n) if A[i][j]]
            terms += [Mul((Const(B[i][j]), StateDeriv(j, 0)))
                      for j in range(n) if B[i][j]]
            raw = terms[0] if len(terms) == 1 else Add(tuple(terms))
            eqs.append(make_equation("f%d" % (i + 1), raw))
        system = DaeSystem("lin_%s" % tag,
                           tuple("x%d" % (j + 1) for j in range(n)),
                           tuple(eqs))
        sig = signature_matrix(system)
        if sig.swp and sig.value == n:
            return system


# ---------------------------------------------------------------------------
# rewrite invariants

def assert_lc_recovery(before: DaeSystem, app):
    """The replaced equation recovers the original: the combination minus
    the other summands equals u_l times the old pivot equation."""
    a = app.analysis
    l = app.pivot
    terms = [app.system.equations[l].expr]
    for i in a.rows:
        if i == l:
            continue
        fi = total_derivative(before.equations[i].expr, a.off.c[i] - a.c_under)
        terms.append(-Mul((a.u[i], fi)))
    back = Add((Add(tuple(terms)),
                -Mul((a.u[l], before.equations[l].expr))))
    assert simplify(back) == ZERO


def assert_es_block_structure(before: DaeSystem, app):
    """The substituted system, closed with a state for the pivot's leading
    derivative, has the signature layout that keeps the offsets covering:
    no leading derivatives left in the old rows, fresh states entering at
    most at the defining offset, and defining rows tight exactly on their
    own column and the pivot column."""
    a = app.analysis
    off = a.off
    n = before.n
    l = app.pivot
    c_bar = a.c_over
    conv = app.system
    taken = set(conv.var_names) | {p for p, _ in conv.params} \
        | set(conv.input_names)
    yl_name = fresh_indexed("x", conv.n + 1, taken)
    gl_name = fresh_indexed("f", conv.n + 1, {e.name for e in conv.equations})
    yl_index = conv.n
    raw = Add((-StateDeriv(yl_index, 0), StateDeriv(l, off.d[l] - c_bar)))
    gl = make_equation(gl_name, raw, origin="es_appended",
                       alias="y%d" % (l + 1))
    aug = DaeSystem(conv.name, conv.var_names + (yl_name,),
                    conv.equations + (gl,), conv.params, conv.input_names)
    sig = signature_matrix(aug)

    jset = set(a.cols)
    own_col = {rec.new_index: rec.col for rec in app.renamed}
    own_col[yl_index] = l
    for i in range(n):
        for j in range(aug.n):
            s = sig.entry(i, j)
            if j < n:
                lim = off.d[j] - off.c[i]
                if j in jset:
                    assert s < lim, (i, j)
                else:
                    assert s <= lim, (i, j)
            elif j == yl_index:
                assert s == NEG_INF, (i, j)
            else:
                assert s <= c_bar - off.c[i], (i, j)
    for i in range(n, aug.n):
        k = own_col[i]
        for j in range(aug.n):
            s = sig.entry(i, j)
            if j < n:
                lim = off.d[j] - c_bar
                if j == k or j == l:
                    assert s == lim, (i, j)
                elif j in jset:
                    assert s < lim, (i, j)
                else:
                    assert s <= lim, (i, j)
            else:
                assert s == (0 if j == i else NEG_INF), (i, j)


# ---------------------------------------------------------------------------
# dense references for the sparse elimination and rank probe

# a hidden zero: the normal form keeps it apart, every probe reads 0
HIDDEN_ZERO = simplify(Func("sin", 2 * Param("a"))
                       - 2 * Func("sin", Param("a")) * Func("cos", Param("a")))
_ENTRY_ATOMS = (StateDeriv(0, 0), StateDeriv(1, 1), TimeVar(), Param("a"))


def rand_sparse_matrix(rng, n, density):
    """n x n: each entry nonzero with probability density.  Two of them
    (one above n = 4) are symbolic: an atom, its reciprocal, a multiple of
    it, or, up to n = 4, a sum of two atoms; the rest are small constants,
    which keeps fraction-free elimination small.  A scaled copy of another
    row now and then gives kernels of several dimensions.  Dense: zeros
    are the ZERO constant, and sparse() gives the rows daefix reads."""
    def symbolic_entry():
        a = rng.choice(_ENTRY_ATOMS)
        k = rng.randrange(4 if n <= 4 else 3)
        if k == 0:
            return a
        if k == 1:
            return Pow(a, -1)
        if k == 2:
            return Mul((Const(rng.choice((-2, 3))), a))
        return Add((a, rng.choice(_ENTRY_ATOMS + (Const(1),))))
    cells = [(i, j) for i in range(n) for j in range(n)
             if rng.random() < density]
    marked = set(rng.sample(cells, min(2 if n <= 4 else 1, len(cells))))
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in cells:
        rows[i][j] = simplify(symbolic_entry() if (i, j) in marked
                              else Const(rng.choice((-1, 1, 2))))
    if n > 1 and rng.random() < 0.5:
        src, dst = rng.sample(range(n), 2)
        rows[dst] = [simplify(Mul((Const(-2), e))) for e in rows[src]]
    return rows


def _dense_pivot_choice(entries, prober):
    """The first constant, else the first entry proven nonzero, over the
    entries that are not ZERO, with no verdict asked past the pivot."""
    entries = [(r, e) for r, e in entries if e is not ZERO]
    for r, e in entries:
        if isinstance(e, Const):
            return r, "pivot"
    saw_probable = None
    for r, e in entries:
        v = prober.verdict(e)
        if v.proven_nonzero:
            return r, "pivot"
        if v.probably_zero and saw_probable is None:
            saw_probable = e
    if saw_probable is not None:
        return saw_probable, "stuck"
    return None, "free"


def dense_kernel_vector(matrix, prober, basis_index=0):
    """The elimination as it stood before it skipped structural zeros: one
    full fraction-free Gauss-Jordan over every entry per basis index."""
    n = len(matrix)
    m = [[simplify(e) for e in row] for row in matrix]
    pivots = []
    pivot_rows = set()
    free_cols = []
    for col in range(n):
        cands = [(r, m[r][col]) for r in range(n) if r not in pivot_rows]
        chosen, kind = _dense_pivot_choice(cands, prober)
        if kind == "stuck":
            raise EliminationStuck(col, chosen)
        if kind == "free":
            free_cols.append(col)
            continue
        p = chosen
        pv = m[p][col]
        for r in range(n):
            if r == p:
                continue
            e = m[r][col]
            if e is ZERO:
                continue
            m[r] = [simplify(Mul((pv, m[r][k])) - Mul((e, m[p][k])))
                    for k in range(n)]
            m[r][col] = ZERO
        pivots.append((p, col))
        pivot_rows.add(p)
    if basis_index >= len(free_cols):
        return None
    fc = free_cols[basis_index]
    v = [ZERO] * n
    v[fc] = Const(Fraction(1))
    for p, col in reversed(pivots):
        num = [Mul((m[p][k], v[k])) for k in free_cols
               if m[p][k] != ZERO and v[k] != ZERO]
        if not num:
            v[col] = ZERO
            continue
        total = num[0] if len(num) == 1 else Add(tuple(num))
        v[col] = simplify(Mul((-total, Pow(m[p][col], -1))))
    vec = tuple(v)
    if not dense_verify_nullvector(matrix, vec, prober):
        raise AssertionError("dense reference vector fails verification")
    return vec


def dense_verify_nullvector(matrix, vec, prober, left=False):
    """The residual check over every product, ZERO factors included."""
    n = len(matrix)
    if not any(prober.verdict(e).proven_nonzero for e in vec):
        return False
    for i in range(n):
        if left:
            terms = [Mul((vec[k], matrix[k][i])) for k in range(n)]
        else:
            terms = [Mul((matrix[i][k], vec[k])) for k in range(n)]
        dot = terms[0] if n == 1 else Add(tuple(terms))
        if prober.verdict(dot).proven_nonzero:
            return False
    return True


def dense_fraction_rank(rows):
    """Row-echelon rank over every entry of a rectangular Fraction matrix."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c] / pv
                for jj in range(c, n_cols):
                    m[i][jj] -= f * m[r][jj]
        r += 1
        rank += 1
        if r == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# the normal form and evaluation on Fraction coefficients only, as they
# stood before integral coefficients stayed int: simplify and evaluate_ex
# must give the same trees and values

def reference_simplify(e):
    return _ref_from_poly(_ref_trig_reduce(_ref_poly(e)))


def _ref_poly(e):
    if isinstance(e, Const):
        return {(): e.value} if e.value else {}
    if isinstance(e, ATOM_TYPES):
        return {((e, 1),): Fraction(1)}
    if isinstance(e, Add):
        out = _ref_poly(e.children[0]) if e.children else {}
        for ch in e.children[1:]:
            for m, c in _ref_poly(ch).items():
                c2 = out.get(m, 0) + c
                if c2:
                    out[m] = c2
                else:
                    out.pop(m, None)
        return out
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for ch in e.children:
            out = _ref_p_mul(out, _ref_poly(ch))
        return out
    if isinstance(e, Pow):
        return _ref_p_pow(_ref_poly(e.base), e.exponent)
    if isinstance(e, Func):
        return _ref_func_poly(e.name, reference_simplify(e.arg))
    raise TypeError("not an Expr: %r" % (e,))


def _ref_func_poly(name, arg):
    if isinstance(arg, Const):
        r = _exact_func(name, arg.value.numerator, arg.value.denominator)
        if r is not None:
            return {(): r} if r else {}
    return {((Func(name, arg), 1),): Fraction(1)}


def _ref_collapse(p):
    if len(p) <= 1:
        return p
    return {((_ref_from_poly(p), 1),): Fraction(1)}


def _ref_p_mul(p, q):
    if not p or not q:
        return {}
    if len(p) > 1 and len(q) > 1 and len(p) * len(q) > _TERM_CAP:
        p = _ref_collapse(p)
        q = _ref_collapse(q)
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = {}
            for f, k in m1:
                exps[f] = exps.get(f, 0) + k
            for f, k in m2:
                exps[f] = exps.get(f, 0) + k
            for m3, c3 in _ref_mono_from_exps(exps).items():
                c = c1 * c2 * c3
                c4 = out.get(m3, 0) + c
                if c4:
                    out[m3] = c4
                else:
                    out.pop(m3, None)
    return out


def _ref_mono_from_exps(exps):
    ex = [(f, k) for f, k in exps.items()
          if k and isinstance(f, Func) and f.name == "exp"]
    merge = len(ex) > 1 or any(k != 1 for _, k in ex)
    plain = []
    extras = []
    if merge:
        total = Add(tuple(Mul((Const(Fraction(k)), f.arg)) for f, k in ex))
        extras.append(_ref_func_poly("exp", reference_simplify(total)))
    for f in sorted(exps, key=_key):
        k = exps[f]
        if k == 0 or (merge and isinstance(f, Func) and f.name == "exp"):
            continue
        if isinstance(f, Func) and f.name == "sqrt" and not (0 <= k <= 1):
            half, rem = divmod(k, 2)
            extras.append(_ref_p_pow(_ref_poly(f.arg), half))
            if rem:
                plain.append((f, 1))
            continue
        plain.append((f, k))
    out = {tuple(plain): Fraction(1)}
    for q in extras:
        out = _ref_p_mul(out, q)
    return out


def _ref_p_pow(p, n):
    if n == 0:
        return {(): Fraction(1)}
    if not p:
        if n < 0:
            raise DomainError("zero raised to a negative power")
        return {}
    if n == 1:
        return dict(p)
    if len(p) == 1:
        ((m, c),) = p.items()
        mono = _ref_mono_from_exps({f: k * n for f, k in m})
        return {mm: cc * c ** n for mm, cc in mono.items()}
    t = len(p)
    if n >= 2 and math.comb(n + t - 2, t - 1) * t <= _TERM_CAP:
        return _ref_p_multinomial(p, n)
    return {((_ref_from_poly(p), n),): Fraction(1)}


def _ref_p_multinomial(p, n):
    factors = sorted({f for m in p for f, _ in m}, key=_key)
    col = {f: i for i, f in enumerate(factors)}
    rewrite = any(isinstance(f, Func) and f.name in ("exp", "sqrt")
                  for f in factors)
    terms = []
    for m, c in p.items():
        v = [0] * len(factors)
        for f, k in m:
            v[col[f]] = k
        terms.append((v, c))
    last = len(terms) - 1
    out = {}

    def add(m, c):
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)

    def spread(r, left, v, c):
        tv, tc = terms[r]
        for k in range(left + 1) if r < last else (left,):
            vk = [a + k * b for a, b in zip(v, tv)] if k else v
            ck = c * math.comb(left, k) * tc ** k
            if r < last and k < left:
                spread(r + 1, left - k, vk, ck)
            elif rewrite:
                for m, c3 in _ref_mono_from_exps(
                        dict(zip(factors, vk))).items():
                    add(m, ck * c3)
            else:
                add(tuple((f, e) for f, e in zip(factors, vk) if e), ck)

    spread(0, n, [0] * len(factors), Fraction(1))
    return out


def ref_power(p, n, rules):
    """poly.power as it was before its loop, the recursion over terms that
    test_poly holds the loop to: the same dict, in the same order, with
    the same coefficient types."""
    if n == 0:
        return {(): 1}
    if n == 1 or not p:
        return dict(p)
    order, special, rebuild = rules
    if len(p) == 1:
        ((m, c),) = p.items()
        c = Fraction(c) ** n if n < 0 else c ** n
        if not special(m):
            return {tuple([(f, k * n) for f, k in m]): c}
        exps = {f: k * n for f, k in m}
        return {m2: c2 * c for m2, c2 in rebuild(exps).items()}
    factors = sorted({f for m in p for f, _ in m}, key=order)
    rewrite = any(map(special, p))
    terms = [([dict(m).get(f, 0) for f in factors], c) for m, c in p.items()]
    last = len(terms) - 1
    out = {}

    def add(m, c):
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)

    def spread(r, left, v, c):
        # of the `left` factors still to place, term r takes k < left and
        # passes on the rest, or takes them all, as the last term must
        tv, tc = terms[r]
        if r < last:
            for k in range(left):
                spread(r + 1, left - k,
                       [a + k * b for a, b in zip(v, tv)] if k else v,
                       c * math.comb(left, k) * tc ** k)
        c *= tc ** left
        m = tuple([(f, e) for f, a, b in zip(factors, v, tv)
                   if (e := a + left * b)])
        if not rewrite:
            add(m, c)
        else:
            for m, c3 in rebuild(dict(m)).items():
                add(m, c * c3)

    spread(0, n, [0] * len(factors), 1)
    return out


def _ref_trig_reduce(p):
    p = dict(p)
    changed = True
    while changed:
        changed = False
        for m in sorted(p, key=_mono_key):
            c1 = p.get(m)
            if c1 is None:
                continue
            hit = None
            for f, k in m:
                if isinstance(f, Func) and f.name == "sin" and k >= 2:
                    hit = (f, k)
                    break
            if hit is None:
                continue
            f, k = hit
            partner = _ref_mono_adjusted(m, f.arg, k - 2, 2)
            c2 = p.get(partner)
            if c2 is None:
                continue
            target = _ref_mono_adjusted(m, f.arg, k - 2, 0)
            del p[m]
            p.pop(partner, None)
            tc = p.get(target, 0) + c1
            if tc:
                p[target] = tc
            else:
                p.pop(target, None)
            if c2 != c1:
                p[partner] = c2 - c1
            changed = True
            break
    return p


def _ref_mono_adjusted(m, arg, sin_exp, cos_delta):
    exps = {}
    for f, k in m:
        exps[f] = exps.get(f, 0) + k
    sinf, cosf = Func("sin", arg), Func("cos", arg)
    exps[sinf] = sin_exp
    if cos_delta:
        exps[cosf] = exps.get(cosf, 0) + cos_delta
    items = [(f, k) for f, k in exps.items() if k != 0]
    items.sort(key=lambda fk: _key(fk[0]))
    return tuple(items)


def _ref_from_poly(p):
    if not p:
        return ZERO
    terms = [_ref_term_expr(m, p[m]) for m in sorted(p, key=_mono_key)]
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _ref_term_expr(m, c):
    if not m:
        return Const(c)
    factors = [f if k == 1 else Pow(f, k) for f, k in m]
    if c == 1:
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    return Mul((Const(c), *factors))


def reference_evaluate_ex(e, b):
    if isinstance(e, Const):
        return e.value, True
    if isinstance(e, ATOM_TYPES):
        return Fraction(b[e]), True
    if isinstance(e, Add):
        total, exact = Fraction(0), True
        for c in e.children:
            v, ex = reference_evaluate_ex(c, b)
            total += v
            exact = exact and ex
        return total, exact
    if isinstance(e, Mul):
        total, exact = Fraction(1), True
        for c in e.children:
            v, ex = reference_evaluate_ex(c, b)
            total *= v
            exact = exact and ex
        return total, exact
    if isinstance(e, Pow):
        v, ex = reference_evaluate_ex(e.base, b)
        if v == 0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        if ex:
            return v ** e.exponent, True
        return _rounded_pow(v.numerator, v.denominator, e.exponent), False
    if isinstance(e, Func):
        v, ex = reference_evaluate_ex(e.arg, b)
        r = _exact_func(e.name, v.numerator, v.denominator)
        if r is not None:
            return r, ex
        return _rounded_call(e.name, v.numerator, v.denominator), False
    raise TypeError("not an Expr: %r" % (e,))


# ---------------------------------------------------------------------------
# the tables as they stood before rows were built from the sparse support:
# every cell of the n x n matrix formatted and right-justified on its own

def reference_grid(headers, rows) -> str:
    widths = [max(map(len, col)) for col in zip(headers, *rows)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.rjust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def reference_render_sigma(system, sig, off=None) -> str:
    hvt = dict(sig.hvt or ())
    headers = [""] + list(system.var_names) + (["c_i"] if off else [])
    rows = []
    for i, eq in enumerate(system.equations):
        cells = [eq.name]
        for j in range(sig.n):
            s = sig.entry(i, j)
            if s == NEG_INF:
                cell = "-"
            else:
                cell = str(s)
                if off is not None and off.d[j] - off.c[i] > s:
                    cell = "[%s]" % cell
            cells.append(cell)
        if i in hvt:
            cells[hvt[i] + 1] += "•"
        if off is not None:
            cells.append(str(off.c[i]))
        rows.append(cells)
    if off is not None:
        rows.append(["d_j"] + [str(d) for d in off.d] + [""])
    return reference_grid(headers, rows)


def reference_render_jacobian(system, matrix) -> str:
    """The table of a dense J, every cell formatted on its own."""
    headers = [""] + list(system.var_names)
    rows = []
    for i, eq in enumerate(system.equations):
        cells = [eq.name]
        for entry in matrix[i]:
            cells.append("0" if entry is ZERO
                         else format_expr(entry, system.var_names))
        rows.append(cells)
    return reference_grid(headers, rows)


# ---------------------------------------------------------------------------
# the front end's tokens

# one token after any whitespace; a character no token starts with is bad
_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_]\w*)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<prime>'+)"
    r"|(?P<op>[-+*/^(),=:])"
    r"|(?P<bad>\S))"
)


class Tok(NamedTuple):
    kind: str   # name | num | prime | op | end
    text: str
    col: int


def reference_tokenize(s, line, col0=1):
    """The tokens of s with their kinds and columns, from the named groups
    of one scan; trailing whitespace matches no token and ends the scan."""
    out = []
    for m in _REF_TOKEN_RE.finditer(s):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError("unexpected character %r" % m[kind], line,
                             col0 + m.start(kind))
        out.append(Tok(kind, m[kind], col0 + m.start(kind)))
    out.append(Tok("end", "", col0 + len(s)))
    return out


# Pieces of the random lines: declared, reserved and unknown names, a name
# that \w continues past ASCII; numbers, malformed ones and a Unicode
# digit, which \d reads; primes, operators, whitespace with tabs; and
# characters no token starts with, among them a superscript digit, which
# str.isdigit would take for a number.
_PIECES = (
    "x", "y", "lam", "G", "h1", "t", "sin", "exp", "diff", "eq", "vars",
    "x\u00e91", "_a", "x1", "q",
    "0", "1", "12", "1.5", "1.2.3", "1e5", "1E-2", ".5", "5.", "\u0663",
    "0.0", "2e",
    "'", "''", ", '",
    "+", "-", "*", "/", "^", "(", ")", ",", "=", ":", "+", "-", "*", "(",
    ")", ",",
    " ", " ", "  ", "\t",
    "\u00b2", "$", "\u00e9", ".", "[", "]", ";", "@",
)
_LEAVES = ("x", "y''", "lam'", "G", "h1(t)", "h1'(t)", "t", "2", "1.5",
           ".5", "1e5", "\u0663", "0", "diff(x, 4)", "diff(h1(t),2)")


def _rand_expr_text(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(_LEAVES)
    a, b = _rand_expr_text(rng, depth - 1), _rand_expr_text(rng, depth - 1)
    if r < 0.6:
        return "%s %s %s" % (a, rng.choice("+-*/"), b)
    if r < 0.7:
        return "(%s)" % a
    if r < 0.8:
        return "-" + a
    if r < 0.9:
        return "%s(%s)" % (rng.choice(("sin", "cos", "exp", "ln", "sqrt")), a)
    return "%s^%s" % (a, rng.choice(("2", "-1", "(3)", "(-2)", "0")))


def rand_line(rng):
    """A random line in the style of one kind of input: an equation, a
    declaration or a vector.  Half are made of the pieces above, half are
    well formed, and a piece is put into half of those."""
    kind = rng.randrange(4)
    if rng.random() < 0.5:
        body = "".join(rng.choices(_PIECES, k=rng.randrange(1, 14)))
        head = ("eq f: ", "vars ", "params ", "[")[kind]
    elif kind == 0:
        head = "eq f: "
        body = "%s = %s" % (_rand_expr_text(rng, 3), rng.choice(
            ("0", "0.0", "(0)", "h1(t)", _rand_expr_text(rng, 2))))
    elif kind == 1:
        head = rng.choice(("vars ", "input "))
        body = ", ".join(rng.choices(("z", "w", "u1", "v_2"), k=3))
    elif kind == 2:
        head = "params "
        body = ", ".join(rng.choice(("k", "m = 2", "c = -1/3", "d = 1.5e-2",
                                     "e = 4/0", "f = 2/1.5"))
                         for _ in range(rng.randrange(1, 4)))
    else:
        head = "["
        body = ", ".join(_rand_expr_text(rng, 2)
                         for _ in range(rng.randrange(1, 4)))
    if rng.random() < 0.5:
        at = rng.randrange(len(body) + 1)
        body = body[:at] + rng.choice(_PIECES) + body[at:]
    return head + body + ("]" if head == "[" and rng.random() < 0.8 else "")
