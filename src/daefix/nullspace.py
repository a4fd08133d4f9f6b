"""Kernel and cokernel vectors of symbolic matrices.

Fraction-free Gauss-Jordan: a pivot never divides, it cross-multiplies
(row_r <- pivot * row_r - entry * row_p), so entries stay in the expression
ring.  One elimination per matrix side yields the whole basis; the literal
ZERO entries a System Jacobian holds at its non-tight positions are never
zero-tested, multiplied or simplified: each row is kept as its nonzero
entries, so a row update touches only the columns of the two rows it
combines.  Pivot choice consults the zero tester; a column whose only
nonzero candidates are merely *probably* zero cannot be pivoted or skipped
safely, which surfaces as EliminationStuck.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence

from .expr import Add, Const, Expr, Mul, Neg, Pow, ZERO, simplify, walk
from .zerotest import Prober


class NullspaceError(RuntimeError):
    pass


class EliminationStuck(NullspaceError):
    """A pivot column is blocked by entries that are only probably zero."""

    def __init__(self, col: int, entry: Expr):
        super().__init__("cannot pivot column %d: entry %r is only probably "
                         "zero" % (col + 1, entry))
        self.col = col
        self.entry = entry


def _pivot_choice(entries, prober: Prober):
    """Among (row, expr) candidates pick the pivot: proven-nonzero constants
    first, then proven-nonzero expressions, smallest row index deciding ties;
    the candidates hold no ZERO.  Returns (row, kind), kind 'pivot', 'free'
    or 'stuck'."""
    const_rows = []
    expr_rows = []
    saw_probable = None
    for r, e in entries:
        v = prober.verdict(e)
        if v.proven_nonzero:
            if isinstance(e, Const):
                const_rows.append(r)
            else:
                expr_rows.append(r)
        elif v.probably_zero and saw_probable is None:
            saw_probable = e
    if const_rows:
        return const_rows[0], "pivot"
    if expr_rows:
        return expr_rows[0], "pivot"
    if saw_probable is not None:
        return saw_probable, "stuck"
    return None, "free"


def kernel_basis(matrix: Sequence[Sequence[Expr]], prober: Prober,
                 left: bool = False) -> Iterator[tuple]:
    """Kernel basis (cokernel with left=True), one vector per free column in
    ascending order.

    The elimination runs in this call, so EliminationStuck comes from it;
    each vector is back-substituted and strictly verified only when the
    returned iterator is advanced to it."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NullspaceError("matrix must be square")
    if left:
        matrix = [[matrix[i][j] for i in range(n)] for j in range(n)]
    # row r keeps its non-ZERO entries {col: normal form}, and holders[k]
    # the rows with an entry in column k; a zero normal form is the ZERO
    # object itself, so `is` tests it
    m: List[Dict[int, Expr]] = []
    holders: List[set] = [set() for _ in range(n)]
    for r, row in enumerate(matrix):
        m.append({})
        for k, e in enumerate(row):
            if e is not ZERO and (e := simplify(e)) is not ZERO:
                m[r][k] = e
                holders[k].add(r)
    pivots = []          # (row, col)
    pivot_rows = set()
    free_cols = []
    for col in range(n):
        rows = sorted(holders[col])
        chosen, kind = _pivot_choice(
            [(r, m[r][col]) for r in rows if r not in pivot_rows], prober)
        if kind == "stuck":
            raise EliminationStuck(col, chosen)
        if kind == "free":
            free_cols.append(col)
            continue
        p = chosen
        pv, prow = m[p][col], m[p]
        for r in rows:
            e = m[r][col]
            if r == p or prober.verdict(e).proven_zero:
                continue
            # the pivot column cancels by construction and is dropped
            row = {}
            for k in (m[r].keys() | prow.keys()) - {col}:
                x = simplify(Mul((pv, m[r].get(k, ZERO)))
                             - Mul((e, prow.get(k, ZERO))))
                if x is not ZERO:
                    row[k] = x
            for k in m[r]:
                holders[k].discard(r)
            for k in row:
                holders[k].add(r)
            m[r] = row
        pivots.append((p, col))
        pivot_rows.add(p)
    return (_basis_vector(matrix, m, pivots, free_cols, fc, prober)
            for fc in free_cols)


def _basis_vector(matrix, m, pivots, free_cols, fc, prober) -> tuple:
    v: List[Expr] = [ZERO] * len(m)
    v[fc] = Const(Fraction(1))
    for p, col in reversed(pivots):
        # pivot columns hold a single nonzero entry, so only free columns
        # feed the numerator
        num = [Mul((m[p][k], v[k])) for k in free_cols
               if k in m[p] and v[k] != ZERO]
        if num:
            v[col] = simplify(Mul((Neg(_sum(num)), Pow(m[p][col], -1))))
    if not verify_nullvector(matrix, v, prober):
        raise NullspaceError("candidate vector fails residual verification")
    return tuple(v)


def kernel_vector(matrix: Sequence[Sequence[Expr]], prober: Prober,
                  basis_index: int = 0) -> Optional[tuple]:
    """basis_index-th vector of kernel_basis, or None when the kernel has
    no that-many dimensions."""
    return next(islice(kernel_basis(matrix, prober), basis_index, None), None)


def cokernel_vector(matrix: Sequence[Sequence[Expr]], prober: Prober,
                    basis_index: int = 0) -> Optional[tuple]:
    return next(islice(kernel_basis(matrix, prober, left=True), basis_index,
                       None), None)


def _sum(terms):
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def residual(matrix, vec, left: bool = False):
    """Yields each entry of vec^T matrix (left) or matrix vec, unsimplified:
    the sum of the products of two non-ZERO factors, or None when there is
    no such product."""
    support = [k for k, x in enumerate(vec) if x != ZERO]
    for i in range(len(matrix)):
        pairs = ((matrix[k][i] if left else matrix[i][k], vec[k])
                 for k in support)
        terms = [Mul((a, x)) for a, x in pairs if a != ZERO]
        yield _sum(terms) if terms else None


def verify_nullvector(matrix, vec, prober: Prober,
                      left: bool = False) -> bool:
    """vec must not be all zeros and the residual must zero-test clean."""
    return any(e != ZERO and prober.verdict(e).proven_nonzero for e in vec) \
        and not any(r is not None and prober.verdict(r).proven_nonzero
                    for r in residual(matrix, vec, left))


def constant_mask(vec) -> tuple:
    """True where the entry is literally a nonzero constant."""
    return tuple(isinstance(e, Const) and e.value != 0 for e in vec)


def normalize_candidates(vec, matrix, prober: Prober,
                         left: bool = False) -> list:
    """Orderly list of rescalings of a verified null vector.

    The original, then the vector divided by each proven-nonzero entry
    (constant 1 excepted), then a cleared-denominator form.  A rescaling by
    a proven-nonzero scalar is a null vector too, so only a cleared form
    whose multiplier is not proven nonzero is verified against the matrix.
    Duplicates drop, and candidates with more constant entries sort first
    (stable, so the original leads ties)."""
    base = tuple(simplify(e) for e in vec)
    cands = [base]
    for e in base:
        if e == Const(Fraction(1)):
            continue
        if prober.verdict(e).proven_nonzero:
            inv = Pow(e, -1) if not isinstance(e, Const) \
                else Const(Fraction(1) / e.value)
            cands.append(tuple(simplify(Mul((x, inv))) for x in base))
    bases = list(dict.fromkeys(node.base for e in base for node in walk(e)
                               if isinstance(node, Pow) and node.exponent < 0))
    if bases:
        clear = bases[0] if len(bases) == 1 else Mul(tuple(bases))
        cleared = tuple(simplify(Mul((x, clear))) for x in base)
        if prober.verdict(clear).proven_nonzero or verify_nullvector(
                matrix, cleared, prober, left=left):
            cands.append(cleared)
    out = list(dict.fromkeys(cands))
    out.sort(key=lambda c: -sum(1 for f in constant_mask(c) if f))
    return out
