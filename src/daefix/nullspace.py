"""Kernel and cokernel vectors of symbolic matrices.

A null vector has the form of a Jacobian row: {index: entry} over its
nonzero entries, each a normal form, in ascending index, with no ZERO
stored.  So everything that reads one, here and in convert, reads only
its support; only the writers fill it out to n.

Fraction-free Gauss-Jordan: a pivot never divides, it cross-multiplies
(row_r <- pivot * row_r - entry * row_p), so entries stay in the expression
ring.  No update combines rows of two components of the support
(jacobian.components), so each component is eliminated on its own, once
per side, and keeps its elimination: after a conversion step only the
components the step touched are eliminated.  Each row is kept as its
nonzero entries, so an update touches only the columns of the two rows it
combines.  A pivot is the first constant candidate, else the first one
proven nonzero, with no zero test asked past it; a column whose candidates
are all merely *probably* zero surfaces as EliminationStuck.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence

from .expr import Add, Const, Expr, Mul, ONE, Pow, ZERO, simplify, walk
from .jacobian import components
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
    """Among (row, expr) candidates, which hold no ZERO, pick the pivot:
    the first constant, else the first expression proven nonzero, with no
    verdict asked past it.  Returns (row, kind), kind 'pivot', 'free' or
    'stuck' (with the first probably-zero entry in place of the row)."""
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


def kernel_basis(matrix: Sequence[dict], prober: Prober,
                 left: bool = False) -> Iterator[dict]:
    """Kernel basis (cokernel with left=True) of a square matrix of sparse
    rows {col: nonzero normal form}, as null vectors of the same form: the
    component_basis of its components."""
    n = len(matrix)
    if any(not 0 <= j < n for row in matrix for j in row):
        raise NullspaceError("matrix must be square: a column lies outside "
                             "0..%d" % (n - 1))
    return component_basis(components(matrix), prober, left)


def component_basis(parts, prober: Prober,
                    left: bool = False) -> Iterator[dict]:
    """The kernel basis (cokernel with left=True) of the matrix split into
    parts (jacobian.components), one vector per free column in ascending
    order.  Each part not yet eliminated is eliminated in this call, with
    the prober that classified the matrix, so EliminationStuck comes from
    it, at the first column where one sticks, a fresh one on every call;
    each vector is verified only when the returned iterator reaches it."""
    done = []
    for p in parts:
        if left not in p.eliminated:
            p.eliminated[left] = _eliminate(p, prober, left)
        done.append(p.eliminated[left])
    stuck = [d[-1] for d in done if d[-1] is not None]
    if stuck:
        raise EliminationStuck(*min(stuck, key=lambda s: s[0]))
    free = sorted((fc, k) for k, d in enumerate(done) for fc in d[3])
    return (_basis_vector(done[k], fc, prober) for fc, k in free)


def _eliminate(part, prober: Prober, left: bool) -> tuple:
    """Gauss-Jordan on one component's rows (columns, with left=True) as
    sparse rows: those rows as they were and as they end, the pivots (row,
    col), the free columns, and the (col, entry) where it stuck or None.
    The record keeps no exception: one raised again would hold its last
    traceback, and the frames there would hold the record."""
    lines = {r: {} for r in (part.cols if left else part.rows)}
    for i in part.rows:
        for j, e in part.entries[i].items():
            lines[j if left else i][i if left else j] = e
    # holders[k] holds the rows with a nonzero entry in column k
    m = {r: dict(row) for r, row in lines.items()}
    holders = {k: set() for k in (part.rows if left else part.cols)}
    for r, row in m.items():
        for k in row:
            holders[k].add(r)
    pivots = []          # (row, col)
    pivot_rows = set()
    free_cols = []
    for col in holders:
        rows = sorted(holders[col])
        chosen, kind = _pivot_choice(
            [(r, m[r][col]) for r in rows if r not in pivot_rows], prober)
        if kind == "stuck":
            return lines, m, pivots, free_cols, (col, chosen)
        if kind == "free":
            free_cols.append(col)
            continue
        p = chosen
        pv, prow = m[p][col], m[p]
        for r in rows:
            if r == p:
                continue
            e = m[r][col]
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
    return lines, m, pivots, free_cols, None


def _basis_vector(elimination, fc, prober) -> dict:
    lines, m, pivots, free_cols, _ = elimination
    v = {fc: ONE}
    for p, col in reversed(pivots):
        # pivot columns hold a single nonzero entry, and fc is the one
        # nonzero free column, so it alone feeds the numerator
        if fc in m[p]:
            x = simplify(Mul((-m[p][fc], Pow(m[p][col], -1))))
            if x is not ZERO:
                v[col] = x
    v = dict(sorted(v.items()))
    residuals = ([Mul((e, v[k])) for k, e in row.items() if k in v]
                 for row in lines.values())
    if not _verified(v.values(), (_sum(t) if t else None for t in residuals),
                     prober):
        raise NullspaceError("candidate vector fails residual verification")
    return v


def kernel_vector(matrix: Sequence[dict], prober: Prober,
                  basis_index: int = 0) -> Optional[dict]:
    """basis_index-th vector of kernel_basis, or None when the kernel has
    no that-many dimensions."""
    return next(islice(kernel_basis(matrix, prober), basis_index, None), None)


def cokernel_vector(matrix: Sequence[dict], prober: Prober,
                    basis_index: int = 0) -> Optional[dict]:
    return next(islice(kernel_basis(matrix, prober, left=True), basis_index,
                       None), None)


def _sum(terms):
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def residual(matrix, vec, left: bool = False):
    """Yields each entry of vec^T matrix (left) or matrix vec for a matrix
    of sparse rows and a null vector of the same form, unsimplified: the
    sum of the products of an entry and a factor, or None when there is no
    such product."""
    for i in range(len(matrix)):
        pairs = ((matrix[k].get(i) if left else matrix[i].get(k), x)
                 for k, x in vec.items())
        terms = [Mul((a, x)) for a, x in pairs if a is not None]
        yield _sum(terms) if terms else None


def verify_nullvector(matrix, vec, prober: Prober,
                      left: bool = False) -> bool:
    """vec must not be empty and the residual must zero-test clean."""
    return _verified(vec.values(), residual(matrix, vec, left), prober)


def _verified(entries, residuals, prober: Prober) -> bool:
    return any(prober.verdict(e).proven_nonzero for e in entries) \
        and not any(r is not None and prober.verdict(r).proven_nonzero
                    for r in residuals)


def normalize_candidates(vec, prober: Prober) -> list:
    """Orderly list of rescalings of a verified null vector.

    The original, then the vector divided by each proven-nonzero entry
    (constant 1 excepted), then a cleared-denominator form.  Each is a
    multiple of vec, so a null vector once it is not zero: the cleared form
    is kept when its multiplier or one of its entries is proven nonzero.
    Duplicates drop, and candidates with more constant entries sort first
    (stable, so the original leads ties)."""
    def scaled(f):
        return {k: y for k, x in vec.items()
                if (y := simplify(Mul((x, f)))) is not ZERO}
    cands = [vec]
    for e in vec.values():
        if e is not ONE and prober.verdict(e).proven_nonzero:
            inv = Pow(e, -1) if not isinstance(e, Const) \
                else Const(Fraction(1) / e.value)
            cands.append(scaled(inv))
    bases = list(dict.fromkeys(node.base for e in vec.values()
                               for node in walk(e)
                               if isinstance(node, Pow) and node.exponent < 0))
    if bases:
        clear = bases[0] if len(bases) == 1 else Mul(tuple(bases))
        cleared = scaled(clear)
        if prober.verdict(clear).proven_nonzero or any(
                prober.verdict(e).proven_nonzero for e in cleared.values()):
            cands.append(cleared)
    # dicts cannot be hashed: their items in ascending index stand in
    out = list({tuple(c.items()): c for c in cands}.values())
    out.sort(key=lambda c: -sum(isinstance(e, Const) for e in c.values()))
    return out
