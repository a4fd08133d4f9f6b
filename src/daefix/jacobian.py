"""System Jacobian for a signature matrix and an offset pair.

J_ij = d f_i / d x_j^(sigma_ij) where the offsets are tight (d_j - c_i equals
sigma_ij); everywhere else the entry is zero, including the shaded positions
where d_j - c_i > sigma_ij.  Different valid offset pairs can give different
matrices, but they all share one determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence

from .expr import (
    Add, Const, Expr, Mul, NEG_INF, Neg, StateDeriv, ZERO,
    atoms, evaluate_ex, partial, simplify,
)
from .model import DaeSystem
from .structural import OffsetPair, SignatureMatrix, _assignment_max
from .zerotest import Prober, probe_points

DET_BOUND = 8
_RANK_POINTS = 3


def system_jacobian(system: DaeSystem, sig: SignatureMatrix,
                    off: OffsetPair) -> tuple:
    n = system.n
    out = []
    for i in range(n):
        f = system.equations[i].expr
        row = []
        for j in range(n):
            s = sig.rows[i][j]
            if s == NEG_INF or off.d[j] - off.c[i] != s:
                row.append(ZERO)
            else:
                row.append(simplify(partial(f, StateDeriv(j, int(s)))))
        out.append(tuple(row))
    return tuple(out)


def determinant(matrix: Sequence[Sequence[Expr]]) -> Expr:
    """Exact determinant by memoized cofactor expansion (division-free)."""
    n = len(matrix)
    if n == 0:
        return Const(Fraction(1))
    memo: dict = {}

    def det(cols: tuple) -> Expr:
        if not cols:
            return Const(Fraction(1))
        got = memo.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        terms = []
        for idx, j in enumerate(cols):
            a = matrix[i][j]
            if a == ZERO:
                continue
            sub = det(cols[:idx] + cols[idx + 1:])
            if sub == ZERO:
                continue
            term: Expr = Mul((a, sub))
            if idx % 2:
                term = Neg(term)
            terms.append(term)
        r = simplify(Add(tuple(terms))) if terms else ZERO
        memo[cols] = r
        return r

    return det(tuple(range(n)))


class JacobianClass(Enum):
    GENERICALLY_NONSINGULAR = "GenericallyNonsingular"
    STRUCTURALLY_SINGULAR = "StructurallySingular"
    IDENTICALLY_SINGULAR = "IdenticallySingular"
    PROBABLY_SINGULAR = "ProbablySingular"


@dataclass(frozen=True)
class JacobianReport:
    matrix: tuple
    klass: JacobianClass
    det: Optional[Expr]            # None when expansion was skipped

    @property
    def singular(self) -> bool:
        return self.klass is not JacobianClass.GENERICALLY_NONSINGULAR


def classify_jacobian(matrix: Sequence[Sequence[Expr]],
                      prober: Prober) -> JacobianReport:
    """Sort the matrix into one of four kinds.

    Structural singularity is decided first: if the positions whose normal
    form is not zero admit no transversal, every determinant term dies.  Otherwise
    the determinant is expanded and zero-tested; above DET_BOUND rows three
    rational rank probes stand in for it.
    """
    matrix = tuple(tuple(row) for row in matrix)
    n = len(matrix)
    # a zero normal form is the only proven zero, so an entry that is only
    # probably zero stays in the support and spends no verdict;
    # system_jacobian puts the ZERO constant at every non-tight position
    support = [[NEG_INF if e == ZERO or simplify(e) == ZERO else 0
                for e in row] for row in matrix]
    _, assign, _ = _assignment_max(support)
    if assign is None:
        return JacobianReport(matrix, JacobianClass.STRUCTURALLY_SINGULAR,
                              ZERO)
    if n > DET_BOUND:
        return _classify_by_rank(matrix, prober)
    det = determinant(matrix)
    v = prober.verdict(det)
    if v.proven_nonzero:
        klass = JacobianClass.GENERICALLY_NONSINGULAR
    elif v.proven_zero:
        klass = JacobianClass.IDENTICALLY_SINGULAR
    else:
        klass = JacobianClass.PROBABLY_SINGULAR
    return JacobianReport(matrix, klass, det)


def _classify_by_rank(matrix, prober: Prober) -> JacobianReport:
    n = len(matrix)
    # a ZERO entry is the exact value 0 at every point: only the rest are
    # evaluated, in row-major order
    entries = [(i, j, e) for i, row in enumerate(matrix)
               for j, e in enumerate(row) if e != ZERO]
    ats = {a for _, _, e in entries for a in atoms(e)}
    for _, evals in probe_points(
            "%s:rank:%d" % (prober.seed, n), ats,
            lambda b: [evaluate_ex(e, b) for _, _, e in entries],
            _RANK_POINTS):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j, _), (v, _) in zip(entries, evals):
            rows[i][j] = v
        if _fraction_rank(rows) == n:
            if not all(ex for _, ex in evals):
                prober.uncertain_seen = True
            return JacobianReport(matrix,
                                  JacobianClass.GENERICALLY_NONSINGULAR,
                                  None)
    prober.uncertain_seen = True
    return JacobianReport(matrix, JacobianClass.PROBABLY_SINGULAR, None)


def _fraction_rank(rows: List[List[Fraction]]) -> int:
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0   # the rank so far, and the next pivot row
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        # the pivot row's nonzeros; its columns before c hold 0 already
        nonzero = [(jj, x) for jj, x in enumerate(m[r][c:], c) if x]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c] / pv
                row = m[i]
                for jj, x in nonzero:
                    row[jj] -= f * x
        r += 1
        if r == n_rows:
            break
    return r
