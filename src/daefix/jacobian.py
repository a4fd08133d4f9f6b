"""System Jacobian for a signature matrix and an offset pair.

J_ij = d f_i / d x_j^(sigma_ij) where the offsets are tight (d_j - c_i equals
sigma_ij); everywhere else the entry is zero, including the shaded positions
where d_j - c_i > sigma_ij.  A row of J is kept as {j: entry} over its
nonzero entries in ascending j, so a zero is never stored.  Different
valid offset pairs can give different matrices, but they all share one
determinant.  J comes from one gradient walk per equation: the summands
of its normal form are indexed by atom once, so each tight entry
differentiates only the summands that hold its atom, and the work grows
with the nonzeros, not with n times the equation's length.  Most entries
are read off the summands' monomials (see expr.derivative).

Classification works per component of the support (rows and columns no
nonzero entry links to the rest).  A perfect matching on each (augmenting
paths, Kuhn 1955) exists or J is structurally singular; the strongly
connected components of the matched digraph (Tarjan 1972) are the diagonal
blocks of a block-triangular form, so det J is +-the product of the
blocks' determinants (the split DAESA makes, Pryce, Nedialkov and Tan
2015).  A block of at most DET_BOUND rows is expanded exactly; a larger one
is decided by rank probes at random rational points, which prove full rank
but can only suspect singularity.  A probe evaluates only the block's
nonzero entries, into sparse rows {col: (num, den)}, and eliminates them
modulo a prime, touching only nonzeros: full rank modulo 2^61 - 1 or else
2^31 - 1 is full rank over Q, and a point short under both proves nothing.

After a conversion step J carries what the rows the step kept
determine.  Row i of J depends only on f_i and on which of its finite
entries are tight, so a kept row whose tight columns did not move is the
previous row itself.  A component whose rows are all carried, and that
no replaced, rewritten or appended row reaches, is carried whole, with
its blocks, the determinants expanded and the elimination of each side
(nullspace): a step costs the component it touched.  Every zero test is
still asked and hits the prober's cache.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .expr import (
    Add, Const, Expr, Mul, StateDeriv, ZERO,
    _eval, atoms, derivative, simplify,
)
from .model import DaeSystem, Record
from .structural import (OffsetPair, SignatureMatrix, _blocks, _components,
                         _matching)
from .zerotest import Prober, probe_points

DET_BOUND = 8
_RANK_POINTS = 3
_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1)


def system_jacobian(system: DaeSystem, sig: SignatureMatrix,
                    off: OffsetPair, prior=None) -> tuple:
    """J as n rows {j: normal form} over the tight entries whose normal
    form is not zero, in ascending j.  Each entry is derivative(f_i, atom),
    the normal form of partial(f_i, atom), given the summands holding the
    atom; an atom the normal form lacks (a formal signature entry that
    cancelled) gives no entry.

    Row i depends only on f_i and on which of its finite entries are
    tight.  prior is the analysis of the system this one came from by a
    conversion step (see signature_matrix): a row whose equation it shares
    by identity at its index, tight in the same columns under its offsets,
    is its row, the very dict."""
    kept = () if prior is None else prior.system.equations
    out = []
    for i, eq in enumerate(system.equations):
        tight = _tight(sig, off, i)
        if i < len(kept) and eq is kept[i] \
                and tight == _tight(sig, prior.offsets, i):
            out.append(prior.jacobian.matrix[i])
            continue
        f = eq.expr
        holders: dict = {}
        for t in f.children if isinstance(f, Add) else (f,):
            for a in atoms(t):
                holders.setdefault(a, []).append(t)
        row = {}
        for j in tight:
            a = StateDeriv(j, sig.rows[i][j])
            if a in holders and (e := derivative(f, a, holders[a])) \
                    is not ZERO:
                row[j] = e
        out.append(row)
    return tuple(out)


def _tight(sig, off, i) -> list:
    """The finite columns j of row i with d_j - c_i = sigma_ij."""
    return [j for j, s in sig.rows[i].items() if off.d[j] - off.c[i] == s]


def determinant(matrix: Sequence[Sequence[Expr]]) -> Expr:
    """Exact determinant by memoized cofactor expansion (division-free)."""
    return _minor(matrix, tuple(range(len(matrix))), {})


def _minor(matrix, cols: tuple, memo: dict) -> Expr:
    """The determinant of the last len(cols) rows of matrix on the columns
    cols, memoized in memo by cols."""
    if not cols:
        return Const(Fraction(1))
    got = memo.get(cols)
    if got is not None:
        return got
    i = len(matrix) - len(cols)
    terms = []
    for idx, j in enumerate(cols):
        a = matrix[i][j]
        if a == ZERO:
            continue
        sub = _minor(matrix, cols[:idx] + cols[idx + 1:], memo)
        if sub == ZERO:
            continue
        term: Expr = Mul((a, sub))
        if idx % 2:
            term = -term
        terms.append(term)
    r = simplify(Add(tuple(terms))) if terms else ZERO
    memo[cols] = r
    return r


class JacobianClass(Enum):
    GENERICALLY_NONSINGULAR = "GenericallyNonsingular"
    STRUCTURALLY_SINGULAR = "StructurallySingular"
    IDENTICALLY_SINGULAR = "IdenticallySingular"
    PROBABLY_SINGULAR = "ProbablySingular"


class Component:
    """A connected component of J's support.  entries maps each row to its
    row of J, {col: normal form}; blocks are the diagonal blocks as
    (rows, cols), None without a perfect matching.  The determinants of
    small blocks (dets, by rows) and the elimination of each side
    (eliminated, by nullspace) are kept once made."""

    def __init__(self, rows, cols, entries):
        self.rows, self.cols, self.entries = rows, cols, entries
        self.dets, self.eliminated = {}, {}
        at = {j: k for k, j in enumerate(cols)}
        support = [[at[j] for j in entries[i]] for i in rows]
        match = _matching(support) if len(at) == len(rows) else None
        self.blocks = None if match is None else [
            (tuple(rows[r] for r in rs), tuple(cols[c] for c in cs))
            for rs, cs in _blocks(support, match)]


def components(matrix: Sequence[dict], prior=None) -> tuple:
    """The components of the support of a square matrix of sparse rows
    {col: nonzero normal form}, in the order of their first row.  Of
    prior, the report on a matrix of at most n rows, each component that
    keeps its rows as the very row objects, and that no other row reaches,
    is carried as the object itself; the rest are split again.  The rows
    and columns past prior's are new."""
    n = len(matrix)
    old = () if prior is None else prior.matrix
    new = [i for i, row in enumerate(matrix)
           if i >= len(old) or row is not old[i]]
    entries = {i: matrix[i] for i in new}
    rows = set(new)
    cols = {j for i in new for j in entries[i]}.union(range(len(old), n))
    kept = []
    for p in () if prior is None else prior.components:
        if rows.isdisjoint(p.rows) and cols.isdisjoint(p.cols):
            kept.append(p)
            continue
        rows.update(p.rows)
        cols.update(p.cols)
        entries = {**p.entries, **entries}
    parts = kept + [Component(rs, cs, {i: entries[i] for i in rs})
                    for rs, cs in _components(entries, sorted(rows),
                                              sorted(cols))]
    return tuple(sorted(parts, key=lambda p: p.rows[0] if p.rows
                        else n + p.cols[0]))


class JacobianReport(Record, uncompared=("components",),
                     hidden=("components",)):
    matrix: tuple         # rows {col: nonzero normal form}
    klass: JacobianClass
    # None when n > DET_BOUND, unless structurally singular (ZERO)
    det: Optional[Expr]
    components: tuple

    @property
    def singular(self) -> bool:
        return self.klass is not JacobianClass.GENERICALLY_NONSINGULAR


def classify_jacobian(matrix: Sequence[dict], prober: Prober,
                      prior=None) -> JacobianReport:
    """Sort the matrix into one of four kinds, component by component and
    block by block.

    Each component of the support either admits no perfect matching, and
    every determinant term dies, or its matched digraph splits into
    strongly connected blocks under which the matrix is block-triangular,
    so det J is +-the product of the blocks' determinants.  Blocks of at
    most DET_BOUND rows are expanded exactly: a zero normal form settles
    IdenticallySingular before any zero test runs, and the rest are
    zero-tested one at a time.  Only then is each larger block rank-probed
    on its own.  The determinant is reported for n <= DET_BOUND.

    prior is the report on the matrix before a conversion step: a
    component it carries (see components) keeps its blocks and the
    determinants already expanded.
    """
    matrix = tuple(matrix)
    n = len(matrix)
    parts = components(matrix, prior)
    if any(p.blocks is None for p in parts):
        return JacobianReport(matrix, JacobianClass.STRUCTURALLY_SINGULAR,
                              ZERO, parts)
    blocks = [(p, rows, cols) for p in parts for rows, cols in p.blocks]
    small, large = [], []
    for p, rows, cols in blocks:
        if len(rows) > DET_BOUND:
            large.append((p, rows, cols))
            continue
        d = p.dets.get(rows)
        if d is None:
            d = p.dets[rows] = determinant(
                [[matrix[i].get(j, ZERO) for j in cols] for i in rows])
        if d == ZERO:
            return JacobianReport(matrix, JacobianClass.IDENTICALLY_SINGULAR,
                                  ZERO if n <= DET_BOUND else None, parts)
        small.append(d)
    det = None
    if n <= DET_BOUND:
        det = Mul(tuple(small))
        det = simplify(-det if _odd([b[1:] for b in blocks], n) else det)
    klass = JacobianClass.GENERICALLY_NONSINGULAR
    if not all(prober.verdict(d).proven_nonzero for d in small):
        klass = JacobianClass.PROBABLY_SINGULAR
    elif not all(_full_rank(p, rows, cols, n, prober)
                 for p, rows, cols in large):
        klass = JacobianClass.PROBABLY_SINGULAR
    return JacobianReport(matrix, klass, det, parts)


def _odd(blocks, n) -> bool:
    """Parity of the permutation sending each block's sorted rows to its
    sorted columns: the sign that relates det J to the blocks' product."""
    perm = [0] * n
    for rows, cols in blocks:
        for r, c in zip(rows, cols):
            perm[r] = c
    seen = [False] * n
    cycles = 0
    for s in range(n):
        if not seen[s]:
            cycles += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return (n - cycles) % 2 == 1


def _full_rank(part, rows, cols, n, prober: Prober) -> bool:
    """Rank probes on one diagonal block, rows by cols, of component part
    of an n x n matrix; False means probably singular.

    A matrix that is a single block keeps the key of the whole-matrix probe.
    """
    in_block = set(cols)
    # an entry outside the support is the exact value 0 at every point:
    # only the rest are evaluated, in row-major order
    entries = [(k, j, e) for k, i in enumerate(rows)
               for j, e in part.entries[i].items() if j in in_block]
    ats = {a for _, _, e in entries for a in atoms(e)}
    key = "%s:rank:%d" % (prober.seed, n)
    if len(rows) < n:
        key += ":%d" % rows[0]
    m = len(rows)
    for _, evals in probe_points(
            key, ats, lambda b: [_eval(e, b) for _, _, e in entries],
            _RANK_POINTS):
        block = [{} for _ in range(m)]
        for (i, j, _), (num, den, _) in zip(entries, evals):
            if num:
                block[i][j] = (num, den)
        if any(_modular_rank(block, p) == m for p in _PRIMES):
            if not all(ex for _, _, ex in evals):
                prober.uncertain_seen = True
            return True
    prober.uncertain_seen = True
    return False


def _modular_rank(rows: List[Dict[int, tuple]], p: int) -> Optional[int]:
    """The rank modulo the prime p of sparse rows {col: (num, den)}, None
    when p divides a denominator.  A row is reduced by the rows kept so far;
    a kept row is scaled to a leading 1, which it does not store."""
    dens = {d for row in rows for _, d in row.values()}
    if any(d % p == 0 for d in dens):
        return None
    inverse = {d: pow(d, -1, p) for d in dens}
    kept: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = {c: x for c, (num, d) in row.items()
             if (x := num * inverse[d] % p)}
        # least column first: a reduction adds only columns past its lead
        cols = sorted(r)
        while cols:
            lead = heapq.heappop(cols)
            f = r.pop(lead, None)
            if f is None:   # cancelled
                continue
            if lead not in kept:
                s = pow(f, -1, p)
                kept[lead] = {c: x * s % p for c, x in r.items()}
                break
            for c, x in kept[lead].items():
                if c not in r:   # f * x is nonzero mod p
                    heapq.heappush(cols, c)
                if v := (r.get(c, 0) - f * x) % p:
                    r[c] = v
                else:
                    del r[c]
    return len(kept)
