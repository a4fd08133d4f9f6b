"""Signature-matrix analysis of a square DAE system.

For each equation i and state j the signature entry is the highest derivative
order of x_j in f_i (NEG_INF when absent).  A highest-value transversal (HVT)
gives the structural value; the one kept is the lexicographically smallest,
found from a single assignment solve and its dual potentials.  The canonical
offset pair (c; d) is the smallest valid one and drives the structural
index, the degrees of freedom and the solution scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import List, Optional, Sequence

from .expr import NEG_INF, StateDeriv, ZERO, atoms, partial, simplify
from .model import DaeSystem

_MAX_OFFSET_SWEEPS = 1000


class StructuralError(ValueError):
    pass


@dataclass(frozen=True)
class SignatureMatrix:
    rows: tuple            # entries are int or NEG_INF
    value: object          # int, or NEG_INF when no finite transversal exists
    hvt: Optional[tuple]   # lexicographically smallest HVT as ((i, j), ...)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def swp(self) -> bool:
        """Structurally well posed: some transversal has only finite entries."""
        return self.hvt is not None

    def entry(self, i: int, j: int):
        return self.rows[i][j]


def sigma_from_rows(rows: Sequence[Sequence]) -> SignatureMatrix:
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructuralError("signature matrix must be square")
    value, assign, tight = _assignment_max(rows)
    if assign is None:
        return SignatureMatrix(rows, NEG_INF, None)
    return SignatureMatrix(rows, value, _lex_smallest_hvt(tight, assign))


def signature_rows(system: DaeSystem, formal: bool = False) -> tuple:
    """True signatures come from the normal form, formal ones from the raw
    trees, where cancelled derivatives still count.  One walk per row: entry
    j is hod(tree, j) for the tree of the mode, since expr = simplify(raw)."""
    rows = []
    for eq in system.equations:
        row = [NEG_INF] * system.n
        for a in atoms(eq.raw if formal else eq.expr):
            if isinstance(a, StateDeriv) and a.order > row[a.index]:
                row[a.index] = a.order
        rows.append(tuple(row))
    return tuple(rows)


def signature_matrix(system: DaeSystem, formal: bool = False) -> SignatureMatrix:
    return sigma_from_rows(signature_rows(system, formal))


# ---------------------------------------------------------------------------
# max-weight assignment (Hungarian with potentials, exact integer arithmetic)

def _hungarian_min(cost: List[List[int]]):
    """Minimum-cost perfect assignment row -> column, and potentials u, v with
    cost[i][j] >= u[i] + v[j], equal on the assignment."""
    n = len(cost)
    INF = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)      # p[j] = row matched to column j (1-based, 0 = none)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        assign[p[j] - 1] = j - 1
    return assign, u[1:], v[1:]


def _assignment_max(rows):
    """Best transversal value, one witness (None if every transversal hits a
    NEG_INF entry) and each row's tight columns: finite entries of zero reduced
    cost.  By complementary slackness the best transversals are exactly the
    transversals of tight entries."""
    n = len(rows)
    big = -(1 + sum(abs(w) for r in rows for w in r if w != NEG_INF))
    W = [[(w if w != NEG_INF else big) for w in r] for r in rows]
    assign, u, v = _hungarian_min([[-w for w in r] for r in W])
    tight = [[j for j in range(n)
              if rows[i][j] != NEG_INF and rows[i][j] + u[i] + v[j] == 0]
             for i in range(n)]
    if any(rows[i][assign[i]] == NEG_INF for i in range(n)):
        return NEG_INF, None, tight
    return sum(rows[i][assign[i]] for i in range(n)), assign, tight


def _lex_smallest_hvt(tight, assign) -> tuple:
    """Among all transversals of maximal value, the one whose column sequence
    (row by row) is lexicographically smallest.  assign is a best transversal
    and tight[i] the ascending tight columns of row i.  Rows are settled in
    order: row i moves to its smallest tight column j whose holder can be
    re-matched, over rows > i, onto the column row i gives up (one augmenting
    path, Kuhn 1955)."""
    assign = list(assign)
    owner = [0] * len(assign)
    for i, j in enumerate(assign):
        owner[j] = i
    for i in range(len(assign)):
        for j in tight[i]:
            if j == assign[i]:
                break
            if owner[j] > i and _reroute(tight, owner, assign, owner[j], i, {j}):
                assign[i], owner[j] = j, i
                break
    return tuple(enumerate(assign))


def _reroute(tight, owner, assign, r, i, seen) -> bool:
    """Moves row r > i onto a tight column outside seen and not held by rows
    < i, shifting holders along an alternating path that ends at row i's
    column."""
    for c in tight[r]:
        h = owner[c]
        if c in seen or h < i:
            continue
        seen.add(c)
        if h == i or _reroute(tight, owner, assign, h, i, seen):
            owner[c], assign[r] = r, c
            return True
    return False


# ---------------------------------------------------------------------------
# perfect matchings and strong blocks of a sparsity pattern
# (support[i] lists the columns of row i's nonzero entries)

def _matching(support) -> Optional[list]:
    """A perfect matching row -> column on the support, None when there is
    none: one augmenting-path search per row (Kuhn 1955), iterative so
    that long paths do not recurse."""
    n = len(support)
    match = [-1] * n
    owner = [-1] * n
    for root in range(n):
        seen = set()
        path_rows, path_cols, its = [root], [], [iter(support[root])]
        while its:
            c = next((c for c in its[-1] if c not in seen), None)
            if c is None:
                # a dead end: drop the row and the column that reached it
                path_rows.pop()
                its.pop()
                if path_cols:
                    path_cols.pop()
                continue
            seen.add(c)
            path_cols.append(c)
            if owner[c] < 0:
                for r, c in zip(path_rows, path_cols):
                    match[r], owner[c] = c, r
                break
            path_rows.append(owner[c])
            its.append(iter(support[owner[c]]))
        else:
            return None
    return match


def _blocks(support, match) -> list:
    """The strongly connected components of the matched digraph, where row
    i points at the row matched to each column of its support (Tarjan 1972,
    iterative), as (rows, cols) pairs of ascending indices."""
    n = len(support)
    owner = [0] * n
    for r, c in enumerate(match):
        owner[c] = r
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    work = []       # the depth-first path: (row, its unvisited edges)
    order = count()
    out = []

    def visit(v):
        index[v] = low[v] = next(order)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(support[v])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            v, edges = work[-1]
            for c in edges:
                w = owner[c]
                if index[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    rows = tuple(sorted(comp))
                    out.append((rows, tuple(sorted(match[r] for r in rows))))
    return out


# ---------------------------------------------------------------------------
# offsets

@dataclass(frozen=True)
class OffsetPair:
    c: tuple
    d: tuple

    @property
    def value(self) -> int:
        return sum(self.d) - sum(self.c)


def canonical_offsets(sig: SignatureMatrix) -> OffsetPair:
    """Element-wise smallest valid offset pair, by fixed-point iteration."""
    if not sig.swp:
        raise StructuralError("system is structurally ill posed; no offsets")
    n = sig.n
    hvt = sig.hvt
    c = [0] * n
    for _ in range(_MAX_OFFSET_SWEEPS):
        d = [max(sig.rows[i][j] + c[i] for i in range(n)
                 if sig.rows[i][j] != NEG_INF) for j in range(n)]
        c2 = [d[j] - sig.rows[i][j] for i, j in hvt]
        # hvt pairs are (i, j) with i ascending, so c2 lines up with rows
        if c2 == c:
            return OffsetPair(tuple(c), tuple(d))
        c = c2
    raise StructuralError("offset iteration did not converge")


def validate_offsets(sig: SignatureMatrix, c: Sequence[int],
                     d: Sequence[int]) -> bool:
    """Valid means: nonnegative, d_j - c_i >= sigma_ij wherever finite, and
    equality along some transversal."""
    n = sig.n
    if len(c) != n or len(d) != n:
        return False
    if any(ci < 0 for ci in c) or any(dj < 0 for dj in d):
        return False
    tight = []
    for i in range(n):
        row = []
        for j in range(n):
            s = sig.rows[i][j]
            if s == NEG_INF:
                continue
            if d[j] - c[i] < s:
                return False
            if d[j] - c[i] == s:
                row.append(j)
        tight.append(row)
    return _matching(tight) is not None


def structural_index(off: OffsetPair) -> int:
    nu = max(off.c)
    if min(off.d) == 0:
        nu += 1
    return nu


def degrees_of_freedom(off: OffsetPair) -> int:
    return off.value


# ---------------------------------------------------------------------------
# solution scheme

@dataclass(frozen=True)
class Stage:
    """One step of the scheme: which equation derivatives determine which
    state derivatives.  equations holds (eq_index, derivative_order) pairs,
    unknowns holds (var_index, derivative_order) pairs."""

    k: int
    equations: tuple
    unknowns: tuple
    linear: bool


@dataclass(frozen=True)
class SolutionScheme:
    stages: tuple      # k = -max(d) .. -1
    generic: Stage     # the k = 0 stage, same shape for every k >= 0


def solution_scheme(off: OffsetPair,
                    jacobian: Sequence[Sequence]) -> SolutionScheme:
    """Stage k solves the equations with c_i + k >= 0 for x_j^(k+d_j).
    Only equation i's undifferentiated stage k = -c_i can be nonlinear, and
    its first partials by that stage's unknowns are row i of the System
    Jacobian (d_j - c_i >= sigma_ij leaves no others in f_i): the stage is
    nonlinear when an entry of the row depends on one of those unknowns."""
    nonlinear = {-off.c[i] for i, row in enumerate(jacobian)
                 if any(isinstance(a, StateDeriv)
                        and a.order == off.d[a.index] - off.c[i]
                        and simplify(partial(e, a)) != ZERO
                        for e in row for a in atoms(e))}
    stages = []
    for k in range(-max(off.d), 1):
        eqs = tuple((i, k + c) for i, c in enumerate(off.c) if k + c >= 0)
        unknowns = tuple((j, k + d) for j, d in enumerate(off.d) if k + d >= 0)
        stages.append(Stage(k, eqs, unknowns, k not in nonlinear))
    return SolutionScheme(tuple(stages[:-1]), stages[-1])
