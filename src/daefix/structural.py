"""Signature-matrix analysis of a square DAE system.

For each equation i and state j the signature entry is the highest
derivative order of x_j in f_i (NEG_INF when absent).  A row of Sigma is
kept as {j: order} over its finite entries in ascending j, the only form
the analysis reads.  A highest-value transversal (HVT) gives the
structural value; the one kept is the lexicographically smallest, found
from a single sparse assignment solve over the finite entries and its dual
potentials.  The canonical offset pair (c; d) is the smallest valid one
and drives the structural index, the degrees of freedom and the solution
scheme.  It comes from the same solve's dual: under its potentials every
edge of the offsets' longest-path problem has a nonnegative reduced cost,
so the Dijkstra search that finds each augmenting path of the solve also
finds the offsets, in one pass from every row.  One iterative
augmenting-path routine serves every matching here: moving the solve's
transversal to the smallest HVT, checking a transversal of tight entries,
and matching a System Jacobian's support.

A conversion step keeps most equations at their index: a combination step
replaces one, and a substitution step rewrites some in place and appends
its new equations and states after the old ones.  So Sigma shares every
kept row with the one before.  Those rows are carried as the same dicts,
with their potentials and their HVT entries, and the solve is warm-started
from the previous optimal dual, with v = 0 on the appended columns: only
the replaced, rewritten and appended rows are searched.  A kept row holds
no appended state, so the carried dual stays feasible.  The best
transversals are the transversals of tight entries under any
optimal dual, so the HVT, the value and the offsets are the ones a solve
from scratch gives.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import List, Optional, Sequence

from .expr import NEG_INF, StateDeriv, ZERO, atoms, derivative, highest_orders
from .model import DaeSystem, Record

class StructuralError(ValueError):
    pass


class SignatureMatrix(Record, uncompared=("dual",)):
    rows: tuple            # each row {column: order}, ascending columns
    value: object          # int, or NEG_INF when no finite transversal exists
    hvt: Optional[tuple]   # lexicographically smallest HVT as ((i, j), ...)
    # the assignment solve's potentials (u, v): sigma_ij + u_i + v_j <= 0
    # wherever finite, with equality on every HVT
    dual: tuple

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def swp(self) -> bool:
        """Structurally well posed: some transversal has only finite entries."""
        return self.hvt is not None

    def entry(self, i: int, j: int):
        return self.rows[i].get(j, NEG_INF)


def sigma_from_rows(rows: Sequence[dict],
                    prior: Optional[SignatureMatrix] = None) -> SignatureMatrix:
    """The signature matrix of n rows {column: order}, each in ascending
    columns of 0..n-1.  prior, a well-posed matrix of at most n rows,
    carries over every row that rows holds at its index as the very dict
    prior holds and warm-starts the solve (see _assignment_max); the HVT
    and the value do not depend on it."""
    rows = tuple(rows)
    n = len(rows)
    if any(not 0 <= j < n for r in rows for j in r):
        raise StructuralError("signature matrix must be square: a column "
                              "lies outside 0..%d" % (n - 1))
    value, assign, tight, dual = _assignment_max(rows, prior)
    hvt = None if assign is None else _lex_smallest_hvt(tight, assign)
    return SignatureMatrix(rows, value, hvt, dual)


def signature_rows(system: DaeSystem, formal: bool = False,
                   prior=None) -> tuple:
    """True signatures come from the normal form, formal ones from the raw
    trees, where cancelled derivatives still count.  One pass over each
    row's atoms: the row is highest_orders of the tree of the mode, since
    expr = simplify(raw).  Rows that prior (see signature_matrix) keeps
    are its very dicts."""
    kept, old = ((), ()) if prior is None else (prior.system.equations,
                                                prior.signature.rows)
    return tuple(old[i] if i < len(kept) and eq is kept[i]
                 else highest_orders(eq.raw if formal else eq.expr)
                 for i, eq in enumerate(system.equations))


def signature_matrix(system: DaeSystem, formal: bool = False,
                     prior=None) -> SignatureMatrix:
    """Sigma of system.  prior is the analysis, in the same mode, of the
    system this one came from by a conversion step, which rewrites
    equations in place and may append equations and states: each equation
    it shares by identity at its index keeps its row, and the solve starts
    from its dual."""
    return sigma_from_rows(signature_rows(system, formal, prior),
                           None if prior is None else prior.signature)


# ---------------------------------------------------------------------------
# max-weight assignment and augmenting paths
# (support[i] lists the columns of row i's finite or nonzero entries; a
# sparse row {column: entry} serves as its own)

def _assignment_max(rows, prior=None):
    """Best transversal value, one witness (None if every transversal hits a
    NEG_INF entry), each row's tight columns (finite entries of zero reduced
    cost -sigma_ij - u_i - v_j) and the potentials (u, v).  Successive
    shortest augmenting paths over the finite entries, on exact integers
    (Jonker and Volgenant 1987): one search per unmatched row keeps every
    reduced cost >= 0 and makes the entries of its path tight.  By
    complementary slackness the best transversals are exactly the
    transversals of tight entries, under any optimal dual.

    From scratch v = 0 and no row is matched.  With prior (see
    sigma_from_rows) each row it shares keeps its potential and its HVT
    entry, which stays tight, and v is prior's, 0 on the columns past
    prior's; so only the other rows, unmatched, are searched.  Each row to
    search starts at u_i = -max_j (sigma_ij + v_j), which makes its entries
    feasible."""
    n = len(rows)
    if prior is None:
        kept = [False] * n
        u, v, assign = [0] * n, [0] * n, [-1] * n
    else:
        new = [0] * (n - prior.n)
        kept = [r is p for r, p in zip(rows, prior.rows)] + [False] * len(new)
        u, v = list(prior.dual[0]) + new, list(prior.dual[1]) + new
        assign = [j if k else -1
                  for k, (_, j) in zip(kept, prior.hvt)] + [-1] * len(new)
    owner = [-1] * n
    for i, j in enumerate(assign):
        if j >= 0:
            owner[j] = i
    for i, r in enumerate(rows):
        if not kept[i]:
            u[i] = -max((s + v[j] for j, s in r.items()), default=0)
    for root in range(n):
        if kept[root]:
            continue
        done, way, j = _search(rows, u, v, owner, {root: 0})
        if j is None:
            break
        d = done[j]
        for k, dk in done.items():
            v[k] -= d - dk
            if owner[k] >= 0:
                u[owner[k]] += d - dk
        u[root] += d
        while j >= 0:
            i = way[j]
            owner[j], assign[i], j = i, j, assign[i]
    tight = [[j for j, s in r.items() if s + u[i] + v[j] == 0]
             for i, r in enumerate(rows)]
    if -1 in assign:
        return NEG_INF, None, tight, (u, v)
    return sum(rows[i][assign[i]] for i in range(n)), assign, tight, (u, v)


def _search(rows, u, v, owner, start):
    """Dijkstra over the reduced costs -sigma_ij - u_i - v_j >= 0 from the
    rows in start, each entering at its given distance.  A settled column
    held by row owner[j] passes its distance on to that row when it is
    smaller than the row's own.  Returns the settled columns' distances, the
    row each column was reached from, and the first free column settled
    (None when none is reachable): among columns at equal distance a free
    one is settled first, which ends the search."""
    best, way, done, heap = {}, {}, {}, []

    def expand(i, d):
        for j, s in rows[i].items():
            cost = d - s - u[i] - v[j]
            if j not in done and cost < best.get(j, cost + 1):
                best[j], way[j] = cost, i
                heappush(heap, (cost, owner[j] >= 0, j))

    for i, d in start.items():
        expand(i, d)
    while heap:
        d, held, j = heappop(heap)
        if j in done:
            continue
        done[j] = d
        if not held:
            return done, way, j
        if d < start.get(owner[j], d + 1):
            expand(owner[j], d)
    return done, way, None


def _lex_smallest_hvt(tight, assign) -> tuple:
    """Among all transversals of maximal value, the one whose column sequence
    (row by row) is lexicographically smallest.  assign is a best transversal
    and tight[i] the ascending tight columns of row i.  Rows are settled in
    order: row i moves to its smallest tight column j whose holder can be
    re-matched, over rows > i, onto the column row i gives up."""
    assign = list(assign)
    owner = [0] * len(assign)
    for i, j in enumerate(assign):
        owner[j] = i
    for i in range(len(assign)):
        for j in tight[i]:
            if j == assign[i]:
                break
            if owner[j] > i:
                owner[assign[i]] = -1
                if _augment(tight, owner, assign, owner[j], {j}, i + 1):
                    assign[i], owner[j] = j, i
                    break
                owner[assign[i]] = i
    return tuple(enumerate(assign))


def _augment(support, owner, match, root, seen, lo) -> bool:
    """Moves row root onto a free column (owner -1) along one augmenting
    path (Kuhn 1955), shifting each holder on the path to the next column;
    columns in seen and columns held by rows below lo are passed over.
    Iterative, so that long paths do not recurse; match and owner change
    only on success."""
    path_rows, path_cols, its = [root], [], [iter(support[root])]
    while its:
        c = next((c for c in its[-1]
                  if c not in seen and not 0 <= owner[c] < lo), None)
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
            return True
        path_rows.append(owner[c])
        its.append(iter(support[owner[c]]))
    return False


# ---------------------------------------------------------------------------
# perfect matchings and strong blocks of a sparsity pattern

def _matching(support) -> Optional[list]:
    """A perfect matching row -> column on the support, None when there is
    none: each row takes its first free column, and an augmenting path
    moves each row left without one (a chain needs no path at all)."""
    n = len(support)
    match, owner = [-1] * n, [-1] * n
    for root, cols in enumerate(support):
        for c in cols:
            if owner[c] < 0:
                match[root], owner[c] = c, root
                break
    for root in range(n):
        if match[root] < 0 and not _augment(support, owner, match, root,
                                            set(), 0):
            return None
    return match


def _components(support, rows, cols) -> list:
    """The connected components of the bipartite graph of rows and cols,
    row i meeting the columns support[i], as (rows, cols) pairs in the
    order of their first row; each column no row meets comes last."""
    holders = {c: [] for c in cols}
    for r in rows:
        for c in support[r]:
            holders[c].append(r)
    seen, out = set(), []
    for r in (r for r in rows if r not in seen):
        seen.add(r)
        comp, comp_cols = [r], []
        for i in comp:     # breadth first: comp grows while it is walked
            for c in support[i]:
                if c in holders:
                    comp_cols.append(c)
                    fresh = [k for k in holders.pop(c) if k not in seen]
                    seen.update(fresh)
                    comp += fresh
        out.append((tuple(sorted(comp)), tuple(sorted(comp_cols))))
    return out + [((), (c,)) for c in holders]


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

class OffsetPair(Record):
    c: tuple
    d: tuple

    @property
    def value(self) -> int:
        return sum(self.d) - sum(self.c)


def canonical_offsets(sig: SignatureMatrix) -> OffsetPair:
    """Element-wise smallest valid offset pair: the least c >= 0 with
    c_i = max_k (c_k + sigma_{k,h(i)}) - sigma_{i,h(i)} over the HVT h, a
    longest-path problem (Pryce 2001).  Reweighted by the solve's row
    potentials, its edge k -> i costs the reduced cost of entry (k, h(i)),
    which is >= 0, so one search from every row i at distance u_i gives
    c_i = u_i - dist(h(i)) (Johnson 1977); row i's own entry, of reduced
    cost 0, keeps dist(h(i)) <= u_i.  Then d_h(i) = c_i + sigma_{i,h(i)}."""
    if not sig.swp:
        raise StructuralError("system is structurally ill posed; no offsets")
    u, v = sig.dual
    owner = [0] * sig.n
    for i, j in sig.hvt:
        owner[j] = i
    dist = _search(sig.rows, u, v, owner, dict(enumerate(u)))[0]
    c = tuple(u[i] - dist[j] for i, j in sig.hvt)
    d = tuple(c[i] + sig.rows[i][j] for j, i in enumerate(owner))
    return OffsetPair(c, d)


def structural_index(off: OffsetPair) -> int:
    nu = max(off.c)
    if min(off.d) == 0:
        nu += 1
    return nu


def degrees_of_freedom(off: OffsetPair) -> int:
    return off.value


# ---------------------------------------------------------------------------
# solution scheme

class Stage(Record):
    """One step of the scheme: which equation derivatives determine which
    state derivatives.  equations holds (eq_index, derivative_order) pairs,
    unknowns holds (var_index, derivative_order) pairs."""

    k: int
    equations: tuple
    unknowns: tuple
    linear: bool


class SolutionScheme(Record):
    stages: tuple      # k = -max(d) .. -1
    generic: Stage     # the k = 0 stage, same shape for every k >= 0


def solution_scheme(off: OffsetPair,
                    jacobian: Sequence[dict]) -> SolutionScheme:
    """Stage k solves the equations with c_i + k >= 0 for x_j^(k+d_j).
    Only equation i's undifferentiated stage k = -c_i can be nonlinear, and
    its first partials by that stage's unknowns are row i of the System
    Jacobian (d_j - c_i >= sigma_ij leaves no others in f_i): the stage is
    nonlinear when an entry of the row depends on one of those unknowns."""
    nonlinear = {-off.c[i] for i, row in enumerate(jacobian)
                 if any(isinstance(a, StateDeriv)
                        and a.order == off.d[a.index] - off.c[i]
                        and derivative(e, a) is not ZERO
                        for e in row.values() for a in atoms(e))}
    stages = []
    for k in range(-max(off.d), 1):
        eqs = tuple((i, k + c) for i, c in enumerate(off.c) if k + c >= 0)
        unknowns = tuple((j, k + d) for j, d in enumerate(off.d) if k + d >= 0)
        stages.append(Stage(k, eqs, unknowns, k not in nonlinear))
    return SolutionScheme(tuple(stages[:-1]), stages[-1])
