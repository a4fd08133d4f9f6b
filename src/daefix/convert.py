"""Rewrites that repair an identically singular System Jacobian.

A nonzero cokernel vector u of J drives the combination rewrite: one
equation is replaced by sum_i u_i * f_i^(c_i - c), where c = min c_i over
the rows u touches.  The leading derivatives cancel, so the signature
value drops.  A kernel vector v drives the substitution rewrite: the
combination of leading derivatives it annihilates is captured in fresh
states y_j = x_j^(d_j-c) - (v_j/v_l) x_l^(d_l-c), which are substituted
through the equations that pin those derivatives down.  Both rewrites
preserve solutions (globally when the pivot entry is constant, locally
where it stays nonzero) and both strictly decrease the signature value,
so iterating them terminates.

fix_dae below is the driver: analyze, classify, pick a method, rewrite,
repeat until the Jacobian is generically nonsingular or nothing applies.
Either step keeps every other row at its index: a combination step
replaces one row, and a substitution step rewrites rows in place and
appends its new states and rows at the end.  So the system a step
produced is analysed from the analysis before (see analyze): the kept
rows carry their signature rows, the solve's dual and HVT entries, their
Jacobian rows and the components of J they alone make up, with those
components' blocks, determinants and eliminations.  Only the replaced,
rewritten and appended rows are read, solved and differentiated anew,
and only the components they reach are split again.
"""

from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .expr import (ZERO, Add, Const, Expr, Mul, Pow, StateDeriv, atoms,
                   evaluate_ex, highest_orders, simplify, subst_atoms,
                   total_derivative)
from .jacobian import JacobianReport, classify_jacobian, system_jacobian
from .model import DaeSystem, Record, fresh_indexed, make_equation
from .nullspace import (NullspaceError, component_basis,
                        normalize_candidates, verify_nullvector)
from .structural import (OffsetPair, SignatureMatrix, canonical_offsets,
                         signature_matrix)
from .zerotest import Prober, probe_points

PROBE_POINTS = 5
# null-vector basis indices tried per step before giving up
_MAX_BASIS = 4
_NUMERIC_GUARD = Fraction(1, 10 ** 9)


class ConvertError(RuntimeError):
    """An invariant of a rewrite failed; the conversion cannot proceed."""


class VectorRejected(ConvertError):
    """A forced vector is not a null vector of the System Jacobian.

    jacobian is the matrix the vector failed against, None when its length
    was already wrong.
    """

    def __init__(self, message, jacobian=None):
        super().__init__(message)
        self.jacobian = jacobian


class ConditionRejected(ConvertError):
    """A forced vector verifies but fails the method's order condition."""


class PivotRejected(ConvertError):
    """A forced pivot is outside the candidate set or unsafe to divide by."""


class MethodKind(Enum):
    LC = "lc"
    ES = "es"

    def pivot_name(self, system: DaeSystem, pivot: int) -> str:
        """A combination's pivot is an equation, a substitution's a
        variable: its name in the system the step started from."""
        if self is MethodKind.LC:
            return system.equations[pivot].name
        return system.var_names[pivot]


# ---------------------------------------------------------------------------
# combination rewrite (cokernel side)

class LcAnalysis(Record):
    """What a cokernel vector u allows.

    u: {i: u_i} over its nonzero entries, each a normal form, in ascending
    i (the form of a Jacobian row).  rows: the i with u_i not proven
    zero.
    candidates: rows of minimal offset, empty when the order condition
    fails.  const_rows: candidates whose entry is a nonzero constant
    (replacing one of those preserves solutions globally).
    """

    u: dict
    rows: tuple
    c_under: int
    candidates: tuple
    const_rows: tuple
    condition_ok: bool
    off: OffsetPair


def lc_analyze(off: OffsetPair, u: dict, prober: Prober) -> LcAnalysis:
    rows = tuple(i for i, e in u.items() if not prober.verdict(e).proven_zero)
    if not rows:
        return LcAnalysis(u, (), 0, (), (), False, off)
    c_under = min(off.c[i] for i in rows)
    # order condition: u must not involve derivatives of x_j at or above
    # order d_j - c_under, otherwise the replacement breaks the offsets;
    # the highest order in a sum as written is the largest in its summands
    ho = highest_orders(Add(tuple(u[i] for i in rows)))
    if not all(h < off.d[j] - c_under for j, h in ho.items()):
        return LcAnalysis(u, rows, c_under, (), (), False, off)
    candidates = tuple(i for i in rows if off.c[i] == c_under)
    const_rows = tuple(i for i in candidates if isinstance(u[i], Const))
    return LcAnalysis(u, rows, c_under, candidates, const_rows, True, off)


class LcApplication(Record):
    system: DaeSystem
    analysis: LcAnalysis
    pivot: int
    combination: Expr   # sum u_i f_i^(c_i-c) before its normal form


def lc_apply(system: DaeSystem, analysis: LcAnalysis, pivot: int) -> LcApplication:
    """Replaces equation `pivot` by the combination sum u_i f_i^(c_i-c)."""
    if not analysis.condition_ok:
        raise ConditionRejected("combination order condition fails")
    if pivot not in analysis.candidates:
        raise PivotRejected("row %d is not a minimal-offset row of the "
                            "combination" % (pivot + 1))
    off, u = analysis.off, analysis.u
    terms = []
    for i in analysis.rows:
        fi = total_derivative(system.equations[i].expr, off.c[i] - analysis.c_under)
        terms.append(Mul((u[i], fi)))
    combination = terms[0] if len(terms) == 1 else Add(tuple(terms))
    old = system.equations[pivot]
    new_eq = make_equation(old.name, simplify(combination),
                           origin="lc_replaced", alias=old.alias)
    # the leading derivatives must have cancelled
    for j, h in highest_orders(new_eq.expr).items():
        if not h < off.d[j] - analysis.c_under:
            raise ConvertError("combination kept a leading derivative of %s"
                               % system.var_names[j])
    eqs = list(system.equations)
    eqs[pivot] = new_eq
    return LcApplication(system.with_equations(eqs), analysis, pivot,
                         combination)


def lc_equivalence_probes(before: DaeSystem, app: LcApplication,
                          prober: Prober, points: int = PROBE_POINTS) -> int:
    """Numerically checks f_new = sum u_i f_i^(c_i-c), as lc_apply built
    it, at random points.

    Returns the number of points actually compared.
    """
    return _certify("%s:lc:%s:%d" % (prober.seed, before.name, app.pivot),
                    [(app.system.equations[app.pivot].expr, app.combination)],
                    {}, before.param_values, prober, points)


# ---------------------------------------------------------------------------
# substitution rewrite (kernel side)

class EsAnalysis(Record):
    """What a kernel vector v allows.

    v: {j: v_j} in the form of LcAnalysis.u.  cols: the j with v_j not
    proven zero.  rows: equations whose signature is tight in one of those
    columns.  const_cols: cols whose entry is a nonzero constant.
    """

    v: dict
    cols: tuple
    rows: tuple
    c_over: int
    const_cols: tuple
    condition_ok: bool
    off: OffsetPair

    @property
    def usable(self) -> bool:
        return len(self.cols) >= 2 and bool(self.rows) and self.condition_ok


def es_analyze(system: DaeSystem, sig, off: OffsetPair, v: dict,
               prober: Prober) -> EsAnalysis:
    cols = tuple(j for j, e in v.items() if not prober.verdict(e).proven_zero)
    rows = tuple(i for i in range(system.n)
                 if any(off.d[j] - off.c[i] == sig.entry(i, j) for j in cols))
    if not rows or len(cols) < 2:
        return EsAnalysis(v, cols, rows, 0, (), False, off)
    c_over = max(off.c[i] for i in rows)
    ho = highest_orders(Add(tuple(v[k] for k in cols)))
    # a state no entry of v holds reads -1, which asks only d_j >= c_over
    ok = all(ho.get(j, -1) < off.d[j] - c_over for j in cols) \
        and all(h <= off.d[j] - c_over for j, h in ho.items())
    const_cols = tuple(j for j in cols if isinstance(v[j], Const))
    return EsAnalysis(v, cols, rows, c_over, const_cols if ok else (), ok, off)


class Renaming(Record):
    """One fresh state introduced by the substitution rewrite."""

    col: int           # original variable index j
    new_index: int
    var_name: str
    eq_name: str
    alias: str
    order: int         # d_j - c_over, the derivative the state captures
    definition: Expr   # x_j^(order) - (v_j/v_l) x_l^(d_l-c_over)


class EsApplication(Record):
    system: DaeSystem
    analysis: EsAnalysis
    pivot: int
    renamed: tuple     # Renaming records, one per col except the pivot
    rewritten: tuple   # row indices that were substituted into


def es_apply(system: DaeSystem, analysis: EsAnalysis, pivot: int,
             prober: Prober) -> EsApplication:
    """Substitutes the kernel relation through the tight rows.

    Each non-pivot column j gets a fresh state y for
    x_j^(r_j) - (v_j/v_l) x_l^(d_l-c), where r_j = d_j - c.  One mapping
    sends each x_j^(k), k >= r_j, to the (k - r_j)-th derivative of y plus
    the pivot share; the tight rows holding one of those atoms are
    rewritten through it, and the converted system is built once.
    """
    if not analysis.condition_ok:
        raise ConditionRejected("substitution order condition fails")
    if len(analysis.cols) < 2 or not analysis.rows:
        raise ConditionRejected("kernel vector touches too little of the system")
    if pivot not in analysis.cols:
        raise PivotRejected("column %d is not in the kernel support" % (pivot + 1))
    v_l = analysis.v[pivot]
    if not prober.verdict(v_l).proven_nonzero:
        raise PivotRejected("cannot divide by entry %d, not proven nonzero"
                            % (pivot + 1))
    off = analysis.off
    c_bar = analysis.c_over
    r_l = off.d[pivot] - c_bar
    # row i holds x_j only up to order d_j - c_i, so the replacements
    # stop at d_j - c_min
    c_min = min(off.c[i] for i in analysis.rows)
    if isinstance(v_l, Const):
        inv = Const(Fraction(1) / v_l.value)
    else:
        inv = Pow(v_l, -1)

    taken_vars = set(system.var_names) | {p for p, _ in system.params} \
        | set(system.input_names)
    taken_eqs = {eq.name for eq in system.equations}
    renamed = []
    new_eqs = []
    mapping = {}
    for j in analysis.cols:
        if j == pivot:
            continue
        ratio = simplify(Mul((analysis.v[j], inv)))
        q = Mul((ratio, StateDeriv(pivot, r_l)))
        r_j = off.d[j] - c_bar
        definition = simplify(Add((StateDeriv(j, r_j), -q)))
        var_name = fresh_indexed("x", system.n + 1, taken_vars)
        eq_name = fresh_indexed("f", system.n + 1, taken_eqs)
        taken_vars.add(var_name)
        taken_eqs.add(eq_name)
        y = StateDeriv(system.n + len(renamed), 0)
        row = simplify(Add((-y, definition)))
        new_eqs.append(make_equation(eq_name, row, origin="es_appended",
                                     alias="y%d" % (j + 1)))
        renamed.append(Renaming(j, y.index, var_name, eq_name,
                                "y%d" % (j + 1), r_j, definition))
        # what x_j^(r_j) becomes: the fresh state plus the pivot share
        base = Add((y, q))
        for k in range(r_j, off.d[j] - c_min + 1):
            rep = total_derivative(base, k - r_j)
            if not highest_orders(rep).get(j, -1) < k:
                raise ConvertError(
                    "substitution for %s at order %d would reintroduce an "
                    "equal or higher derivative of it"
                    % (system.var_names[j], k))
            mapping[StateDeriv(j, k)] = rep

    eqs = list(system.equations)
    rewritten = []
    for i in analysis.rows:
        old = eqs[i]
        if atoms(old.expr).isdisjoint(mapping):
            continue
        eqs[i] = make_equation(old.name,
                               simplify(subst_atoms(old.expr, mapping)),
                               origin="es_rewritten", alias=old.alias)
        rewritten.append(i)
    converted = system.with_equations(eqs + new_eqs,
                                      [r.var_name for r in renamed])
    return EsApplication(converted, analysis, pivot, tuple(renamed),
                         tuple(rewritten))


def es_equivalence_probes(before: DaeSystem, app: EsApplication,
                          prober: Prober, points: int = PROBE_POINTS) -> int:
    """Checks each rewritten row against its original at random points.

    Fresh states are bound through their defining relations (and the
    derivatives of those), so a rewritten row and its original must agree;
    appended rows must vanish.
    """
    rows = app.system.equations
    pairs = [(rows[i].expr, before.equations[i].expr) for i in app.rewritten]
    pairs += [(rows[rec.new_index].expr, ZERO) for rec in app.renamed]
    max_order = {rec.new_index: 0 for rec in app.renamed}
    for new, _ in pairs:
        for a in atoms(new):
            if isinstance(a, StateDeriv) and a.index in max_order:
                max_order[a.index] = max(max_order[a.index], a.order)
    defs = {StateDeriv(rec.new_index, m): total_derivative(rec.definition, m)
            for rec in app.renamed
            for m in range(max_order[rec.new_index] + 1)}
    return _certify("%s:es:%s:%d" % (prober.seed, before.name, app.pivot),
                    pairs, defs, before.param_values, prober, points)


# ---------------------------------------------------------------------------
# certification

def _certify(key, pairs, defs, param_values, prober, points):
    """Checks new == expected for each (new, expected) pair at up to
    `points` probe points.

    Each atom in defs is bound to the value of its definition when new is
    evaluated; expected is evaluated at the drawn binding itself.  An
    exact mismatch, or an inexact one past the numeric guard, raises
    ConvertError.  Returns the number of points compared; when the
    sampler's redraws run out first the prober is marked uncertain.
    """
    needed = set()
    for d in defs.values():
        needed |= atoms(d)
    for new, expected in pairs:
        needed |= atoms(new).difference(defs) | atoms(expected)

    def check(b):
        full = dict(b)
        exact = True
        for atom, d in defs.items():
            full[atom], ex = evaluate_ex(d, b)
            exact = exact and ex
        worst = Fraction(0)
        for new, expected in pairs:
            lhs, e1 = evaluate_ex(new, full)
            rhs, e2 = evaluate_ex(expected, b)
            exact = exact and e1 and e2
            worst = max(worst, abs(lhs - rhs))
        return worst, exact

    compared = 0
    for _, (diff, exact) in probe_points(key, needed, check, points,
                                         param_values):
        if exact:
            if diff != 0:
                raise ConvertError("rewrite is not equivalent at a probe point")
        elif diff > _NUMERIC_GUARD:
            raise ConvertError("rewrite drifted past the numeric guard")
        compared += 1
    if compared < points:
        prober.uncertain_seen = True
    return compared


# ---------------------------------------------------------------------------
# method choice

def choose_method(lc, es, prober: Prober):
    """Picks a rewrite from a candidate pair of analyses: (kind, pivot), or
    None when neither applies.

    Constant pivots are preferred since they preserve solutions globally:
    a constant combination row wins outright; otherwise a constant
    substitution column; otherwise whichever method still applies on a
    proven-nonzero entry, which a substitution divides by and without
    which a combination would drop the equation it replaces.
    """
    L = lc.candidates if lc is not None else ()
    L_hat = lc.const_rows if lc is not None else ()
    usable = es is not None and es.usable
    Jset = es.cols if usable else ()
    J_hat = es.const_cols if usable else ()
    if L_hat:
        return MethodKind.LC, min(L_hat)
    if L and J_hat:
        return MethodKind.ES, min(J_hat)
    for i in L:
        if prober.verdict(lc.u[i]).proven_nonzero:
            return MethodKind.LC, i
    if J_hat:
        return MethodKind.ES, min(J_hat)
    for j in Jset:
        if prober.verdict(es.v[j]).proven_nonzero:
            return MethodKind.ES, j
    return None


# ---------------------------------------------------------------------------
# driver

class FixStatus(Enum):
    SUCCESS = "success"
    ILL_POSED = "ill_posed"
    NO_METHOD = "no_method"
    ITERATION_CAP = "iteration_cap"


class Analysis(Record, uncompared=("system",), hidden=("system",)):
    """The structural analysis of one system, as every later stage reads it.

    offsets and jacobian (the classified System Jacobian) are None when the
    signature matrix has no transversal.  system is the system analysed,
    for a later analysis that carries this one.
    """

    signature: SignatureMatrix
    offsets: Optional[OffsetPair]
    jacobian: Optional[JacobianReport]
    system: Optional[DaeSystem] = None

    @property
    def value(self):
        """int, or -inf when the signature has no transversal."""
        return self.signature.value if self.signature.swp else float("-inf")


def analyze(system: DaeSystem, prober: Prober, formal: bool = False,
            prior: Optional[Analysis] = None) -> Analysis:
    """Signature matrix, canonical offsets, System Jacobian and its class.

    prior is the analysis, in the same mode and with a transversal, of the
    system this one came from by a conversion step, which keeps every
    other equation at its index and may append equations and states.  What
    the equations the two systems share determine is carried: their
    signature rows with the solve's potentials and HVT entries, and their
    Jacobian rows where the offsets keep them tight in the same columns.
    The result equals a fresh analysis.  With no prior (the input) the
    same code analyses from scratch.
    """
    assert prior is None or prior.offsets is not None
    sig = signature_matrix(system, formal, prior)
    if not sig.swp:
        return Analysis(sig, None, None, system)
    off = canonical_offsets(sig)
    J = system_jacobian(system, sig, off, prior)
    report = classify_jacobian(J, prober, prior and prior.jacobian)
    return Analysis(sig, off, report, system)


class StepRecord(Record):
    index: int            # 1-based
    kind: MethodKind
    pivot: int            # 0-based
    vector: dict          # LcAnalysis.u or EsAnalysis.v
    grade: str            # "global" or "local"
    value_before: int
    application: object   # LcApplication or EsApplication
    system: DaeSystem
    after: Analysis       # of the system the step produced

    @property
    def value_after(self):
        """int, or -inf when the step exposed ill-posedness."""
        return self.after.value


class FixReport(Record):
    status: FixStatus
    steps: tuple
    system: DaeSystem
    uncertain: bool
    initial: Analysis     # of the input
    final: Analysis       # of system

    @property
    def initial_value(self):
        """None when the input itself is ill posed."""
        return None if self.initial.offsets is None else self.initial.value

    @property
    def final_value(self):
        return self.final.value


def fix_dae(system: DaeSystem, prober: Prober = None, method: str = None,
            vector=None, pivot: int = None, max_steps: int = None,
            formal: bool = False) -> FixReport:
    """Iterates conversion steps until the Jacobian is generically
    nonsingular.

    method restricts every step to one rewrite; vector and pivot force the
    first step only.  vector lists all n entries; its nonzero normal forms
    are used verbatim after verification.
    The step budget defaults to the initial signature value plus one,
    which the strict value decrease makes sufficient for any fixable
    system.  Each system visited is analysed once; a step's record keeps
    the analysis of the system it produced.
    """
    if prober is None:
        prober = Prober()
    if vector is not None and method is None:
        raise ValueError("a forced vector needs a method to interpret it")
    if method not in (None, "lc", "es"):
        raise ValueError("method must be 'lc' or 'es'")
    current = system
    steps = []
    initial = now = analyze(system, prober, formal)

    # reads the loop's current system and analysis at the time of the call
    def report(status):
        return FixReport(status, tuple(steps), current, prober.uncertain_seen,
                         initial, now)

    if now.jacobian is None:
        return report(FixStatus.ILL_POSED)
    cap = now.value + 1 if max_steps is None else max_steps
    while now.jacobian.singular:
        if len(steps) >= cap:
            return report(FixStatus.ITERATION_CAP)
        if vector is not None and not steps:
            found = _forced_candidate(current, now, vector, pivot, method,
                                      prober)
        else:
            found = _search_candidates(current, now, method, prober)
        if found is None:
            return report(FixStatus.NO_METHOD)
        kind, analysis, chosen_pivot = found
        if kind is MethodKind.LC:
            app = lc_apply(current, analysis, chosen_pivot)
            lc_equivalence_probes(current, app, prober)
            vec = analysis.u
        else:
            app = es_apply(current, analysis, chosen_pivot, prober)
            es_equivalence_probes(current, app, prober)
            vec = analysis.v
        before, current = current, app.system
        # either step keeps every other row at its index: carry them
        after = analyze(current, prober, formal, now)
        if not after.value < now.value:
            raise ConvertError(
                "conversion step %d (%s, pivot %s) did not decrease the "
                "signature value: %s -> %s"
                % (len(steps) + 1, kind.value,
                   kind.pivot_name(before, chosen_pivot), now.value,
                   after.value))
        grade = "global" if isinstance(vec[chosen_pivot], Const) else "local"
        steps.append(StepRecord(len(steps) + 1, kind, chosen_pivot, vec,
                                grade, now.value, app, current, after))
        now = after
        if now.jacobian is None:
            return report(FixStatus.ILL_POSED)
    return report(FixStatus.SUCCESS)


def _forced_candidate(system, now, vector, pivot, method, prober):
    J = now.jacobian.matrix
    if len(vector) != system.n:
        raise VectorRejected("vector has %d entries, system has %d"
                             % (len(vector), system.n))
    vec = {k: x for k, e in enumerate(vector)
           if (x := simplify(e)) is not ZERO}
    if not vec:
        raise VectorRejected("vector is zero")
    left = method == "lc"
    if not verify_nullvector(J, vec, prober, left=left):
        raise VectorRejected("vector is not a %s null vector of the "
                             "System Jacobian" % ("left" if left else "right"),
                             J)
    if left:
        analysis = lc_analyze(now.offsets, vec, prober)
        if not analysis.condition_ok or not analysis.candidates:
            raise ConditionRejected("combination order condition fails")
        pair = (analysis, None)
    else:
        analysis = es_analyze(system, now.signature, now.offsets, vec, prober)
        if not analysis.usable:
            raise ConditionRejected("substitution order condition fails")
        pair = (None, analysis)
    if pivot is None:
        choice = choose_method(*pair, prober)
        if choice is None:
            raise PivotRejected("no entry of the vector is proven nonzero")
        pivot = choice[1]
    return (MethodKind.LC if left else MethodKind.ES), analysis, pivot


def _search_candidates(system, now, method, prober):
    sig, off = now.signature, now.offsets

    def basis(left, wanted):
        # the basis ends where the elimination sticks on a PROBABLY_ZERO
        # verdict or a vector fails its strict check; either leaves the
        # result unverified
        try:
            yield from component_basis(now.jacobian.components, prober,
                                       left) if wanted else ()
        except NullspaceError:
            prober.uncertain_seen = True
    lefts, rights = basis(True, method != "es"), None
    for _ in range(_MAX_BASIS):
        u0 = next(lefts, None)
        us = normalize_candidates(u0, prober) if u0 else ()
        first = lc_analyze(off, us[0], prober) if us else None
        # a constant combination row wins whatever the kernel side holds
        if first is not None and first.const_rows:
            return MethodKind.LC, first, min(first.const_rows)
        if rights is None:   # eliminated once a step first needs it
            rights = basis(False, method != "lc")
        v0 = next(rights, None)
        vs = normalize_candidates(v0, prober) if v0 else ()
        if not us and not vs:
            break
        for idx, (u_c, v_c) in enumerate(zip_longest(us, vs)):
            lc = first if idx == 0 else (
                lc_analyze(off, u_c, prober) if u_c else None)
            es = es_analyze(system, sig, off, v_c, prober) if v_c else None
            choice = choose_method(lc, es, prober)
            if choice is not None:
                kind, pivot = choice
                return kind, lc if kind is MethodKind.LC else es, pivot
    return None
