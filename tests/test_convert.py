import random
from fractions import Fraction

import pytest

import checks
from checks import evaluate, parse_expr
from daefix.convert import (ConditionRejected, ConvertError, EsAnalysis,
                            FixStatus, LcAnalysis, MethodKind,
                            PivotRejected, VectorRejected, choose_method,
                            es_analyze, es_apply, es_equivalence_probes,
                            fix_dae, lc_analyze, lc_apply,
                            lc_equivalence_probes)
from daefix import corpus
from daefix.corpus import load, names as corpus_names
from daefix.dsl import parse_dae
from daefix.expr import (NEG_INF, ZERO, Add, Const, StateDeriv, highest_orders,
                         simplify)
from daefix.jacobian import determinant, system_jacobian
from daefix.model import DaeSystem, make_equation
from daefix.structural import OffsetPair, canonical_offsets, signature_matrix
from daefix.zerotest import Prober


def analyze(system):
    sig = signature_matrix(system)
    off = canonical_offsets(sig)
    return sig, off, system_jacobian(system, sig, off)


def pe(text, system):
    return simplify(parse_expr(text, system))


def vec(system, *texts):
    return [parse_expr(t, system) for t in texts]


def nonzero(system, *texts):
    """The null-vector form of vec(system, *texts)."""
    return checks.sparse_vector(vec(system, *texts))


def final_det(report):
    sig, off, J = analyze(report.system)
    return simplify(determinant(checks.dense(J, ZERO))), off


# ---------------------------------------------------------------------------
# combination rewrite

def test_brenan_combination():
    s = load("brenan")
    r = fix_dae(s)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (1, 0)
    assert len(r.steps) == 1
    st = r.steps[0]
    assert st.kind is MethodKind.LC
    assert st.pivot == 0
    assert st.grade == "global"
    assert st.vector == {0: Const(-1), 1: Const(1)}
    fixed = r.system
    assert fixed.equations[0].expr == pe("y + h1(t) - h2'(t)", fixed)
    assert fixed.equations[0].origin == "lc_replaced"
    assert fixed.equations[1].origin == "original"
    det, off = final_det(r)
    assert det == Const(-1)
    assert (off.c, off.d) == ((0, 0), (0, 0))
    assert not r.uncertain


def test_brenan_fix_is_idempotent():
    fixed = fix_dae(load("brenan")).system
    again = fix_dae(fixed)
    assert again.status is FixStatus.SUCCESS
    assert again.steps == ()


def test_lc_example_driver_picks_last_row():
    s = load("lc_example")
    r = fix_dae(s)
    assert r.status is FixStatus.SUCCESS
    assert len(r.steps) == 1
    st = r.steps[0]
    assert st.kind is MethodKind.LC
    assert st.pivot == 3
    assert st.grade == "global"
    assert st.vector == {0: pe("-x2", s), 1: pe("-x1", s), 2: Const(-1),
                         3: Const(1)}
    fixed = r.system
    assert fixed.equations[3].expr == pe("x1 + x2 - g1'(t) + g2(t)", fixed)
    det, off = final_det(r)
    assert det == pe("x2 - x1", fixed)
    assert (off.c, off.d) == ((0, 0, 1, 1), (1, 1, 0, 0))


def test_lc_example_forced_vector_flips_sign():
    # same rewrite driven by the negated vector: determinant flips
    s = load("lc_example")
    r = fix_dae(s, method="lc", vector=vec(s, "x2", "x1", "1", "-1"), pivot=3)
    assert r.status is FixStatus.SUCCESS
    assert len(r.steps) == 1
    fixed = r.system
    assert fixed.equations[3].expr == pe("-x1 - x2 + g1'(t) - g2(t)", fixed)
    det, _ = final_det(r)
    assert det == pe("x1 - x2", fixed)


def test_scholz_needs_two_steps():
    s = load("scholz")
    r = fix_dae(s)
    assert r.status is FixStatus.SUCCESS
    assert [st.kind for st in r.steps] == [MethodKind.LC, MethodKind.LC]
    assert [st.pivot for st in r.steps] == [2, 0]
    assert [(st.value_before, st.value_after) for st in r.steps] \
        == [(2, 1), (1, 0)]
    assert all(st.grade == "global" for st in r.steps)
    mid = r.steps[0].system
    assert mid.equations[2].expr == pe("-x1 - x2 + b3(t) - b4(t)", mid)
    _, midoff, _ = analyze(mid)
    assert (midoff.c, midoff.d) == ((0, 0, 1, 0), (1, 1, 0, 0))
    fixed = r.system
    assert fixed.equations[0].expr \
        == pe("-x1 + b1(t) + b2(t) + b3'(t) - b4(t) - b4'(t)", fixed)
    det, off = final_det(r)
    assert det == Const(1)
    assert (off.c, off.d) == ((1, 0, 1, 0), (1, 1, 0, 0))
    assert not r.uncertain


def test_lc_order_bound_after_replacement():
    # the combination must lose every derivative at or above d_j - c
    s = load("lc_example")
    r = fix_dae(s)
    st = r.steps[0]
    a = st.application.analysis
    fbar = st.system.equations[st.pivot].expr
    for j in range(s.n):
        assert highest_orders(simplify(fbar)).get(j, NEG_INF) \
            < a.off.d[j] - a.c_under


def test_lc_pivot_must_sit_at_minimal_offset():
    s = load("lc_example")
    with pytest.raises(PivotRejected):
        fix_dae(s, method="lc", vector=vec(s, "x2", "x1", "1", "-1"), pivot=2)


# ---------------------------------------------------------------------------
# substitution rewrite

def test_es_example_driver_substitutes():
    s = load("es_example")
    r = fix_dae(s)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (2, 1)
    assert len(r.steps) == 1
    st = r.steps[0]
    assert st.kind is MethodKind.ES
    assert st.pivot == 1
    assert st.grade == "global"
    assert st.vector == {0: pe("-x2", s), 1: Const(1)}
    fixed = r.system
    assert fixed.var_names == ("x1", "x2", "x3")
    assert fixed.equations[0].expr \
        == pe("-x2*x2' + x3 + h1(t) + exp(x2'^2 - x3')", fixed)
    assert fixed.equations[1].expr == pe("x2^2 + x3 + h2(t)", fixed)
    assert fixed.equations[2].expr == pe("x1 + x2*x2' - x3", fixed)
    assert fixed.equations[2].alias == "y1"
    assert fixed.equations[2].origin == "es_appended"
    det, off = final_det(r)
    assert det == pe("2*exp(x2'^2 - x3')*(x2 + x2') - x2", fixed)
    assert (off.c, off.d) == ((0, 1, 0), (0, 1, 1))
    # exp factors merge in the normal form, so the combination candidate's
    # residual 1 - exp(a)*exp(-a) is an exact zero and nothing is unproven
    assert not r.uncertain


def test_es_example_forced_scaled_vector_same_rewrite():
    s = load("es_example")
    r = fix_dae(s, method="es", vector=vec(s, "x2", "-1"), pivot=1)
    assert r.status is FixStatus.SUCCESS
    unforced = fix_dae(s)
    assert [eq.expr for eq in r.system.equations] \
        == [eq.expr for eq in unforced.system.equations]
    rec = r.steps[0].application.renamed[0]
    assert (rec.col, rec.new_index, rec.var_name, rec.alias) == (0, 2, "x3", "y1")
    assert rec.order == 0
    assert rec.definition == pe("x1 + x2*x2'", s)


def test_es_example_combination_condition_fails():
    # the cokernel vector carries x1' inside exp, at the offset bound
    s = load("es_example")
    sig, off, J = analyze(s)
    u = vec(s, "exp(x1' + x2*x2'')", "1")
    a = lc_analyze(off, checks.sparse_vector(u), Prober())
    assert not a.condition_ok
    assert a.candidates == ()
    with pytest.raises(ConditionRejected):
        fix_dae(s, method="lc", vector=u)


def test_brenan_forced_substitution():
    s = load("brenan")
    r = fix_dae(s, method="es", vector=vec(s, "t", "-1"), pivot=1)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (1, 0)
    st = r.steps[0]
    assert st.kind is MethodKind.ES
    assert st.grade == "global"
    fixed = r.system
    assert fixed.var_names == ("x", "y", "x3")
    assert fixed.equations[0].expr == pe("x3' - y - h1(t)", fixed)
    assert fixed.equations[1].expr == pe("x3 - h2(t)", fixed)
    assert fixed.equations[2].expr == pe("x + t*y - x3", fixed)
    rec = st.application.renamed[0]
    assert rec.definition == pe("x + t*y", s)
    det, off = final_det(r)
    assert det == Const(-1)
    assert (off.c, off.d) == ((0, 1, 0), (0, 0, 1))


def test_brenan_substitution_nonconstant_pivot_is_local():
    # dividing by t keeps solutions only where t stays nonzero
    s = load("brenan")
    r = fix_dae(s, method="es", vector=vec(s, "t", "-1"), pivot=0)
    assert r.status is FixStatus.SUCCESS
    assert r.steps[0].grade == "local"


def test_pendulum_mod_forced_substitution():
    s = load("pendulum_mod")
    r = fix_dae(s, method="es", vector=vec(s, "1", "-1", "1"), pivot=0)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (4, 2)
    st = r.steps[0]
    assert st.grade == "global"
    fixed = r.system
    assert fixed.var_names == ("x1", "x2", "x3", "x4", "x5")
    recs = st.application.renamed
    assert [(rec.col, rec.var_name, rec.alias) for rec in recs] \
        == [(1, "x4", "y2"), (2, "x5", "y3")]
    assert recs[0].definition == pe("x1 + x2", s)
    assert recs[1].definition == pe("x3 - x1", s)
    assert fixed.equations[0].expr == pe("x4'' + x4*(x5 + 2*x1)", fixed)
    assert fixed.equations[1].expr \
        == pe("x4'' + x5'' + (x4 + x5)*(x5 + 2*x1) - G", fixed)
    assert fixed.equations[2].expr \
        == pe("2*x4^2 + 2*x4*x5 + x5^2 - L^2", fixed)
    assert fixed.equations[3].expr == pe("x1 + x2 - x4", fixed)
    assert fixed.equations[4].expr == pe("-x1 + x3 - x5", fixed)
    det, off = final_det(r)
    assert det == pe("-4*(2*x4^2 + 2*x4*x5 + x5^2)", fixed)
    assert (off.c, off.d) == ((0, 0, 2, 0, 0), (0, 0, 0, 2, 2))


def test_pendulum_mod_determinant_on_constraint():
    # on the rewritten constraint 2*x4^2 + 2*x4*x5 + x5^2 = L^2 the
    # determinant is the constant -4*L^2
    s = load("pendulum_mod")
    r = fix_dae(s, method="es", vector=vec(s, "1", "-1", "1"), pivot=0)
    det, _ = final_det(r)
    rng = random.Random("circle")
    for _ in range(5):
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x4 = (1 - t * t) / (1 + t * t)
        w = 2 * t / (1 + t * t)        # so x4^2 + w^2 = L^2 with L = 1
        b = {StateDeriv(3, 0): x4, StateDeriv(4, 0): w - x4}
        assert evaluate(det, b) == Fraction(-4)


def test_unforced_pendulum_mod_prefers_substitution():
    r = fix_dae(load("pendulum_mod"))
    assert r.status is FixStatus.SUCCESS
    assert r.steps[0].kind is MethodKind.ES
    assert r.steps[0].pivot == 0
    assert not r.uncertain


def test_pendulum_needs_no_rewrite():
    r = fix_dae(load("pendulum"))
    assert r.status is FixStatus.SUCCESS
    assert r.steps == ()
    assert not r.uncertain


# ---------------------------------------------------------------------------
# forced-trace rejection paths

def test_wrong_vector_is_rejected():
    s = load("brenan")
    with pytest.raises(VectorRejected):
        fix_dae(s, method="lc", vector=vec(s, "1", "0"))
    with pytest.raises(VectorRejected):
        fix_dae(s, method="es", vector=vec(s, "1", "0", "0"))


def test_vector_needs_method():
    s = load("brenan")
    with pytest.raises(ValueError):
        fix_dae(s, vector=vec(s, "-1", "1"))


def test_es_pivot_outside_support():
    s = load("brenan")
    sig, off, J = analyze(s)
    a = es_analyze(s, sig, off, nonzero(s, "t", "-1"), Prober())
    assert a.usable
    with pytest.raises(PivotRejected):
        es_apply(s, a, 5, Prober())


def test_es_apply_guards_against_reintroduction():
    # a ratio v_j/v_l holding x_j at the captured order r_j would make
    # x_j^(r_j) stand for an expression in itself; the order condition
    # rules it out, so the analysis is built by hand
    s = load("brenan")
    sig, off, J = analyze(s)
    a = EsAnalysis({0: StateDeriv(0), 1: Const(1)}, (0, 1), (0, 1), 1, (1,),
                   True, off)
    with pytest.raises(ConvertError, match="reintroduce"):
        es_apply(s, a, 1, Prober())


_THREE_BLOCK = """
dae b3
vars x, y, z
input h1, h2, h3
eq f1: x' + t*y' - h1(t) = 0
eq f2: x + t*y - h2(t) = 0
eq f3: z - x - h3(t) = 0
"""


def test_es_leaves_untouched_rows_as_they_were():
    runs = [(load(name), {}) for name in ("es_example", "pendulum_mod")]
    b3 = parse_dae(_THREE_BLOCK)
    runs.append((b3, dict(method="es", vector=vec(b3, "-t", "1", "0"),
                          pivot=0)))
    untouched = 0
    for system, kwargs in runs:
        before = system
        for st in fix_dae(system, **kwargs).steps:
            assert st.kind is MethodKind.ES
            app = st.application
            assert app.rewritten
            for i, old in enumerate(before.equations):
                new = app.system.equations[i]
                if i in app.rewritten:
                    assert new.origin == "es_rewritten"
                    assert (new.name, new.alias) == (old.name, old.alias)
                else:
                    assert new is old
                    untouched += 1
            before = st.system
    # f3 of the three-block system is not tight in the kernel columns
    assert untouched == 1


def test_es_rejects_unusable_kernel():
    # lc_example's kernel fails the order test: d_j - c falls below zero
    s = load("lc_example")
    sig, off, J = analyze(s)
    a = es_analyze(s, sig, off, nonzero(s, "x1", "-x2", "x1", "-x2"),
                   Prober())
    assert not a.condition_ok
    assert not a.usable
    r = fix_dae(s, method="es")
    assert r.status is FixStatus.NO_METHOD


# ---------------------------------------------------------------------------
# method choice

def _lc(u, cands, consts, ok=True):
    off = OffsetPair((0,) * len(u), (0,) * len(u))
    rows = tuple(range(len(u)))
    return LcAnalysis(dict(enumerate(u)), rows, 0, tuple(cands),
                      tuple(consts), ok, off)


def _es(v, cols, consts, rows=(0,), ok=True):
    off = OffsetPair((0,) * len(v), (0,) * len(v))
    return EsAnalysis(dict(enumerate(v)), tuple(cols), rows, 0,
                      tuple(consts), ok, off)


def test_choice_constant_combination_row_wins():
    p = Prober()
    lc = _lc((Const(2), StateDeriv(0, 0)), cands=(0, 1), consts=(0,))
    es = _es((Const(1), Const(-1)), cols=(0, 1), consts=(0, 1))
    assert choose_method(lc, es, p) == (MethodKind.LC, 0)


def test_choice_constant_substitution_column_beats_plain_combination():
    p = Prober()
    lc = _lc((StateDeriv(0, 0), StateDeriv(1, 0)), cands=(0, 1), consts=())
    es = _es((StateDeriv(0, 0), Const(-1)), cols=(0, 1), consts=(1,))
    assert choose_method(lc, es, p) == (MethodKind.ES, 1)


def test_choice_falls_back_to_local_combination():
    p = Prober()
    lc = _lc((StateDeriv(0, 0), StateDeriv(1, 0)), cands=(1,), consts=())
    es = _es((StateDeriv(0, 0), StateDeriv(1, 0)), cols=(0, 1), consts=())
    assert choose_method(lc, es, p) == (MethodKind.LC, 1)


def test_choice_substitution_needs_provable_divisor():
    p = Prober()
    es = _es((StateDeriv(0, 0), StateDeriv(1, 0)), cols=(0, 1), consts=())
    assert choose_method(None, es, p) == (MethodKind.ES, 0)
    hidden = pe("sin(2*x1) - 2*sin(x1)*cos(x1)",
                parse_dae("dae h\nvars x1, x2\neq f1: x1 = 0\neq f2: x2 = 0"))
    assert simplify(hidden) != ZERO  # a probable zero, not a proven one
    stuck = _es((hidden, hidden), cols=(0, 1), consts=())
    assert choose_method(None, stuck, p) is None


def test_choice_skips_a_combination_pivot_not_proven_nonzero():
    # replacing a row whose entry is zero as a function drops its equation
    hidden = pe("sin(2*x1) - 2*sin(x1)*cos(x1)",
                parse_dae("dae h\nvars x1, x2\neq f1: x1 = 0\neq f2: x2 = 0"))
    p = Prober()
    assert p.verdict(hidden).probably_zero
    lc = _lc((hidden, StateDeriv(1, 0)), cands=(0, 1), consts=())
    assert choose_method(lc, None, p) == (MethodKind.LC, 1)
    es = _es((StateDeriv(0, 0), StateDeriv(1, 0)), cols=(0, 1), consts=())
    assert choose_method(lc, es, p) == (MethodKind.LC, 1)
    # with no proven candidate the choice falls through to substitution
    lc = _lc((hidden, hidden), cands=(0, 1), consts=())
    assert choose_method(lc, es, p) == (MethodKind.ES, 0)
    assert choose_method(lc, None, p) is None


def test_choice_nothing_applies():
    p = Prober()
    lc = _lc((StateDeriv(0, 0),), cands=(), consts=(), ok=False)
    es = _es((StateDeriv(0, 0), Const(1)), cols=(0, 1), consts=(1,), ok=False)
    assert choose_method(lc, es, p) is None
    assert choose_method(None, None, p) is None


# ---------------------------------------------------------------------------
# driver statuses

def test_rewrite_exposes_ill_posedness():
    s = parse_dae("""
dae shifted
vars x1, x2
input b1
eq f1: x1' + x2 = 0
eq f2: x1' + x2 + b1(t) = 0
""")
    r = fix_dae(s)
    assert r.status is FixStatus.ILL_POSED
    assert len(r.steps) == 1
    assert r.steps[0].value_after == float("-inf")
    assert r.final.offsets is None and r.final.jacobian is None


@pytest.mark.parametrize("name, method, step, message", [
    ("brenan", None, 1, "step 1 (lc, pivot f1)"),
    ("es_example", "es", 1, "step 1 (es, pivot x2)"),
    ("scholz", None, 2, "step 2 (lc, pivot f1)"),
])
def test_a_step_that_does_not_decrease_the_value_is_named(
        monkeypatch, tmp_path, capsys, name, method, step, message):
    # the analysis after the step is the one before it, so the value
    # stands still at that step
    from daefix import cli, convert
    original = convert.analyze
    made = []

    def stale(system, prober, formal=False, prior=None):
        made.append(made[-1] if len(made) == step
                    else original(system, prober, formal, prior))
        return made[-1]

    monkeypatch.setattr(convert, "analyze", stale)
    with pytest.raises(ConvertError) as ei:
        fix_dae(load(name), Prober(), method=method)
    value = made[-1].value
    assert str(ei.value) == ("conversion %s did not decrease the signature "
                             "value: %d -> %d" % (message, value, value))
    path = tmp_path / (name + ".dae")
    path.write_text(corpus.source(name))
    made.clear()
    argv = ["fix", str(path)] + (["--method", method] if method else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "conversion failed: %s\n" % ei.value


def test_missing_variable_is_ill_posed():
    s = parse_dae("""
dae absent
vars x1, x2
eq f1: x1' = 0
eq f2: x1 = 0
""")
    r = fix_dae(s)
    assert r.status is FixStatus.ILL_POSED
    assert r.steps == ()


def test_hidden_zero_pivot_blocks_elimination():
    s = parse_dae("""
dae hidden
vars x1, x2
eq f1: x1'*(sin(2*x1) - 2*sin(x1)*cos(x1)) + x2' = 0
eq f2: x2' + x1 = 0
""")
    r = fix_dae(s)
    assert r.status is FixStatus.NO_METHOD
    assert r.uncertain


def test_step_budget():
    s = load("scholz")
    r = fix_dae(s, max_steps=1)
    assert r.status is FixStatus.ITERATION_CAP
    assert len(r.steps) == 1
    r0 = fix_dae(s, max_steps=0)
    assert r0.status is FixStatus.ITERATION_CAP
    assert r0.steps == ()


# ---------------------------------------------------------------------------
# property suites

def test_random_singular_linear_systems_all_repair():
    rng = random.Random("linear-lc")
    for case in range(50):
        s = checks.singular_linear_system(rng, str(case))
        r = fix_dae(s)
        assert r.status is FixStatus.SUCCESS, s.name
        assert r.steps, s.name
        assert not r.uncertain
        vals = [r.initial_value] + [st.value_after for st in r.steps]
        assert all(a > b for a, b in zip(vals, vals[1:])), s.name
        for st in r.steps:
            assert st.kind is MethodKind.LC
            assert st.grade == "global"


def _golden_es_applications():
    s1 = load("es_example")
    s2 = load("brenan")
    s3 = load("pendulum_mod")
    return [
        (s1, fix_dae(s1).steps[0].application),
        (s2, fix_dae(s2, method="es", vector=vec(s2, "t", "-1"),
                     pivot=1).steps[0].application),
        (s3, fix_dae(s3, method="es", vector=vec(s3, "1", "-1", "1"),
                     pivot=0).steps[0].application),
    ]


def test_substitution_block_structure():
    for before, app in _golden_es_applications():
        checks.assert_es_block_structure(before, app)


def test_substitution_residuals_vanish_at_probe_points():
    for before, app in _golden_es_applications():
        assert es_equivalence_probes(before, app, Prober()) > 0


def test_combination_recovery_identity():
    cases = [(load("brenan"), fix_dae(load("brenan")))]
    s = load("scholz")
    r = fix_dae(s)
    before = s
    for st in r.steps:
        checks.assert_lc_recovery(before, st.application)
        assert lc_equivalence_probes(before, st.application, Prober()) > 0
        before = st.system
    b, rb = cases[0]
    checks.assert_lc_recovery(b, rb.steps[0].application)
    assert lc_equivalence_probes(b, rb.steps[0].application, Prober()) > 0


def test_equivalence_probe_cut_short_by_redraws_is_uncertain():
    # sqrt(t) leaves the domain for every negative t drawn, so the shared
    # redraw limit ends a long probe run early
    s = parse_dae("""
dae rooted
vars x, y
input h1, h2
eq f1: x' + t*y' - h1(t) = 0
eq f2: x + t*y + sqrt(t) - h2(t) = 0
""")
    r = fix_dae(s)
    assert r.status is FixStatus.SUCCESS and not r.uncertain
    app = r.steps[0].application
    short = Prober()
    assert lc_equivalence_probes(s, app, short, points=5) == 5
    assert not short.uncertain_seen
    cut = Prober()
    assert 0 < lc_equivalence_probes(s, app, cut, points=20) < 20
    assert cut.uncertain_seen


def test_one_elimination_per_side_and_two_verifications_per_step(
        monkeypatch):
    """Counted per component of J: the first search eliminates every
    component of the input's J, and the search after each step only the
    component the step touched, which is the one component of J that the
    analysis did not carry."""
    import daefix.nullspace
    eliminated = []
    verified = []
    original_eliminate = daefix.nullspace._eliminate
    original_verified = daefix.nullspace._verified

    def counted_eliminate(part, prober, left):
        eliminated.append((part, left))
        return original_eliminate(part, prober, left)

    def counted_verified(entries, residuals, prober):
        verified.append(entries)
        return original_verified(entries, residuals, prober)

    monkeypatch.setattr(daefix.nullspace, "_eliminate", counted_eliminate)
    monkeypatch.setattr(daefix.nullspace, "_verified", counted_verified)
    k = 8
    report = fix_dae(parse_dae(checks.brenan_blocks(k)), Prober())
    assert report.status is FixStatus.SUCCESS
    assert len(report.steps) == k
    analyses = [report.initial] + [st.after for st in report.steps]
    parts = [a.jacobian.components for a in analyses]
    assert len(parts[0]) == k
    touched = [[p for p in now if p not in before]
               for before, now in zip(parts, parts[1:])]
    # each step touches the one component of the block it replaced a row
    # of, and carries the other k - 1 as the very objects
    for step, fresh in zip(report.steps, touched):
        assert [p.rows for p in fresh] == [
            (step.pivot // 2 * 2, step.pivot // 2 * 2 + 1)]
    # every step combines with a constant cokernel row: the kernel side is
    # never eliminated, each component of the input once, and after that
    # only the component each step touched while J stays singular; the one
    # cokernel vector of a step is verified once
    expected = list(parts[0]) + [p for fresh in touched[:-1] for p in fresh]
    assert eliminated == [(p, True) for p in expected]
    assert len(set(eliminated)) == len(eliminated) == 2 * k - 1
    assert len(verified) == k


@pytest.mark.parametrize("draw, status, value, steps", [
    (205, "ill_posed", NEG_INF, 2), (280, "success", 7, 1),
    (296, "success", 5, 1)])
def test_an_unread_zero_test_leaves_no_draw_unverified(draw, status, value,
                                                       steps):
    """Draws of checks.rand_factor_system(random.Random(1002)) in the
    formal mode that were unverified only through zero tests no decision
    read: on the entry a row update cancels and, for draw 205, on pivot
    candidates past the first proven one."""
    rng = random.Random(1002)
    for _ in range(draw):
        checks.rand_factor_text(rng)
    r = fix_dae(checks.rand_factor_system(rng), Prober(), formal=True)
    assert (r.status.value, r.final_value, len(r.steps)) == (status, value,
                                                              steps)
    assert not r.uncertain


@pytest.fixture
def built(monkeypatch):
    """Every DaeSystem constructed from here on, in order."""
    systems = []
    validate = DaeSystem._validate

    def recorded(self, *kept):
        systems.append(self)
        validate(self, *kept)

    monkeypatch.setattr(DaeSystem, "_validate", recorded)
    return systems


def test_one_system_built_per_substitution_step(built):
    systems = [load(name) for name in ("es_example", "pendulum_mod")]
    built.clear()
    for system in systems:
        report = fix_dae(system)
        assert [st.kind for st in report.steps] == [MethodKind.ES]
        assert built == [report.system]
        built.clear()


def test_a_substitution_step_walks_only_the_rows_it_writes(monkeypatch):
    import daefix.model
    s = parse_dae(checks.brenan_blocks(8))
    checked = []
    original = daefix.model.atoms

    def counted(e):
        checked.append(e)
        return original(e)

    # names are checked on the atoms of each equation a system does not
    # keep from the one it extends
    monkeypatch.setattr(daefix.model, "atoms", counted)
    report = fix_dae(s, method="es", max_steps=1)
    app = report.steps[0].application
    rows = app.system.equations
    # the kept rows were checked when s was built; appending a state
    # leaves them valid
    assert (len(rows), app.rewritten, len(app.renamed)) == (17, (0, 1), 1)
    assert checked == [rows[0].raw, rows[1].raw, rows[16].raw]
    assert app.system.var_names == s.var_names + (app.renamed[0].var_name,)


def test_combination_is_derived_once_per_row(monkeypatch):
    import daefix.convert
    derived = []
    original = daefix.convert.total_derivative

    def counted(*args, **kwargs):
        derived.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(daefix.convert, "total_derivative", counted)
    s = parse_dae(checks.brenan_blocks(8))
    report = fix_dae(s, Prober())
    assert report.status is FixStatus.SUCCESS
    assert all(st.kind is MethodKind.LC for st in report.steps)
    # lc_apply derives each combined row once; the probes reuse its sum
    assert len(derived) == sum(len(st.application.analysis.rows)
                               for st in report.steps) == 16
    derived.clear()
    before = s
    for st in report.steps:
        assert lc_equivalence_probes(before, st.application, Prober()) > 0
        before = st.system
    assert derived == []


@pytest.mark.parametrize("formal", [False, True])
def test_rewritten_rows_hold_their_normal_form(built, formal):
    # every system a conversion builds is recorded, so a run that fails at
    # a later step (pendulum_mod under "lc") is still checked up to there
    for name in corpus_names():
        for method in (None, "lc", "es"):
            try:
                fix_dae(load(name), method=method, formal=formal)
            except ConvertError:
                pass
    rewritten = [eq for s in built for eq in s.equations
                 if eq.origin != "original"]
    assert {eq.origin for eq in rewritten} \
        == {"lc_replaced", "es_rewritten", "es_appended"}
    for eq in rewritten:
        assert eq.raw == eq.expr, eq.name


def _plus(system, row, amount):
    """system with `amount` added to equation `row`."""
    eqs = list(system.equations)
    old = eqs[row]
    eqs[row] = make_equation(old.name, Add((old.expr, Const(amount))),
                             old.origin, old.alias)
    return system.with_equations(eqs)


def _with_system(app, system):
    """The application app with its system replaced by `system` and every
    other field kept."""
    fields = {f: getattr(app, f) for f in app.__match_args__}
    fields["system"] = system
    return type(app)(**fields)


def test_tampered_combination_row_is_not_equivalent():
    s = load("brenan")
    app = fix_dae(s).steps[0].application
    bad = _with_system(app, _plus(app.system, app.pivot, 1))
    with pytest.raises(ConvertError, match="not equivalent"):
        lc_equivalence_probes(s, bad, Prober())


@pytest.mark.parametrize("which", ["rewritten", "appended"])
def test_tampered_substitution_row_is_not_equivalent(which):
    s = load("pendulum_mod")
    r = fix_dae(s, method="es", vector=vec(s, "1", "-1", "1"), pivot=0)
    app = r.steps[0].application
    row = app.rewritten[0] if which == "rewritten" else app.renamed[0].new_index
    bad = _with_system(app, _plus(app.system, row, 1))
    with pytest.raises(ConvertError, match="not equivalent"):
        es_equivalence_probes(s, bad, Prober())


def _inexact_combination():
    # exp(t) cancels from the combination row but not from the rows it was
    # built from, so every probe point compares a rounded value
    s = parse_dae("""
dae inexact
vars x, y
input h1, h2
eq f1: x' + t*y' - h1(t) + exp(t) = 0
eq f2: x + t*y - h2(t) + exp(t) = 0
""")
    r = fix_dae(s, method="lc")
    assert r.steps[0].kind is MethodKind.LC
    return s, r.steps[0].application


def test_inexact_drift_past_the_guard_fails():
    s, app = _inexact_combination()
    bad = _with_system(
        app, _plus(app.system, app.pivot, Fraction(1, 10 ** 6)))
    with pytest.raises(ConvertError, match="drifted past the numeric guard"):
        lc_equivalence_probes(s, bad, Prober())


def test_inexact_drift_under_the_guard_passes():
    s, app = _inexact_combination()
    near = _with_system(
        app, _plus(app.system, app.pivot, Fraction(1, 10 ** 12)))
    prober = Prober()
    assert lc_equivalence_probes(s, near, prober) == 5
    assert not prober.uncertain_seen
