"""Acceptance gate: every pinned result in one place, one line per criterion.

Each test covers one criterion and ends with a printed PASS line; run with
-v (or -s) to see them individually.  Values here are frozen: exact integer
and symbolic comparisons, Fraction arithmetic for point evaluations.
"""

import itertools
import random
from fractions import Fraction

import pytest

import checks
from checks import evaluate, parse_expr, validate_offsets
from daefix.cli import main as cli_main
from daefix.convert import (ConditionRejected, FixStatus, MethodKind,
                            choose_method, es_analyze, es_equivalence_probes,
                            fix_dae, lc_analyze, lc_equivalence_probes)
from daefix.corpus import load
from daefix.dsl import parse_dae
from daefix.expr import NEG_INF, ZERO, Const, StateDeriv, simplify
from daefix.jacobian import (JacobianClass, classify_jacobian, determinant,
                             system_jacobian)
from daefix.nullspace import cokernel_vector, kernel_vector
from daefix.structural import (canonical_offsets, degrees_of_freedom,
                               sigma_from_rows, signature_matrix,
                               solution_scheme, structural_index)
from daefix.zerotest import Prober


def analyze(system):
    sig = signature_matrix(system)
    off = canonical_offsets(sig)
    return sig, off, system_jacobian(system, sig, off)


def pe(text, system):
    return simplify(parse_expr(text, system))


def vec(system, *texts):
    return [parse_expr(t, system) for t in texts]


def final_det(report):
    sig, off, J = analyze(report.system)
    return simplify(determinant(checks.dense(J, ZERO))), off


def test_criterion_1_pendulum():
    s = load("pendulum")
    sig, off, J = analyze(s)
    assert sig.rows == checks.sparse(((2, NEG_INF, 0), (NEG_INF, 2, 0),
                                      (0, 0, NEG_INF)))
    assert sig.value == 2
    assert (off.c, off.d) == ((0, 0, 2), (2, 2, 0))
    assert structural_index(off) == 3
    assert degrees_of_freedom(off) == 2
    det = simplify(determinant(checks.dense(J, ZERO)))
    diff = simplify(det - pe("-2*(x^2 + y^2)", s))
    assert Prober().verdict(diff).proven_zero
    scheme = solution_scheme(off, J)
    rows = [(st.k, st.equations, st.unknowns, st.linear)
            for st in scheme.stages]
    assert rows == [
        (-2, ((2, 0),), ((0, 0), (1, 0)), False),
        (-1, ((2, 1),), ((0, 1), (1, 1)), True),
    ]
    g = scheme.generic
    assert (g.k, g.equations, g.unknowns, g.linear) == (
        0, ((0, 0), (1, 0), (2, 2)), ((0, 2), (1, 2), (2, 0)), True)
    print("PASS: criterion 1 (pendulum invariants and solution scheme)")


def test_criterion_2_brenan():
    s = load("brenan")
    sig, off, J = analyze(s)
    rep = classify_jacobian(J, Prober())
    assert rep.klass is JacobianClass.IDENTICALLY_SINGULAR
    assert rep.klass is not JacobianClass.STRUCTURALLY_SINGULAR

    r = fix_dae(s, method="lc", vector=vec(s, "-1", "1"), pivot=0)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (1, 0)
    assert r.system.equations[0].expr == pe("y + h1(t) - h2'(t)", r.system)
    det, _ = final_det(r)
    assert det == Const(-1)

    r2 = fix_dae(s, method="es", vector=vec(s, "t", "-1"), pivot=1)
    assert r2.status is FixStatus.SUCCESS
    assert (r2.initial_value, r2.final_value) == (1, 0)
    rec = r2.steps[0].application.renamed[0]
    assert rec.definition == pe("x + t*y", s)
    assert r2.system.equations[2].expr == pe("x + t*y - x3", r2.system)
    print("PASS: criterion 2 (identically singular, both rewrites to 0)")


def test_criterion_3_four_equation_chain():
    s = load("lc_example")
    sig, off, J = analyze(s)
    assert (off.c, off.d) == ((0, 0, 1, 0), (1, 1, 0, 0))

    forced = fix_dae(s, method="lc",
                     vector=vec(s, "x2", "x1", "1", "-1"), pivot=3)
    assert forced.status is FixStatus.SUCCESS
    assert (forced.initial_value, forced.final_value) == (1, 0)
    fs = forced.system
    assert fs.equations[3].expr == pe("-x1 - x2 + g1'(t) - g2(t)", fs)
    fdet, _ = final_det(forced)
    # this combination verifiably gives x1 - x2; the mirrored sign
    # x2 - x1 belongs to the flipped vector the unforced driver picks
    # (null vectors are determined only up to scaling)
    assert fdet == pe("x1 - x2", fs)

    unforced = fix_dae(s)
    udet, _ = final_det(unforced)
    assert udet == pe("x2 - x1", s)
    print("PASS: criterion 3 (offsets, forced replacement, determinant"
          " up to vector scaling)")


def test_criterion_4_substitution_system():
    s = load("es_example")
    sig, off, J = analyze(s)
    prober = Prober()

    u = vec(s, "exp(x1' + x2*x2'')", "1")
    assert not lc_analyze(off, checks.sparse_vector(u), prober).condition_ok
    with pytest.raises(ConditionRejected):
        fix_dae(s, method="lc", vector=u)

    r = fix_dae(s, method="es", vector=vec(s, "x2", "-1"), pivot=1)
    assert r.status is FixStatus.SUCCESS
    assert (r.initial_value, r.final_value) == (2, 1)
    assert r.system.n == 3
    det, _ = final_det(r)
    target = pe("2*exp(x2'^2 - x3')*(x2 + x2') - x2", r.system)
    assert prober.verdict(simplify(det - target)).proven_zero
    print("PASS: criterion 4 (combination rejected, substitution system"
          " and determinant)")


def test_criterion_5_linear_constant_coefficients():
    r = fix_dae(load("scholz"))
    assert r.status is FixStatus.SUCCESS
    assert [st.kind for st in r.steps] == [MethodKind.LC, MethodKind.LC]
    assert [(st.value_before, st.value_after) for st in r.steps] == \
        [(2, 1), (1, 0)]
    det, _ = final_det(r)
    assert det in (Const(1), Const(-1))
    print("PASS: criterion 5 (two combination steps, |det| = 1)")


def test_criterion_6_modified_pendulum():
    s = load("pendulum_mod")
    sig, off, J = analyze(s)
    prober = Prober()

    # method table: no constant row in the cokernel analysis, a constant
    # column in the kernel analysis, so the driver must substitute
    lc = lc_analyze(off, cokernel_vector(J, prober), prober)
    es = es_analyze(s, sig, off, kernel_vector(J, prober), prober)
    assert lc.const_rows == ()
    assert es.const_cols != ()
    assert choose_method(lc, es, prober) == (MethodKind.ES, 0)
    unforced = fix_dae(s)
    assert unforced.steps[0].kind is MethodKind.ES

    r = fix_dae(s, method="es", vector=vec(s, "1", "-1", "1"), pivot=0)
    assert r.status is FixStatus.SUCCESS
    assert r.system.n == 5
    det, _ = final_det(r)
    excess = simplify(det + pe("4*(2*x4^2 + 2*x4*x5 + x5^2)", r.system))
    assert prober.verdict(excess).proven_zero

    # on the rewritten length constraint the determinant is -4*L^2 = -4
    rng = random.Random("circle")
    for _ in range(5):
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        x4 = (1 - t * t) / (1 + t * t)
        w = 2 * t / (1 + t * t)
        b = {StateDeriv(3, 0): x4, StateDeriv(4, 0): w - x4}
        assert evaluate(det, b) == Fraction(-4)
    print("PASS: criterion 6 (substitution chosen, five-equation system,"
          " determinant on the constraint)")


def test_criterion_7_property_suites():
    # (a) derivative-shift identity on 200 applicable random expressions
    rng = random.Random("acceptance-a")
    checked = 0
    while checked < 200:
        held = checks.derivative_shift_holds(rng)
        if held is None:
            continue
        assert held
        checked += 1

    # (b) canonical offsets are elementwise minimal: every valid pair in a
    # box around the canonical one dominates it
    rng = random.Random("acceptance-b")
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        rows = [[(rng.randint(0, 2) if rng.random() < 0.75 else NEG_INF)
                 for _ in range(n)] for _ in range(n)]
        sig = sigma_from_rows(checks.sparse(rows))
        if not sig.swp:
            continue
        off = canonical_offsets(sig)
        assert validate_offsets(sig, off.c, off.d)
        for c in itertools.product(*(range(0, ci + 3) for ci in off.c)):
            d = tuple(max(rows[i][j] + c[i] for i in range(n)
                          if rows[i][j] != NEG_INF) for j in range(n))
            if validate_offsets(sig, c, d):
                assert all(a <= b for a, b in zip(off.c, c))
                assert all(a <= b for a, b in zip(off.d, d))
        checked += 1

    # (c) every rewrite strictly lowers the signature value, on 50 random
    # identically singular linear systems, and (e) each combination step
    # satisfies the recovery identity and its equivalence probes
    rng = random.Random("acceptance-c")
    for k in range(50):
        s = checks.singular_linear_system(rng, "acc%d" % k)
        r = fix_dae(s)
        assert r.status is FixStatus.SUCCESS
        assert not r.uncertain
        values = [r.initial_value] + [st.value_after for st in r.steps]
        assert all(a > b for a, b in zip(values, values[1:]))
        before = s
        for st in r.steps:
            assert st.kind is MethodKind.LC
            checks.assert_lc_recovery(before, st.application)
            assert lc_equivalence_probes(before, st.application,
                                         Prober()) > 0
            before = st.system

    # (d) block structure of every substitution application, plus (e)
    # residual probes for the substituted systems
    golden = []
    s1 = load("es_example")
    golden.append((s1, fix_dae(s1).steps[0].application))
    s2 = load("brenan")
    golden.append((s2, fix_dae(s2, method="es", vector=vec(s2, "t", "-1"),
                               pivot=1).steps[0].application))
    s3 = load("pendulum_mod")
    golden.append((s3, fix_dae(s3, method="es",
                               vector=vec(s3, "1", "-1", "1"),
                               pivot=0).steps[0].application))
    for before, app in golden:
        checks.assert_es_block_structure(before, app)
        assert es_equivalence_probes(before, app, Prober()) > 0

    print("PASS: criterion 7 (property suites a-e)")


def test_criterion_8_negative_controls(tmp_path, capsys):
    sip = tmp_path / "sip.dae"
    sip.write_text("dae sip\n"
                   "vars x1, x2\n"
                   "eq f1: x1' + x1 = 0\n"
                   "eq f2: x1 - 1 = 0\n")
    assert cli_main(["analyze", str(sip)]) == 3

    hidden = tmp_path / "hidden.dae"
    hidden.write_text("dae hidden\n"
                      "vars x1, x2\n"
                      "input b1\n"
                      "eq f1: x1' + x2 = 0\n"
                      "eq f2: x1' + x2 + b1(t) = 0\n")
    r = fix_dae(parse_dae(hidden.read_text()))
    assert r.status is FixStatus.ILL_POSED
    assert r.final_value == NEG_INF
    assert cli_main(["fix", str(hidden)]) == 3
    capsys.readouterr()
    print("PASS: criterion 8 (ill-posed input exits 3, conversion exposing"
          " ill-posedness reported as such)")
