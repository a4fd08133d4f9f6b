import collections
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

import checks
from checks import con, evaluate, parse_expr
from daefix import expr as expr_module
from daefix.dsl import parse_dae
from daefix.structural import signature_matrix
from daefix.expr import (
    FUNCS, NEG_INF, ZERO, Add, Const, DomainError, DrivingFn, Func,
    MissingBinding, Mul, Param, Pow, StateDeriv, TimeVar, _key,
    _mono_from_exps, _p_mul, _p_pow, _poly, _trig_reduce, atoms, derivative,
    evaluate_ex, format_expr, highest_orders, partial, simplify,
    subst_atoms, total_derivative, walk,
)

x = StateDeriv(0)
y = StateDeriv(1)
xd = StateDeriv(0, 1)
xdd = StateDeriv(0, 2)
yd = StateDeriv(1, 1)
t = TimeVar()
g = Param("g")
h = DrivingFn("h")


def test_const_coercion():
    assert Const(3).value == Fraction(3)
    assert con(Fraction(1, 2)).value == Fraction(1, 2)


def test_simplify_identity_and_zero():
    assert simplify(x + 0) == x
    assert simplify(x * 1) == x
    assert simplify(x - x) == Const(0)
    assert simplify(x * 0) == Const(0)
    assert simplify(-(-x)) == x


def test_simplify_collects_terms():
    e = x + x + y - 3 * x
    s = simplify(e)
    assert s == simplify(y - x)


def test_simplify_distributes():
    s = simplify((x + y) * (x - y))
    assert s == simplify(x * x - y * y)
    sq = simplify((x + y) ** 2)
    assert sq == simplify(x ** 2 + 2 * x * y + y ** 2)


def test_simplify_cancels_inverse_factor():
    assert simplify(x * Pow(x, -1)) == Const(1)
    assert simplify(y * x * Pow(x, -1)) == y


def test_simplify_constant_fold():
    assert simplify(con(2) * con(3) + con(1)) == Const(7)
    assert simplify(Pow(con(Fraction(2, 3)), -2)) == Const(Fraction(9, 4))
    assert simplify(Func("sin", Const(0))) == Const(0)
    assert simplify(Func("cos", Const(0))) == Const(1)
    assert simplify(Func("exp", Const(0))) == Const(1)
    assert simplify(Func("ln", Const(1))) == Const(0)
    assert simplify(Func("sqrt", con(Fraction(4, 9)))) == Const(Fraction(2, 3))
    # non-square rationals stay symbolic
    s = simplify(Func("sqrt", con(2)))
    assert isinstance(s, Func)


def test_simplify_exp_power_rules():
    a = xd + y
    assert simplify(Pow(Func("exp", a), 2)) == simplify(Func("exp", 2 * xd + 2 * y))
    assert simplify(Pow(Func("exp", a), -1)) == simplify(Func("exp", -xd - y))
    assert simplify(Func("exp", x) * Func("exp", x)) == simplify(Func("exp", 2 * x))


def test_simplify_sqrt_power():
    assert simplify(Pow(Func("sqrt", x + y), 2)) == simplify(x + y)
    assert simplify(Pow(Func("sqrt", x), 3)) == simplify(x * Func("sqrt", x))


def test_simplify_trig_identity():
    s = simplify(Pow(Func("sin", t), 2) + Pow(Func("cos", t), 2))
    assert s == Const(1)
    e = y * Pow(Func("sin", x), 2) + y * Pow(Func("cos", x), 2)
    assert simplify(e) == y
    # higher powers: sin^4 + sin^2 cos^2 = sin^2
    sn, cs = Func("sin", x), Func("cos", x)
    e2 = Pow(sn, 4) + Pow(sn, 2) * Pow(cs, 2)
    assert simplify(e2) == simplify(Pow(sn, 2))


def test_simplify_cancellation_inside_function_arg():
    # the argument itself is normalized, so opposite terms vanish
    e = Func("exp", x * xd - x * xd + y)
    assert simplify(e) == Func("exp", y)


def test_simplify_idempotent():
    rng = random.Random(7)
    pool = [x, y, xd, yd, t, g, h, con(2), con(Fraction(1, 2))]

    def rand_expr(depth):
        if depth == 0:
            return pool[rng.randrange(len(pool))]
        k = rng.randrange(5)
        if k == 0:
            return Add(tuple(rand_expr(depth - 1) for _ in range(2)))
        if k == 1:
            return Mul(tuple(rand_expr(depth - 1) for _ in range(2)))
        if k == 2:
            return -rand_expr(depth - 1)
        if k == 3:
            return Pow(rand_expr(depth - 1), rng.choice([0, 1, 2, 3, -1]))
        return Func(rng.choice(["sin", "cos", "exp"]), rand_expr(depth - 1))

    for _ in range(120):
        e = rand_expr(3)
        try:
            s = simplify(e)
        except DomainError:
            continue
        assert simplify(s) == s


def test_hod_true_vs_formal():
    e = xd + y - xd  # x' cancels
    assert highest_orders(e) == {0: 1, 1: 0}
    assert highest_orders(simplify(e)) == {1: 0}
    assert highest_orders(simplify(x * yd ** 2 + xdd)) == {0: 2, 1: 1}
    assert highest_orders(simplify(con(5))) == {}


def test_highest_orders_is_hod_in_every_column():
    rng = random.Random(19)
    for _ in range(300):
        trees = [checks.rand_expr(rng)]
        try:
            trees.append(simplify(trees[0]))
        except DomainError:
            pass
        for tree in trees:
            got = highest_orders(tree)
            assert got == checks.walk_orders(tree)
            assert list(got) == sorted(got)


def test_total_derivative_basics():
    assert simplify(total_derivative(con(4))) == Const(0)
    assert simplify(total_derivative(g)) == Const(0)
    assert simplify(total_derivative(t)) == Const(1)
    assert simplify(total_derivative(x)) == xd
    assert simplify(total_derivative(x, 2)) == xdd
    assert simplify(total_derivative(h)) == DrivingFn("h", 1)


def test_total_derivative_product_and_power():
    e = x ** 2 + y ** 2
    assert simplify(total_derivative(e)) == simplify(2 * x * xd + 2 * y * yd)
    e2 = x * y
    assert simplify(total_derivative(e2)) == simplify(xd * y + x * yd)


def test_total_derivative_functions():
    u = x + y
    du = xd + yd
    assert simplify(total_derivative(Func("exp", u))) == simplify(Func("exp", u) * du)
    assert simplify(total_derivative(Func("sin", x))) == simplify(Func("cos", x) * xd)
    assert simplify(total_derivative(Func("cos", x))) == simplify(-Func("sin", x) * xd)
    dln = simplify(total_derivative(Func("ln", x)))
    assert dln == simplify(xd * Pow(x, -1))
    dsq = simplify(total_derivative(Func("sqrt", x)))
    assert dsq == simplify(con(Fraction(1, 2)) * xd * Pow(Func("sqrt", x), -1))


def test_partial():
    f = xdd + x * g
    assert simplify(partial(f, xdd)) == Const(1)
    assert simplify(partial(f, x)) == g
    assert simplify(partial(f, y)) == Const(0)
    f2 = Func("exp", -xd - y * xdd)
    assert simplify(partial(f2, xd)) == simplify(-f2)
    assert simplify(partial(f2, xdd)) == simplify(-y * f2)
    # independent atoms: x and x' do not interact
    assert simplify(partial(x * xd, x)) == xd


def _random_tree(rng, depth):
    leaves = (t, x, xd, y, h, g, con(Fraction(2, 3)))
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice(("neg", "add", "mul", "pow", "func"))
    if kind == "neg":
        return -_random_tree(rng, depth - 1)
    if kind == "pow":
        return Pow(_random_tree(rng, depth - 1), rng.choice((-2, -1, 2, 3)))
    if kind == "func":
        return Func(rng.choice(FUNCS), _random_tree(rng, depth - 1))
    node = Add if kind == "add" else Mul
    return node(tuple(_random_tree(rng, depth - 1)
                      for _ in range(rng.randint(2, 3))))


def _atom_rate(a):
    # d/dt of one atom, written out independently of the library's rules
    if isinstance(a, StateDeriv):
        return StateDeriv(a.index, a.order + 1)
    if isinstance(a, DrivingFn):
        return DrivingFn(a.name, a.order + 1)
    return con(1) if isinstance(a, TimeVar) else con(0)


def test_total_derivative_is_chain_rule_over_partials():
    # d/dt e = sum over atoms a of (de/da) * (d/dt a)
    rng = random.Random("chain-rule")
    seen = set()
    for _ in range(200):
        e = _random_tree(rng, 3)
        seen |= {n.name if isinstance(n, Func) else "negative power"
                 for n in walk(e)
                 if isinstance(n, Func) or (isinstance(n, Pow)
                                            and n.exponent < 0)}
        chain = Add(tuple(Mul((partial(e, a), _atom_rate(a)))
                          for a in atoms(e)))
        try:
            diff = simplify(total_derivative(e) - chain)
        except DomainError:  # a constant argument outside ln or sqrt
            continue
        assert diff == Const(0), format_expr(e, ["x", "y"])
    assert seen == set(FUNCS) | {"negative power"}


def test_subst_atoms_is_simultaneous():
    e = x + xd
    out = subst_atoms(e, {x: xd, xd: x})
    assert simplify(out) == simplify(x + xd)
    # replacements are not re-visited
    out2 = subst_atoms(x, {x: x + y})
    assert simplify(out2) == simplify(x + y)


def test_evaluate_exact():
    e = x ** 2 + 2 * y - g
    v = evaluate(e, {x: Fraction(3), y: Fraction(1, 2), g: Fraction(1)})
    assert v == Fraction(9)
    v2, exact = evaluate_ex(con(3) * t, {t: Fraction(2)})
    assert v2 == 6 and exact


def test_evaluate_missing_binding():
    with pytest.raises(MissingBinding):
        evaluate(x + y, {x: Fraction(1)})


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(Func("ln", x), {x: Fraction(0)})
    with pytest.raises(DomainError):
        evaluate(Func("sqrt", x), {x: Fraction(-1)})
    with pytest.raises(DomainError):
        evaluate(Pow(x, -1), {x: Fraction(0)})


@pytest.mark.parametrize("name", FUNCS)
def test_exact_values_agree_with_constant_folding(name):
    # evaluation and the normal form read one table of exact values
    for v in (0, 1, -1, 4, Fraction(9, 4), 2, -4, Fraction(1, 3)):
        e = Func(name, con(v))
        try:
            value, exact = evaluate_ex(e, {})
        except DomainError:
            with pytest.raises(DomainError):
                simplify(e)
            continue
        s = simplify(e)
        assert isinstance(s, Const) == exact, (name, v)
        if exact:
            assert s.value == value


def test_evaluate_transcendental_inexact_but_close():
    v, exact = evaluate_ex(Func("sin", x), {x: Fraction(1, 3)})
    assert not exact
    assert abs(v - Fraction("0.327194696796152")) < Fraction(1, 10 ** 12)
    # exact special cases stay exact
    v2, exact2 = evaluate_ex(Func("sqrt", x), {x: Fraction(9, 4)})
    assert v2 == Fraction(3, 2) and exact2
    v3, exact3 = evaluate_ex(Func("exp", x - x), {x: Fraction(7)})
    assert v3 == 1 and exact3


def test_evaluate_pythagorean_probe():
    e = Pow(Func("sin", t), 2) + Pow(Func("cos", t), 2)
    v, exact = evaluate_ex(e, {t: Fraction(5, 7)})
    assert not exact
    assert abs(v - 1) < Fraction(1, 10 ** 50)


def test_atoms():
    e = x * g + Func("sin", h + t)
    assert atoms(e) == {x, g, h, t}


def test_format_expr_basic():
    assert format_expr(x, ["x"]) == "x"
    assert format_expr(xd, ["x"]) == "x'"
    assert format_expr(xdd, ["x"]) == "x''"
    assert format_expr(StateDeriv(0, 4), ["x"]) == "diff(x,4)"
    assert format_expr(h) == "h(t)"
    assert format_expr(DrivingFn("h", 2)) == "h''(t)"
    assert format_expr(DrivingFn("h", 5)) == "diff(h(t),5)"
    assert format_expr(t) == "t"
    assert format_expr(g) == "g"


def test_format_expr_structure():
    e = simplify(xdd + x * g)
    s = format_expr(e, ["x"])
    assert s in ("x*g + x''", "x'' + x*g", "g*x + x''")
    e2 = simplify((x + y) ** 2 - 2)
    s2 = format_expr(e2, ["x", "y"])
    assert "^2" in s2 and " - 2" in s2
    s3 = format_expr(simplify(-x - y), ["x", "y"])
    assert s3 == "-x - y"
    s4 = format_expr(simplify(Pow(x, -1)), ["x"])
    assert s4 == "x^-1"


def test_format_negative_coefficient_inside_product():
    s = format_expr(simplify(-2 * x * y), ["x", "y"])
    assert s == "-2*x*y"


def test_minus_is_the_product_with_minus_one():
    # no negation node: -e is (-1)*e, and printing keeps its text
    assert not hasattr(expr_module, "Neg")
    minus_one = expr_module.MINUS_ONE
    assert minus_one is Const(-1)
    for e in (x, x * y, x + y, Const(3), Func("exp", x), -x):
        assert -e is Mul((minus_one, e))
    assert x - y is Add((x, -y)) and 1 - x is Add((con(1), -x))
    z = StateDeriv(2, 1)
    texts = [(-(x * y), "-(x*y)"), (x - y * z, "x - y*z'"),
             ((-x) * y, "(-x)*y"), (-con(3), "-3"), (-(x + y), "-(x + y)"),
             (Pow(-x, 2), "(-x)^2"), (-Pow(x, 2), "-x^2"), (-(-x), "-(-x)"),
             (Func("sin", -x), "sin(-x)"), (-Func("exp", x), "-exp(x)"),
             (-con(Fraction(1, 2)), "-1/2"), (-x + y, "-x + y"),
             (x * (-y), "x*(-y)")]
    for e, text in texts:
        assert format_expr(e, ["x", "y", "z"]) == text
    # any other product with a negative coefficient prints its body as a
    # product
    assert format_expr(Mul((Const(-2), x, y)), ["x", "y"]) == "-2*x*y"
    assert format_expr(Mul((Const(-1), x, y)), ["x", "y"]) == "-x*y"
    assert format_expr(x - Mul((Const(-1), x, y)), ["x", "y"]) == "x - (-x*y)"
    # the derivative rules hold through the product
    assert simplify(total_derivative(-Func("cos", x))) \
        is simplify(Func("sin", x) * xd)
    assert partial(-(x * y), y) is not ZERO
    assert simplify(partial(-(x * y), y)) is simplify(-x)
    assert evaluate(-(x - y), {x: Fraction(1, 3), y: 2}) == Fraction(5, 3)
    assert subst_atoms(-x, {x: y}) is -y


def test_minus_of_a_sum_past_the_term_cap_stays_expanded():
    # a product with a one-term side is not capped, so -S and 2*S are
    # expanded sums however many terms S has, and S - S cancels
    xs = [StateDeriv(j) for j in range(80)]
    s = simplify(Add(tuple(a * b for k, a in enumerate(xs) for b in xs[k:])))
    assert len(s.children) == 3240 > expr_module._TERM_CAP
    assert simplify(s - s) is ZERO
    assert simplify(-s) is simplify(Add(tuple(-e for e in s.children)))
    assert simplify(2 * s - s - s) is ZERO
    assert simplify(xs[0] * s - s * xs[0]) is ZERO
    assert len(simplify(xs[0] * s).children) == 3240
    # a product of two sums past the cap is still kept as opaque factors
    kept = simplify(s * (xs[0] + 1))
    assert isinstance(kept, Mul)
    assert set(kept.children) == {s, simplify(xs[0] + 1)}


# ---------------------------------------------------------------------------
# per-node caches and the monomial shortcuts


def _repeated_mul(p, n):
    # the loop _p_pow must equal: p, then n-1 products with p
    out = dict(p)
    for _ in range(n - 1):
        out = _p_mul(out, p)
    return out


def _random_monomial(rng, pool):
    # a normal-form monomial: at most one exp factor, at exponent 1
    factors = rng.sample(pool, rng.randint(0, 4))
    exps = [f for f in factors if isinstance(f, Func) and f.name == "exp"]
    factors = [f for f in factors if f not in exps[1:]]
    m = tuple(sorted(((f, 1 if isinstance(f, Func) and f.name in ("exp", "sqrt")
                       else rng.choice((-3, -2, -1, 1, 2, 3)))
                      for f in factors), key=lambda fk: _key(fk[0])))
    c = Fraction(rng.choice((-7, -2, -1, 1, 3, 5)), rng.choice((1, 2, 9)))
    return {m: c}


def test_monomial_power_equals_repeated_products():
    rng = random.Random("monomial-power")
    collapsed = (simplify(x + y + 1), simplify(xd - g * t))
    trig = (Func("sin", x), Func("cos", x + y), Func("ln", t))
    pool = [x, xd, y, t, g, h, *collapsed, *trig]
    for _ in range(300):
        p = _random_monomial(rng, pool)
        n = rng.randint(1, 7)
        assert _p_pow(p, n) == _repeated_mul(p, n)


def test_exp_and_sqrt_monomial_powers_keep_their_rewrites():
    rng = random.Random("monomial-power-rewrites")
    root_of_sum = Func("sqrt", simplify(x + g))
    pool = [x, y, g, Func("sin", t), simplify(x + y + 1),
            Func("exp", x), Func("exp", simplify(y - t)),
            Func("sqrt", x), root_of_sum]
    seen = inverted = 0
    for _ in range(300):
        p = _random_monomial(rng, pool)
        n = rng.randint(1, 6)
        assert _p_pow(p, n) == _repeated_mul(p, n)
        seen += any(isinstance(f, Func) and f.name in ("exp", "sqrt")
                    for m in p for f, _ in m)
        # a negative power inverts, except where sqrt(u)^2 expands the sum
        # u against its opaque reciprocal
        if all(f != root_of_sum for m in p for f, _ in m):
            assert _p_mul(_p_pow(p, n), _p_pow(p, -n)) == {(): Fraction(1)}
            inverted += 1
    assert seen > 100 and inverted > 100
    # the rewrites fire, so scaling the exponents would be wrong here
    ex = Func("exp", x)
    assert _p_pow({((ex, 1),): Fraction(1)}, 3) \
        == {((Func("exp", simplify(3 * x)), 1),): Fraction(1)}
    assert _p_pow({((Func("sqrt", x), 1),): Fraction(2)}, 4) == \
        {((x, 2),): Fraction(16)}
    # all exp factors of a monomial merge into one, whatever the order of
    # the products, and cancel exactly
    a = simplify(x * y - g)
    forms = {simplify(Func("exp", a) ** 3),
             simplify(Func("exp", a) * Func("exp", a) * Func("exp", a)),
             simplify(Func("exp", 3 * a)),
             simplify(Func("exp", 2 * a) * Func("exp", -a)
                      * Func("exp", 2 * a))}
    assert len(forms) == 1
    assert simplify(Func("exp", a) * Func("exp", -a)) == con(1)
    assert simplify(Func("exp", a) ** -2 * Func("exp", a) ** 2) == con(1)
    assert simplify(Func("exp", x) * Func("exp", y)
                    - Func("exp", x + y)) == ZERO


# ---------------------------------------------------------------------------
# powers of sums: one multinomial pass within the term cap, else kept whole


def _loop_powers(p, ns):
    # {n: _repeated_mul(p, n)} for every n in ns, from one run of the loop
    out, want = dict(p), {}
    for n in range(1, max(ns) + 1):
        if n > 1:
            out = _p_mul(out, p)
        if n in ns:
            want[n] = out
    return want


def _poly_of(*terms):
    # terms are (coefficient, ((factor, exponent), ...)) pairs
    p = {}
    for c, m in terms:
        m = tuple(sorted(m, key=lambda fk: _key(fk[0])))
        p[m] = p.get(m, 0) + Fraction(c)
    return p


def _count_products(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append((len(p), len(q)))
        return _p_mul(p, q)

    monkeypatch.setattr(expr_module, "_p_mul", counted)
    return calls


def _within_cap(p, n):
    # _p_mul's bound for the last product p^(n-1) * p
    t = len(p)
    return math.comb(n + t - 2, t - 1) * t <= expr_module._TERM_CAP


def _kept_whole(p, n):
    return {((expr_module._from_poly(p), n),): Fraction(1)}


def test_power_of_a_sum_equals_repeated_products():
    rng = random.Random("sum-power")
    # sqrt of atoms only: sqrt(u)^2 of a sum u is several terms, so the
    # loop could reach the cap below the bound, which counts monomials
    pool = [x, y, t, g, Func("sin", x), Func("cos", simplify(x + y)),
            Func("ln", t), Func("exp", x), Func("exp", simplify(y - g)),
            Func("sqrt", x), Func("sqrt", g)]
    # (u + 2g - 2g^2/u)^2 has no g^2 term: (2g)^2 cancels 2*u*(-2g^2/u)
    u = ((x, 1), (y, 1))
    cancelling = _poly_of((1, u), (2, ((g, 1),)),
                          (-2, ((x, -1), (y, -1), (g, 2))))
    assert ((g, 2),) not in _p_pow(cancelling, 2)
    merged = rewritten = above = 0
    for trial in range(50):
        p = {}
        for _ in range(rng.randint(2, 6)):
            (m, c), = _random_monomial(rng, pool[:rng.randint(4, 11)]).items()
            p[m] = c
        if trial % 3 == 0:
            p.update(cancelling)
        rewritten += any(isinstance(f, Func) and f.name in ("exp", "sqrt")
                         for m in p for f, _ in m)
        want = dict(p)
        for n in range(1, 7):
            if n > 1:
                want = _p_mul(want, p)
            got = _p_pow(p, n)
            if not _within_cap(p, n):
                assert got == _kept_whole(p, n)
                above += 1
                break
            assert got == want
            merged += n >= 2 and \
                0 < len(got) < math.comb(n + len(p) - 1, len(p) - 1)
        if len(p) > 1:
            assert _p_pow(p, -2) == _kept_whole(p, -2)
    assert merged > 5 and rewritten > 20 and above > 5


def test_power_of_a_sum_across_stretch_boundaries(monkeypatch):
    # (x+y+1)^j has comb(j+2, 2) terms: up to j = 44 the last product
    # p^(j-1) * p fits the cap, at 45 it has 1035 * 3 > 3000 terms
    p = _poly_of((1, ((x, 1),)), (1, ((y, 1),)), (1, ()))
    want = _loop_powers(p, (1, 2, 44))
    calls = _count_products(monkeypatch)
    for n in (1, 2, 44):
        assert _p_pow(p, n) == want[n]
    assert len(want[44]) == 1035
    for n in (45, 46, 60, 89, 90, 91):
        assert _p_pow(p, n) == _kept_whole(p, n)
    # one multinomial pass per power, no products
    assert calls == []

    z = StateDeriv(2)
    p4 = _poly_of((1, ((x, 1),)), (1, ((y, 1),)), (1, ((z, 1),)), (1, ()))
    want = _loop_powers(p4, (15,))
    assert _p_pow(p4, 15) == want[15] and len(want[15]) == 816
    for n in (16, 17, 18):
        assert _p_pow(p4, n) == _kept_whole(p4, n)
    assert calls == []


def test_power_of_a_sum_whose_terms_merge_finishes_with_the_loop():
    # (1+x)^j (1+y)^j has (j+1)^2 terms, far fewer than the bound: the
    # bound counts terms as if none merged, so the power is expanded up to
    # j = 15 and kept whole from 16 on, where the loop would run to 27
    p = _poly_of((1, ((x, 1),)), (1, ((x, 1), (y, 1))), (1, ((y, 1),)), (1, ()))
    want = _loop_powers(p, (2, 15))
    for n in (2, 15):
        assert _p_pow(p, n) == want[n]
        assert len(want[n]) == (n + 1) ** 2
    for n in (16, 27, 28, 45):
        assert _p_pow(p, n) == _kept_whole(p, n)


def test_power_of_a_sum_edge_cases():
    assert _p_pow({}, 1) == {} and _p_pow({}, 5) == {}
    p = _poly_of((3, ((x, 1),)), (Fraction(-1, 2), ((y, -2),)))
    assert _p_pow(p, 1) == p
    # 60 terms: the first product is already over the cap
    wide = _poly_of(*((k + 1, ((x, k), (y, 1))) for k in range(60)))
    sq = _p_pow(wide, 2)
    assert sq == _repeated_mul(wide, 2)
    assert list(sq.values()) == [1] and len(next(iter(sq))) == 1
    # more terms than the cap: the loop starts from p itself, uncollapsed
    over = _poly_of(*((1, ((x, k),)) for k in range(-1500, 1501)))
    assert _p_pow(over, 1) == over
    assert _p_pow(over, 2) == _repeated_mul(over, 2)


def test_binomial_power_matches_its_closed_form():
    # (x*y + 1)^1000 fits one stretch: 1001 terms, no collapse
    p = _poly_of((1, ((x, 1), (y, 1))), (1, ()))
    want = {((x, k), (y, k)) if k else (): Fraction(math.comb(1000, k))
            for k in range(1001)}
    assert _p_pow(p, 1000) == want


def test_partial_by_an_absent_atom_is_the_zero_constant():
    rng = random.Random("absent-atom")
    pool = (t, x, xd, xdd, y, yd, h, g, DrivingFn("h", 1))
    absent = 0
    for _ in range(300):
        e = _random_tree(rng, 4)
        for a in pool:
            if a not in atoms(e):
                absent += 1
                assert partial(e, a) is ZERO
    assert absent > 1000


def _preorder(e):
    # the recursive walk the iterative one must match
    out = [e]
    for c in (e.children if isinstance(e, (Add, Mul)) else
              (e.base,) if isinstance(e, Pow) else
              (e.arg,) if isinstance(e, Func) else ()):
        out += _preorder(c)
    return out


def test_walk_is_the_recursive_preorder():
    rng = random.Random("walk")
    for _ in range(300):
        e = _random_tree(rng, 5)
        assert [id(n) for n in walk(e)] == [id(n) for n in _preorder(e)]


def test_walk_keeps_preorder_on_a_deep_left_nested_sum():
    # the parser nests a + b + c + ... to the left
    e = x
    sums = []
    for k in range(3000):
        e = Add((e, con(k)))
        sums.append(e)
    got = list(walk(e))
    assert len(got) == 6001
    want = sums[::-1] + [x] + [s.children[1] for s in sums]
    assert all(a is b for a, b in zip(got, want))


def test_partial_of_a_sum_skips_summands_without_the_atom(monkeypatch):
    e = Add((x * y, g, Func("sin", xd), Add((h, t)), x))
    calls = []
    derive = expr_module._derive

    def counted(node, atom):
        calls.append(node)
        return derive(node, atom)

    monkeypatch.setattr(expr_module, "_derive", counted)
    d = partial(e, x)
    assert isinstance(d, Add) and len(d.children) == 2
    assert simplify(d) == simplify(y + 1)
    # the sum, its two summands with x, and the product's two factors
    assert len(calls) == 5


def test_power_of_an_inexact_base_is_rounded():
    e = Pow(Func("sin", x), 100000)
    v, exact = evaluate_ex(e, {x: Fraction(1)})
    assert not exact
    with mpmath.workdps(80):
        want = mpmath.sin(1) ** 100000
        got = mpmath.mpf(v.numerator) / v.denominator
        assert abs(got / want - 1) < mpmath.mpf(10) ** -60
    # an exact base keeps its exact power
    assert evaluate_ex(Pow(x, -3), {x: Fraction(2, 3)}) == (Fraction(27, 8),
                                                           True)
    # an inexact zero to the power 0, as the derivative of a first power
    # holds it, is 1
    zero = Func("exp", x) - Func("exp", x)
    assert evaluate_ex(Pow(zero, 0), {x: Fraction(1)}) == (1, False)
    v2, exact2 = evaluate_ex(Pow(Func("exp", x), 3), {x: Fraction(1, 2)})
    assert not exact2
    assert abs(v2 - Fraction(math.exp(1.5))) < Fraction(1, 10 ** 12)


_MP_REFERENCE = {"exp": mpmath.exp, "ln": mpmath.log, "sqrt": mpmath.sqrt}


def _mpf(v):
    return mpmath.mpf(v.numerator) / v.denominator


def _assert_agrees(got, want):
    """got is want, mpmath's value at the working precision, to a relative
    1e-65; or got is DomainError and want too wide to be made exact."""
    if got is DomainError:
        assert abs(mpmath.log(abs(want), 2)) > expr_module._VALUE_BITS - 300
    else:
        assert abs(_mpf(got) / want - 1) < mpmath.mpf(10) ** -65


def _evaluate_or_error(e, b):
    try:
        value, exact = evaluate_ex(e, b)
    except DomainError:
        return DomainError
    assert not exact
    return value


@pytest.mark.parametrize("name", ["exp", "ln", "sqrt"])
def test_decimal_values_agree_with_mpmath(name):
    rng = random.Random(name)
    reference = _MP_REFERENCE[name]
    with mpmath.workdps(100):
        # probe-like rationals, as zerotest draws them
        for _ in range(200):
            v = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            if name != "exp":
                v = abs(v)
            if v and expr_module._exact_func(
                    name, v.numerator, v.denominator) is None:
                _assert_agrees(_evaluate_or_error(Func(name, x), {x: v}),
                               reference(_mpf(v)))
        # nested values: inexact arguments of about 70 digits, from
        # mpmath's sin and cos and from decimal itself
        inners = (Func("exp", x), Func("sqrt", x * x + y * y + 1),
                  Func("sin", x) ** 2 + 1,
                  Func("exp", x) * Func("sqrt", y * y + 2),
                  Func("ln", x * x + 1) + Func("cos", y) ** 2)
        for _ in range(40):
            b = {x: Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
                 y: Fraction(rng.randint(-50, 50), rng.randint(1, 50))}
            for inner in inners:
                u, exact = evaluate_ex(inner, b)
                if not exact:  # sin 0 is exact
                    _assert_agrees(_evaluate_or_error(Func(name, inner), b),
                                   reference(_mpf(u)))


def test_powers_of_inexact_values_agree_with_mpmath():
    rng = random.Random(5)
    inners = (Func("exp", x), Func("sqrt", x * x + 3), Func("sin", x),
              Func("ln", x * x + 2) - Func("cos", x))
    with mpmath.workdps(100):
        for _ in range(100):
            b = {x: Fraction(rng.randint(-50, 50), rng.randint(1, 50))}
            k = rng.choice([-1, 1]) * rng.randint(1, 30)
            for inner in inners:
                u, exact = evaluate_ex(inner, b)
                if not exact:  # sin 0 is exact
                    _assert_agrees(_evaluate_or_error(Pow(inner, k), b),
                                   _mpf(u) ** k)


def test_a_value_past_the_bit_cap_is_a_domain_error():
    # a Decimal's width is its coefficient's bits plus |exponent| * log2 10
    edge = int(expr_module._VALUE_BITS / math.log2(10))
    to_fraction = expr_module._decimal_to_fraction
    assert to_fraction(Decimal("1E-%d" % edge)) == Fraction(1, 10 ** edge)
    for past in ("1E-%d" % (edge + 1), "1E%d" % (edge + 1)):
        with pytest.raises(DomainError):
            to_fraction(Decimal(past))
    # exp of a huge argument: past the cap, or past decimal's exponent
    # range, which overflows
    for a in (10 ** 6, -10 ** 6, 10 ** 20, -10 ** 20):
        with pytest.raises(DomainError):
            evaluate(Func("exp", x), {x: Fraction(a)})
    with pytest.raises(DomainError):
        evaluate(Pow(Func("exp", x), 10 ** 6), {x: Fraction(1)})


def test_separately_built_trees_share_hash_and_key():
    for seed in range(100):
        a = -_random_tree(random.Random(seed), 4)
        b = -_random_tree(random.Random(seed), 4)
        assert a is b
        assert hash(a) == hash(b)
        assert _key(a) == _key(b)
        assert atoms(a) == atoms(b)


def test_equal_expressions_are_one_object():
    system = parse_dae("dae p\nvars x, y\neq f1: x' - y = 0\n"
                       "eq f2: y' - x = 0\n")
    a, b = (parse_expr("(x + y + 1)^44", system) for _ in "ab")
    assert a is b
    # another tree with the same normal form: that normal form is built
    # again, term by term, and interns to the same object
    c = (x + y + 1) ** 44
    assert c is not a
    assert simplify(c) is simplify(a)
    assert len(simplify(a).children) == 1035
    assert Const(1) is Const(Fraction(1)) is expr_module.ONE
    assert StateDeriv(0) is StateDeriv(0, 0)
    assert Add((x, y)) is Add((x, y)) and Add((x, y)) is not Add((y, x))


def test_nodes_keep_no_instance_dict():
    for n in (x, g, h, t, con(2), x + y, x * y, Pow(x, 2), -x,
              Func("sin", x)):
        assert not hasattr(n, "__dict__")


# each node class's fields, in order, with their defaults
_NODE_FIELDS = {
    Const: (("value", None),), TimeVar: (),
    StateDeriv: (("index", None), ("order", 0)),
    DrivingFn: (("name", None), ("order", 0)),
    Param: (("name", None),), Add: (("children", None),),
    Mul: (("children", None),), Pow: (("base", None), ("exponent", None)),
    Func: (("name", None), ("arg", None)),
}


def _reference_repr(v):
    """The repr of a node as a frozen data class prints it, written out
    from _NODE_FIELDS: Add(children=(Const(value=Fraction(-1, 1)), ...))."""
    if isinstance(v, tuple):
        return "(%s%s)" % (", ".join(map(_reference_repr, v)),
                           "," if len(v) == 1 else "")
    if type(v) in _NODE_FIELDS:
        return "%s(%s)" % (type(v).__name__, ", ".join(
            "%s=%s" % (f, _reference_repr(getattr(v, f)))
            for f, _ in _NODE_FIELDS[type(v)]))
    return repr(v)


def test_node_repr_is_the_field_by_field_form():
    # the prober seeds its draws with this repr, so it may not change
    assert repr(-x + Pow(Func("sin", t), 2) + h * g) == (
        "Add(children=(Add(children=(Mul(children=(Const(value=Fraction(-1, "
        "1)), StateDeriv(index=0, order=0))), Pow(base=Func(name='sin', "
        "arg=TimeVar()), exponent=2))), Mul(children=(DrivingFn(name='h', "
        "order=0), Param(name='g')))))")
    rng = random.Random("repr")
    seen = set()
    for _ in range(20000):
        e = _random_tree(rng, 4)
        assert repr(e) == _reference_repr(e)
        seen.update(type(n) for n in walk(e))
    assert seen == set(_NODE_FIELDS)


def test_node_classes_are_laid_out_from_their_annotations():
    for cls, fields in _NODE_FIELDS.items():
        names = tuple(f for f, _ in fields)
        assert cls.__match_args__ == cls.__slots__ == names
        assert cls._defaults == {f: d for f, d in fields if d is not None}
    assert StateDeriv(3) is StateDeriv(3, 0) is StateDeriv(index=3)
    assert DrivingFn("h", order=2) is DrivingFn("h", 2)


def test_nodes_refuse_assignment_and_deletion():
    for n in (x, g, h, t, con(2), x + y, x * y, Pow(x, 2), Func("sin", x)):
        for name in n.__match_args__ + ("_normal", "other"):
            with pytest.raises(AttributeError):
                setattr(n, name, None)
            with pytest.raises(AttributeError):
                delattr(n, name)
    assert x.index == 0 and simplify(x) is x


@pytest.mark.parametrize("build", [
    lambda: StateDeriv(),                 # missing
    lambda: StateDeriv(0, 1, 2),          # one too many
    lambda: StateDeriv(0, degree=1),      # unknown keyword
    lambda: StateDeriv(0, index=1),       # repeated
    lambda: Pow(x),
    lambda: TimeVar(x),
])
def test_node_with_bad_arguments_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def _trig_pair(rng, depth):
    # c1*sin(a)^(k+2)*R + c2*sin(a)^k*cos(a)^2*R + rest: _trig_reduce's case
    a = _random_tree(rng, depth - 2)
    r = _random_tree(rng, depth - 2)
    k = rng.randrange(3)
    c1, c2 = (con(rng.choice((1, 2, -3, Fraction(1, 2)))) for _ in "12")
    return Add((Mul((c1, Pow(Func("sin", a), k + 2), r)),
                Mul((c2, Pow(Func("sin", a), k), Pow(Func("cos", a), 2), r)),
                _random_tree(rng, depth - 2)))


def _kernel_trees():
    rng = random.Random("integer-kernel")
    for _ in range(500):
        yield checks.rand_expr(rng, 4)
    for _ in range(500):
        yield _random_tree(rng, 4)
    for _ in range(200):
        yield _trig_pair(rng, 4)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


def test_integer_kernel_matches_the_fraction_reference():
    # simplify and evaluate_ex on ints against the Fraction-only originals
    rng = random.Random("integer-kernel-points")
    seen = set()
    trees = 0
    for e in _kernel_trees():
        trees += 1
        for n in walk(e):
            if isinstance(n, Pow) and n.exponent < 0:
                seen.add(n.exponent)
            elif isinstance(n, Func):
                seen.add(n.name)
        want = _outcome(checks.reference_simplify, e)
        got = _outcome(simplify, e)
        assert got == want and repr(got) == repr(want), repr(e)
        if got is not DomainError:
            for c in _poly(e).values():
                assert type(c) in (int, Fraction), (repr(e), c)
            assert all(type(n.value) is Fraction
                       for n in walk(got) if isinstance(n, Const)), repr(e)
        ats = sorted(atoms(e), key=_key)
        for _ in range(5):
            # small values, so zero bases and domain errors come up often
            b = {a: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for a in ats}
            want = _outcome(checks.reference_evaluate_ex, e, b)
            got = _outcome(evaluate_ex, e, b)
            assert got == want, (repr(e), b)
            if got is not DomainError:
                assert type(got[0]) is Fraction
    assert trees >= 1000
    assert {-2, -1, "exp", "sqrt", "sin", "cos"} <= seen


def test_evaluate_with_int_bindings_returns_a_fraction():
    v = evaluate(x * y + 1, {x: 2, y: 3})
    assert type(v) is Fraction and v == 7
    v, exact = evaluate_ex(Pow(x, -2) * y, {x: -2, y: 3})
    assert type(v) is Fraction and v == Fraction(3, 4) and exact


def _leaf_atoms(e):
    return {n for n in walk(e) if isinstance(n, expr_module.ATOM_TYPES)}


def test_normal_forms_carry_the_atoms_a_walk_finds():
    rng = random.Random("carried-atoms")
    for _ in range(20000):
        s = _outcome(simplify, _random_tree(rng, 4))
        if s is DomainError:
            continue
        assert atoms(s) == _leaf_atoms(s), repr(s)
        for term in s.children if isinstance(s, Add) else (s,):
            assert atoms(term) == _leaf_atoms(term), repr(term)


def _coefficient_of_a_sum(v):
    # v*x as (v - 1)*x + x: the normal form builds the Const of v first
    return simplify(Const(v - 1) * x + x).children[0]


def test_a_coefficient_is_one_const_however_it_is_first_built():
    builders = (Const, lambda v: Const(Fraction(v)), _coefficient_of_a_sum)
    orders = [(a, b, c) for a in builders for b in builders for c in builders
              if len({a, b, c}) == 3]
    for i, order in enumerate(orders):
        v = 10 ** 40 + 2 * i     # interned by no earlier test
        nodes = [build(v) for build in order]
        assert nodes[0] is nodes[1] is nodes[2]
        assert type(nodes[0].value) is Fraction
        assert repr(nodes[0]) == "Const(value=Fraction(%d, 1))" % v


def test_the_terms_of_a_power_are_built_with_their_atoms():
    system = parse_dae("dae p\nvars x, y\neq f1: (x + y + 1)^40 + x' = 0\n"
                       "eq f2: x - y' = 0\n")
    power = simplify((x + y + 1) ** 40)
    assert len(power.children) == 861
    # read without atoms(), which would fill a missing set
    assert all(hasattr(term, "_atoms") for term in power.children)
    assert hasattr(power, "_atoms") and atoms(power) == {x, y}
    f1 = system.equations[0].expr
    assert hasattr(f1, "_atoms") and atoms(f1) == {x, y, xd}
    for formal in (False, True):
        sig = signature_matrix(system, formal)
        assert sig.rows == ({0: 1, 1: 0}, {0: 0, 1: 1})


def _narrow(call):
    """call, failing when handed an int, or an (int, exponent) pair, of
    1,000 bits or more."""
    def checked(*args):
        for a in args:
            m = a[0] if isinstance(a, tuple) else a
            assert not isinstance(m, int) or m.bit_length() < 1000
        return call(*args)
    return checked


class _NarrowContext:
    def __init__(self, context):
        self._context = context

    def __getattr__(self, name):
        return _narrow(getattr(self._context, name))


def test_a_huge_argument_reaches_decimal_rounded(monkeypatch):
    # converting an int of n bits to a Decimal takes time quadratic in n;
    # the rounded quotient takes a few hundred bits
    monkeypatch.setattr(expr_module, "_CONTEXT",
                        _NarrowContext(expr_module._CONTEXT))
    # (49/50)^100000 has terms of 560,000 bits; exp of it rounds to 1
    assert evaluate_ex(Func("exp", Pow(x, 100000)),
                       {x: Fraction(49, 50)}) == (1, False)
    # sin of 2^-1048600 is past the bit cap
    with pytest.raises(DomainError):
        evaluate(Func("sin", x), {x: Fraction(1, 2 ** 1048600)})
    # the quotient has digits + 1 or + 2 digits, then a sticky one
    n, d = 49 ** 100000, 50 ** 100000
    assert len(str(expr_module._rounded_quotient(n, d, 70)[0])) <= 73


def _mp_rounded(name, v):
    """name(v) by mpmath at 200 digits more than v's integer part has,
    rounded half to even to 70 significant digits."""
    with mpmath.workdps(200 + len(str(abs(v.numerator) // v.denominator))):
        sign, man, exp, _ = getattr(mpmath, name)(
            mpmath.mpf(v.numerator) / v.denominator)._mpf_
    return _round_half_even((-1) ** sign * man * Fraction(2) ** exp, 10, 70)


def test_sin_and_cos_of_wide_arguments_keep_their_values():
    # sin and cos of n/d itself, correctly rounded to 70 digits
    cases = (
        ("sin", Fraction(3 ** 200 + 1, 7 ** 150), "4.56609498760838307173"
         "1726146343671833712347472288208587763766410292709E-32"),
        ("sin", Fraction(2 ** 170 + 1, 3 ** 160 + 1), "6.8501251771135413"
         "09761973735865221322249419776848721237795213578991738E-26"),
        ("cos", Fraction(4 ** 170 + 1, 3 ** 160 + 1), "0.7978769169936801"
         "403705616552962598443709181739363808746789254446129023"),
    )
    for name, v, digits in cases:
        want = Fraction(Decimal(digits))
        assert _mp_rounded(name, v) == want
        assert evaluate(Func(name, x), {x: v}) == want


def _trig_arguments(rng, count):
    """count nonzero arguments, of five kinds in turn: probe-like p/q,
    rationals of up to 400 bits over 400, multiples of 355/113, 1/k with
    k of up to 3,000 bits, and 300-bit cuts of k*pi/2."""
    kinds = (
        lambda: Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50)),
        lambda: Fraction(rng.choice((1, -1)) * rng.getrandbits(
            rng.randint(1, 400)) or 1, rng.getrandbits(rng.randint(1, 400))
            or 1),
        lambda: 355 * Fraction(rng.randint(1, 10 ** 6), 113),
        lambda: Fraction(rng.choice((1, -1)),
                         rng.getrandbits(rng.randint(1, 3000)) or 1),
        lambda: Fraction(int(mpmath.floor(mpmath.pi * rng.randint(1, 1000)
                                          * 2 ** 299)), 2 ** 300),
    )
    with mpmath.workdps(200):
        return [kinds[i % 5]() for i in range(count)]


def test_sin_and_cos_are_correctly_rounded():
    """On 5,000 arguments of five kinds, each sin and cos is the value
    rounded half to even to 70 digits."""
    for v in _trig_arguments(random.Random("trig"), 5000):
        for name in ("sin", "cos"):
            assert evaluate(Func(name, x), {x: v}) == _mp_rounded(name, v), \
                (name, v)


def test_sin_and_cos_past_their_bounds_are_domain_errors():
    bits = expr_module._TRIG_BITS
    for name in ("sin", "cos"):
        # an integer part of more than _TRIG_BITS bits, and no more
        with pytest.raises(DomainError):
            evaluate(Func(name, x), {x: Fraction(2 ** bits * 3 + 1, 3)})
        with pytest.raises(DomainError):
            evaluate(Func(name, x), {x: Fraction(-2 ** (bits + 40), 7)})
        assert abs(evaluate(Func(name, x), {x: Fraction(2 ** bits - 1)})) \
            <= 1
    # sin of |x| below 2**-_VALUE_BITS, before any arithmetic, and cos of
    # it, which rounds to 1
    tiny = Fraction(-1, 2 ** expr_module._VALUE_BITS + 1)
    with pytest.raises(DomainError):
        evaluate(Func("sin", x), {x: tiny})
    assert evaluate(Func("cos", x), {x: tiny}) == 1


def _round_half_even(v, radix, digits):
    """v rounded to `digits` significant digits in radix, half to even,
    in Fraction arithmetic."""
    if v == 0:
        return v
    a = abs(v)
    e = math.floor(math.log(a.numerator, radix)
                   - math.log(a.denominator, radix)) - digits + 1
    while a / Fraction(radix) ** e >= radix ** digits:
        e += 1
    while a / Fraction(radix) ** e < radix ** (digits - 1):
        e -= 1
    return round(v / Fraction(radix) ** e) * Fraction(radix) ** e


def test_rounded_quotient_rounds_to_the_correctly_rounded_quotient():
    rounded_quotient = expr_module._rounded_quotient
    context = expr_module._CONTEXT
    rng = random.Random("quotient")
    for _ in range(1500):
        n = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 600))
        d = rng.getrandbits(rng.randint(1, 600)) or 1
        for digits in (70, 3):
            # and a tie, m + 1/2 at the scale of n/d, which goes to even
            m = rng.randrange(10 ** (digits - 1), 10 ** digits)
            for a, b in ((n, d), ((2 * m + 1) * d, 2 * d)):
                got, e = rounded_quotient(a, b, digits)
                assert (_round_half_even(got * Fraction(10) ** e, 10,
                                         digits)
                        == _round_half_even(Fraction(a, b), 10, digits))
        # what decimal's own division gives
        assert context.scaleb(*rounded_quotient(n, d, 70)) \
            == context.divide(n, d)


def _term_kind(term, atom):
    """How term holds atom: "power" when only as a factor atom^k, else the
    name of each function factor, or "sum" for a kept-whole sum, that
    holds it."""
    fs = term.children if isinstance(term, Mul) else (term,)
    kinds = {"sum" if isinstance(b, Add) else b.name
             for b in (f.base if isinstance(f, Pow) else f for f in fs)
             if isinstance(b, (Add, Func)) and atom in atoms(b)}
    return kinds or {"power"}


def test_derivative_is_the_normal_form_of_the_partial():
    """On 20,000 random normal forms and each of their atoms, derivative
    gives the very node simplify(partial(nf, a)) gives, with and without
    the summands that hold the atom passed in, through the power rule on
    monomials and through the fallback alike."""
    rng = random.Random("derivative")
    seen = collections.Counter()
    for _ in range(20000):
        try:
            nf = simplify(_random_tree(rng, 3))
        except DomainError:
            continue
        terms = nf.children if isinstance(nf, Add) else (nf,)
        for a in sorted(atoms(nf), key=_key):
            holders = [u for u in terms if a in atoms(u)]
            want = simplify(partial(nf, a))
            assert derivative(nf, a) is want, (format_expr(nf), a)
            assert derivative(nf, a, holders) is want
            assert simplify(want) is want
            for u in holders:
                seen.update(_term_kind(u, a))
                fs = u.children if isinstance(u, Mul) else (u,)
                seen["negative exponent"] += any(
                    isinstance(f, Pow) and f.base is a and f.exponent < 0
                    for f in fs)
                seen["rational coefficient"] += (
                    isinstance(fs[0], Const) and fs[0].value.denominator > 1)
    assert min(seen[k] for k in ("power", "sin", "cos", "exp", "sqrt", "ln",
                                 "sum", "negative exponent",
                                 "rational coefficient")) > 100, seen


def _general_product(children):
    # the product path every other Mul takes, from the unit
    out = {(): 1}
    for ch in children:
        out = _p_mul(out, _poly(ch))
    return out


def test_a_product_of_atoms_is_one_monomial():
    """A Mul of constants, atoms and powers of atoms has the polynomial of
    the general product path: zero and negative exponents, repeated atoms
    and a zero constant included."""
    rng = random.Random("atom-product")
    leaves = (x, y, xd, t, g, h)
    fast = 0
    for _ in range(3000):
        children = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.2:
                children.append(con(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 3))))
            elif r < 0.6:
                children.append(rng.choice(leaves))
            else:
                children.append(Pow(rng.choice(leaves),
                                    rng.choice((-3, -1, 0, 2, 5))))
        e = Mul(tuple(children))
        got = _poly(e)
        assert got == _general_product(children), format_expr(e)
        assert all(c for c in got.values())
        fast += 1
    assert fast == 3000
    assert _poly(Mul((x, con(0), Pow(y, -2)))) == {}
    assert _poly(Mul((x, Pow(x, -1)))) == {(): 1}
    assert _poly(Mul(())) == {(): 1}


def test_a_product_starts_from_its_first_child():
    """Any other Mul starts from its first child's polynomial, not the
    unit: it gets what the unit start gives, with one product fewer."""
    rng = random.Random("first-child")
    for _ in range(500):
        children = tuple(_random_tree(rng, 2)
                         for _ in range(rng.randint(1, 3)))
        try:
            want = _general_product(children)
        except DomainError:
            continue
        assert _poly(Mul(children)) == want
    calls = []
    mul = expr_module.poly.mul

    def counted(p, q, rules):
        calls.append(p)
        return mul(p, q, rules)

    # sums and functions without exp or sqrt: no product but the Mul's own
    pool = (x + y, Func("sin", x + t), Func("ln", y), g - h, Func("cos", y))
    for k in range(1, 6):
        children = tuple(rng.choice(pool) for _ in range(k))
        want = _general_product(children)
        calls.clear()
        expr_module.poly.mul = counted
        try:
            got = _poly(Mul(children))
        finally:
            expr_module.poly.mul = mul
        assert got == want
        assert len(calls) == k - 1


def _random_exps(rng):
    # factors with exp and sqrt rewrites among them, at any exponent
    args = (x, y, x + y, x * y, -x, con(4) * y ** 2)
    exps = {}
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.35:
            f = Func("exp", simplify(rng.choice(args)))
        elif r < 0.7:
            f = Func("sqrt", simplify(rng.choice(args)))
        else:
            f = rng.choice((x, y, t, Func("sin", x)))
        exps[f] = exps.get(f, 0) + rng.randint(-3, 4)
    return exps


def test_mono_from_exps_is_idempotent_on_its_output():
    """Each monomial _mono_from_exps gives comes back from it unchanged,
    so a product may start from a polynomial it already made."""
    rng = random.Random("idempotent")
    rewritten = 0
    for _ in range(3000):
        exps = _random_exps(rng)
        try:
            out = _mono_from_exps(dict(exps))
        except DomainError:
            continue
        rewritten += out != {expr_module.poly.monomial(exps, _key): 1}
        for m in out:
            assert _mono_from_exps(dict(m)) == {m: 1}, m
    assert rewritten > 500


def _trig_poly(rng):
    """A random polynomial in sin and cos of two arguments and two atoms:
    several sin^2 factors per monomial, and many monomials with their
    partner (sin^2 traded for cos^2), at a coefficient of 1 or 2 so that
    partners are as often unequal as equal."""
    fs = [Func(n, a) for a in (x, y) for n in ("sin", "cos")] + [t, g]
    p = {}
    for _ in range(rng.randint(1, 8)):
        exps = dict(zip(fs, (rng.choice((0, 1, 2, 2, 3, 4)),
                             rng.choice((0, 1, 2)),
                             rng.choice((0, 2, 2, 3)),
                             rng.choice((0, 1, 2)),
                             rng.choice((0, 1)), rng.choice((0, 1)))))
        ms = [exps]
        for s in range(0, 4, 2):
            if exps[fs[s]] >= 2 and rng.random() < 0.7:
                partner = dict(exps)
                partner[fs[s]] -= 2
                partner[fs[s + 1]] += 2
                ms.append(partner)
        for e in ms:
            expr_module.poly.add_term(p, expr_module.poly.monomial(e, _key),
                                      rng.choice((1, 1, 2, -1)))
    return p


def test_trig_reduce_visits_in_the_loops_order():
    """The heap of monomials still to visit collapses what the loop that
    restarts after each collapse does, in its order: the two agree on
    random polynomials, on expansions whose collapses make new partners,
    and on chains of them."""
    rng = random.Random("trig")
    collapsed = 0
    for _ in range(3000):
        p = _trig_poly(rng)
        got = _trig_reduce(p)
        assert got == checks._ref_trig_reduce(p)
        collapsed += got != p
    assert collapsed > 1000
    sx, cx, sy, cy = (Func(n, a) for a in (x, y) for n in ("sin", "cos"))
    for k in range(1, 6):
        # (sin^2 + cos^2)^k * t: collapses make new partners
        e = Mul((Pow(Add((Pow(sx, 2), Pow(cx, 2))), k), t))
        p = _poly(e)
        assert _trig_reduce(p) == checks._ref_trig_reduce(p)
        e = Mul((Pow(Add((Pow(sx, 2), Pow(cx, 2))), k),
                 Pow(Add((Pow(sy, 2), con(3) * Pow(cy, 2))), 2)))
        p = _poly(e)
        assert _trig_reduce(p) == checks._ref_trig_reduce(p)


def test_trig_reduce_grows_with_the_collapses_not_their_square(monkeypatch):
    """n collapsible pairs sin(x_i)^2*x_{i+1} + cos(x_i)^2*x_{i+1}: the
    loop re-sorted every monomial after each collapse, n^2 log n keys; the
    heap takes a few per collapse."""
    calls = []
    key = expr_module._mono_key

    def counted(m):
        calls.append(m)
        return key(m)

    monkeypatch.setattr(expr_module, "_mono_key", counted)
    counts = []
    for n, first in ((100, 1000), (400, 2000)):
        terms = []
        for i in range(first, first + n):
            a, b = StateDeriv(i), StateDeriv(i + 1)
            terms += [Mul((Pow(Func(f, a), 2), b)) for f in ("sin", "cos")]
        calls.clear()
        assert simplify(Add(tuple(terms))) is simplify(Add(tuple(
            StateDeriv(i + 1) for i in range(first, first + n))))
        counts.append(len(calls))
    assert counts[1] < 5 * counts[0]
