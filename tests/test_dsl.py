import random
from fractions import Fraction

import pytest

import checks
from checks import parse_expr, pendulum_chain
from daefix.convert import analyze
from daefix.dsl import (ParseError, _column, _kind, _tokens, emit_dae,
                        parse_dae, parse_vector)
from daefix.expr import (
    Add, Const, DrivingFn, Mul, Param, Pow, StateDeriv, format_expr,
    highest_orders, simplify, walk,
)
from daefix.jacobian import JacobianClass
from daefix.zerotest import Prober

PENDULUM = """\
dae pendulum
vars x, y, lambda
params G = 9.8, L = 1
eq f1: x'' + x*lambda = 0
eq f2: y'' + y*lambda - G = 0
eq f3: x^2 + y^2 - L^2 = 0
"""


def test_parse_pendulum():
    s = parse_dae(PENDULUM)
    assert s.name == "pendulum"
    assert s.var_names == ("x", "y", "lambda")
    assert s.param_values == {"G": Fraction(49, 5), "L": Fraction(1)}
    assert [e.name for e in s.equations] == ["f1", "f2", "f3"]
    f1 = s.equations[0]
    lam = StateDeriv(2)  # lambda is the third state, not a parameter
    assert simplify(f1.raw) == simplify(StateDeriv(0, 2) + StateDeriv(0) * lam)


def test_decimals_are_exact():
    s = parse_dae("dae d\nvars x\nparams a = 0.1, b = 1.23e-5\neq f1: x + a + b = 0\n")
    assert s.param_values["a"] == Fraction(1, 10)
    assert s.param_values["b"] == Fraction(123, 10 ** 7)


def test_param_without_value_and_negative_value():
    s = parse_dae("dae d\nvars x\nparams a, b = -2.5\neq f1: x*a + b = 0\n")
    assert s.param_values == {"a": None, "b": Fraction(-5, 2)}


@pytest.mark.parametrize("head", ["params k", "params a, k"])
@pytest.mark.parametrize("denominator", ["0", "00"])
def test_param_over_zero_is_a_parse_error(head, denominator):
    # raised at the slash, as an equation's 1/0 is
    for text in ("%s = 1/%s" % (head, denominator),
                 "%s = -1/%s" % (head, denominator)):
        with pytest.raises(ParseError) as ei:
            parse_dae("dae d\nvars x\n%s\neq f1: x' - k = 0\n" % text)
        err = ei.value
        assert "division by zero" in str(err)
        assert (err.line, err.col) == (3, text.index("/") + 1)
    with pytest.raises(ParseError, match="division by zero"):
        parse_dae("dae d\nvars x\neq f1: x' - 1/0 = 0\n")


def test_rhs_literal_zero_keeps_lhs_as_raw():
    s = parse_dae("dae d\nvars x\neq f1: x' + x = 0\n")
    raw = s.equations[0].raw
    assert raw is Add((StateDeriv(0, 1), StateDeriv(0)))
    s2 = parse_dae("dae d\nvars x\neq f1: x' = -x\n")
    assert simplify(s2.equations[0].raw) == simplify(raw)


def test_primes_and_diff():
    s = parse_dae("dae d\nvars x\neq f1: x''' + diff(x,4) + diff(x'',3) = 0\n")
    e = s.equations[0].raw
    assert highest_orders(e) == {0: 5}


def test_diff_of_compound_applies_total_derivative():
    s = parse_dae("dae d\nvars x, y\neq f1: diff(x*y,1) = 0\neq f2: x + y = 0\n")
    raw = s.equations[0].raw
    assert simplify(raw) == simplify(
        StateDeriv(0, 1) * StateDeriv(1) + StateDeriv(0) * StateDeriv(1, 1))
    # the raw tree keeps both product-rule terms even if one later cancels
    assert highest_orders(raw)[0] == 1


def test_driving_function_forms():
    s = parse_dae("dae d\nvars x\ninput h1\neq f1: x + h1(t) + h1'(t) + diff(h1(t),4) = 0\n")
    raw = s.equations[0].raw
    orders = {n.order for n in walk(raw) if isinstance(n, DrivingFn)}
    assert orders == {0, 1, 4}


def test_driving_function_requires_call_form():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x\ninput h1\neq f1: x + h1 = 0\n")


def test_unknown_name_rejected():
    with pytest.raises(ParseError) as ei:
        parse_dae("dae d\nvars x\neq f1: x + z = 0\n")
    assert "unknown name" in str(ei.value)


def test_domain_error_is_parse_error_at_its_line():
    with pytest.raises(ParseError) as ei:
        parse_dae("dae d\nvars x\n\neq f1: x' + ln(-1) = 0\n")
    assert (ei.value.line, ei.value.col) == (4, 8)
    assert "ln of nonpositive value -1" in str(ei.value)


def test_too_many_primes():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x\neq f1: x'''' = 0\n")


def test_param_cannot_be_differentiated():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x\nparams a\neq f1: x + a' = 0\n")


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x\neq f1: x^1.5 = 0\n")
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x, y\neq f1: x^y = 0\neq f2: x = 0\n")


def test_negative_exponent_forms():
    s = parse_dae("dae d\nvars x\neq f1: x^-1 + x^(-2) = 0\n")
    raw = s.equations[0].raw
    exps = {n.exponent for n in walk(raw) if isinstance(n, Pow)}
    assert exps == {-1, -2}


def test_power_binds_tighter_than_minus_and_is_left_associative():
    s = parse_dae("dae d\nvars x\neq f1: x = 0\n")
    x = StateDeriv(0)
    assert parse_expr("-x^2", s) == -Pow(x, 2)
    nested = parse_expr("x^2^3", s)
    assert nested == Pow(Pow(x, 2), 3)
    assert simplify(nested) == Pow(x, 6)
    text = format_expr(nested, s.var_names)
    assert text == "x^2^3"
    assert parse_expr(text, s) == nested


def test_a_run_of_sums_is_one_flat_add():
    # one node per run of + and -, so hashing and simplify go one level
    # deep, not one level per summand; products bind tighter
    s = parse_dae(PENDULUM)
    x, y = StateDeriv(0), StateDeriv(1)
    assert parse_expr("x*y - x/2 + y^2 - (x + y)", s) == Add((
        Mul((x, y)), -Mul((x, Const(Fraction(1, 2)))), Pow(y, 2),
        -Add((x, y))))
    e = parse_expr(" + ".join("x - y'" for _ in range(2500)), s)
    assert isinstance(e, Add) and len(e.children) == 5000
    assert simplify(e) == simplify(2500 * x - 2500 * StateDeriv(1, 1))


def test_a_run_of_products_is_one_flat_mul():
    # one node per run of * and /, and ^ binds to the last factor; a
    # parenthesised product stays its own node
    s = parse_dae(PENDULUM)
    x, y = StateDeriv(0), StateDeriv(1)
    assert parse_expr("-x*y/2*(x*y)^2/y", s) == Mul((
        -x, y, Const(Fraction(1, 2)), Pow(Mul((x, y)), 2), Pow(y, -1)))
    assert parse_expr("x - y*x' + 2", s) == Add((
        x, -Mul((y, StateDeriv(0, 1))), Const(Fraction(2))))
    text = "*".join(["x"] * 5000)
    e = parse_expr(text, s)
    assert isinstance(e, Mul) and len(e.children) == 5000
    assert format_expr(e, s.var_names) == text
    assert format_expr(simplify(e), s.var_names) == "x^5000"


def test_a_constraint_of_511_summands_is_analysed():
    # one flat sum, so no tree function recurses once per summand
    a = analyze(parse_dae(pendulum_chain(512)), Prober())
    assert a.value == 1020
    assert a.jacobian.klass is JacobianClass.GENERICALLY_NONSINGULAR


def test_division_semantics():
    s = parse_dae("dae d\nvars x, y\neq f1: x/2 = 0\neq f2: x/y = 0\n")
    assert simplify(s.equations[0].raw) == simplify(Const(Fraction(1, 2)) * StateDeriv(0))
    assert simplify(s.equations[1].raw) == simplify(
        StateDeriv(0) * Pow(StateDeriv(1), -1))


def test_comments_and_blank_lines():
    src = "# header\ndae d  # trailing\n\nvars x\n# middle\neq f1: x = 0\n"
    s = parse_dae(src)
    assert s.name == "d"
    assert s.var_names == ("x",)


def test_square_check():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x, y\neq f1: x + y = 0\n")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x, x\neq f1: x = 0\neq f2: x = 0\n")
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars x\nparams x\neq f1: x = 0\n")


def test_an_equation_sees_the_names_declared_before_it():
    s = parse_dae("dae d\nvars x\neq f1: x' + x = 0\nvars y\nparams a\n"
                  "input u\neq f2: y' - a*x + u(t) = 0\n")
    assert s.var_names == ("x", "y")
    assert simplify(s.equations[1].raw) == simplify(
        StateDeriv(1, 1) - Param("a") * StateDeriv(0) + DrivingFn("u"))
    for late in ("vars y", "params y", "input y"):
        with pytest.raises(ParseError, match="unknown name 'y'") as err:
            parse_dae("dae d\nvars x\neq f1: x' + y = 0\n%s\n"
                      "eq f2: x = 0\n" % late)
        assert err.value.line == 3


def test_reserved_names_rejected():
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars sin\neq f1: sin = 0\n")
    with pytest.raises(ParseError):
        parse_dae("dae d\nvars t\neq f1: t = 0\n")


def test_error_carries_position():
    try:
        parse_dae("dae d\nvars x\neq f1: x + + = 0\n")
    except ParseError as err:
        assert err.line == 3
        assert err.col > 0
    else:
        raise AssertionError("expected ParseError")


def _emit(s):
    """emit_dae of s with the texts of its equations, as `fix` has them."""
    return emit_dae(s, [format_expr(eq.expr, s.var_names)
                        for eq in s.equations])


def test_emit_round_trip_pendulum():
    s = parse_dae(PENDULUM)
    text = _emit(s)
    s2 = parse_dae(text)
    assert s2.name == s.name
    assert s2.var_names == s.var_names
    assert s2.param_values == s.param_values
    for a, b in zip(s.equations, s2.equations):
        assert a.name == b.name
        assert a.expr == b.expr


def test_emit_round_trip_with_inputs_and_funcs():
    src = ("dae m\nvars x1, x2\ninput h1, h2\n"
           "eq f1: x1 + exp(-x1' - x2*x2'') + h1(t) = 0\n"
           "eq f2: x1 + x2*x2' + x2^2 + h2(t) = 0\n")
    s = parse_dae(src)
    s2 = parse_dae(_emit(s))
    for a, b in zip(s.equations, s2.equations):
        assert a.expr == b.expr


def test_parse_expr_standalone():
    s = parse_dae(PENDULUM)
    e = parse_expr("2*x + y'' - G", s)
    assert simplify(e) == simplify(
        2 * StateDeriv(0) + StateDeriv(1, 2) - Param("G"))
    with pytest.raises(ParseError):
        parse_expr("nope", s)


def test_parse_vector_brackets_optional_and_nested_commas():
    s = parse_dae(PENDULUM)
    want = [simplify(StateDeriv(1)), Const(Fraction(1)), Const(Fraction(-1))]
    assert parse_vector("[y, diff(x, 1) - x' + 1, -1]", s) == want
    assert parse_vector("  y, 1, -1 ", s) == want


@pytest.mark.parametrize("text,col,msg", [
    ("  [1, 2 3]", 9, "unexpected trailing input"),
    ("1, , 2", 4, "expected an expression"),
    ("[1, ln(0)]", 5, "ln of nonpositive value 0"),
    ("[ ]", 1, "empty vector"),
])
def test_parse_vector_error_columns(text, col, msg):
    with pytest.raises(ParseError) as ei:
        parse_vector(text, parse_dae(PENDULUM))
    assert (ei.value.line, ei.value.col, ei.value.msg) == (1, col, msg)


@pytest.mark.parametrize("line,col,msg", [
    ("eq f1: x + $ = 0", 12, "unexpected character '$'"),
    ("eq f1: x' + ∑ = 0", 13, "unexpected character '∑'"),
    # the number stops at its second point, and ".3" begins the next one
    ("eq f1: 1.2.3*x + x' = 0", 11, "expected '=' in equation"),
    # a tab is whitespace, one column wide
    ("eq f1:\tx' +\t$ = 0", 13, "unexpected character '$'"),
    ("vars\ty, $", 9, "unexpected character '$'"),
])
def test_malformed_lines_report_their_column(line, col, msg):
    with pytest.raises(ParseError) as ei:
        parse_dae("dae d\nvars x\n%s\n" % line)
    assert (ei.value.line, ei.value.col, ei.value.msg) == (3, col, msg)


@pytest.mark.parametrize("line", ["eq f1:\tx' + x = 0\t",
                                  "eq f1: x' + x = 0  # a $ ∑ note"])
def test_tabs_and_trailing_comments_parse(line):
    raw = parse_dae("dae d\nvars x\n%s\n" % line).equations[0].raw
    assert raw is Add((StateDeriv(0, 1), StateDeriv(0)))


@pytest.mark.parametrize("text,col,msg", [
    ("[1, $]", 5, "unexpected character '$'"),
    ("[1,\t∑]", 5, "unexpected character '∑'"),
    ("[1.2.3, 1]", 5, "unexpected trailing input"),
    # a vector has no comments: the brackets are not stripped either
    ("[1, 2] # c", 1, "unexpected character '['"),
])
def test_malformed_vectors_report_their_column(text, col, msg):
    with pytest.raises(ParseError) as ei:
        parse_vector(text, parse_dae(PENDULUM))
    assert (ei.value.line, ei.value.col, ei.value.msg) == (1, col, msg)


def _error(call, *args):
    try:
        call(*args)
    except ParseError as err:
        return err.msg, err.line, err.col
    return None


def test_tokens_match_the_reference_on_random_lines():
    """Over 200,000 random lines the front end gives the reference's token
    texts and kinds, or its error on a bad character, and the column it
    finds again for a token is the one the reference kept."""
    rng = random.Random(35)
    bad = 0
    for k in range(200_000):
        line = checks.rand_line(rng)
        col0 = 1 + k % 5
        try:
            ref = checks.reference_tokenize(line, 7, col0)
        except ParseError as err:
            assert _error(_tokens, line, 7, col0) \
                == (err.msg, err.line, err.col), line
            bad += 1
            continue
        toks = _tokens(line, 7, col0)
        assert toks == [t.text for t in ref], line
        assert [_kind(t) for t in toks] == [t.kind for t in ref], line
        j = k % len(ref)
        assert _column(line, col0, j) == ref[j].col, (line, j)
    assert 20_000 < bad < 180_000


_DECLARED = "dae d\nvars x, y, lam\nparams G = 1\ninput h1\n"
# a system's own errors are reported at its last line
_EQUATIONS = "eq e1: x = 0\neq e2: y = 0\neq e3: lam = 0\n"


def test_front_end_errors_fall_on_reference_columns():
    """A line that fails in parse_dae or parse_vector fails at a column
    the reference tokens hold, or with the reference's own error."""
    system = parse_dae(_DECLARED + _EQUATIONS)
    rng = random.Random(36)
    errors = 0
    for _ in range(20_000):
        line = checks.rand_line(rng)
        if line.startswith("["):
            # parse_vector strips the text, then a pair of brackets
            body, col0 = line.strip(), 1
            if body.endswith("]"):
                body, col0 = body[1:-1], 2
            got = _error(parse_vector, line, system)
            line_no = 1
        else:
            head = line.split(None, 1)[0]
            body, col0 = line.strip()[len(head):], len(head) + 1
            got = _error(parse_dae, _DECLARED + line + "\n" + _EQUATIONS)
            line_no = 5
        try:
            cols = {t.col for t in checks.reference_tokenize(body, line_no,
                                                             col0)}
        except ParseError as err:
            assert got == (err.msg, err.line, err.col), line
            continue
        if got is None or got[1] != line_no or got[0] == "empty vector":
            continue
        assert got[2] in cols, (line, got)
        errors += 1
    assert errors > 2_000


@pytest.mark.parametrize("line, want", [
    # \w continues a name past ASCII, and \d reads a Unicode digit
    ("eq f: xé1 = 0", ("unknown name 'xé1'", 3, 7)),
    ("eq f: ٣*x + x' = 0", None),
    # a superscript digit is no digit to \d, nor does a token start with
    # it, but \w continues a name with it
    ("eq f: ² + x' = 0", ("unexpected character '²'", 3, 7)),
    ("eq f: x² + x' = 0", ("unknown name 'x²'", 3, 7)),
    ("eq f: .5*x + x' = 0", None),
    ("eq f: 1e5*x + 1.*x + x' = 0", None),
    ("eq f: x'''' = 0", ("more than three primes; use diff(...,k)", 3, 8)),
])
def test_names_digits_and_primes_at_the_edges(line, want):
    assert _error(parse_dae, "dae d\nvars x\n%s\n" % line) == want


def test_an_integer_literal_is_the_interned_constant():
    raw = parse_dae("dae d\nvars x\neq f: 3*x + 3.0 + ٣ + x' = 0\n"
                    ).equations[0].raw
    three = raw.children[0].children[0]
    assert three is Const(Fraction(3)) is raw.children[1] \
        is raw.children[2]
    assert type(three.value) is Fraction


@pytest.mark.parametrize("text, want", [
    ("dae d\nvars x, x\neq f: x = 0\neq g: x = 0\n# end\n\n",
     ("name 'x' declared twice", 2, 9)),
    ("dae d\nvars x, k\nparams k = 1\neq f: x = 0\neq g: x' = 0\n",
     ("name 'k' declared twice", 3, 8)),
    ("dae d\nvars x\ninput h, h\neq f: x - h(t) = 0\n",
     ("name 'h' declared twice", 3, 10)),
    ("dae d\nvars x, y\neq f: x = 0\neq f: y = 0\n",
     ("equation name 'f' declared twice", 4, 4)),
])
def test_a_duplicate_declaration_fails_at_its_second_occurrence(text, want):
    assert _error(parse_dae, text) == want


@pytest.mark.parametrize("text, want", [
    ("dae d\nvars x, y\neq f: x = 0\n\n# trailing\n",
     ("system must be square: 1 equations, 2 variables", 3, 1)),
    ("dae d\n# none\n", ("system has no variables", 1, 1)),
])
def test_an_error_of_the_finished_system_falls_on_its_last_directive(
        text, want):
    assert _error(parse_dae, text) == want


# one level of each kind: (text around the body, column of its opener)
_LEVELS = {
    "group": ("(%s)", 0),
    "sign": ("-%s", 0),
    "call": ("exp(%s)", 3),
    "diff": ("diff(%s, 1)", 4),
}


@pytest.mark.parametrize("kind", sorted(_LEVELS))
def test_nesting_is_counted_in_levels_up_to_200(kind):
    """200 levels parse; the parenthesis or sign that opens level 201
    fails, in parse_dae and parse_vector alike, whatever the levels
    below it are."""
    wrap, offset = _LEVELS[kind]
    below = "-(" * 50 + "exp(" * 50 + "(" * 50    # 200 levels
    above = ")" * 150
    system = parse_dae(PENDULUM)
    assert _error(parse_dae, "dae d\nvars x\neq f: %s + x' = 0\n"
                  % (below + "x" + above)) is None
    assert _error(parse_vector, below + "x" + above, system) is None
    body = below + wrap % "x" + above
    col = 1 + len(below) + offset
    want = "expression nested deeper than 200 levels"
    assert _error(parse_dae, "dae d\nvars x\neq f: %s + x' = 0\n"
                  % body) == (want, 3, 6 + col)
    assert _error(parse_vector, body, system) == (want, 1, col)


@pytest.mark.parametrize("text, opener", [
    # the exponent's fourth parenthesis, and the driving function's
    ("x^((((2))))", 5), ("h(t)", 1),
])
def test_exponent_and_driving_function_parentheses_are_levels(text,
                                                              opener):
    levels = text.count("(")
    for below, fails in (("(" * (200 - levels), False),
                         ("(" * (201 - levels), True)):
        line = "dae d\nvars x\ninput h\neq f: %s%s%s + x' = 0\n" \
            % (below, text, ")" * len(below))
        want = ("expression nested deeper than 200 levels", 4,
                7 + len(below) + opener) if fails else None
        assert _error(parse_dae, line) == want
