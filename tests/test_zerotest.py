from fractions import Fraction

import pytest

from checks import con
from daefix.expr import (Const, DomainError, Func, Param, Pow, StateDeriv,
                         TimeVar, simplify)
from daefix.zerotest import (_MAX_REDRAWS, DEFAULT_BUDGET, Prober, ZeroKind,
                             probe_points)

x = StateDeriv(0)
y = StateDeriv(1)
t = TimeVar()


def test_proven_zero_structural():
    p = Prober()
    v = p.verdict(x - x)
    assert v.kind is ZeroKind.PROVEN_ZERO
    assert not p.uncertain_seen


def test_proven_nonzero_constant():
    p = Prober()
    v = p.verdict(Const(Fraction(3, 7)))
    assert v.proven_nonzero
    assert v.value == Fraction(3, 7)


def test_proven_nonzero_by_probe():
    p = Prober()
    v = p.verdict(x + 1)
    assert v.proven_nonzero
    assert v.witness is not None
    # the witness really evaluates to the reported value
    assert v.value != 0


def test_pythagorean_zero_is_only_probable():
    p = Prober()
    e = Pow(Func("sin", t), 2) + Pow(Func("cos", t), 2) - 1
    # normal form already kills this one
    assert p.verdict(e).proven_zero


def test_hidden_zero_probably():
    # sin(2a) - 2 sin(a) cos(a): identically zero but not known to the
    # normal form. Budget gets spent, verdict stays "probably".
    p = Prober()
    a = Param("a")
    e = Func("sin", 2 * a) - 2 * Func("sin", a) * Func("cos", a)
    v = p.verdict(e)
    assert v.probably_zero
    assert v.probes == DEFAULT_BUDGET
    assert p.uncertain_seen


def test_exp_never_zero():
    p = Prober()
    v = p.verdict(Func("exp", x + y))
    assert v.proven_nonzero


def test_deterministic_across_instances():
    e = Func("sin", x) + y
    v1 = Prober(seed=123).verdict(e)
    v2 = Prober(seed=123).verdict(e)
    assert v1.kind == v2.kind and v1.value == v2.value and v1.probes == v2.probes
    # and cache does not change the answer
    p = Prober(seed=123)
    assert p.verdict(e) == p.verdict(e)


def test_seed_changes_probes_not_correctness():
    e = x * y + 1
    for seed in range(5):
        assert Prober(seed=seed).verdict(e).proven_nonzero


def test_domain_redraw_warning():
    # ln(x) is defined only on half the probe space; ln(x) - ln(x) won't
    # simplify structurally... it does actually. Use ln of something that is
    # usually negative so redraws pile up: ln(-50 - x^2) always fails.
    p = Prober()
    e = Func("ln", -50 - Pow(x, 2))
    v = p.verdict(e)
    assert v.probably_zero
    assert v.domain_warning
    assert p.uncertain_seen


def test_budget_respected():
    a = Param("a")
    e = Func("sin", 2 * a) - 2 * Func("sin", a) * Func("cos", a)
    v = Prober(budget=3).verdict(e)
    assert v.probably_zero and v.probes == 3


def test_is_zero_helper():
    p = Prober()
    assert p.verdict(simplify(x - x)).kind is ZeroKind.PROVEN_ZERO
    assert p.verdict(x + 2).kind is ZeroKind.PROVEN_NONZERO


def _bindings(key, needed, points, param_values=None):
    return [b for b, _ in probe_points(key, needed, lambda b: None, points,
                                       param_values)]


def test_probe_points_repeat_per_key_and_pin_parameters():
    g, h = Param("g"), Param("h")
    first = _bindings("k", [x, g, h], 4, {"g": Fraction(9, 8), "h": None})
    # the sampler fixes the atom order, not the caller
    assert _bindings("k", [h, g, x], 4, {"g": Fraction(9, 8)}) == first
    assert _bindings("other", [x, g, h], 4) != first
    assert all(b[g] == Fraction(9, 8) for b in first)
    assert len({b[h] for b in first}) > 1
    for b in first:
        assert -50 <= b[x] <= 50 and b[x].denominator <= 50


@pytest.mark.parametrize("points", (3, 20))
def test_probe_points_redraws_count_over_the_whole_run(points):
    draws = []

    def every_other(b):
        draws.append(b)
        if len(draws) % 2:
            raise DomainError("rejected draw")
        return len(draws)

    got = [r for _, r in probe_points("k", {x}, every_other, points)]
    # each rejection is redrawn, but the limit spans the run, not a point
    assert len(got) == min(points, _MAX_REDRAWS - 1)
    assert got == list(range(2, 2 * len(got) + 1, 2))


def test_nonzero_monomials_are_proven_without_probes():
    p = Prober()
    for e in (3 * Pow(x, 10000000), x * Pow(y, -2), t * Param("p")):
        v = p.verdict(e)
        assert v.kind is ZeroKind.PROVEN_NONZERO
        assert v.probes == 0
    assert not p.uncertain_seen


def test_sums_and_functions_still_probe():
    p = Prober()
    for e in (x + 1, Func("sin", x), con(2) * Func("ln", x) * y):
        v = p.verdict(e)
        assert v.proven_nonzero
        assert v.probes >= 1 and v.witness is not None
    assert not p.uncertain_seen
