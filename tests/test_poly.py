"""poly on its own: plain int and str factors, and rule hooks written here.

The ring identities hold on random polynomials with no rule and with the
Gaussian rule i^2 = -1, which rebuild applies; a power equals repeated
products and equals, dict order and coefficient types included, the
recursion it replaced (checks.ref_power); and rebuild sees exactly the
products that special marks.  The last test checks the layering in a
fresh interpreter: poly imports no other daefix module and names no
function of the trees."""

import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checks import ref_power
from daefix import poly
from daefix.poly import add_term, monomial, mul, power


def _same(f):
    # the factors' own order
    return f


PLAIN = (_same, lambda m: False, None)


def _gaussian_rebuild(exps):
    # i^k is 1, i, -1 or -i as k mod 4 is 0, 1, 2 or 3
    k = exps.pop("i", 0) % 4
    exps["i"] = k % 2
    return {monomial(exps, _same): -1 if k >= 2 else 1}


GAUSSIAN = (_same, lambda m: any(f == "i" for f, _ in m), _gaussian_rebuild)


def _rand_poly(rng, factors, terms=4, exponents=(-2, -1, 1, 2, 3)):
    p = {}
    for _ in range(rng.randint(0, terms)):
        exps = {f: rng.choice(exponents)
                for f in rng.sample(factors, rng.randint(0, len(factors)))}
        if "i" in exps:
            exps["i"] = 1       # a Gaussian monomial holds i at most once
        c = rng.choice((-3, -1, 1, 2, 5, Fraction(1, 2), Fraction(-4, 3)))
        add_term(p, monomial(exps, _same), c)
    return p


def _add(p, q):
    out = dict(p)
    for m, c in q.items():
        add_term(out, m, c)
    return out


@pytest.mark.parametrize("factors, rules", [
    (("x", "y", "z"), PLAIN), ((0, 1, 2), PLAIN),
    (("i", "x", "y"), GAUSSIAN)], ids=["str", "int", "gaussian"])
def test_ring_identities(factors, rules):
    rng = random.Random("poly-ring-%s" % (factors,))
    one = {(): 1}
    for _ in range(150):
        p, q, r = (_rand_poly(rng, list(factors)) for _ in range(3))
        assert mul(p, q, rules) == mul(q, p, rules)
        assert mul(mul(p, q, rules), r, rules) == \
            mul(p, mul(q, r, rules), rules)
        assert mul(p, _add(q, r), rules) == \
            _add(mul(p, q, rules), mul(p, r, rules))
        assert mul(p, one, rules) == p == mul(one, p, rules)
        assert mul(p, {}, rules) == {} == mul({}, p, rules)
        assert _add(p, {m: -c for m, c in p.items()}) == {}


def _repeated(p, n, rules):
    out = {(): 1}
    for _ in range(n):
        out = mul(out, p, rules)
    return out


@pytest.mark.parametrize("factors, rules", [
    (("x", "y", "z"), PLAIN), (("i", "x", "y"), GAUSSIAN)],
    ids=["plain", "gaussian"])
def test_power_equals_repeated_products(factors, rules):
    rng = random.Random("poly-power-%s" % (factors,))
    for _ in range(120):
        p = _rand_poly(rng, list(factors), terms=3)
        n = rng.randint(0, 6)
        assert power(p, n, rules) == _repeated(p, n, rules)
        if len(p) == 1:
            # a single term has every negative power: its inverse's
            inverse = power(p, -1, rules)
            assert mul(p, inverse, rules) == {(): 1}
            assert power(p, -n, rules) == _repeated(inverse, n, rules)


def test_power_of_a_sum_is_one_multinomial_pass(monkeypatch):
    # (x + y + 1)^n has comb(n + 2, 2) terms, the binomial coefficients
    # of (x + 1)^n on the diagonal y = 0; every monomial comes out sorted
    p = {(("x", 1),): 1, (("y", 1),): 1, (): 1}
    want = {n: _repeated(p, n, PLAIN) for n in (2, 3, 5, 12)}
    monkeypatch.setattr(poly, "mul", None)      # no products
    for n, w in want.items():
        got = power(p, n, PLAIN)
        assert got == w and len(got) == (n + 1) * (n + 2) // 2
        assert all(got[(("x", k),) if k else ()] == math.comb(n, k)
                   for k in range(n + 1))
        assert all(m == monomial(dict(m), _same) for m in got)
    # under the reverse order, y comes before x
    backwards = (lambda f: -ord(f), PLAIN[1], None)
    assert set(power(p, 3, backwards)) == {
        monomial(dict(m), backwards[0]) for m in want[3]}


@pytest.mark.parametrize("factors, rules", [
    (("x", "y", "z"), PLAIN), ((0, 1, 2, 3), PLAIN),
    (("i", "x", "y"), GAUSSIAN)], ids=["str", "int", "gaussian"])
def test_power_matches_the_recursive_reference(factors, rules):
    # the same items in the same insertion order, each coefficient of the
    # same type: an int stays an int where the recursion kept one
    rng = random.Random("poly-reference-%s" % (factors,))
    merged = mixed = 0
    for k in range(400):
        # exponents 1 and 2 alone make products meet more often
        p = _rand_poly(rng, list(factors), 6,
                       (1, 2) if k % 2 else (-2, -1, 1, 2, 3))
        n = rng.randint(0, 7)
        got, want = power(p, n, rules), ref_power(p, n, rules)
        assert list(got.items()) == list(want.items()), (p, n)
        assert [type(c) for c in got.values()] == \
            [type(c) for c in want.values()], (p, n)
        if len(p) > 1 and len(got) < math.comb(n + len(p) - 1, n):
            merged += 1
        if len({type(c) for c in got.values()}) > 1:
            mixed += 1
    # products that meet at one monomial, and int beside Fraction
    assert merged > 10 and mixed > 50


def test_a_rebuild_that_raises_leaves_no_cyclic_garbage():
    class Refused(Exception):
        pass

    def rebuild(exps):
        if exps.get("x", 0) > 2:
            raise Refused
        return _gaussian_rebuild(exps)

    p = {(): 1, (("i", 1),): 1, (("x", 1),): Fraction(1, 2)}
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with pytest.raises(Refused):
            power(p, 5, (_same, GAUSSIAN[1], rebuild))
        assert gc.collect() == 0 and gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_coefficients_stay_int_until_a_denominator_appears():
    p = {(("x", 1),): 2, (): -3}
    assert all(type(c) is int for c in power(p, 5, PLAIN).values())
    assert all(type(c) is int for c in mul(p, p, PLAIN).values())
    assert power({(("x", 1),): 2}, -2, PLAIN) == \
        {(("x", -2),): Fraction(1, 4)}
    assert power({(("x", 2),): -1}, -3, PLAIN) == \
        {(("x", -6),): Fraction(-1)}


def test_monomial_drops_zero_exponents_and_sorts():
    assert monomial({"y": 2, "x": 0, "a": -1, "b": 1}, _same) == \
        (("a", -1), ("b", 1), ("y", 2))
    assert monomial({3: 1, 1: 0, 2: -4}, _same) == ((2, -4), (3, 1))
    # the order is the hook's, not the factors' own
    assert monomial({3: 1, 1: 2, 2: -4}, lambda f: -f) == \
        ((3, 1), (2, -4), (1, 2))
    assert monomial({"x": 0}, _same) == ()
    assert monomial({}, _same) == ()


def test_add_term_removes_a_term_that_cancels():
    out = {(("x", 1),): 2}
    add_term(out, (("x", 1),), 3)
    assert out == {(("x", 1),): 5}
    add_term(out, (), Fraction(1, 2))
    add_term(out, (("x", 1),), -5)
    assert out == {(): Fraction(1, 2)}
    add_term(out, (), Fraction(-1, 2))
    assert out == {}


def test_rebuild_sees_exactly_the_products_special_marks():
    rng = random.Random("poly-hook")
    special = GAUSSIAN[1]
    seen = []

    def rebuild(exps):
        seen.append(sorted(exps.items()))
        return _gaussian_rebuild(exps)

    rules = (_same, special, rebuild)
    marked = 0
    for _ in range(100):
        p, q = (_rand_poly(rng, ["i", "x", "y"]) for _ in range(2))
        seen.clear()
        prod = mul(p, q, rules)
        want = []
        for m1 in p:
            for m2 in q:
                if special(m1) or special(m2):
                    exps = dict(m1)
                    for f, k in m2:
                        exps[f] = exps.get(f, 0) + k
                    want.append(sorted(exps.items()))
        assert sorted(seen) == sorted(want)
        assert prod == mul(p, q, GAUSSIAN)
        marked += len(want)
        # a power calls rebuild only when some term is marked
        seen.clear()
        power(p, 3, rules)
        assert bool(seen) == any(map(special, p))
    assert marked > 200


def test_a_product_of_i_with_i_is_minus_one():
    i = {(("i", 1),): 1}
    assert mul(i, i, GAUSSIAN) == {(): -1}
    # (1 + i)^2 = 2i and (1 + i)^4 = -4
    assert power({(): 1, (("i", 1),): 1}, 2, GAUSSIAN) == {(("i", 1),): 2}
    assert power({(): 1, (("i", 1),): 1}, 4, GAUSSIAN) == {(): -4}


def test_poly_stands_alone():
    src = str(Path(poly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys, daefix.poly; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'daefix')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == ["daefix", "daefix.poly"]
    words = set(re.findall(r"\w+", Path(poly.__file__).read_text()))
    assert not words & {"exp", "sqrt", "sin", "cos", "ln", "Func"}
