"""Polynomial arithmetic under the normal form.

A polynomial is a dict {monomial: coefficient} with no zero coefficient.
A monomial is a tuple of (factor, exponent) pairs sorted by the factor
order (see below), each exponent a nonzero int; () is the monomial 1.  A
factor is any hashable value, and nothing here looks inside one.  A coefficient is
a plain int until a denominator appears, and a Fraction from then on.

Products are always distributed over sums, so that cancellation across
the rows of a linear combination actually happens.  A power is formed in
one step: a monomial scales its exponents, and a sum is expanded in one
multinomial pass.  Nothing here bounds the number of terms; a caller that
caps it keeps a factor whole before it multiplies.  derive_term reads
only the exponent of the factor it differentiates by.

The factor order and the rules that rewrite products of some factors come
in as one hook, the triple rules = (order, special, rebuild): order(f) is
factor f's sort key; special(m) is true when monomial m holds a factor
that a rule rewrites; and rebuild(exps) is the polynomial of the product
whose {factor: exponent} map is exps, a fresh dict it may change.  Every
product that special marks on either side goes through rebuild; every
other one is merged here.
"""

from fractions import Fraction
from math import comb
from operator import itemgetter

_EXPONENT = itemgetter(1)


def add_term(out: dict, m: tuple, c) -> None:
    """Adds c at monomial m of out, dropping m when it cancels."""
    c = out.get(m, 0) + c
    if c:
        out[m] = c
    else:
        out.pop(m, None)


def derive_term(out: dict, m: tuple, c, f) -> None:
    """Adds to out the derivative of c*m by f, which m holds as a factor
    f^k and nowhere else: by the power rule, k*c*m with f^(k-1)."""
    add_term(out, tuple([(g, j - 1 if g == f else j) for g, j in m
                         if g != f or j != 1]), c * dict(m)[f])


def monomial(exps: dict, order) -> tuple:
    """The monomial of a {factor: exponent} map: its nonzero exponents,
    sorted by the key order(factor)."""
    return tuple(sorted(filter(_EXPONENT, exps.items()),
                        key=lambda fk: order(fk[0])))


def mul(p: dict, q: dict, rules) -> dict:
    """p*q, every term of p times every term of q."""
    if not p or not q:
        return {}
    order, special, rebuild = rules
    qs = [(m2, c2, special(m2)) for m2, c2 in q.items()]
    out: dict = {}
    for m1, c1 in p.items():
        r1 = special(m1)
        for m2, c2, r2 in qs:
            if not (m1 and m2 or r1 or r2):
                add_term(out, m2 or m1, c1 * c2)
                continue
            exps = dict(m1)
            for f, k in m2:
                exps[f] = exps.get(f, 0) + k
            if r1 or r2:
                for m3, c3 in rebuild(exps).items():
                    add_term(out, m3, c1 * c2 * c3)
            else:
                add_term(out, monomial(exps, order), c1 * c2)
    return out


def power(p: dict, n: int, rules) -> dict:
    """p**n for n >= 0, or for any n when p is one term.  A sum of terms
    c_r*m_r, r = 0..last, is expanded by the multinomial theorem: the sum
    over k_0+..+k_last = n of n!/(k_0!..k_last!) * prod c_r^k_r at
    prod m_r^k_r.  The choices (k_0, .., k_last) are visited in ascending
    lexicographic order, and each product is merged into the result as it
    is visited, so that order is the result's insertion order.  A
    product's coefficient multiplies comb(left_r, k_r) * c_r^k_r, left_r
    the factors still to place, over the terms up to the last one with
    k_r > 0 and no further."""
    if n == 0:
        return {(): 1}
    if n == 1 or not p:
        return dict(p)
    order, special, rebuild = rules
    if len(p) == 1:
        ((m, c),) = p.items()
        # an int to a negative power would be a float
        c = Fraction(c) ** n if n < 0 else c ** n
        if not special(m):
            return {tuple([(f, k * n) for f, k in m]): c}
        exps = {f: k * n for f, k in m}
        return {m2: c2 * c for m2, c2 in rebuild(exps).items()}
    factors = sorted({f for m in p for f, _ in m}, key=order)
    place = {f: i for i, f in enumerate(factors)}
    # term r adds adds[r] to the exponent vector v for each factor it takes
    adds = [[(place[f], k) for f, k in m] for m in p]
    pows = [[c ** k for k in range(n + 1)] for c in p.values()]
    rewrite = any(map(special, p))
    last = len(p) - 1
    # the stack: term r takes ks[r] of the factors the terms before it
    # left, and cs[r] is the coefficient of their choices; the first
    # choice gives all n to the last term
    ks = [0] * last + [n]
    cs = [1]
    for r in range(last):
        cs.append(cs[r] * pows[r][0])
    v = [0] * len(factors)
    for i, k in adds[last]:
        v[i] += n * k
    q = last            # the last term that takes any factor
    out: dict = {}
    while True:
        c = cs[q] * pows[q][ks[q]]
        # the factors are sorted: the nonzero exponents are the monomial
        m = tuple(filter(_EXPONENT, zip(factors, v)))
        if not rewrite:
            add_term(out, m, c)
        else:
            for m, c3 in rebuild(dict(m)).items():
                add_term(out, m, c * c3)
        if not q:
            return out
        # the next choice: term q - 1 takes one more, and the last term
        # all that q held but that one
        j, rest = q - 1, ks[q]
        ks[q] = 0
        for i, k in adds[q]:
            v[i] -= rest * k
        ks[j] += 1
        for i, k in adds[j]:
            v[i] += k
        ks[last] = rest - 1
        for i, k in adds[last]:
            v[i] += (rest - 1) * k
        # term j took ks[j] of the ks[j] + rest - 1 factors left to it
        cs[j + 1] = cs[j] * comb(ks[j] + rest - 1, ks[j]) * pows[j][ks[j]]
        for r in range(j + 1, last):
            cs[r + 1] = cs[r] * pows[r][0]
        q = last if rest > 1 else j
