"""DAEs whose structure is hidden by a transform with a known answer.

A constant change of variables x = T y with det T != 0 keeps the solution
set, so when the Sigma-method succeeds on the transformed system it must
report the degrees of freedom of the original (Pryce, BIT 41, 2001: on
success, dof = val Sigma).  pendulum_mod in the corpus is one such case.
Mixing the equations by a matrix of determinant 1 keeps it too, whether
the matrix is constant or, as in the scaled class, its entries hold t and
a state.
Permuting the equations and the declared variables only permutes the rows
and columns of every matrix, so no verdict may move.
"""

import random

import pytest

from checks import reference_offsets
from daefix import corpus
from daefix.convert import ConvertError, FixStatus, analyze, fix_dae
from daefix.dsl import parse_dae
from daefix.structural import canonical_offsets, signature_matrix
from daefix.zerotest import Prober

PENDULUM_DOF = 2


def _combination(row, names):
    """sum_k row[k] * names[k] as .dae text, in parentheses."""
    text = ""
    for c, name in zip(row, names):
        if c:
            sign = "-" if c < 0 else ("+" if text else "")
            scale = "" if abs(c) == 1 else "%d*" % abs(c)
            text += (" %s " % sign if text else sign) + scale + name
    return "(%s)" % text


def _pendulum_residuals(T):
    """The pendulum's left-hand sides with (x, y, lambda) = T (x1, x2, x3)."""
    x, y, lam = (_combination(row, ("x1", "x2", "x3")) for row in T)
    return ("diff(%s, 2) + %s*%s" % (x, x, lam),
            "diff(%s, 2) + %s*%s - G" % (y, y, lam),
            "%s^2 + %s^2 - L^2" % (x, y))


def _pendulum_text(residuals):
    return ("dae pendulum_T\n"
            "vars x1, x2, x3\n"
            "params G = 9.8, L = 1\n"
            + "".join("eq f%d: %s = 0\n" % (i, e)
                      for i, e in enumerate(residuals, 1)))


def pendulum_after_change_of_variables(T):
    """The pendulum with (x, y, lambda) = T (x1, x2, x3)."""
    return _pendulum_text(_pendulum_residuals(T))


def pendulum_after_mixing(T, M):
    """pendulum_after_change_of_variables(T) with its equations f
    replaced by M f."""
    f = ["(%s)" % e for e in _pendulum_residuals(T)]
    return _pendulum_text(_combination(row, f) for row in M)


def _det3(T):
    return (T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
            - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
            + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]))


def nonsingular_transforms(count, seed):
    """count 3x3 matrices over {-1, 0, 1} with nonzero determinant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = [[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)]
        if _det3(T):
            out.append(T)
    return out


@pytest.mark.parametrize("formal", (False, True))
def test_change_of_variables_keeps_pendulum_dof(formal):
    for T in nonsingular_transforms(40, seed=11):
        text = pendulum_after_change_of_variables(T)
        r = fix_dae(parse_dae(text), formal=formal)
        assert r.status is FixStatus.SUCCESS, text
        assert r.final_value == PENDULUM_DOF, text
        assert not r.uncertain, text


def unit_triangular_mixes(count, seed):
    """count products L U of a unit lower and a unit upper triangular 3x3
    matrix with off-diagonal entries in {-1, 0, 1}, so det(L U) = 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        L = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0)
              for j in range(3)] for i in range(3)]
        U = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0)
              for j in range(3)] for i in range(3)]
        out.append(tuple(tuple(sum(L[i][k] * U[k][j] for k in range(3))
                               for j in range(3)) for i in range(3)))
    return out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: an LC row built "
                   "from a cokernel vector with denominators keeps a leading "
                   "derivative that only a rational normal form cancels")
@pytest.mark.parametrize("formal", (False, True))
def test_mixing_the_equations_keeps_pendulum_dof(formal):
    failures = []
    for T, M in zip(nonsingular_transforms(60, seed=13),
                    unit_triangular_mixes(60, seed=17)):
        text = pendulum_after_mixing(T, M)
        try:
            r = fix_dae(parse_dae(text), formal=formal)
        except ConvertError as ex:
            failures.append((text, str(ex)))
            continue
        if r.status is not FixStatus.SUCCESS or r.final_value != PENDULUM_DOF:
            failures.append((text, r.status, r.final_value))
    assert failures == []


# the scales of a scaled mix's entries, as exponents of (t, x1): 1, t, x1
_SCALES = ((0, 0), (1, 0), (0, 1))


def scaled_mixes(count, seed):
    """count products L U of a unit lower and a unit upper triangular 3x3
    matrix whose off-diagonal entries are c*s, with c in {-1, 0, 1} and s
    in {1, t, x1}: det(L U) = 1, so mixing by it keeps the solution set.
    An entry of the product is {(i, k): coefficient of t^i x1^k}."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        factors = []
        for lower in (True, False):
            F = [[{(0, 0): 1} if i == j else {} for j in range(3)]
                 for i in range(3)]
            for i in range(3):
                for j in range(3):
                    if (j < i) if lower else (j > i):
                        c, s = rng.choice((-1, 0, 1)), rng.choice(_SCALES)
                        if c:
                            F[i][j] = {s: c}
            factors.append(F)
        L, U = factors
        M = []
        for i in range(3):
            row = []
            for j in range(3):
                entry = {}
                for k in range(3):
                    for (a, b), c in L[i][k].items():
                        for (a2, b2), c2 in U[k][j].items():
                            m = (a + a2, b + b2)
                            entry[m] = entry.get(m, 0) + c * c2
                row.append({m: c for m, c in entry.items() if c})
            M.append(row)
        out.append(M)
    return out


def _poly_text(p):
    """{(i, k): c} as the .dae text of sum c t^i x1^k, in parentheses."""
    text = ""
    for (a, b), c in sorted(p.items()):
        factors = ["t"] * a + ["x1"] * b
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else ("+" if text else "")
        text += (" %s " % sign if text else sign) + "*".join(factors)
    return "(%s)" % text


def pendulum_after_scaled_mixing(T, M):
    """pendulum_after_change_of_variables(T) with its equations f replaced
    by M f, for M from scaled_mixes."""
    f = ["(%s)" % e for e in _pendulum_residuals(T)]
    return _pendulum_text(
        " + ".join("%s*%s" % (_poly_text(m), fj)
                   for m, fj in zip(row, f) if m) for row in M)


# the draws of the scaled-mixing class that fail today, by the ROADMAP
# item that mends them; the same draws fail in both modes
_ITEM_1 = ("ROADMAP item 1: an LC row built from a cokernel vector with "
           "denominators keeps a leading derivative that only a rational "
           "normal form cancels")
_ITEM_1_ES = ("ROADMAP item 1, the did-not-decrease class: an ES step leaves "
              "a leading derivative whose coefficient is zero only over "
              "(t - 1)^-1, which the normal form keeps opaque, so the "
              "signature value does not drop")
_ITEM_3 = ("ROADMAP item 3: SUCCESS with value 4, certain, while J is "
           "singular on the solution set")
_SCALED_FAILURES = dict(
    [(n, (_ITEM_1, ConvertError)) for n in (
        2, 3, 4, 11, 14, 25, 27, 29, 30, 40, 42, 43, 46, 48, 49, 52, 54, 55)]
    + [(28, (_ITEM_1_ES, ConvertError))]
    + [(n, (_ITEM_3, AssertionError)) for n in (13, 19, 22)])


def _scaled_draws():
    draws = zip(nonsingular_transforms(60, seed=23), scaled_mixes(60, seed=5))
    for n, (T, M) in enumerate(draws):
        reason, raises = _SCALED_FAILURES.get(n, (None, None))
        marks = () if reason is None else pytest.mark.xfail(
            strict=True, raises=raises, reason=reason)
        yield pytest.param(T, M, id="draw%d" % n, marks=marks)


@pytest.mark.parametrize("formal", (False, True))
@pytest.mark.parametrize("T, M", _scaled_draws())
def test_scaled_mixing_keeps_pendulum_dof(T, M, formal):
    text = pendulum_after_scaled_mixing(T, M)
    r = fix_dae(parse_dae(text), formal=formal)
    assert r.status is FixStatus.SUCCESS, text
    assert r.final_value == PENDULUM_DOF, text
    assert not r.uncertain, text


@pytest.mark.parametrize("formal", (False, True))
def test_offsets_equal_the_fixed_point(formal):
    texts = [corpus.source(name) for name in corpus.names()]
    texts += [pendulum_after_change_of_variables(T)
              for T in nonsingular_transforms(40, seed=11)]
    for text in texts:
        sig = signature_matrix(parse_dae(text), formal=formal)
        assert canonical_offsets(sig) == reference_offsets(sig), text


def permuted(text, rng):
    """text with its equations and its declared variables shuffled, and the
    two permutations: row r of the result is equation eqs[r] of text, and
    column k is variable cols[k]."""
    lines = text.splitlines()
    at = [k for k, line in enumerate(lines) if line.startswith("eq ")]
    eqs = rng.sample(range(len(at)), len(at))
    out = list(lines)
    for k, r in zip(at, eqs):
        out[k] = lines[at[r]]
    v = next(k for k, line in enumerate(lines) if line.startswith("vars "))
    names = lines[v][len("vars "):].split(", ")
    cols = rng.sample(range(len(names)), len(names))
    out[v] = "vars " + ", ".join(names[k] for k in cols)
    return "\n".join(out) + "\n", eqs, cols


def permuted_corpus(formal):
    """Six shuffles of each corpus system."""
    rng = random.Random(41 + formal)
    for name in corpus.names():
        text = corpus.source(name)
        for _ in range(6):
            yield (text,) + permuted(text, rng)


@pytest.mark.parametrize("formal", (False, True))
def test_permuting_keeps_the_analysis(formal):
    for text, shuffled, eqs, cols in permuted_corpus(formal):
        a = analyze(parse_dae(text), Prober(), formal)
        b = analyze(parse_dae(shuffled), Prober(), formal)
        assert b.value == a.value, shuffled
        assert b.jacobian.klass is a.jacobian.klass, shuffled
        assert b.offsets.c == tuple(a.offsets.c[r] for r in eqs), shuffled
        assert b.offsets.d == tuple(a.offsets.d[k] for k in cols), shuffled


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: some orderings of pendulum_mod "
                   "meet a cokernel vector with denominators, whose LC row "
                   "keeps a leading derivative that only a rational normal "
                   "form cancels")
@pytest.mark.parametrize("formal", (False, True))
def test_permuting_keeps_the_fix(formal):
    failures = []
    for text, shuffled, _, _ in permuted_corpus(formal):
        a = fix_dae(parse_dae(text), formal=formal)
        try:
            b = fix_dae(parse_dae(shuffled), formal=formal)
        except ConvertError as ex:
            failures.append((shuffled, str(ex)))
            continue
        if (b.status, b.final_value) != (a.status, a.final_value):
            failures.append((shuffled, b.status, b.final_value))
    assert failures == []
