import random
from fractions import Fraction

import pytest

import checks
from daefix.dsl import parse_dae
from daefix.expr import (
    ONE, Const, Func, Param, Pow, StateDeriv, TimeVar, ZERO, simplify, walk,
)
from daefix.jacobian import components, system_jacobian
from daefix.nullspace import (
    EliminationStuck, NullspaceError, _pivot_choice, cokernel_vector,
    component_basis, kernel_basis, kernel_vector, normalize_candidates,
    verify_nullvector,
)
from daefix.structural import canonical_offsets, signature_matrix
from daefix.zerotest import Prober


def jac(src):
    s = parse_dae(src)
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    return system_jacobian(s, sig, off)


LC_EXAMPLE = """\
dae lc_example
vars x1, x2, x3, x4
input g1, g2
eq f1: -x1' + x3 = 0
eq f2: -x2' + x4 = 0
eq f3: x1*x2 + g1(t) = 0
eq f4: x1*x4 + x2*x3 + x1 + x2 + g2(t) = 0
"""

ES_EXAMPLE = """\
dae es_example
vars x1, x2
input h1, h2
eq f1: x1 + exp(-x1' - x2*x2'') + h1(t) = 0
eq f2: x1 + x2*x2' + x2^2 + h2(t) = 0
"""

BRENAN = """\
dae brenan
vars x, y
input h1, h2
eq f1: x' + t*y' - h1(t) = 0
eq f2: x + t*y - h2(t) = 0
"""

SCHOLZ = """\
dae scholz
vars x1, x2, x3, x4
input b1, b2, b3, b4
eq f1: -x1' + x3 - b1(t) = 0
eq f2: -x2' + x4 - b2(t) = 0
eq f3: x2 + x3 + x4 - b3(t) = 0
eq f4: -x1 + x3 + x4 - b4(t) = 0
"""

PENDULUM_MOD = """\
dae pendulum_mod
vars x1, x2, x3
params G = 9.8, L = 1
eq f1: diff(x1 + x2, 2) + (x1 + x2)*(x3 + x1) = 0
eq f2: diff(x2 + x3, 2) + (x2 + x3)*(x3 + x1) - G = 0
eq f3: (x1 + x2)^2 + (x2 + x3)^2 - L^2 = 0
"""


def test_brenan_cokernel_and_kernel():
    J = jac(BRENAN)
    p = Prober()
    u = cokernel_vector(J, p)
    assert u == {0: Const(Fraction(-1)), 1: Const(Fraction(1))}
    v = kernel_vector(J, p)
    assert v == {0: simplify(-TimeVar()), 1: Const(Fraction(1))}
    assert not p.uncertain_seen


def test_lc_example_cokernel_exact():
    J = jac(LC_EXAMPLE)
    u = cokernel_vector(J, Prober())
    x1, x2 = StateDeriv(0), StateDeriv(1)
    assert u == {0: simplify(-x2), 1: simplify(-x1), 2: Const(Fraction(-1)),
                 3: Const(Fraction(1))}


def test_es_example_vectors():
    J = jac(ES_EXAMPLE)
    p = Prober()
    v = kernel_vector(J, p)
    x2 = StateDeriv(1)
    assert v == {0: simplify(-x2), 1: Const(Fraction(1))}
    u = cokernel_vector(J, p)
    gamma = Func("exp", simplify(StateDeriv(0, 1) + x2 * StateDeriv(1, 2)))
    assert u == {0: simplify(gamma), 1: Const(Fraction(1))}


def test_scholz_cokernel():
    J = jac(SCHOLZ)
    u = cokernel_vector(J, Prober())
    # the zero entries of x1 and x2 are not stored
    assert list(u.items()) == [(2, Const(Fraction(-1))),
                               (3, Const(Fraction(1)))]


def test_pendulum_mod_kernel():
    J = jac(PENDULUM_MOD)
    v = kernel_vector(J, Prober())
    assert v == {0: Const(Fraction(1)), 1: Const(Fraction(-1)),
                 2: Const(Fraction(1))}


def test_kernel_none_when_nonsingular():
    m = checks.sparse(((Const(Fraction(1)), ZERO),
                       (ZERO, Const(Fraction(2)))))
    assert kernel_vector(m, Prober()) is None


def test_second_basis_vector():
    # rank-1 matrix, two free columns
    x = StateDeriv(0)
    m = checks.sparse(((simplify(x), simplify(2 * x), simplify(3 * x)),
                       (ZERO, ZERO, ZERO),
                       (ZERO, ZERO, ZERO)))
    p = Prober()
    v0 = kernel_vector(m, p, basis_index=0)
    v1 = kernel_vector(m, p, basis_index=1)
    assert v0 is not None and v1 is not None and v0 != v1
    assert kernel_vector(m, p, basis_index=2) is None
    for v in (v0, v1):
        assert verify_nullvector(m, v, p)


def test_random_singular_integer_matrices():
    rng = random.Random(23)
    p = Prober()
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                for _ in range(n - 1)]
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)]
        last = [sum(c * rows[i][j] for i, c in enumerate(coeffs))
                for j in range(n)]
        m = checks.sparse([[Const(v) for v in r] for r in rows + [last]])
        v = kernel_vector(m, p)
        if v is None:
            # possible only if the matrix ended up full rank; it cannot,
            # since the last row is a combination of the others
            raise AssertionError("kernel missing for singular matrix")
        assert verify_nullvector(m, v, p)
        u = cokernel_vector(m, p)
        assert u is not None
        assert verify_nullvector(m, u, p, left=True)


def test_elimination_stuck():
    a = Param("a")
    hidden = simplify(Func("sin", 2 * a) - 2 * Func("sin", a) * Func("cos", a))
    m = checks.sparse(((hidden, Const(Fraction(1))),
                       (ZERO, Const(Fraction(1)))))
    with pytest.raises(EliminationStuck) as ei:
        kernel_vector(m, Prober())
    assert ei.value.col == 0


def test_a_kept_stuck_elimination_raises_a_fresh_error_each_call():
    # the record keeps where it stuck, not an exception that would hold its
    # last traceback: every call reaching it raises a new one, alike
    a = Param("a")
    hidden = simplify(Func("sin", 2 * a) - 2 * Func("sin", a) * Func("cos", a))
    parts = components(checks.sparse(((ZERO, ONE, ZERO),
                                      (ZERO, ZERO, ONE),
                                      (hidden, ZERO, ZERO))))
    prober = Prober()
    raised = []
    for _ in range(3):
        with pytest.raises(EliminationStuck) as ei:
            component_basis(parts, prober)
        raised.append(ei.value)
    assert len({id(e) for e in raised}) == 3
    assert {(e.col, e.entry, str(e)) for e in raised} == {
        (0, hidden, "cannot pivot column 1: entry %r is only probably zero"
         % (hidden,))}


@pytest.mark.parametrize("rows", [[{0: ONE, 2: ONE}, {1: ONE}],
                                  [{-1: ONE}, {0: ONE}]])
def test_a_column_outside_the_matrix_is_refused(rows):
    with pytest.raises(NullspaceError):
        kernel_basis(rows, Prober())


def test_verify_nullvector_rejects_junk():
    m = checks.sparse(((Const(Fraction(1)), ZERO),
                       (ZERO, Const(Fraction(1)))))
    p = Prober()
    assert not verify_nullvector(m, {0: Const(Fraction(1))}, p)
    assert not verify_nullvector(m, {}, p)


def test_normalize_candidates_ordering():
    J = jac(LC_EXAMPLE)
    p = Prober()
    u = cokernel_vector(J, p)
    cands = normalize_candidates(u, p)
    # the original leads: it ties on constant count with its -1 rescaling
    assert cands[0] == u
    x1, x2 = StateDeriv(0), StateDeriv(1)
    negated = {0: simplify(x2), 1: simplify(x1), 2: Const(Fraction(1)),
               3: Const(Fraction(-1))}
    assert negated in cands
    # every candidate is still a left null vector
    for c in cands:
        assert verify_nullvector(J, c, p, left=True)


def test_normalize_candidates_clears_denominators():
    x = StateDeriv(0)
    m = checks.sparse(((simplify(x), Const(Fraction(1))),
                       (simplify(x * x), simplify(x))))
    p = Prober()
    v = kernel_vector(m, p)
    # v = (-x^-1, 1) up to scaling; the cleared form (-1, x) must appear
    cands = normalize_candidates(v, p)
    cleared = {0: Const(Fraction(-1)), 1: simplify(x)}
    scaled_first = {0: Const(Fraction(1)), 1: simplify(-x)}
    assert cleared in cands or scaled_first in cands


def test_normalize_skips_unit_entry_rescale():
    p = Prober()
    v = {0: Const(Fraction(1)), 1: Const(Fraction(2))}
    cands = normalize_candidates(v, p)
    assert cands[0] == v
    assert {0: Const(Fraction(1, 2)), 1: Const(Fraction(1))} in cands
    # rescaling by the literal 1 would duplicate the original
    assert len([c for c in cands if c == v]) == 1


class CountingProber(Prober):
    """A Prober that records every expression it is asked about."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def verdict(self, e):
        self.asked.append(e)
        return super().verdict(e)


def test_pivot_choice_asks_no_verdict_past_its_pivot():
    x, hidden = simplify(StateDeriv(0)), checks.HIDDEN_ZERO
    two = Const(Fraction(2))
    p = CountingProber()
    # a constant pivots at once, ahead of every expression
    assert _pivot_choice([(0, hidden), (1, x), (2, two), (3, ONE)],
                         p) == (2, "pivot")
    assert p.asked == []
    # the first expression proven nonzero pivots, and none after it is asked
    assert _pivot_choice([(0, hidden), (1, x), (2, simplify(x * x)),
                          (3, hidden)], p) == (1, "pivot")
    assert p.asked == [hidden, x]
    # with no proof the column sticks on its first probably-zero entry
    p = CountingProber()
    assert _pivot_choice([(4, hidden)], p) == (hidden, "stuck")
    assert p.asked == [hidden] and p.uncertain_seen
    assert _pivot_choice([], p) == (None, "free")


def _basis_or_stuck(vectors):
    """The list of vectors an iterator gives, or ("stuck", column)."""
    try:
        return list(vectors())
    except EliminationStuck as e:
        return ("stuck", e.col)


def _filled(basis, n):
    """A basis of null vectors, each held to the vector form and filled
    out to n entries; ("stuck", column) as it is."""
    if isinstance(basis, tuple):
        return basis
    for v in basis:
        checks.assert_vector_form(v, n)
    return [checks.dense_vector(v, n) for v in basis]


def _dense_basis(matrix, prober):
    """The dense reference at every basis index until it returns None."""
    def vectors():
        found = []
        while (v := checks.dense_kernel_vector(matrix, prober,
                                               len(found))) is not None:
            found.append(v)
        return found
    return _basis_or_stuck(vectors)


def test_kernel_basis_matches_dense_reference():
    # n = randint(1, randint(1, 8)) favours small matrices: fraction-free
    # elimination grows the entries, and n = 8 costs ten times n = 4
    rng = random.Random(61)
    seen = {"stuck": 0, "dims": set()}
    for case in range(500):
        n = rng.randint(1, rng.randint(1, 8))
        m = checks.rand_sparse_matrix(rng, n, rng.uniform(0.2, 0.8))
        if case % 25 == 0:
            m[rng.randrange(n)][rng.randrange(n)] = checks.HIDDEN_ZERO
        p = Prober()
        for left in (False, True):
            # one prober, so verdicts are shared; the flag is compared
            p.uncertain_seen = False
            got = _filled(_basis_or_stuck(
                lambda: kernel_basis(checks.sparse(m), p, left=left)), n)
            sparse_uncertain, p.uncertain_seen = p.uncertain_seen, False
            ref = _dense_basis([list(r) for r in zip(*m)] if left else m, p)
            assert got == ref, (case, left)
            assert sparse_uncertain == p.uncertain_seen, (case, left)
            if isinstance(got, tuple):
                seen["stuck"] += 1
            else:
                seen["dims"].add(len(got))
    # the draw reaches stuck columns and kernels of several dimensions
    assert seen["stuck"] >= 10
    assert {0, 1, 2, 3} <= seen["dims"]


def _interleaved_components(rng, hidden):
    """A matrix of 2 to 6 random sparse diagonal blocks, its rows and its
    columns each shuffled, so that no component's indices are contiguous;
    with hidden, one or two blocks hold HIDDEN_ZERO in their first column,
    where no other entry of that column is proven nonzero on either
    side."""
    blocks = [checks.rand_sparse_matrix(rng, rng.randint(1, 4),
                                        rng.uniform(0.3, 0.9))
              for _ in range(rng.randint(2, 6))]
    for b in rng.sample(range(len(blocks)), rng.randint(1, 2)) if hidden \
            else ():
        blocks[b] = [[checks.HIDDEN_ZERO, ONE], [ZERO, ONE]]
        if rng.random() < 0.5:
            blocks[b] = [list(r) for r in zip(*blocks[b])]
    n = sum(len(b) for b in blocks)
    dense = [[ZERO] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            dense[at + i][at:at + len(b)] = row
        at += len(b)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[dense[r][c] for c in cols] for r in rows], len(blocks)


def test_component_bases_match_the_dense_reference():
    # each component is eliminated on its own and the vectors merged in
    # ascending free-column order: the whole-matrix elimination, vector by
    # vector, with its stuck column and its uncertain flag
    rng = random.Random(73)
    seen = {"stuck": 0, "vectors": 0, "split": 0}
    for case in range(60):
        m, made = _interleaved_components(rng, hidden=case % 3 == 0)
        parts = components(checks.sparse(m))
        assert len(parts) >= made
        seen["split"] += any(p.rows != tuple(range(p.rows[0], p.rows[0]
                                                   + len(p.rows)))
                             for p in parts if p.rows)
        p = Prober()
        for left in (False, True):
            p.uncertain_seen = False
            got = _filled(_basis_or_stuck(
                lambda: kernel_basis(checks.sparse(m), p, left=left)), len(m))
            sparse_uncertain, p.uncertain_seen = p.uncertain_seen, False
            ref = _dense_basis([list(r) for r in zip(*m)] if left else m, p)
            assert got == ref, (case, left)
            assert sparse_uncertain == p.uncertain_seen, (case, left)
            if isinstance(got, tuple):
                seen["stuck"] += 1
            else:
                seen["vectors"] += len(got)
    assert seen["stuck"] >= 30 and seen["vectors"] >= 150
    assert seen["split"] >= 50


def test_kernel_vector_wraps_kernel_basis():
    rng = random.Random(67)
    for _ in range(40):
        m = checks.sparse(
            checks.rand_sparse_matrix(rng, rng.randint(1, 5), 0.5))
        p = Prober()
        for left, wrapper in ((False, kernel_vector), (True, cokernel_vector)):
            basis = list(kernel_basis(m, p, left=left))
            for i in range(len(basis) + 1):
                want = basis[i] if i < len(basis) else None
                assert wrapper(m, p, basis_index=i) == want


def jac_of(system):
    sig = signature_matrix(system)
    return system_jacobian(system, sig, canonical_offsets(sig))


def test_normalize_candidates_are_null_vectors():
    # stands in for the re-verification normalize_candidates no longer runs
    rng = random.Random(71)
    p = Prober()
    checked = cleared = 0
    for case in range(80):
        if case % 2:
            system = checks.singular_linear_system(rng, str(case))
            J = jac_of(system)
        else:
            J = checks.sparse(checks.rand_sparse_matrix(
                rng, rng.randint(2, 5), rng.uniform(0.3, 0.8)))
        for left in (False, True):
            try:
                basis = list(kernel_basis(J, p, left=left))
            except EliminationStuck:
                continue
            for vec in basis:
                cleared += any(isinstance(e, Pow) and e.exponent < 0
                               for x in vec.values() for e in walk(x))
                for cand in normalize_candidates(vec, p):
                    checks.assert_vector_form(cand, len(J))
                    assert verify_nullvector(J, cand, p, left=left), case
                    checked += 1
    # the draw reaches cleared-denominator forms
    assert checked >= 150 and cleared >= 5
