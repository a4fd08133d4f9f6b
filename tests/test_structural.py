import itertools
import random
from pathlib import Path

import pytest

from checks import (dense, index_chain, pendulum_chain, reference_offsets,
                    sparse, validate_offsets, walk_orders)
from daefix import corpus, structural
from daefix.dsl import parse_dae
from daefix.expr import NEG_INF, ZERO, StateDeriv, derivative, partial, simplify
from daefix.jacobian import system_jacobian
from daefix.structural import (
    OffsetPair, SignatureMatrix, canonical_offsets, degrees_of_freedom,
    sigma_from_rows, signature_matrix, solution_scheme, structural_index,
)

PENDULUM = """\
dae pendulum
vars x, y, lambda
params G = 9.8, L = 1
eq f1: x'' + x*lambda = 0
eq f2: y'' + y*lambda - G = 0
eq f3: x^2 + y^2 - L^2 = 0
"""

BRENAN = """\
dae brenan
vars x, y
input h1, h2
eq f1: x' + t*y' - h1(t) = 0
eq f2: x + t*y - h2(t) = 0
"""


def brute_max_value(rows):
    n = len(rows)
    best = NEG_INF
    for perm in itertools.permutations(range(n)):
        if any(rows[i][perm[i]] == NEG_INF for i in range(n)):
            continue
        v = sum(rows[i][perm[i]] for i in range(n))
        best = max(best, v)
    return best


def brute_lex_hvt(rows):
    n = len(rows)
    best_val = brute_max_value(rows)
    if best_val == NEG_INF:
        return None
    cands = []
    for perm in itertools.permutations(range(n)):
        if any(rows[i][perm[i]] == NEG_INF for i in range(n)):
            continue
        if sum(rows[i][perm[i]] for i in range(n)) == best_val:
            cands.append(perm)
    return tuple(enumerate(min(cands)))


def test_pendulum_signature():
    s = parse_dae(PENDULUM)
    sig = signature_matrix(s)
    assert sig.rows == sparse(((2, NEG_INF, 0), (NEG_INF, 2, 0),
                               (0, 0, NEG_INF)))
    assert sig.value == 2
    assert sig.swp
    assert sig.hvt == ((0, 0), (1, 2), (2, 1))


def test_pendulum_offsets_index_dof():
    s = parse_dae(PENDULUM)
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    assert off.c == (0, 0, 2)
    assert off.d == (2, 2, 0)
    assert structural_index(off) == 3
    assert degrees_of_freedom(off) == 2
    assert off.value == sig.value


def test_brenan_offsets():
    s = parse_dae(BRENAN)
    sig = signature_matrix(s)
    assert sig.rows == sparse(((1, 1), (0, 0)))
    off = canonical_offsets(sig)
    assert off.c == (0, 1)
    assert off.d == (1, 1)
    # min d > 0, so the index is just max c
    assert structural_index(off) == 1
    assert degrees_of_freedom(off) == 1


def test_structurally_ill_posed():
    s = parse_dae("dae sip\nvars x1, x2\neq f1: x1' + x1 = 0\neq f2: x1 - t = 0\n")
    sig = signature_matrix(s)
    assert not sig.swp
    assert sig.value == NEG_INF
    assert sig.hvt is None


def test_hvt_against_exhaustive_search():
    # tie-heavy (0..1) and wide entries, sparse and dense, n = 1..7
    rng = random.Random(42)
    for case in range(360):
        n = 1 + case % 7
        top = (1, 3, 9)[case // 7 % 3]
        density = (0.35, 0.7, 1.0)[case // 21 % 3]
        rows = [[(rng.randint(0, top) if rng.random() < density else NEG_INF)
                 for _ in range(n)] for _ in range(n)]
        sig = sigma_from_rows(sparse(rows))
        assert sig.value == brute_max_value(rows)
        expect = brute_lex_hvt(rows)
        assert sig.hvt == expect


@pytest.mark.parametrize("solve_picks_shift", [False, True])
def test_hvt_on_a_cycle(solve_picks_shift):
    # sigma_ii = sigma_i,i+1 = 0: the identity and the shift are the only
    # HVTs.  Weighting (0, 1) and (n-1, n-1) keeps both at value 1 but makes
    # the solve return the shift, so row 0 must reroute through every row,
    # a path longer than the default recursion limit.
    n = 1500
    rows = [[NEG_INF] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][(i + 1) % n] = 0
    if solve_picks_shift:
        rows[0][1] = rows[n - 1][n - 1] = 1
    rows = sparse(rows)
    first = structural._assignment_max(rows)[1]
    assert first == ([(i + 1) % n for i in range(n)] if solve_picks_shift
                     else list(range(n)))
    sig = sigma_from_rows(rows)
    assert sig.hvt == tuple((i, i) for i in range(n))
    assert sig.value == (1 if solve_picks_shift else 0)


def test_lex_smallest_hvt_does_not_recurse():
    # row i is tight at columns i and i + 1 mod n and the solve handed over
    # the shift: row 0 takes column 0 by one path through all 3000 rows
    n = 3000
    tight = [sorted((i, (i + 1) % n)) for i in range(n)]
    shift = [(i + 1) % n for i in range(n)]
    assert structural._lex_smallest_hvt(tight, shift) == tuple(
        (i, i) for i in range(n))


def test_offsets_are_dual_to_the_hvt_beyond_brute_force():
    # max over transversals = min over valid offsets (Pryce 2001), at sizes
    # no permutation search reaches
    rng = random.Random(1987)
    checked = 0
    while checked < 60:
        n = rng.randint(8, 80)
        density = rng.choice((0.05, 0.15, 0.4))
        rows = [[(rng.randint(0, 4) if rng.random() < density else NEG_INF)
                 for _ in range(n)] for _ in range(n)]
        sig = sigma_from_rows(sparse(rows))
        if not sig.swp:
            continue
        off = canonical_offsets(sig)
        assert off.value == sig.value
        assert validate_offsets(sig, off.c, off.d)
        assert all(off.d[j] - off.c[i] == rows[i][j] for i, j in sig.hvt)
        assert off == reference_offsets(sig)
        checked += 1


def test_a_warm_started_solve_equals_a_fresh_one():
    # replace one or two rows of a well-posed Sigma by rows that may be
    # higher or lower anywhere: solved from the old dual and HVT, the value,
    # the HVT and the offsets are those of a fresh solve
    rng = random.Random(1987)
    checked = 0
    while checked < 400:
        n = rng.randint(1, 9)
        density = rng.choice((0.3, 0.6, 1.0))

        def row():
            return sparse([[rng.randint(0, 4) if rng.random() < density
                            else NEG_INF for _ in range(n)]])[0]
        prior = sigma_from_rows([row() for _ in range(n)])
        if not prior.swp:
            continue
        rows = list(prior.rows)
        for i in rng.sample(range(n), rng.randint(1, min(2, n))):
            rows[i] = row()
        got, fresh = sigma_from_rows(rows, prior), sigma_from_rows(rows)
        assert (got.rows, got.value, got.hvt) \
            == (fresh.rows, fresh.value, fresh.hvt)
        if fresh.swp:
            assert canonical_offsets(got) == canonical_offsets(fresh)
        checked += 1


@pytest.mark.parametrize("rows", [[{0: 1, 2: 0}, {1: 0}], [{-1: 0}, {0: 1}]])
def test_a_column_outside_the_matrix_is_refused(rows):
    with pytest.raises(structural.StructuralError):
        sigma_from_rows(rows)


def test_one_assignment_solve_per_signature_matrix(monkeypatch):
    calls = []
    solve = structural._assignment_max

    def counted(rows, *prior):
        calls.append(len(rows))
        return solve(rows, *prior)

    monkeypatch.setattr(structural, "_assignment_max", counted)
    rng = random.Random(3)
    for made in range(1, 41):
        n = rng.randint(1, 12)
        sigma_from_rows(sparse([[(rng.randint(0, 2) if rng.random() < 0.6
                                  else NEG_INF) for _ in range(n)]
                                for _ in range(n)]))
        assert len(calls) == made


ROW_SYSTEMS = dict(
    {name: corpus.source(name) for name in corpus.names()},
    brenan_x4=(Path(__file__).parent / "golden" / "brenan_x4.dae").read_text(),
    chain_16=pendulum_chain(16))


@pytest.mark.parametrize("formal", [False, True])
@pytest.mark.parametrize("name", sorted(ROW_SYSTEMS))
def test_signature_rows_match_hod(name, formal):
    s = parse_dae(ROW_SYSTEMS[name])
    sig = signature_matrix(s, formal=formal)
    for i, eq in enumerate(s.equations):
        tree = eq.raw if formal else simplify(eq.raw)
        assert sig.rows[i] == walk_orders(tree)


def test_offsets_are_valid_and_minimal():
    # every valid pair dominates the canonical one, elementwise
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        rows = [[(rng.randint(0, 2) if rng.random() < 0.75 else NEG_INF)
                 for _ in range(n)] for _ in range(n)]
        sig = sigma_from_rows(sparse(rows))
        if not sig.swp:
            continue
        off = canonical_offsets(sig)
        assert validate_offsets(sig, off.c, off.d)
        # enumerate candidate c in a box around the canonical one; the
        # smallest d compatible with a given c is max_i (sigma_ij + c_i)
        ranges = [range(0, ci + 3) for ci in off.c]
        for c in itertools.product(*ranges):
            d = tuple(max(rows[i][j] + c[i] for i in range(n)
                          if rows[i][j] != NEG_INF) for j in range(n))
            if validate_offsets(sig, c, d):
                assert all(a <= b for a, b in zip(off.c, c))
                assert all(a <= b for a, b in zip(off.d, d))
        checked += 1


def test_validate_offsets_shifted_pair():
    s = parse_dae(BRENAN)
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    c2 = tuple(ci + 1 for ci in off.c)
    d2 = tuple(dj + 1 for dj in off.d)
    assert validate_offsets(sig, c2, d2)
    # too-small d violates d_j - c_i >= sigma_ij
    assert not validate_offsets(sig, off.c, tuple(dj - 1 for dj in off.d))
    assert not validate_offsets(sig, (-1,) + off.c[1:], off.d)


def test_offsets_need_multiple_sweeps():
    # the first sweep bumps c_1, which feeds back into d on the second
    rows = [[0, NEG_INF], [1, 0]]
    sig = sigma_from_rows(sparse(rows))
    off = canonical_offsets(sig)
    assert off.c == (1, 0)
    assert off.d == (1, 0)
    assert validate_offsets(sig, off.c, off.d)


def test_offsets_of_a_long_chain_of_differentiations():
    # c_i = n - 1 - i: equation i is differentiated once per later link
    n = 1100
    sig = signature_matrix(parse_dae(index_chain(n)))
    off = canonical_offsets(sig)
    assert off.c == tuple(range(n - 1, -1, -1))
    assert structural_index(off) == n
    assert degrees_of_freedom(off) == 0


def test_pendulum_scheme():
    s = parse_dae(PENDULUM)
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    scheme = solution_scheme(off, system_jacobian(s, sig, off))
    ks = [st.k for st in scheme.stages]
    assert ks == [-2, -1]
    st0 = scheme.stages[0]
    assert st0.equations == ((2, 0),)
    assert st0.unknowns == ((0, 0), (1, 0))
    assert not st0.linear  # x^2 + y^2 = L^2 is not linear in x, y
    st1 = scheme.stages[1]
    assert st1.equations == ((2, 1),)
    assert st1.unknowns == ((0, 1), (1, 1))
    assert st1.linear
    g = scheme.generic
    assert g.k == 0
    assert g.equations == ((0, 0), (1, 0), (2, 2))
    assert g.unknowns == ((0, 2), (1, 2), (2, 0))
    assert scheme.generic.linear


def test_scheme_nonlinear_generic():
    src = ("dae m\nvars x1, x2\ninput h1, h2\n"
           "eq f1: x1 + exp(-x1' - x2*x2'') + h1(t) = 0\n"
           "eq f2: x1 + x2*x2' + x2^2 + h2(t) = 0\n")
    s = parse_dae(src)
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    assert off.c == (0, 1)
    assert off.d == (1, 2)
    scheme = solution_scheme(off, system_jacobian(s, sig, off))
    # f1 is undifferentiated at k=0 and exp(-x1'...) is nonlinear in x1'
    assert not scheme.generic.linear


def _stage_linear_reference(system, eqs, unknowns):
    """Stage linearity from scratch: every first partial of each
    undifferentiated equation by every stage unknown, then every second
    partial by every stage unknown."""
    unknown_atoms = [StateDeriv(j, o) for j, o in unknowns]
    for i, order in eqs:
        if order > 0:
            continue
        f = system.equations[i].expr
        for u in unknown_atoms:
            first = simplify(partial(f, u))
            if first == ZERO:
                continue
            for w in unknown_atoms:
                if simplify(partial(first, w)) != ZERO:
                    return False
    return True


def _scheme_linearity(s, formal):
    """(scheme linearity, reference linearity) per stage, None when the
    system has no transversal."""
    sig = signature_matrix(s, formal=formal)
    if not sig.swp:
        return None
    off = canonical_offsets(sig)
    scheme = solution_scheme(off, system_jacobian(s, sig, off))
    return [(st.linear,
             _stage_linear_reference(s, st.equations, st.unknowns))
            for st in scheme.stages + (scheme.generic,)]


@pytest.mark.parametrize("formal", [False, True])
@pytest.mark.parametrize("name", sorted(ROW_SYSTEMS))
def test_scheme_linearity_matches_reference(name, formal):
    pairs = _scheme_linearity(parse_dae(ROW_SYSTEMS[name]), formal)
    assert pairs
    assert all(got == want for got, want in pairs)


def _random_term(rng, names, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.15:
            return str(rng.randint(1, 3))
        return rng.choice(names) + "'" * rng.randint(0, 2)
    sub = _random_term(rng, names, depth - 1)
    if r < 0.45:
        return "(%s)^%d" % (sub, rng.randint(2, 3))
    if r < 0.65:
        return "%s*%s" % (sub, _random_term(rng, names, depth - 1))
    if r < 0.8:
        return "%s(%s)" % (rng.choice(("sin", "cos", "exp")), sub)
    if r < 0.9:
        # cancels in the normal form; formal signatures still see it
        return "(%s - %s)" % (sub, sub)
    # normal form keeps the atoms although the product is constant
    return "exp(%s)*exp(-(%s))" % (sub, sub)


def _random_system(rng):
    n = rng.randint(1, 4)
    names = ["x%d" % j for j in range(1, n + 1)]
    eqs = ["eq f%d: %s = 0" % (i, " + ".join(
        _random_term(rng, names, 2) for _ in range(rng.randint(1, 3))))
        for i in range(1, n + 1)]
    return parse_dae("dae r\nvars %s\n%s\n" % (", ".join(names),
                                                 "\n".join(eqs)))


def test_scheme_linearity_matches_reference_on_random_systems():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    posed = 0
    for _ in range(2000):
        s = _random_system(rng)
        for formal in (False, True):
            pairs = _scheme_linearity(s, formal)
            if pairs is None:
                continue
            posed += 1
            for got, want in pairs:
                assert got == want
                seen[want] += 1
    assert posed > 2000
    assert min(seen.values()) > 500


def test_scheme_differentiates_only_jacobian_entries(monkeypatch):
    n = 64
    s = parse_dae(pendulum_chain(n))
    sig = signature_matrix(s)
    off = canonical_offsets(sig)
    J = system_jacobian(s, sig, off)
    calls = []

    def counted(e, atom):
        calls.append(atom)
        return derivative(e, atom)

    monkeypatch.setattr(structural, "derivative", counted)
    scheme = solution_scheme(off, J)
    assert len(calls) <= 2 * n
    assert [st.linear for st in scheme.stages] == [False, True]
    assert scheme.generic.linear


def _mismatches(formal, true):
    return [(i, j, a, b) for i, (fr, tr) in enumerate(
                zip(dense(formal.rows, NEG_INF), dense(true.rows, NEG_INF)))
            for j, (a, b) in enumerate(zip(fr, tr)) if a != b]


def test_compare_signatures():
    s = parse_dae("dae m\nvars x1, x2\neq f1: x1' + x2 - x1' = 0\neq f2: x1 + x2 = 0\n")
    formal, true = signature_matrix(s, formal=True), signature_matrix(s)
    assert formal.rows[0][0] == 1
    assert true.entry(0, 0) == NEG_INF
    assert formal.value == 1
    assert true.value == 0
    assert _mismatches(formal, true) == [(0, 0, 1, NEG_INF)]


def test_compare_signatures_agree():
    s = parse_dae(PENDULUM)
    formal, true = signature_matrix(s, formal=True), signature_matrix(s)
    assert formal.value == true.value
    assert _mismatches(formal, true) == []
