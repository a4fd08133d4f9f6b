"""The carried analysis of a conversion step equals a fresh one.

fix_dae analyses the system each step produced, combination or
substitution, from the analysis before it: the rows the step kept carry
their signature rows, the assignment's potentials and HVT entries, their
Jacobian rows and the components of J they alone make up.  Each test here
runs fix_dae once as it is and once with nothing carried, and compares every
analysis, the prober's uncertain flag after it, and how the run ended.
Every analysis is also held to the one row form (checks.assert_one_form),
which the comparison cannot check: dict equality ignores key order.
"""

import random
import re

import pytest

import checks
import daefix.convert as convert
import daefix.expr as expr
import daefix.jacobian as jacobian
import daefix.structural as structural
from daefix.convert import ConvertError, MethodKind, analyze, fix_dae
from daefix.corpus import load, names as corpus_names
from daefix.dsl import ParseError, parse_dae
from daefix.expr import ZERO, Add, StateDeriv, atoms
from daefix.nullspace import NullspaceError
from daefix.zerotest import Prober
from test_generated import (nonsingular_transforms, pendulum_after_mixing,
                            pendulum_after_change_of_variables,
                            pendulum_after_scaled_mixing, scaled_mixes,
                            unit_triangular_mixes)


def _run(monkeypatch, system, method, formal, carry):
    """Every analysis fix_dae makes, each with the prober's uncertain flag
    right after it, and the outcome: (status, final value, uncertain) or
    the type and message of the error that ended the run."""
    log = []
    original = convert.analyze

    def logged(system, prober, formal=False, prior=None):
        if not carry:
            prior = None
        a = original(system, prober, formal, prior)
        log.append((a, prober.uncertain_seen))
        return a

    with monkeypatch.context() as m:
        m.setattr(convert, "analyze", logged)
        try:
            r = fix_dae(system, Prober(), method=method, formal=formal)
            end = (r.status, r.final_value, r.uncertain)
        except (ConvertError, NullspaceError) as ex:
            end = (type(ex).__name__, str(ex))
    return log, end


def _assert_carried_equals_fresh(monkeypatch, system, method=None,
                                 formal=False):
    carried, end = _run(monkeypatch, system, method, formal, True)
    fresh, fresh_end = _run(monkeypatch, system, method, formal, False)
    assert end == fresh_end
    assert len(carried) == len(fresh)
    for (a, flag), (b, fresh_flag) in zip(carried, fresh):
        checks.assert_one_form(a)
        checks.assert_one_form(b)
        # Sigma rows, value, HVT, offsets, J, class and det
        assert a == b
        if a.jacobian is not None:
            assert [(c.rows, c.cols) for c in a.jacobian.components] == [
                (c.rows, c.cols) for c in b.jacobian.components]
        assert flag == fresh_flag
        # and a fresh analysis of the same system on its own
        assert a == analyze(a.system, Prober(), formal)
    return carried, end


@pytest.mark.parametrize("formal", [False, True])
@pytest.mark.parametrize("method", [None, "lc", "es"])
@pytest.mark.parametrize("name", corpus_names())
def test_corpus(monkeypatch, name, method, formal):
    _assert_carried_equals_fresh(monkeypatch, load(name), method, formal)


@pytest.mark.parametrize("formal", [False, True])
def test_brenan_blocks(monkeypatch, formal):
    for k in range(1, 17):
        log, end = _assert_carried_equals_fresh(
            monkeypatch, parse_dae(checks.brenan_blocks(k)), formal=formal)
        assert end[1] == 0 and len(log) == k + 1
        # each step replaces a row of one block: every other row of Sigma
        # and the other blocks' rows of J are the very dicts of the
        # analysis before
        for (before, _), (after, _) in zip(log, log[1:]):
            new_sigma = [i for i in range(2 * k)
                         if after.signature.rows[i]
                         is not before.signature.rows[i]]
            changed = [i for i in range(2 * k)
                       if after.jacobian.matrix[i]
                       is not before.jacobian.matrix[i]]
            assert len(new_sigma) == 1
            assert len(changed) <= 2
            assert {i // 2 for i in changed} == {new_sigma[0] // 2}


def chained_brenan(k):
    """Brenan blocks where row a of each block after the first also holds
    the previous block's x, of order 0.  That entry is tight only while
    the previous block's x has offset 0, so the steps merge components of
    J and split them again."""
    text = checks.brenan_blocks(k)
    for b in range(2, k + 1):
        text = text.replace("eq a%d: x%d' + t*y%d'" % (b, b, b),
                            "eq a%d: x%d' + t*y%d' + x%d" % (b, b, b, b - 1))
    return text


@pytest.mark.parametrize("formal", [False, True])
def test_steps_that_merge_and_split_components(monkeypatch, formal):
    log, end = _assert_carried_equals_fresh(
        monkeypatch, parse_dae(chained_brenan(4)), formal=formal)
    assert end[1] == 0 and len(log) == 5
    partitions = [[c.rows for c in a.jacobian.components] for a, _ in log]
    assert partitions == [
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        [(0, 1, 2, 3), (4, 5), (6, 7)],
        [(0,), (1, 2, 3), (4, 5), (6, 7)],
        [(0,), (1, 2, 3), (4, 5, 6, 7)],
        [(0,), (1, 2, 3, 5, 6, 7), (4,)]]
    # a component the step did not reach is the very object
    for (before, _), (after, _) in zip(log, log[1:]):
        for c in after.jacobian.components:
            old = [o for o in before.jacobian.components if o.rows == c.rows]
            assert (c in before.jacobian.components) == (
                bool(old) and all(after.jacobian.matrix[i]
                                  is before.jacobian.matrix[i]
                                  for i in c.rows))


@pytest.mark.parametrize("third", ["z + x", "z' + x", "z'' + x + y"])
def test_a_kept_row_whose_tight_columns_move(monkeypatch, third):
    # the step lowers d_x from 1 to 0, so the kept row c becomes tight in
    # x as well: its Jacobian row is derived again, not carried
    system = parse_dae("dae s\nvars x, y, z\ninput h1, h2\n"
                       "eq a: x' + t*y' - h1(t) = 0\n"
                       "eq b: x + t*y - h2(t) = 0\neq c: %s = 0\n" % third)
    [(before, _), (after, _)], _ = _assert_carried_equals_fresh(
        monkeypatch, system)
    assert after.offsets.d[0] < before.offsets.d[0]
    assert after.jacobian.matrix[2] != before.jacobian.matrix[2]
    assert after.jacobian.matrix[1] is before.jacobian.matrix[1]


@pytest.mark.parametrize("formal", [False, True])
def test_change_of_variables(monkeypatch, formal):
    for T in nonsingular_transforms(40, seed=11):
        _assert_carried_equals_fresh(
            monkeypatch, parse_dae(pendulum_after_change_of_variables(T)),
            formal=formal)


@pytest.mark.parametrize("formal", [False, True])
def test_constant_mixing(monkeypatch, formal):
    # up to where a run fails (ROADMAP item 1): the failure is the same
    for T, M in zip(nonsingular_transforms(60, seed=13),
                    unit_triangular_mixes(60, seed=17)):
        _assert_carried_equals_fresh(
            monkeypatch, parse_dae(pendulum_after_mixing(T, M)),
            formal=formal)


@pytest.mark.parametrize("formal", [False, True])
def test_scaled_mixing(monkeypatch, formal):
    # substitution and combination steps in turn, and every failure class
    for T, M in zip(nonsingular_transforms(60, seed=23),
                    scaled_mixes(60, seed=5)):
        _assert_carried_equals_fresh(
            monkeypatch, parse_dae(pendulum_after_scaled_mixing(T, M)),
            formal=formal)


def test_a_step_redoes_only_the_replaced_row(monkeypatch):
    """On 16 Brenan blocks whose coefficient t is b*t in block b, so that
    no two blocks share an entry, each analysis after the first runs one
    assignment search and the offsets search, and differentiates only the
    replaced row's tight entries, each once, on the summands that hold its
    atom; every summand is differentiated on its monomial, and none through
    expr.partial.  Its J carries every component but the
    replaced row's block as the very object, with its blocks and the
    determinants already expanded: the classification expands the two
    blocks the replaced row's block split into, and the next singular
    block, where it stops; 3k expansions in all."""
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((convert, "analyze"), (structural, "_search"),
                         (jacobian, "derivative"), (expr, "partial"),
                         (jacobian, "determinant")):
        counting(module, name)
    k = 16
    text = re.sub(r"t\*y(\d+)", r"\1*t*y\1", checks.brenan_blocks(k))
    report = fix_dae(parse_dae(text), Prober())
    assert len(report.steps) == k
    runs, run = [], None
    for name, args in calls:
        if name == "analyze":
            run = {"_search": [], "derivative": [], "partial": [],
                   "determinant": []}
            runs.append(run)
        elif run is not None:
            run[name].append(args)
    assert len(runs) == k + 1
    # from scratch: one search per row and the offsets search; the first
    # block is singular, and nothing is expanded after it
    assert len(runs[0]["_search"]) == 2 * k + 1
    assert [len(b) for b, in runs[0]["determinant"]] == [2]
    analyses = [report.initial] + [step.after for step in report.steps]
    for step, run, before, now in zip(report.steps, runs[1:], analyses,
                                      analyses[1:]):
        assert step.kind is MethodKind.LC
        p, after = step.pivot, step.after
        row = checks.dense(after.jacobian.matrix, ZERO)[p]
        assert len(run["_search"]) == 2
        f = step.system.equations[p].expr
        terms = f.children if isinstance(f, Add) else (f,)
        tight = {StateDeriv(j, after.signature.entry(p, j))
                 for j in range(2 * k) if row[j] is not ZERO}
        assert {a for _, a, _ in run["derivative"]} == tight
        assert len(run["derivative"]) == len(tight)
        assert all(e is f and ts and all(t in terms and a in atoms(t)
                                         for t in ts)
                   for e, a, ts in run["derivative"])
        kept = before.jacobian.components
        fresh = [c for c in now.jacobian.components if c not in kept]
        assert [c.rows for c in fresh] == [(p // 2 * 2, p // 2 * 2 + 1)]
        assert len(now.jacobian.components) == k
        assert [len(c.blocks) for c in fresh] == [2]
        assert sorted(len(b) for b, in run["determinant"]) == (
            [1, 1, 2] if step.index < k else [1, 1])
    assert sum(len(run["determinant"]) for run in runs) == 3 * k
    assert not any(run["partial"] for run in runs)


@pytest.mark.parametrize("formal", [False, True])
def test_a_substitution_step_redoes_only_its_rows(monkeypatch, formal):
    """Under method es each step on k Brenan blocks rewrites the two rows
    of one block in place and appends one row and one state.  Only those
    three rows get new Sigma and J rows, each with one assignment search,
    besides the offsets search; the step's component is those three rows,
    and every other component of J is carried as the very object."""
    k = 8
    text = checks.brenan_blocks(k)
    _assert_carried_equals_fresh(monkeypatch, parse_dae(text), "es", formal)
    searches = []
    search, analyze_ = structural._search, convert.analyze

    def counted(*args):
        searches[-1] += 1
        return search(*args)

    def logged(*args):
        searches.append(0)
        return analyze_(*args)
    monkeypatch.setattr(structural, "_search", counted)
    monkeypatch.setattr(convert, "analyze", logged)
    report = fix_dae(parse_dae(text), Prober(), method="es", formal=formal)
    assert report.final_value == 0 and len(report.steps) == k
    assert searches[0] == 2 * k + 1
    analyses = [report.initial] + [step.after for step in report.steps]
    for step, count, before, after in zip(report.steps, searches[1:],
                                          analyses, analyses[1:]):
        n, app = before.system.n, step.application
        assert step.kind is MethodKind.ES and after.system.n == n + 1
        assert app.rewritten == (step.pivot - 1, step.pivot)
        assert [rec.new_index for rec in app.renamed] == [n]
        touched = [step.pivot - 1, step.pivot, n]
        assert [i for i in range(n) if after.signature.rows[i]
                is not before.signature.rows[i]] + [n] == touched
        assert [i for i in range(n) if after.jacobian.matrix[i]
                is not before.jacobian.matrix[i]] + [n] == touched
        assert count == len(touched) + 1
        kept = before.jacobian.components
        assert [c.rows for c in after.jacobian.components
                if c not in kept] == [tuple(touched)]
        assert len(after.jacobian.components) == k


@pytest.mark.parametrize("method", [None, "lc", "es"])
def test_random_singular_linear_systems(monkeypatch, method):
    rng = random.Random(1001)
    for case in range(25):
        _assert_carried_equals_fresh(
            monkeypatch, checks.singular_linear_system(rng, str(case)),
            method)


@pytest.mark.parametrize("formal", [False, True])
def test_random_nonlinear_systems(monkeypatch, formal):
    rng = random.Random(1002)
    for _ in range(60):
        _assert_carried_equals_fresh(
            monkeypatch, checks.rand_factor_system(rng), formal=formal)


@pytest.mark.parametrize("formal, floor", [(False, 7), (True, 24)])
def test_random_coupled_systems(monkeypatch, formal, floor):
    """The draws above with f1 replaced by f1 + f2'
    (checks.rand_coupled_text), since in the true mode none of those draws
    takes a step.  Here at least floor of them take one, so carried
    analyses are compared in both modes."""
    rng = random.Random(1002)
    carried = 0
    for _ in range(60):
        try:
            system = parse_dae(checks.rand_coupled_text(rng))
        except ParseError:   # f2' holds sqrt' of a sum that cancels: 0^(-1/2)
            continue
        log, _ = _assert_carried_equals_fresh(monkeypatch, system,
                                              formal=formal)
        carried += len(log) > 1
    assert carried >= floor
