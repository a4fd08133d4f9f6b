"""Tests of the benchmark's own parts: generators, reference checker,
budget, tracing and the order independence of results."""

import json
import os
import random
import sys

import pytest

import reference
import run
import runner
import tracing
import workloads

sys.path.insert(0, run.SRC)

from daefix.dsl import parse_dae  # noqa: E402

# parse_dae alone runs far past the budget on these two inputs (the
# normal form of the whole power is built at parse time); the benchmark
# keeps them as known time-outs, and the generators are checked on small
# exponents below instead.
HANGS = {"power_60/analyze", "monomial/analyze"}


def _ops(name, seed=1):
    return workloads.build(name, run.ROOT, seed).ops


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generated_text_parses_with_stated_size(name):
    for op in _ops(name, seed=7):
        if op.name in HANGS:
            continue
        for text in op.texts[:2]:
            system = parse_dae(text)
            assert system.n == op.n == len(system.var_names), op.name


def test_family_sizes_follow_their_parameters():
    assert [op.n for op in sorted(_ops("decoupled"), key=lambda o: o.n)] \
        == [2 * k for k in workloads.BRENAN_KS]
    assert parse_dae(workloads.pendulum_chain(5)).n == 5
    assert parse_dae(workloads.power_system(3)).n == 2
    assert parse_dae(workloads.monomial_system(3)).n == 1


def test_orderings_permute_equations_and_declarations():
    a = workloads.brenan_blocks(4, random.Random(1))
    b = workloads.brenan_blocks(4, random.Random(2))
    assert a != b

    def equations(text):
        return sorted(ln for ln in text.splitlines() if ln.startswith("eq "))
    assert equations(a) == equations(b)
    # the seed orders the operations; the orderings of each are fixed
    assert [o.name for o in _ops("corpus", 1)] != \
        [o.name for o in _ops("corpus", 2)]
    chains = [{o.name: set(o.texts) for o in _ops("coupled", seed)}
              for seed in (1, 2)]
    assert chains[0] == chains[1]
    assert all(len(texts) == workloads.VARIANTS
               for texts in chains[0].values())


def _run_op(op, tmp_path, budget=run.BUDGET_S, tracer=None):
    path = tmp_path / (op.name.replace("/", "_") + ".dae")
    path.write_text(op.texts[0])
    out = str(path) + ".json"
    got = runner.run([op.command, str(path), "--json", out], budget, tracer)
    doc = None
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    return got, doc


def _corpus_op(name):
    return next(op for op in _ops("corpus") if op.name == name)


def test_checker_accepts_reference_and_fails_a_wrong_value(tmp_path):
    schemas = reference.load_schemas(run.ROOT)
    op = _corpus_op("pendulum/analyze")
    got, doc = _run_op(op, tmp_path)
    assert reference.check(op, got.exit, doc, schemas) == (reference.OK, "")

    wrong = workloads.Op(op.name, op.command, op.texts, op.exits,
                         dict(op.fields, value=3), op.n)
    status, detail = reference.check(wrong, got.exit, doc, schemas)
    assert status == reference.WRONG and detail.startswith("value")

    singular = workloads.Op(op.name, op.command, op.texts,
                            workloads.SINGULAR_EXITS, op.fields, op.n)
    assert reference.check(singular, got.exit, doc, schemas)[0] \
        == reference.WRONG


def test_schema_validation_rejects_a_broken_report(tmp_path):
    schemas = reference.load_schemas(run.ROOT)
    op = _corpus_op("brenan/fix")
    got, doc = _run_op(op, tmp_path)
    reference.validate(doc, schemas["fix"])
    broken = dict(doc, status="fixed")
    with pytest.raises(reference.SchemaError):
        reference.validate(broken, schemas["fix"])
    with pytest.raises(reference.SchemaError):
        reference.validate(dict(doc, extra=1), schemas["fix"])
    assert reference.check(op, got.exit, broken, schemas)[0] \
        == reference.WRONG


def _loop_forever(argv=None):
    while True:
        pass


@pytest.mark.parametrize("traced", [False, True])
def test_budget_kills_a_looping_child(monkeypatch, tmp_path, traced):
    import daefix.cli
    monkeypatch.setattr(daefix.cli, "main", _loop_forever)
    op = _corpus_op("pendulum/analyze")
    got, doc = _run_op(op, tmp_path, budget=0.3,
                       tracer=tracing.Tracer() if traced else None)
    assert got.failure == runner.TIMEOUT
    assert got.seconds == 0.3 and got.exit is None and doc is None
    # a traced child stops itself and still reports its spans
    assert (got.layers is not None) == traced


def test_traced_child_reports_every_layer(tmp_path):
    got, _ = _run_op(_corpus_op("brenan/fix"), tmp_path,
                     tracer=tracing.Tracer())
    assert got.exit == 0
    metrics = tracing.reduce_layers({"brenan/fix": [got.layers]}, 1.0, 1.2)
    assert set(metrics) == {name for name, _ in tracing.METRICS}
    assert metrics["convert.fix_dae.steps"] == 1
    assert metrics["dsl.parse_dae.calls"] == 1
    assert metrics["cli.main.self_s"] > 0


def test_corpus_results_do_not_depend_on_operation_order(tmp_path):
    results = []
    for seed in (1, 2):
        got = {}
        for op in _ops("corpus", seed):
            outcome, doc = _run_op(op, tmp_path)
            got[op.name] = (outcome.exit, doc)
        results.append(got)
    assert results[0] == results[1]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in spec["workloads"])


def test_rounds_are_whole_cycles_fixed_by_the_arguments():
    for name in run.WORKLOADS:
        for seconds in (1, 10, 25, 60):
            for traced in (False, True):
                rounds = run.rounds_for(name, seconds, traced)
                assert rounds >= workloads.VARIANTS
                assert rounds % workloads.VARIANTS == 0
    assert run.rounds_for("corpus", 25, False) == run.ROUNDS_25_S["corpus"]
    assert abs(2 * run.rounds_for("corpus", 25, True)
               - run.ROUNDS_25_S["corpus"]) <= 2 * workloads.VARIANTS
