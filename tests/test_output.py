"""The writers against their references.

The Σ and System Jacobian tables, built from each row's sparse support,
must equal the dense tables of tests/checks.py cell for cell, and every
--json report must be the bytes of json.dumps(doc, indent=2) and a
newline.  Both run on the corpus, random draws 0-299 of
checks.rand_factor_text(random.Random(1002)), pendulum chains and Brenan
blocks, in both signature modes.  The text of fix and its --json report
must hold the same step vectors, definitions, equations and determinant.
"""

import json
import random
from types import SimpleNamespace

import pytest

import checks
from daefix import cli, corpus
from daefix.cli import main
from daefix.convert import analyze, fix_dae
from daefix.dsl import parse_dae
from daefix.expr import ZERO
from daefix.render import jacobian_entries, render_jacobian, render_sigma
from daefix.zerotest import Prober

MODES = ("true", "formal")


def _systems():
    rng = random.Random(1002)
    out = [(name, corpus.source(name)) for name in corpus.names()]
    out += [("draw_%d" % k, checks.rand_factor_text(rng)) for k in range(300)]
    out += [("chain_%d" % n, checks.pendulum_chain(n)) for n in (2, 3, 8, 32)]
    out += [("brenan_x%d" % k, checks.brenan_blocks(k)) for k in (1, 2, 5, 16)]
    return out


SYSTEMS = _systems()


def _same_table(got, want):
    assert got.split("\n") == want.split("\n")


@pytest.mark.parametrize("mode", MODES)
def test_tables_match_the_dense_reference(mode):
    formal = mode == "formal"
    tables = 0
    for name, text in SYSTEMS:
        system = parse_dae(text)
        a = analyze(system, Prober(), formal)
        _same_table(render_sigma(system, a.signature),
                    checks.reference_render_sigma(system, a.signature))
        tables += 1
        if a.offsets is None:
            continue
        _same_table(render_sigma(system, a.signature, a.offsets),
                    checks.reference_render_sigma(system, a.signature,
                                                  a.offsets))
        matrix = a.jacobian.matrix
        _same_table(render_jacobian(system, jacobian_entries(system, matrix)),
                    checks.reference_render_jacobian(
                        system, checks.dense(matrix, ZERO)))
        tables += 2
        # every step's table reads a signature carried from the step before
        for st in fix_dae(system, prober=Prober(), formal=formal).steps:
            if st.after.offsets is not None:
                _same_table(render_sigma(st.system, st.after.signature,
                                         st.after.offsets),
                            checks.reference_render_sigma(
                                st.system, st.after.signature,
                                st.after.offsets))
                tables += 1
    assert tables > 2 * len(SYSTEMS)


@pytest.fixture
def checked_writer(monkeypatch):
    """Wraps cli._write_json: each document it writes must be the bytes of
    json.dumps(doc, indent=2) and a newline.  Returns the list of the
    documents' paths, one entry per document checked."""
    checked = []
    write = cli._write_json

    def check(args, doc):
        write(args, doc)
        with open(args.json_path, "rb") as fh:
            got = fh.read()
        assert got == (json.dumps(doc, indent=2) + "\n").encode("ascii")
        checked.append(args.json_path)

    monkeypatch.setattr(cli, "_write_json", check)
    return checked


# (system, trace arguments) of forced steps that are applied
TRACES = (("brenan", ["--method", "lc", "--vector", "[-1, 1]"]),
          ("es_example", ["--method", "es", "--vector", "[-x2, 1]"]),
          ("brenan", ["--method", "lc", "--vector", "[1, 1]"]))


@pytest.mark.parametrize("mode", MODES)
def test_json_reports_are_the_bytes_of_json_dumps(tmp_path, capsys, mode,
                                                  checked_writer):
    src, out = tmp_path / "system.dae", str(tmp_path / "out.json")
    for _, text in SYSTEMS:
        src.write_text(text)
        for command in ("analyze", "fix"):
            main([command, str(src), "--mode", mode, "--json", out])
    for name, argv in TRACES:
        src.write_text(corpus.source(name))
        main(["trace", str(src), "--mode", mode, "--json", out] + argv)
    capsys.readouterr()
    # a rejected vector writes no report
    assert len(checked_writer) == 2 * len(SYSTEMS) + len(TRACES) - 1
    assert len(checked_writer) >= 600


# containers that recur as the very object, written once and then as text
_TABLE = {"entries": [[None, 1], [2, None]], "hvt": [[1, 2], [2, 1]]}
_ROW = [1, [2, {"x": None}]]


def _rows(sparse_rows, n, fill):
    """A table as the writers build it: rows of n cells, fill elsewhere."""
    return [cli._Row(row, n, fill) for row in sparse_rows]


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, None, True, "text", -7, 2.5,
    [None, True, False, 0, -1, -2 ** 70, 1.5, -0.0, 1e300],
    [float("nan"), float("inf"), float("-inf")],
    {"név": "x€😀", "ü": ["ü", "•", "\n\t\"\\", "\u0000"]},
    [1, [2, [3, []]], {"x": [None]}, "s"],
    [1, (2, 3)], ((1, 2), (3,), ()),
    {"rows": [[None, 1, None], [2, None, None]], "hvt": [[1, 2], [2, 1]]},
    {"deep": {"er": {"est": [[[["x"]]]]}}},
    {"a": _TABLE, "b": _TABLE},
    {"a": _TABLE, "b": {"c": _TABLE, "d": _TABLE}, "e": _TABLE},
    [_ROW, _ROW, [_ROW], _ROW], [[], [], {}, {}],
    {"a": _ROW, "b": [_ROW, _TABLE], "c": _ROW, "d": "text"},
    # table rows joined from their nonzeros: all fill, n = 1, non-ASCII
    # entries, None and "0" fill, and fills that compare equal
    _rows([{}, {}], 3, None), _rows([{0: 4}, {}], 1, None),
    _rows([{}], 0, None), {"t": _rows([{}, {1: 2}], 4, "0")},
    _rows([{1: "é€", 3: "x😀"}, {0: "\n\"", 2: "0"}], 4, "0"),
    [_rows([{0: 1, 2: -3}, {1: 2 ** 70}], 3, None),
     _rows([{2: "sin(x1)"}], 3, "0")],
    [_rows([{1: 1}], 2, 0), _rows([{1: 1}], 2, False),
     _rows([{1: 1}], 2, 0.0), _rows([{0: True}], 2, 1)],
    {"a": _rows([{1: None}], 2, None), "b": [_rows([{}], 2, "")]},
    # short and long flat lists that mix True, 1 and 1.0
    [True, 1, 1.0], [1, True, None, "x"], [[1.0, 1, True, False, 0, None]],
    {"a": [1, True] * 6, "b": ["1", 1, None] * 3, "c": [1, 2.5]},
])
@pytest.mark.parametrize("accelerated", (True, False))
def test_the_writer_on_edge_values(tmp_path, monkeypatch, doc, accelerated):
    if not accelerated:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    path = tmp_path / "out.json"
    cli._write_json(SimpleNamespace(json_path=str(path)), doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2)
                                 + "\n").encode("ascii")


@pytest.mark.parametrize("mode", MODES)
def test_agreeing_modes_build_and_write_one_table(tmp_path, monkeypatch,
                                                  capsys, mode):
    """Where the true and formal Σ rows agree, as on a pendulum chain, the
    analysis builds one table and writes it once, its text twice; where
    they differ it builds two."""
    built, dumped = [], []
    sigma_json, dump = cli._sigma_json, cli._dump

    def counted_sigma(sig):
        built.append(sigma_json(sig))
        return built[-1]

    def counted_dump(value, write, depth):
        dumped.append(value)
        dump(value, write, depth)

    monkeypatch.setattr(cli, "_sigma_json", counted_sigma)
    monkeypatch.setattr(cli, "_dump", counted_dump)
    src, out = tmp_path / "system.dae", tmp_path / "out.json"
    for text, tables in (
            (checks.pendulum_chain(16), 1),
            ("dae m\nvars x1, x2\neq f1: x1' + x2 - x1' = 0\n"
             "eq f2: x1 + x2 = 0\n", 2)):
        built.clear()
        dumped.clear()
        src.write_text(text)
        main(["analyze", str(src), "--mode", mode, "--json", str(out)])
        doc = json.loads(out.read_text())
        assert len(built) == tables
        assert (doc["sigma_true"] == doc["sigma_formal"]) == (tables == 1)
        assert sum(v is t for v in dumped for t in built) == tables
    capsys.readouterr()


def _agreement_runs():
    rng = random.Random(1002)
    draws = [checks.rand_factor_text(rng) for _ in range(80)]
    for mode in MODES:
        for name in corpus.names():
            for method in ("lc", "es"):
                yield corpus.source(name), ["--mode", mode, "--method", method]
        for text in draws:
            yield text, ["--mode", mode]


def test_the_fix_text_and_json_say_the_same(tmp_path, capsys):
    """Each step's vector line, each definition a substitution adds, each
    equation of the resulting system and the determinant are the texts
    the JSON report holds."""
    src, out = tmp_path / "system.dae", tmp_path / "out.json"
    steps = defined = determinants = 0
    for text, argv in _agreement_runs():
        src.write_text(text)
        out.unlink(missing_ok=True)
        main(["fix", str(src), "--json", str(out)] + argv)
        lines = capsys.readouterr().out.split("\n")
        if not out.exists():
            # a step that failed its own checks: no report, no text
            assert lines == [""], (text, argv)
            continue
        doc = json.loads(out.read_text())
        head = lines[:lines.index("resulting system:")]
        assert [ln for ln in head if ln.startswith("  vector [")] == [
            "  vector [%s]" % ", ".join(st["vector"]) for st in doc["steps"]]
        assert [ln for ln in head if ") stands for " in ln] == [
            "  %s (%s) stands for %s"
            % (a["variable"], a["alias"], a["definition"])
            for st in doc["steps"] for a in st.get("added", ())]
        body = lines[len(head) + 1:][:len(doc["system"]["equations"])]
        for line, eq in zip(body, doc["system"]["equations"], strict=True):
            assert line.startswith("  %s: %s = 0" % (eq["name"],
                                                     eq["expression"]))
        det = doc["final"]["determinant"]
        assert [ln for ln in head if ln.startswith("det(J) = ")] == (
            ["det(J) = %s" % det]
            if det is not None and doc["status"] == "success" else [])
        steps += len(doc["steps"])
        defined += sum(len(st.get("added", ())) for st in doc["steps"])
        determinants += det is not None
    assert steps >= 40 and defined >= 10 and determinants >= 100
