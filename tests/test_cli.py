"""End-to-end checks of the command-line frontend."""

import contextlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import checks
from checks import parse_expr
import daefix
from daefix import cli, convert, corpus
from daefix.cli import main
from daefix.convert import choose_method, es_analyze, lc_analyze
from daefix.dsl import parse_dae
from daefix.expr import ONE, StateDeriv, simplify
from daefix.structural import canonical_offsets, signature_matrix
from daefix.zerotest import Prober


def corpus_file(tmp_path, name):
    p = tmp_path / (name + ".dae")
    p.write_text(corpus.source(name))
    return str(p)


def write_dae(tmp_path, text, name="case.dae"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def schema(name):
    return json.loads(files("daefix.schemas").joinpath(name).read_text())


def _no_parser():
    raise AssertionError("argparse was built for a plain argv")


@pytest.fixture(autouse=True)
def _plain_argv_builds_no_parser(request, monkeypatch):
    # every call in this module runs without argparse, except in the tests
    # marked `usage`, whose argv only argparse reads
    if request.node.get_closest_marker("usage") is None:
        monkeypatch.setattr(cli, "_build_parser", _no_parser)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_pendulum(tmp_path, capsys):
    rc = main(["analyze", corpus_file(tmp_path, "pendulum")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "structural index 3" in out
    assert "degrees of freedom 2" in out
    assert "classification: GenericallyNonsingular" in out
    # transversal positions carry a mark, the c/d margins are present
    assert "2•" in out
    assert "c_i" in out and "d_j" in out


def test_analyze_singular_system(tmp_path, capsys):
    rc = main(["analyze", corpus_file(tmp_path, "brenan")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "classification: IdenticallySingular" in out
    assert "det(J) = 0" in out


def test_analyze_brackets_nontight_entries(tmp_path, capsys):
    main(["analyze", corpus_file(tmp_path, "lc_example")])
    out = capsys.readouterr().out
    assert "[0]" in out


def test_analyze_ill_posed(tmp_path, capsys):
    path = write_dae(tmp_path, "dae sip\n"
                               "vars x1, x2\n"
                               "eq f1: x1' + x1 = 0\n"
                               "eq f2: x1 - 1 = 0\n")
    rc = main(["analyze", path])
    assert rc == 3
    assert "ill posed" in capsys.readouterr().out


def test_analyze_json_document(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["analyze", corpus_file(tmp_path, "pendulum"),
               "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, schema("analysis.schema.json"))
    assert doc["structural_index"] == 3
    assert doc["dof"] == 2
    assert doc["offsets"] == {"c": [0, 0, 2], "d": [2, 2, 0]}
    assert len(doc["input_sha256"]) == 64
    # absent entries are null, transversal indices are 1-based
    sigma = doc["sigma_true"]
    assert sigma["entries"][0][1] is None
    assert sorted(sigma["hvt"]) == [[1, 1], [2, 3], [3, 2]]


def test_analyze_json_for_ill_posed_input(tmp_path, capsys):
    path = write_dae(tmp_path, "dae sip\n"
                               "vars x1, x2\n"
                               "eq f1: x1' + x1 = 0\n"
                               "eq f2: x1 - 1 = 0\n")
    out_path = tmp_path / "report.json"
    rc = main(["analyze", path, "--json", str(out_path)])
    assert rc == 3
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, schema("analysis.schema.json"))
    assert doc["classification"] == "StructurallyIllPosed"
    assert doc["value"] is None
    assert doc["sigma_true"]["hvt"] is None


def test_parse_errors_exit_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.dae")]) == 1
    bad = write_dae(tmp_path, "dae bad\nvars x\n")  # no equations
    assert main(["analyze", bad]) == 1
    capsys.readouterr()


@pytest.mark.usage
def test_usage_error_exit_one(capsys):
    assert main([]) == 1
    assert main(["trace", "whatever.dae", "--method", "lc"]) == 1
    capsys.readouterr()


@pytest.mark.usage
@pytest.mark.parametrize("argv", [
    ["analyze", "--probe-budget", "0"],
    ["fix", "--probe-budget", "-2"],
    ["fix", "--max-steps", "-3"],
    ["trace", "--method", "lc", "--vector", "[-1, 1]", "--pivot", "0"],
    ["trace", "--method", "lc", "--vector", "[-1, 1]", "--pivot", "-1"],
])
def test_bad_numbers_are_usage_errors(tmp_path, capsys, argv):
    path = corpus_file(tmp_path, "brenan")
    assert main(argv[:1] + [path] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "must be at least" in err
    assert "Traceback" not in err


def test_zero_step_budget_is_valid(tmp_path, capsys):
    assert main(["fix", corpus_file(tmp_path, "brenan"),
                 "--max-steps", "0"]) == 2
    assert "step budget exhausted after 0 steps" in capsys.readouterr().out


@pytest.mark.usage
def test_help_documents_exit_codes(capsys):
    rc = main(["--help"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exit codes" in out
    assert "structurally ill posed" in out


# ---------------------------------------------------------------------------
# the command-line surface: help and usage errors are argparse's, byte for
# byte; every other argv is read from the option table without a parser

HELP = Path(__file__).parent / "golden" / "help"


def _help(command):
    return (HELP / (command + ".txt")).read_text()


def _usage(command):
    return _help(command).split("\n\n")[0] + "\n"


@pytest.mark.usage
@pytest.mark.parametrize("command", ["daefix", "analyze", "fix", "trace"])
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "daefix" else [command, "--help"]
    assert main(argv) == 0
    assert capsys.readouterr() == (_help(command), "")


@pytest.mark.usage
@pytest.mark.parametrize("argv, command, message", [
    ([], "daefix", "the following arguments are required: command"),
    (["analyze", "system.dae", "--bogus"], "daefix",
     "unrecognized arguments: --bogus"),
    (["analyze", "system.dae", "--probe-budget", "0"], "analyze",
     "argument --probe-budget: must be at least 1"),
    (["trace", "system.dae", "--method", "lc", "--vector", "[-1, 1]",
      "--pivot", "0"], "trace", "argument --pivot: must be at least 1"),
    (["trace", "system.dae", "--method", "lc"], "trace",
     "the following arguments are required: --vector"),
])
def test_usage_errors_are_unchanged(monkeypatch, capsys, argv, command,
                                    message):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    prog = "daefix" if command == "daefix" else "daefix " + command
    assert capsys.readouterr() == (
        "", _usage(command) + "%s: error: %s\n" % (prog, message))


@pytest.mark.usage
@pytest.mark.parametrize("flag", [["--js", "{}"], ["--json={}"]])
def test_abbreviations_and_equals_forms_go_to_argparse(tmp_path, capsys,
                                                       flag):
    out = tmp_path / "report.json"
    argv = (["analyze", corpus_file(tmp_path, "pendulum")]
            + [f.format(out) for f in flag])
    assert cli._plain_args(argv) is None
    assert main(argv) == 0
    assert json.loads(out.read_text())["dof"] == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "fix"])
def test_the_benchmark_call_builds_no_parser(tmp_path, capsys, command):
    # [command, path, "--json", out], as bench/run.py calls main; the
    # module's fixture makes building a parser fail
    exits = json.loads((HELP.parent / "exits.json").read_text())
    for name in corpus.names():
        out = tmp_path / (name + ".json")
        rc = main([command, corpus_file(tmp_path, name), "--json", str(out)])
        assert rc == exits["%s.%s" % (name, command)]
        assert json.loads(out.read_text())["name"] == name
    capsys.readouterr()


def test_a_plain_call_never_imports_argparse(tmp_path):
    code = ("import sys\n"
            "if 'argparse' in sys.modules: sys.exit(11)\n"
            "from daefix.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "sys.exit(10 if 'argparse' in sys.modules else rc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(daefix.__file__).parent.parent))
    r = subprocess.run([sys.executable, "-c", code, "analyze",
                        corpus_file(tmp_path, "pendulum")],
                       env=env, capture_output=True)
    if r.returncode == 11:
        pytest.skip("the interpreter imports argparse at startup")
    assert r.returncode == 0, r.stderr


_COMMON = ("--mode", "--probe-budget", "--seed", "--json")
_FLAGS = {"analyze": _COMMON,
          "fix": _COMMON + ("--method", "--max-steps", "--emit"),
          "trace": _COMMON + ("--method", "--vector", "--pivot", "--emit")}
_VALUES = {"--mode": ("true", "formal"), "--probe-budget": ("1", "8", " 12"),
           "--seed": ("7", "daefix"), "--json": ("out.json",),
           "--method": ("lc", "es"), "--max-steps": ("0", "3"),
           "--vector": ("[x2, x1, 1, -1]", "1, 1"), "--pivot": ("1", "4"),
           "--emit": ("out.dae",)}
_BAD_VALUES = ("-2", "0", "x", "1.5", "-x2", "-x2, 1", "", "lc,es",
               "--json", "-h")
_ODD_TOKENS = ("--bogus", "-h", "--help", "--", "-", "--js", "--probe",
               "--meth", "more.dae", "fix", "--json=out.json",
               "--probe-budget=3", "--mode=formal", "-1")


def _mutate(rng, pairs, command):
    """One change to the (flag, value) pairs that may or may not leave a
    valid argv: an abbreviation, an = form, a bad or repeated or missing
    value, an odd token, another command's flag, or a dropped pair."""
    flagged = [p for p in pairs if len(p) == 2 and p[0] in _VALUES]
    kind = rng.randrange(8)
    if kind < 5 and not flagged:
        kind = 5
    if kind == 0:
        p = rng.choice(flagged)
        p[0] = p[0][:rng.randrange(3, len(p[0]))]
    elif kind == 1:
        p = rng.choice(flagged)
        p[:] = [p[0] + "=" + p[1]]
    elif kind == 2:
        rng.choice(flagged)[1] = rng.choice(_BAD_VALUES)
    elif kind == 3:
        flag = rng.choice(flagged)[0]
        pairs.insert(rng.randrange(len(pairs) + 1),
                     [flag, rng.choice(_VALUES[flag])])
    elif kind == 4:
        del rng.choice(flagged)[1:]
    elif kind == 5:
        pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(_ODD_TOKENS)])
    elif kind == 6:
        flag = rng.choice(sorted(set(_VALUES) - set(_FLAGS[command])))
        pairs.append([flag, rng.choice(_VALUES[flag])])
    elif pairs:
        del pairs[rng.randrange(len(pairs))]


def _draw_argv(rng):
    command = rng.choice(sorted(_FLAGS))
    pairs = [["system.dae"]]
    for flag in _FLAGS[command]:
        if rng.random() < 0.5 or (command == "trace"
                                  and flag in ("--method", "--vector")):
            pairs.append([flag, rng.choice(_VALUES[flag])])
    rng.shuffle(pairs)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        _mutate(rng, pairs, command)
    argv = [token for p in pairs for token in p]
    return argv if rng.random() < 0.05 else [command] + argv


@pytest.mark.usage
def test_the_plain_pass_agrees_with_argparse():
    # on every argv the plain pass either declines or makes argparse's
    # namespace; both outcomes, and argparse reading what the plain pass
    # declined, must each be common
    rng = random.Random(17)
    parser = cli._build_parser()
    plain = declined = argparse_only = 0
    for _ in range(2500):
        argv = _draw_argv(rng)
        got = cli._plain_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                want = vars(parser.parse_args(argv))
            except SystemExit:
                want = None
        if got is None:
            declined += 1
            argparse_only += want is not None
        else:
            plain += 1
            assert vars(got) == want, argv
    assert plain > 800 and declined > 800 and argparse_only > 100


# ---------------------------------------------------------------------------
# fix

def test_fix_two_step_repair(tmp_path, capsys):
    rc = main(["fix", corpus_file(tmp_path, "scholz")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "step 1: lc, pivot f3" in out
    assert "step 2: lc, pivot f1" in out
    assert "fixed in 2 steps, value 2 -> 0" in out
    assert "det(J) = 1" in out


def test_fix_nothing_to_do(tmp_path, capsys):
    rc = main(["fix", corpus_file(tmp_path, "pendulum")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nothing to do" in out


def test_fix_uncertain_exit(tmp_path, capsys):
    # every equivalence probe point has t < 60, outside sqrt's domain, so
    # the probe run is cut short and the fixed system stays unverified
    path = write_dae(tmp_path, "dae brenan\n"
                               "vars x, y\n"
                               "input h1, h2\n"
                               "eq f1: x' + t*y' - h1(t) = 0\n"
                               "eq f2: x + t*y - h2(t) + sqrt(t - 60) = 0\n")
    rc = main(["fix", path])
    out = capsys.readouterr().out
    assert rc == 4
    assert "fixed in 1 step" in out
    assert "unverified" in out


def test_fix_no_method_names_stuck_step(tmp_path, capsys):
    path = write_dae(tmp_path, "dae stuck\n"
                               "vars x1, x2\n"
                               "eq f1: x1'*(sin(2*x1)"
                               " - 2*sin(x1)*cos(x1)) + x2' = 0\n"
                               "eq f2: x2' + x1 = 0\n")
    rc = main(["fix", path])
    out = capsys.readouterr().out
    assert rc == 2
    assert "no method applies at step 1" in out


def test_fix_reports_exposed_ill_posedness(tmp_path, capsys):
    path = write_dae(tmp_path, "dae hidden\n"
                               "vars x1, x2\n"
                               "input b1\n"
                               "eq f1: x1' + x2 = 0\n"
                               "eq f2: x1' + x2 + b1(t) = 0\n")
    rc = main(["fix", path])
    out = capsys.readouterr().out
    assert rc == 3
    assert "ill posed" in out


def test_fix_step_budget(tmp_path, capsys):
    rc = main(["fix", corpus_file(tmp_path, "scholz"), "--max-steps", "1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "step budget exhausted after 1 step" in out


def test_fix_json_document(tmp_path, capsys):
    out_path = tmp_path / "fix.json"
    rc = main(["fix", corpus_file(tmp_path, "scholz"),
               "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, schema("conversion.schema.json"))
    assert doc["status"] == "success"
    assert (doc["initial_value"], doc["final_value"]) == (2, 0)
    assert [st["pivot_name"] for st in doc["steps"]] == ["f3", "f1"]
    assert [st["pivot"] for st in doc["steps"]] == [3, 1]
    assert doc["steps"][0]["replaced"] == "f3"
    assert doc["final"]["classification"] == "GenericallyNonsingular"
    origins = [eq["origin"] for eq in doc["system"]["equations"]]
    assert origins.count("lc_replaced") == 2
    capsys.readouterr()


def test_fix_emits_loadable_system(tmp_path, capsys):
    fixed = tmp_path / "fixed.dae"
    rc = main(["fix", corpus_file(tmp_path, "scholz"), "--emit", str(fixed)])
    assert rc == 0
    system = parse_dae(fixed.read_text())
    assert system.n == 4
    capsys.readouterr()
    # a fixed system needs no further work
    assert main(["analyze", str(fixed)]) == 0
    assert main(["fix", str(fixed)]) == 0
    out = capsys.readouterr().out
    assert "nothing to do" in out


# ---------------------------------------------------------------------------
# trace

def test_trace_forced_combination(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "lc_example"),
               "--method", "lc", "--vector", "[x2, x1, 1, -1]",
               "--pivot", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "step 1: lc, pivot f4" in out
    assert "det(J) = x1 - x2" in out


def test_trace_forced_substitution(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "pendulum_mod"),
               "--method", "es", "--vector", "[1, -1, 1]", "--pivot", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "step 1: es, pivot x1" in out
    assert "x4 (y2) stands for x1 + x2" in out
    assert "x5 (y3) stands for -x1 + x3" in out
    assert "value 4 -> 2" in out


def test_trace_emit_and_json(tmp_path, capsys):
    fixed = tmp_path / "fixed.dae"
    out_path = tmp_path / "trace.json"
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "es", "--vector", "[t, -1]", "--pivot", "2",
               "--emit", str(fixed), "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, schema("conversion.schema.json"))
    step = doc["steps"][0]
    assert step["added"] == [{"variable": "x3", "equation": "f3",
                              "alias": "y1", "definition": "t*y + x"}]
    assert step["rewritten"] == ["f1", "f2"]
    system = parse_dae(fixed.read_text())
    assert system.var_names == ("x", "y", "x3")
    capsys.readouterr()
    assert main(["analyze", str(fixed)]) == 0
    capsys.readouterr()


def test_trace_wrong_vector_shows_residual(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", "[1, 0]"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "vector rejected" in err
    assert "residual[1] = 1" in err
    assert "residual[2] = t" in err


@pytest.mark.parametrize("method", ["lc", "es"])
def test_trace_zero_vector_has_its_own_message(tmp_path, capsys, method):
    path = write_dae(tmp_path, (Path(__file__).parent / "golden"
                                / "brenan_x4.dae").read_text())
    rc = main(["trace", path, "--method", method,
               "--vector", "[0, 0, 0, 0, 0, 0, 0, 0]"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "vector rejected: vector is zero\n"


@pytest.mark.parametrize("method,pivot", [("lc", "9"), ("es", "3")])
def test_trace_pivot_above_n_is_usage_error(tmp_path, capsys, method, pivot):
    rc = main(["trace", corpus_file(tmp_path, "brenan"), "--method", method,
               "--vector", "[-1, 1]", "--pivot", pivot])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: --pivot %s is above n = 2, the size of the "
                   "system\n" % pivot)


def test_trace_vector_parse_error(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", "[1, +]"])
    err = capsys.readouterr().err
    assert rc == 1
    # columns count from the first character of the vector text
    assert err == "error: line 1, col 6: expected an expression\n"


@pytest.mark.parametrize("vector,col", [("[1,,-1]", 4), ("[-1, 1,]", 8)])
def test_trace_empty_vector_entry_is_parse_error(tmp_path, capsys, vector,
                                                 col):
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", vector])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: line 1, col %d: expected an expression\n" % col


def test_trace_vector_entry_keeps_nested_comma(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", "[diff(t, 1) - 2, 1]",
               "--json", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    assert json.loads(out_path.read_text())["steps"][0]["vector"] \
        == ["-1", "1"]


def test_trace_empty_vector_is_parse_error(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", "[]"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: line 1, col 1: empty vector\n"


@pytest.mark.parametrize("name,method,vector", [
    ("lc_example", "lc", "[x2, x1, 1, -1]"),
    ("pendulum_mod", "es", "[1, -1, 1]"),
    ("brenan", "es", "[t, -1]"),
    ("brenan", "es", "[t^2, -t]"),
])
def test_trace_default_pivot_follows_choose_method(tmp_path, capsys, name,
                                                   method, vector):
    out_path = tmp_path / "trace.json"
    path = corpus_file(tmp_path, name)
    assert main(["trace", path, "--method", method, "--vector", vector,
                 "--json", str(out_path)]) == 0
    capsys.readouterr()
    system = parse_dae(corpus.source(name))
    vec = checks.sparse_vector(parse_expr(p, system)
                               for p in vector[1:-1].split(","))
    sig = signature_matrix(system)
    off = canonical_offsets(sig)
    prober = Prober()
    if method == "lc":
        choice = choose_method(lc_analyze(off, vec, prober), None, prober)
    else:
        choice = choose_method(None, es_analyze(system, sig, off, vec, prober),
                               prober)
    kind, pivot = choice
    assert kind.value == method
    assert json.loads(out_path.read_text())["steps"][0]["pivot"] == pivot + 1


@pytest.mark.parametrize("expr", [
    "ln(-1) + x'", "sqrt(-4) + x'", "x' + 1/(2-2)", "(x - x)^(-1) + x'",
    "x' + ln(0)",
])
def test_domain_error_in_equation_exits_one(tmp_path, capsys, expr):
    path = write_dae(tmp_path, "dae d\nvars x\neq f: %s = 0\n" % expr)
    rc = main(["analyze", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: line 3, col 7: ")
    assert "Traceback" not in err


NESTED_EXP = (
    "dae nested_exp\nvars x1, x2\n"
    "eq f1: x2 + exp(x1'*x2^2*x2' + exp(x1 + exp(x2' + x2''))) "
    "+ sin(x1 + x1')^2*sqrt(x2'^2*sin(x1'*x2')) = 0\n"
    "eq f2: x1 + x2^2 = 0\n")


@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--mode", "formal"], ["fix"],
    ["fix", "--mode", "formal"],
])
def test_probe_value_past_exact_range_draws_again(tmp_path, capsys, argv):
    # at some probe points the nested exp has a binary exponent no integer
    # holds; that point is a domain error, and the probe draws another
    rc = main(argv + [write_dae(tmp_path, NESTED_EXP)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err


def _random_draw(k):
    rng = random.Random(1002)
    for _ in range(k):
        checks.rand_factor_text(rng)
    return checks.rand_factor_text(rng)


def _cap_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("draw, mode, rc", [
    (73, "true", 0), (73, "formal", 0), (110, "true", 0), (110, "formal", 2)])
def test_a_probe_value_of_too_many_bits_draws_again(tmp_path, draw, mode,
                                                     rc):
    # draw 110 in the formal mode meets a value of about 2^(2.3e10), whose
    # exact integer took gigabytes; draw 73 one of 6.8e8 bits, whose
    # Fraction arithmetic took ten seconds.  Such a probe point is a
    # domain error, so the child ends in seconds under a 1 GiB cap
    env = dict(os.environ, PYTHONPATH=str(Path(daefix.__file__).parent.parent))
    r = subprocess.run([sys.executable, "-m", "daefix.cli", "fix",
                        write_dae(tmp_path, _random_draw(draw)),
                        "--mode", mode],
                       env=env, capture_output=True, text=True, timeout=8,
                       preexec_fn=_cap_address_space)
    assert "Traceback" not in r.stderr
    assert r.returncode == rc, r.stderr


# draw 28 of checks.rand_factor_system(random.Random(1002)); in the formal
# mode a kernel basis vector fails its strict check
FAILED_CHECK = (
    "dae r\nvars x1, x2, x3, x4\n"
    "eq f1: (exp(x2 + x1')*x2''*x1)^3 + sin(x1''*sin(x4'')*sin(x4*sqrt(x4'))"
    " + sin(exp(x1'' + x2) + x1)) + (x3 - x3)*x2'*exp(x1')"
    "*sin((x1'*x2'' - x1'*x2'')) = 0\n"
    "eq f2: x1'' = 0\n"
    "eq f3: sqrt(x3 + x3'') + x3'' + x3'' + x4''*exp(x3')*sqrt((x1'')^2)"
    "*sqrt(x1''*(x2' - x2')) = 0\n"
    "eq f4: x4''*(x2'*x2' - x2'*x2') + x4' + (x3'')^3*exp((x4)^3)*x3''"
    " + sqrt(exp(x1 + x3*x4) + (x3'')^2) = 0\n")


@pytest.mark.parametrize("mode, rc, status, uncertain", [
    ("true", 0, "success", False), ("formal", 2, "no_method", True)])
def test_a_basis_vector_failing_its_check_ends_the_search(
        tmp_path, capsys, mode, rc, status, uncertain):
    out_path = tmp_path / "out.json"
    got = main(["fix", write_dae(tmp_path, FAILED_CHECK), "--mode", mode,
                "--json", str(out_path)])
    assert got == rc
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(out_path.read_text())
    assert (doc["status"], doc["uncertain"]) == (status, uncertain)


def test_param_over_zero_exits_one(tmp_path, capsys):
    rc = main(["analyze", write_dae(
        tmp_path, "dae d\nvars x\nparams k = 1/0\neq f1: x' - k = 0\n")])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: line 3, col 13: division by zero\n")


# lc_example and es_example side by side, es_example's states and inputs
# renamed
TWO_BLOCKS = (
    "dae two_blocks\nvars x1, x2, x3, x4, y1, y2\ninput g1, g2, h1, h2\n"
    "eq f1: -x1' + x3 = 0\neq f2: -x2' + x4 = 0\n"
    "eq f3: x1*x2 + g1(t) = 0\neq f4: x1*x4 + x2*x3 + x1 + x2 + g2(t) = 0\n"
    "eq f5: y1 + exp(-y1' - y2*y2'') + h1(t) = 0\n"
    "eq f6: y1 + y2*y2' + y2^2 + h2(t) = 0\n")


def test_a_step_won_at_the_second_kernel_vector(tmp_path, capsys,
                                                monkeypatch):
    # lc_example's kernel vector comes first and fails the substitution
    # order test in every rescaling; es_example's, the second, wins
    drawn = []
    basis = convert.component_basis

    def counted(parts, prober, left=False):
        for v in basis(parts, prober, left):
            drawn.append(v)
            yield v
    monkeypatch.setattr(convert, "component_basis", counted)
    out_path = tmp_path / "out.json"
    rc = main(["fix", write_dae(tmp_path, TWO_BLOCKS), "--method", "es",
               "--json", str(out_path)])
    assert rc == 2
    assert "no method applies at step 2" in capsys.readouterr().out
    (step,) = json.loads(out_path.read_text())["steps"]
    assert (step["method"], step["pivot"], step["vector"],
            step["value_before"], step["value_after"]) == (
        "es", 6, ["0", "0", "0", "0", "-y2", "1"], 3, 2)
    # step 2 draws one vector, lc_example's again
    assert len(drawn) == 3
    assert max(drawn[0]) < 4 and max(drawn[2]) < 4
    assert drawn[1] == {4: simplify(-StateDeriv(5)), 5: ONE}


@pytest.mark.parametrize("data, line, col, byte", [
    (b"dae u\nvars x\neq f: x\xe9 + 1 = 0\n", 3, 8, 0xe9),
    # columns count characters, as the parser's do
    (b"dae u\nvars x\n# caf\xc3\xa9 \xff\neq f: x = 0\n", 3, 8, 0xff),
])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, data,
                                                 line, col, byte):
    path = tmp_path / "latin1.dae"
    path.write_bytes(data)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: line %d, col %d: not UTF-8: byte 0x%02x\n"
        % (line, col, byte))


def test_domain_error_in_vector_exits_one(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "brenan"),
               "--method", "lc", "--vector", "[ln(-1), 1]"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: line 1, col 2: ln of nonpositive value -1\n"


def test_trace_condition_rejection(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "es_example"),
               "--method", "lc",
               "--vector", "[exp(x1' + x2*x2''), 1]"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "order condition" in err


def test_trace_pivot_rejection(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "lc_example"),
               "--method", "lc", "--vector", "[x2, x1, 1, -1]",
               "--pivot", "3"])
    assert rc == 2
    capsys.readouterr()


def test_trace_on_nonsingular_system(tmp_path, capsys):
    rc = main(["trace", corpus_file(tmp_path, "pendulum"),
               "--method", "lc", "--vector", "[1, 1, 1]"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nothing to do" in out


# ---------------------------------------------------------------------------
# formal mode

def _fix_doc(tmp_path, path, mode):
    out_path = tmp_path / ("%s.json" % mode)
    main(["fix", path, "--mode", mode, "--json", str(out_path)])
    return json.loads(out_path.read_text())


def test_fix_formal_and_true_modes_agree_on_corpus(tmp_path, capsys):
    # rewritten equations are read in their normal form, so the formal
    # signature of a converted system never counts cancelled derivatives
    for name in corpus.names():
        path = corpus_file(tmp_path, name)
        true_doc = _fix_doc(tmp_path, path, "true")
        formal_doc = _fix_doc(tmp_path, path, "formal")
        for key in ("status", "initial_value", "final_value"):
            assert formal_doc[key] == true_doc[key], (name, key)
    capsys.readouterr()


FORMAL_TRIG = ("dae formal_trig\n"
               "vars x, y\n"
               "input h1, h2\n"
               "eq f1: x' + t*y' - h1(t) = 0\n"
               "eq f2: x + t*y + sin(x')^2 + cos(x')^2 - h2(t) = 0\n")


def _table_values(out):
    """HVT sums of the signature tables printed in out, in order."""
    sums = []
    for line in out.splitlines():
        if "c_i" in line:
            sums.append(0)
        elif "•" in line:
            sums[-1] += sum(int(m) for m in
                            re.findall(r"(-?\d+)\]?•", line))
    return sums


def test_formal_mode_tables_match_json(tmp_path, capsys):
    # formally f2 holds x', which cancels: value 2 formally, 1 truly
    path = write_dae(tmp_path, FORMAL_TRIG)
    out_path = tmp_path / "out.json"
    runs = (["fix"], ["trace", "--method", "lc", "--vector", "[0, 1]"])
    for argv in runs:
        rc = main(argv[:1] + [path] + argv[1:]
                  + ["--mode", "formal", "--json", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["initial_value"] == 2
        values = [doc["initial_value"]] + [st["value_after"]
                                           for st in doc["steps"]]
        assert _table_values(out) == values, argv[0]


HIDDEN_ENTRY = ("dae hidden_entry\n"
                "vars x, y\n"
                "params a\n"
                "eq f1: (sin(2*a) - 2*sin(a)*cos(a))*x + y = 0\n"
                "eq f2: x - t = 0\n")


def test_probably_zero_entry_leaves_proven_det_certain(tmp_path, capsys):
    # J = [[sin(2a) - 2 sin(a) cos(a), 1], [1, 0]]: the entry is only
    # probably zero, but det J = -1 is proven whatever it is
    out_path = tmp_path / "out.json"
    rc = main(["analyze", write_dae(tmp_path, HIDDEN_ENTRY),
               "--json", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "det(J) = -1" in out
    assert "unverified" not in out
    assert json.loads(out_path.read_text())["uncertain"] is False


@pytest.mark.parametrize("mode", ("true", "formal"))
@pytest.mark.parametrize("name", corpus.names() + ("brenan_x2", "brenan_x4",
                                                   "hidden_entry"))
def test_analyze_and_zero_step_fix_agree(tmp_path, capsys, name, mode):
    if name == "hidden_entry":
        path = write_dae(tmp_path, HIDDEN_ENTRY)
    elif name in corpus.names():
        path = corpus_file(tmp_path, name)
    else:
        path = write_dae(tmp_path, (Path(__file__).parent / "golden"
                                    / (name + ".dae")).read_text())
    docs = []
    for argv in (["analyze"], ["fix", "--max-steps", "0"]):
        out_path = tmp_path / (argv[0] + ".json")
        main(argv[:1] + [path] + argv[1:]
             + ["--mode", mode, "--json", str(out_path)])
        docs.append(json.loads(out_path.read_text()))
    capsys.readouterr()
    analysis, conversion = docs
    for key in ("classification", "determinant", "offsets", "value"):
        assert analysis[key] == conversion["final"][key], key
    assert analysis["uncertain"] == conversion["uncertain"]


def _count_analysis_calls(monkeypatch):
    """Records the size n of each signature_matrix, system_jacobian and
    classify_jacobian call through every daefix module namespace that
    holds them."""
    import importlib
    names = ("signature_matrix", "system_jacobian", "classify_jacobian")
    calls = {name: [] for name in names}
    mods = [importlib.import_module("daefix." + m) for m in
            ("cli", "convert", "jacobian", "nullspace", "render",
             "structural")]
    for name in names:
        original = getattr(importlib.import_module(
            "daefix.structural" if name == "signature_matrix"
            else "daefix.jacobian"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            first = args[0]   # a system, or the matrix to classify
            calls[_name].append(getattr(first, "n", None) or len(first))
            return _original(*args, **kwargs)

        for mod in mods:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_fix_analyses_each_system_once(tmp_path, capsys, monkeypatch):
    calls = _count_analysis_calls(monkeypatch)
    path = write_dae(tmp_path, (Path(__file__).parent / "golden"
                                / "brenan_x4.dae").read_text())
    assert main(["fix", path]) == 0
    # four combination steps: the input and each rewritten system, once
    assert calls == dict.fromkeys(calls, [8] * 5)
    capsys.readouterr()


def test_analyze_classifies_once(tmp_path, capsys, monkeypatch):
    calls = _count_analysis_calls(monkeypatch)
    assert main(["analyze", corpus_file(tmp_path, "pendulum")]) == 0
    # the formal table has the same rows, so its solve is the true one
    assert calls == {"signature_matrix": [3], "system_jacobian": [3],
                     "classify_jacobian": [3]}
    capsys.readouterr()


def test_analyze_solves_the_other_mode_only_when_it_differs(
        tmp_path, capsys, monkeypatch):
    import daefix.cli
    solved = []
    original = daefix.cli.sigma_from_rows

    def counted(rows):
        solved.append(rows)
        return original(rows)

    monkeypatch.setattr(daefix.cli, "sigma_from_rows", counted)
    out_path = tmp_path / "report.json"
    path = write_dae(tmp_path, "dae m\nvars x1, x2\ninput h1\n"
                     "eq f1: x1 + x2 + cos(x1')^2 + sin(x1')^2 = 0\n"
                     "eq f2: x1 - h1(t) = 0\n")
    for mode in ("true", "formal"):
        main(["analyze", path, "--mode", mode, "--json", str(out_path)])
        doc = json.loads(out_path.read_text())
        assert doc["sigma_true"]["entries"] == [[0, 0], [0, None]]
        assert doc["sigma_formal"]["entries"] == [[1, 0], [0, None]]
    assert len(solved) == 2
    solved.clear()
    main(["analyze", corpus_file(tmp_path, "pendulum"), "--mode", "formal"])
    assert solved == []
    capsys.readouterr()


def _timed_analyze(tmp_path, text, command="analyze"):
    out_path = tmp_path / "report.json"
    start = time.perf_counter()
    rc = main([command, write_dae(tmp_path, text), "--json", str(out_path)])
    return rc, time.perf_counter() - start, json.loads(out_path.read_text())


def test_analyze_huge_monomial_is_fast(tmp_path, capsys):
    rc, took, doc = _timed_analyze(
        tmp_path, "dae big\nvars x\neq f1: x^10000000 - 1 = 0\n")
    assert rc == 0
    assert doc["value"] == 0
    assert doc["classification"] == "GenericallyNonsingular"
    assert took < 1.0
    capsys.readouterr()


def test_analyze_collapsed_power_is_fast(tmp_path, capsys):
    rc, took, doc = _timed_analyze(
        tmp_path, "dae p60\nvars x, y\n"
                  "eq f1: (x+y+1)^60 + x' = 0\neq f2: x - y' = 0\n")
    assert rc == 0
    assert doc["value"] == 2
    assert doc["offsets"] == {"c": [0, 0], "d": [1, 1]}
    assert doc["structural_index"] == 0
    assert doc["classification"] == "GenericallyNonsingular"
    assert took < 1.0
    capsys.readouterr()


@pytest.mark.parametrize("power, bound", [
    ("(x*y + 1)^1000 + x' - y", 1.0),  # one multinomial pass
    ("(x + y + 1)^200 + x'", 2.0),     # over the term cap: kept whole
])
def test_analyze_power_of_a_sum_is_fast(tmp_path, capsys, power, bound):
    rc, took, doc = _timed_analyze(
        tmp_path, "dae p\nvars x, y\neq f1: %s = 0\neq f2: x - y' = 0\n" % power)
    assert rc == 0
    assert doc["value"] == 2
    assert doc["offsets"] == {"c": [0, 0], "d": [1, 1]}
    assert doc["classification"] == "GenericallyNonsingular"
    assert took < bound
    capsys.readouterr()


@pytest.mark.parametrize("power, value", [
    ("exp(x)^100000 + x' - y", 2),     # exp(100000*x)
    ("sqrt(x)^200001 - 1 + y'", 1),    # x^100000*sqrt(x)
    ("(x + y)^100000000 + x'", 2),     # kept whole
])
def test_analyze_huge_power_is_one_step(tmp_path, capsys, power, value):
    rc, took, doc = _timed_analyze(
        tmp_path, "dae p\nvars x, y\neq f1: %s = 0\neq f2: x - y' = 0\n" % power)
    assert rc == 0
    assert doc["value"] == value
    assert doc["classification"] == "GenericallyNonsingular"
    assert took < 2.0
    capsys.readouterr()


def test_a_product_of_3000_factors_is_analysed(tmp_path, capsys):
    # one flat Mul, so no tree function recurses once per factor
    rc, took, doc = _timed_analyze(
        tmp_path, "dae p\nvars x, y\neq f1: %s + x' - y = 0\n"
                  "eq f2: x - y' = 0\n" % "*".join(["x"] * 3000))
    assert rc == 0
    assert doc["value"] == 2
    assert doc["classification"] == "GenericallyNonsingular"
    assert took < 2.0
    capsys.readouterr()


def test_analyze_power_of_an_inexact_value_is_fast(tmp_path, capsys):
    # each probe raises a 70-digit sin value in mpmath, not as an exact
    # Fraction with 100000 times as many digits; the values fall under the
    # guard, so the verdict is unverified
    rc, took, doc = _timed_analyze(
        tmp_path, "dae s\nvars x\neq f: sin(x)^100000 - 1 = 0\n")
    assert rc == 4
    assert doc["value"] == 0
    assert doc["classification"] == "ProbablySingular"
    assert took < 2.0
    capsys.readouterr()


def test_fix_brenan_x32_is_fast(tmp_path, capsys):
    # 32 steps on a 64 x 64 Jacobian of 2 x 2 blocks: one cokernel
    # elimination per step that passes over the structural zeros
    rc, took, doc = _timed_analyze(tmp_path, checks.brenan_blocks(32), "fix")
    assert rc in (0, 4)
    assert doc["status"] == "success"
    assert (doc["initial_value"], doc["final_value"]) == (32, 0)
    assert took < 5.0
    capsys.readouterr()


def _nested(kind, depth):
    if kind == "minus":
        return "-" * depth + "x"
    opener = {"paren": "(", "neg": "-("}.get(kind, kind + "(")
    return opener * depth + "x" + ")" * depth


def _nested_dae(kind, depth):
    return ("dae nested\nvars x, y\neq f1: %s + x' - y = 0\n"
            "eq f2: x - y' = 0\n" % _nested(kind, depth))


ANALYSES = [["analyze"], ["analyze", "--mode", "formal"], ["fix"],
            ["fix", "--mode", "formal"]]


@pytest.mark.parametrize("argv", ANALYSES)
@pytest.mark.parametrize("kind, depth", [
    ("sin", 250), ("exp", 250), ("neg", 200), ("paren", 500),
    ("minus", 2000),
])
def test_too_deeply_nested_input_exits_one(tmp_path, capsys, argv, kind,
                                           depth):
    rc = main(argv + [write_dae(tmp_path, _nested_dae(kind, depth))])
    assert rc == 1
    # the error falls on the sign or the parenthesis that opens level 201:
    # "eq f1: " takes columns 1 to 7, and a "-(" pair is two levels
    col = {"sin": 811, "exp": 811}.get(kind, 208)
    assert capsys.readouterr() == (
        "", "error: line 3, col %d: expression nested deeper than 200 "
        "levels\n" % col)


@pytest.mark.parametrize("argv", ANALYSES)
@pytest.mark.parametrize("kind, depth", [
    ("sin", 200), ("exp", 200), ("sqrt", 200), ("neg", 100), ("paren", 200),
    ("minus", 200),
])
def test_nesting_200_levels_deep_is_analysed(tmp_path, capsys, argv, kind,
                                             depth):
    rc = main(argv + [write_dae(tmp_path, _nested_dae(kind, depth))])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.err == ""
