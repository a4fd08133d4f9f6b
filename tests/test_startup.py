"""What a CLI call loads.  `import daefix.cli` takes neither mpmath nor
hashlib, which loads OpenSSL, nor dataclasses and the inspect, ast and dis
modules it brings, which would generate and compile code for each record
class; a run loads mpmath only for a sin or cos value, and the bundled
corpus has none.

Each check of the loaded modules runs in a fresh interpreter, since this
suite's own modules import mpmath."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import daefix
from daefix import corpus
from daefix.cli import main

_SRC = str(Path(daefix.__file__).resolve().parents[1])

# runs main on each argv of sys.argv[2], a JSON list, and prints each exit
# code, stdout, stderr and --json file, then which heavy modules it loaded;
# with sys.argv[1] == "block", importing mpmath raises ImportError
_CHILD = r"""
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["mpmath"] = None
from daefix.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    with open(argv[argv.index("--json") + 1], "rb") as fh:
        report = fh.read().decode()
    runs.append([rc, out.getvalue(), err.getvalue(), report])
loaded = [m for m in ("mpmath", "hashlib", "_hashlib", "dataclasses",
                      "inspect", "ast", "dis")
          if sys.modules.get(m) is not None]
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def _child(argvs, block=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, "block" if block else "-",
         json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _corpus_argvs(tmp_path):
    argvs = []
    for name in corpus.names():
        path = tmp_path / (name + ".dae")
        path.write_text(corpus.source(name))
        for command in ("analyze", "fix"):
            for mode in ("true", "formal"):
                report = tmp_path / ("%s.%s.%s.json" % (name, command, mode))
                argvs.append([command, str(path), "--mode", mode,
                              "--json", str(report)])
    return argvs


def test_importing_the_cli_loads_neither_mpmath_nor_hashlib():
    assert _child([]) == {"runs": [], "loaded": []}


def test_the_corpus_runs_without_mpmath(tmp_path):
    argvs = _corpus_argvs(tmp_path)
    assert len(argvs) == 24
    plain = _child(argvs)
    assert plain["loaded"] == []
    # with mpmath unimportable, every output is the same
    blocked = _child(argvs, block=True)
    assert blocked["loaded"] == []
    assert blocked["runs"] == plain["runs"]
    assert {rc for rc, _, _, _ in plain["runs"]} <= {0, 2, 4}


def test_a_sin_value_loads_mpmath_and_keeps_its_answer(tmp_path, capsys):
    # det J = sin(x) - cos(y) is no monomial, so the zero test evaluates it
    path = tmp_path / "trig.dae"
    path.write_text("dae trig\nvars x, y\n"
                    "eq f1: sin(x)*x' + cos(y)*y' = 0\neq f2: x + y = 0\n")
    report = tmp_path / "trig.json"
    argv = ["analyze", str(path), "--json", str(report)]
    child = _child([argv])
    assert child["loaded"] == ["mpmath"]
    # the answer of this process, where mpmath was loaded all along
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 0
    assert child["runs"] == [[rc, out, err, report.read_text()]]


def test_input_sha256_is_the_file_digest(tmp_path, capsys):
    for name in corpus.names():
        path = tmp_path / (name + ".dae")
        path.write_text(corpus.source(name))
        report = tmp_path / "report.json"
        main(["analyze", str(path), "--json", str(report)])
        doc = json.loads(report.read_text())
        assert doc["input_sha256"] == hashlib.sha256(
            path.read_bytes()).hexdigest()
    capsys.readouterr()
