"""Byte-for-byte fence on the true-mode output of analyze and fix.

Each case runs `daefix <command> <system> --json OUT` on a bundled system
or on a Brenan system of k decoupled blocks, and compares stdout, the exit
code and the JSON document with the files under tests/golden/.  After a
deliberate change to the output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from daefix import corpus
from daefix.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYSTEMS = corpus.names() + ("brenan_x2", "brenan_x4", "brenan_x8")
COMMANDS = ("analyze", "fix")


def _source(name):
    extra = GOLDEN / (name + ".dae")
    return extra.read_text() if extra.exists() else corpus.source(name)


def run_case(command, name, workdir):
    """(exit code, JSON text) of one CLI call; stdout is the caller's."""
    src = Path(workdir) / (name + ".dae")
    src.write_text(_source(name))
    out = Path(workdir) / (name + "." + command + ".json")
    rc = main([command, str(src), "--json", str(out)])
    return rc, out.read_text()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_output_matches_golden(name, command, tmp_path, capsys):
    rc, doc = run_case(command, name, tmp_path)
    stdout = capsys.readouterr().out
    stem = "%s.%s" % (name, command)
    exits = json.loads((GOLDEN / "exits.json").read_text())
    assert rc == exits[stem]
    assert stdout == (GOLDEN / (stem + ".out")).read_text()
    assert doc == (GOLDEN / (stem + ".json")).read_text()


def test_fix_chooses_constant_combination_without_kernel(tmp_path, capsys,
                                                         monkeypatch):
    # every Brenan step has a constant cokernel row, which wins outright
    import daefix.nullspace
    calls = []
    original = daefix.nullspace._eliminate

    def counted(part, prober, left):
        calls.append((part, left))
        return original(part, prober, left)

    monkeypatch.setattr(daefix.nullspace, "_eliminate", counted)
    rc, doc = run_case("fix", "brenan_x4", tmp_path)
    # no kernel elimination; on the cokernel side the four components of
    # the input, one per block, and then the one block each of the first
    # three steps touched: no component is eliminated twice
    assert [left for _, left in calls] == [True] * 7
    assert len({part for part, _ in calls}) == 7
    assert [part.rows for part, _ in calls] == [
        (0, 1), (2, 3), (4, 5), (6, 7), (0, 1), (2, 3), (4, 5)]
    assert rc == json.loads((GOLDEN / "exits.json").read_text())[
        "brenan_x4.fix"]
    assert capsys.readouterr().out == (GOLDEN / "brenan_x4.fix.out").read_text()
    assert doc == (GOLDEN / "brenan_x4.fix.json").read_text()


def _record():
    import contextlib
    import io
    import tempfile
    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SYSTEMS:
            for command in COMMANDS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc, doc = run_case(command, name, tmp)
                stem = "%s.%s" % (name, command)
                exits[stem] = rc
                (GOLDEN / (stem + ".out")).write_text(buf.getvalue())
                (GOLDEN / (stem + ".json")).write_text(doc)
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
