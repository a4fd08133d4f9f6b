"""Runs build no reference cycles, and the CLI runs without the collector.

Everything a run makes is freed by reference counting: in process, under
gc.DEBUG_SAVEALL, a collection after each main() call finds nothing
unreachable, on the corpus, the generated families, random draws
(elimination stuck on a probable zero included) and the error exits.  So
main turns the cyclic collector off for the length of the command, and
leaves it as the caller set it on every exit; nothing else under src/
touches it."""

import contextlib
import gc
import io
import random
import re
from pathlib import Path

import pytest

import checks
import daefix
from daefix import cli, corpus, nullspace
from daefix.cli import main

POWER = ("dae p\nvars x, y\neq f1: (x + y + 1)^%d + x' = 0\n"
         "eq f2: x - y' = 0\n")


def _draws():
    rng = random.Random(1002)
    return [("draw_%d" % k, checks.rand_factor_text(rng)) for k in range(80)]


INPUTS = ([(name, corpus.source(name)) for name in corpus.names()]
          + [("brenan_x8", checks.brenan_blocks(8)),
             ("chain_32", checks.pendulum_chain(32))]
          + [("power_%d" % k, POWER % k) for k in (10, 20, 40)]
          + _draws())

# draws whose fix meets an elimination stuck on a probable zero, and the
# modes it sticks in
STUCK = {"draw_25": ("true", "formal"), "draw_29": ("true", "formal"),
         "draw_34": ("true", "formal")}


@pytest.fixture(scope="module", autouse=True)
def _frozen_heap():
    """Runs this module with the collector off and what lives before it
    frozen, out of the collections' sight, so that a collection walks
    only what was made since; a cycle among such objects is found all the
    same, as frozen ones count as roots."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()
    if enabled:
        gc.enable()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _cyclic_garbage(argv):
    """(exit code, stderr, the types of the objects the run left in
    reference cycles): a collection after it keeps what it finds in
    gc.garbage.  What the run keeps alive is frozen after it."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rc, err = _run(argv)
        gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    gc.freeze()
    return rc, err, kinds


@pytest.mark.parametrize("name, text", INPUTS, ids=[n for n, _ in INPUTS])
def test_a_run_leaves_no_cyclic_garbage(tmp_path, name, text):
    path = tmp_path / (name + ".dae")
    path.write_text(text)
    left = {}
    for cmd in ("analyze", "fix"):
        for mode in ("true", "formal"):
            argv = [cmd, str(path), "--mode", mode,
                    "--json", str(tmp_path / "out.json")]
            rc, err, kinds = _cyclic_garbage(argv)
            assert rc in (0, 2, 3, 4) and "Traceback" not in err
            if kinds:
                left[cmd, mode] = kinds
    assert left == {}


@pytest.mark.parametrize("name", sorted(STUCK))
def test_a_stuck_elimination_leaves_no_cyclic_garbage(tmp_path, monkeypatch,
                                                      name):
    eliminate, stuck = nullspace._eliminate, []

    def counted(part, prober, left):
        done = eliminate(part, prober, left)
        stuck.append(done[-1] is not None)
        return done

    monkeypatch.setattr(nullspace, "_eliminate", counted)
    path = tmp_path / "draw.dae"
    path.write_text(dict(INPUTS)[name])
    for mode in STUCK[name]:
        stuck.clear()
        rc, err, kinds = _cyclic_garbage(["fix", str(path), "--mode", mode])
        assert any(stuck), mode
        assert rc == 2 and kinds == []


BRENAN = corpus.source("brenan")


@pytest.mark.parametrize("text, argv, rc", [
    # a parse error, and a domain error raised as one from the parser's
    ("dae d\nvars x\neq f1: x' + $ = 0\n", ["analyze"], 1),
    ("dae d\nvars x\neq f1: x' + ln(-1) = 0\n", ["fix"], 1),
    # a forced vector that is not a null vector, and the zero vector
    (BRENAN, ["trace", "--method", "lc", "--vector", "[1, 0]"], 1),
    (BRENAN, ["trace", "--method", "lc", "--vector", "[0, 0]"], 1),
    # a pivot the method refuses
    (BRENAN, ["trace", "--method", "lc", "--vector", "[-1, 1]",
              "--pivot", "9"], 1),
    # structurally ill posed
    ("dae sip\nvars x1, x2\neq f1: x1' + x1 = 0\neq f2: x1 - 1 = 0\n",
     ["analyze"], 3),
    ("dae sip\nvars x1, x2\neq f1: x1' + x1 = 0\neq f2: x1 - 1 = 0\n",
     ["fix"], 3),
    # nested past the recursive tree functions' reach
    ("dae n\nvars x, y\neq f1: " + "sin(" * 250 + "x" + ")" * 250
     + " + x' - y = 0\neq f2: x - y' = 0\n", ["analyze"], 1),
], ids=["parse", "domain", "residual", "zero_vector", "pivot", "ill_posed",
        "ill_posed_fix", "nested"])
def test_an_error_exit_leaves_no_cyclic_garbage(tmp_path, text, argv, rc):
    path = tmp_path / "case.dae"
    path.write_text(text)
    got, err, kinds = _cyclic_garbage(argv[:1] + [str(path)] + argv[1:])
    assert (got, kinds) == (rc, [])
    assert "Traceback" not in err


class _Boom(Exception):
    pass


def _boom(*args, **kwargs):
    raise _Boom


EXITS = [(corpus.source("pendulum"), 0),
         ("dae d\nvars x\neq f1: x' + $ = 0\n", 1),
         (BRENAN, 2),
         ("dae sip\nvars x1, x2\neq f1: x1' + x1 = 0\neq f2: x1 - 1 = 0\n",
          3),
         (dict(INPUTS)["draw_52"], 4)]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("text, rc", EXITS, ids=["0", "1", "2", "3", "4"])
def test_main_restores_the_collector_setting(tmp_path, monkeypatch, enabled,
                                             text, rc):
    path = tmp_path / "case.dae"
    path.write_text(text)
    seen = []
    parse = cli.parse_dae

    def parse_seen(text):
        seen.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(cli, "parse_dae", parse_seen)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, _ = _run(["analyze", str(path)])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (got, seen, after) == (rc, [False], enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector_when_the_command_raises(
        tmp_path, monkeypatch, enabled):
    path = tmp_path / "case.dae"
    path.write_text(corpus.source("pendulum"))
    monkeypatch.setattr(cli, "analyze", _boom)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(_Boom):
            _run(["analyze", str(path)])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after == enabled


def test_only_main_touches_the_collector():
    src = Path(daefix.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"\bgc\b", p.read_text()))
    assert users == ["cli.py"]
    text = (src / "cli.py").read_text()
    calls = [m.start() for m in re.finditer(r"\bgc\.", text)]
    main_at = text.index("\ndef main(")
    assert calls and all(c > main_at for c in calls)
