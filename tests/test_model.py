import pytest

from daefix.dsl import parse_dae
from daefix.expr import Add, StateDeriv
from daefix.model import DaeSystem, ModelError, fresh_indexed, make_equation

x = StateDeriv(0)
y = StateDeriv(1)


def _sys2():
    return parse_dae("dae m\nvars a, b\neq f1: a' + b = 0\neq f2: a + b = 0\n")


def test_square_validation():
    with pytest.raises(ModelError):
        DaeSystem("m", ("a",), (make_equation("f1", x), make_equation("f2", x)))


def test_undeclared_state_rejected():
    with pytest.raises(ModelError):
        DaeSystem("m", ("a",), (make_equation("f1", x + y),))


def test_var_index():
    s = _sys2()
    assert s.var_index("b") == 1
    with pytest.raises(ModelError):
        s.var_index("zz")


def test_with_equations_keeps_shape():
    s = _sys2()
    s2 = s.with_equations([make_equation("g1", x), make_equation("g2", y)])
    assert s2.var_names == s.var_names
    assert [e.name for e in s2.equations] == ["g1", "g2"]
    with pytest.raises(ModelError):
        s.with_equations([make_equation("g1", x)])


def test_with_equations_walks_only_the_equations_it_adds(monkeypatch):
    import daefix.model
    s = parse_dae("dae m\nvars a, b\nparams k = 2\ninput h\n"
                  "eq f1: a' + k*b - h(t) = 0\neq f2: a + b = 0\n")
    walked = []
    original = daefix.model.walk

    def counted(e):
        walked.append(e)
        return original(e)

    monkeypatch.setattr(daefix.model, "walk", counted)
    new = make_equation("f2", Add((x, -y)))
    s2 = s.with_equations([s.equations[0], new])
    assert walked == [new.raw]
    assert s2.equations == (s.equations[0], new)
    assert (s2.var_names, s2.params, s2.input_names) \
        == (s.var_names, s.params, s.input_names)


@pytest.mark.parametrize("text, message", [
    ("c' + a", "undeclared state"),
    ("a + q", "undeclared parameter"),
    ("a + g(t)", "undeclared input"),
])
def test_with_equations_checks_the_equations_it_adds(text, message):
    s = _sys2()
    wider = parse_dae("dae w\nvars a, b, c\nparams q\ninput g\n"
                      "eq e1: %s = 0\neq e2: b = 0\neq e3: c = 0\n" % text)
    with pytest.raises(ModelError, match=message):
        s.with_equations([make_equation("f1", wider.equations[0].raw),
                          s.equations[1]])


def test_with_equations_rejects_a_taken_equation_name():
    s = _sys2()
    with pytest.raises(ModelError, match="declared twice"):
        s.with_equations([s.equations[0], make_equation("f1", y)])


def test_grown_system_keeps_alias_and_rejects_taken_name():
    s = _sys2()
    eq = make_equation("f3", Add((StateDeriv(2), -x)), origin="es_appended",
                       alias="y1")

    def grow(var_name):
        return DaeSystem(s.name, s.var_names + (var_name,),
                         s.equations + (eq,), s.params, s.input_names)

    s2 = grow("c")
    assert s2.var_names == ("a", "b", "c")
    assert s2.equations[-1].alias == "y1"
    with pytest.raises(ModelError):
        grow("a")


def test_fresh_indexed():
    assert fresh_indexed("x", 3, {"x1", "x2"}) == "x3"
    assert fresh_indexed("x", 3, {"x3", "x4"}) == "x5"
