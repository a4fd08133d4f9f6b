import pytest

from daefix.convert import (Analysis, EsAnalysis, EsApplication, FixReport,
                            LcAnalysis, LcApplication, Renaming,
                            StepRecord)
from daefix.dsl import parse_dae
from daefix.expr import Add, StateDeriv
from daefix.jacobian import JacobianReport
from daefix.model import (DaeSystem, Equation, ModelError, fresh_indexed,
                          make_equation)
from daefix.structural import (OffsetPair, SignatureMatrix, SolutionScheme,
                               Stage)
from daefix.zerotest import Verdict

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
    checked = []
    original = daefix.model.atoms

    def counted(e):
        checked.append(e)
        return original(e)

    # names are checked on the atoms of each equation not kept
    monkeypatch.setattr(daefix.model, "atoms", counted)
    new = make_equation("f2", Add((x, -y)))
    s2 = s.with_equations([s.equations[0], new])
    assert checked == [new.raw]
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


@pytest.mark.parametrize("first, second, message", [
    ("q", "r", "parameter 'q'"), ("r", "q", "parameter 'r'"),
    ("q", "g(t)", "parameter 'q'"), ("g(t)", "q", "input 'g'"),
    ("c'", "q", "state 2"), ("q", "c'", "parameter 'q'"),
    ("sin(g(t)*c)", "r", "input 'g'"), ("r*sin(g(t)*c)", "1", "parameter 'r'"),
])
def test_the_first_undeclared_name_as_written_is_named(first, second,
                                                       message):
    # the atoms of an equation form a set; the error names the offender
    # that comes first in preorder, whatever the order of that set
    s = _sys2()
    wider = parse_dae("dae w\nvars a, b, c\nparams q, r\ninput g\n"
                      "eq e1: a + %s + %s = 0\neq e2: b = 0\neq e3: c = 0\n"
                      % (first, second))
    with pytest.raises(ModelError) as ei:
        s.with_equations([s.equations[0],
                          make_equation("f2", wider.equations[0].raw)])
    assert str(ei.value) == "equation f2 uses undeclared %s" % message


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


# every record class: its fields in order, each with its default (_NONE
# for none), and the fields left out of comparison and out of the repr
_NONE = object()
_RECORDS = [
    (Equation, (("name", _NONE), ("raw", _NONE), ("expr", _NONE),
                ("origin", "original"), ("alias", None)), (), ()),
    (SignatureMatrix, (("rows", _NONE), ("value", _NONE), ("hvt", _NONE),
                       ("dual", _NONE)), ("dual",), ()),
    (OffsetPair, (("c", _NONE), ("d", _NONE)), (), ()),
    (Stage, (("k", _NONE), ("equations", _NONE), ("unknowns", _NONE),
             ("linear", _NONE)), (), ()),
    (SolutionScheme, (("stages", _NONE), ("generic", _NONE)), (), ()),
    (Verdict, (("kind", _NONE), ("value", None), ("witness", None),
               ("probes", 0), ("domain_warning", False)), ("witness",), ()),
    (JacobianReport, (("matrix", _NONE), ("klass", _NONE), ("det", _NONE),
                      ("components", _NONE)),
     ("components",), ("components",)),
    (LcAnalysis, tuple((f, _NONE) for f in (
        "u", "rows", "c_under", "candidates", "const_rows", "condition_ok",
        "off")), (), ()),
    (LcApplication, tuple((f, _NONE) for f in (
        "system", "analysis", "pivot", "combination")), (), ()),
    (EsAnalysis, tuple((f, _NONE) for f in (
        "v", "cols", "rows", "c_over", "const_cols", "condition_ok",
        "off")), (), ()),
    (Renaming, tuple((f, _NONE) for f in (
        "col", "new_index", "var_name", "eq_name", "alias", "order",
        "definition")), (), ()),
    (EsApplication, tuple((f, _NONE) for f in (
        "system", "analysis", "pivot", "renamed", "rewritten")), (), ()),
    (Analysis, (("signature", _NONE), ("offsets", _NONE),
                ("jacobian", _NONE), ("system", None)),
     ("system",), ("system",)),
    (StepRecord, tuple((f, _NONE) for f in (
        "index", "kind", "pivot", "vector", "grade", "value_before",
        "application", "system", "after")), (), ()),
    (FixReport, tuple((f, _NONE) for f in (
        "status", "steps", "system", "uncertain", "initial", "final")),
     (), ()),
]


def _record_cases():
    return pytest.mark.parametrize(
        "cls, fields, uncompared, hidden", _RECORDS,
        ids=[cls.__name__ for cls, _, _, _ in _RECORDS])


@_record_cases()
def test_record_fields_and_defaults(cls, fields, uncompared, hidden):
    names = tuple(f for f, _ in fields)
    assert cls.__match_args__ == names
    required = [f for f, d in fields if d is _NONE]
    r = cls(*("v_" + f for f in required))
    assert [getattr(r, f) for f, _ in fields] \
        == ["v_" + f if d is _NONE else d for f, d in fields]
    assert cls(**{f: "v_" + f for f in names}) \
        == cls(*("v_" + f for f in names))


@_record_cases()
def test_record_equality_hash_and_repr(cls, fields, uncompared, hidden):
    names = tuple(f for f, _ in fields)
    values = {f: "v_" + f for f in names}
    r = cls(**values)
    assert repr(r) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s='v_%s'" % (f, f) for f in names if f not in hidden))
    compared = tuple(values[f] for f in names if f not in uncompared)
    assert hash(r) == hash(compared)
    for f in names:
        other = cls(**dict(values, **{f: "w"}))
        if f in uncompared:
            assert other == r and hash(other) == hash(r)
        else:
            assert other != r
    # another class, even with the same fields, is never equal
    assert r.__eq__(compared) is NotImplemented
    assert r != compared
    for other_cls, other_fields, _, _ in _RECORDS:
        if other_cls is not cls:
            other = other_cls(**{f: "v_" + f for f, _ in other_fields})
            assert r.__eq__(other) is NotImplemented and r != other


@_record_cases()
def test_record_refuses_assignment_and_deletion(cls, fields, uncompared,
                                                hidden):
    r = cls(*("v_" + f for f, _ in fields))
    for name in (fields[0][0], fields[-1][0], "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert getattr(r, fields[0][0]) == "v_" + fields[0][0]


@_record_cases()
def test_record_with_bad_arguments_raises_type_error(cls, fields, uncompared,
                                                     hidden):
    names = [f for f, _ in fields]
    with pytest.raises(TypeError):          # missing
        cls()
    with pytest.raises(TypeError):          # one too many
        cls(*names, "extra")
    with pytest.raises(TypeError):          # unknown keyword
        cls(*names, extra=1)
    with pytest.raises(TypeError):          # repeated
        cls(*names, **{names[0]: 1})


def test_systems_compare_and_hash_by_identity():
    s = _sys2()
    twin = DaeSystem(s.name, s.var_names, s.equations)
    assert twin != s and s == s
    assert hash(s) == object.__hash__(s)
    assert repr(twin) == (
        "DaeSystem(name='m', var_names=('a', 'b'), equations=%r, params=(), "
        "input_names=())" % (s.equations,))
    with pytest.raises(AttributeError):
        s.name = "other"
    with pytest.raises(TypeError):
        DaeSystem("m", ("a",))
