"""DAE system model: named equations over named state variables.

A DaeSystem is immutable and validated when it is built; with_equations
checks only the equations it does not keep from the system it extends.
Names are checked once per distinct atom, on the memoised atoms(raw)
set; only an equation that fails is walked, to name its first offender.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .expr import (DrivingFn, Expr, Frozen, Param, StateDeriv, atoms,
                   bind_fields, simplify, walk)

RESERVED = {"t", "dae", "vars", "params", "input", "eq",
            "sin", "cos", "exp", "ln", "sqrt", "diff"}


class ModelError(ValueError):
    pass


class Record(Frozen):
    """An immutable record, keeping what daefix used of the standard
    library's frozen data classes with no code generated.  A subclass's
    annotated names are its fields, in order, a value in its body a field's
    default; a missing, unknown or repeated argument raises TypeError.  A
    record equals only a record of its own class with equal compared
    fields (else __eq__ returns NotImplemented), hashes as the tuple of
    those, prints as Name(field=value, ...) and refuses assignment and
    deletion with AttributeError.  The class keywords `uncompared` and
    `hidden` name the fields left out of comparison and of the repr."""

    def __init_subclass__(cls, uncompared=(), hidden=()):
        ns = vars(cls)
        cls.__match_args__ = fields = tuple(ns.get("__annotations__", ()))
        cls._defaults = {f: ns[f] for f in fields if f in ns}
        cls._compared = tuple(f for f in fields if f not in uncompared)
        cls._show(tuple(f for f in fields if f not in hidden))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.__match_args__):
            args = bind_fields(type(self), args, kwargs)
        self.__dict__.update(zip(self.__match_args__, args))

    def _compared_values(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared_values() == other._compared_values()

    def __hash__(self):
        return hash(self._compared_values())


class Equation(Record):
    """One equation f = 0.

    raw is the tree as written and expr its normal form.  Signature
    entries read from raw are the formal ones, entries read from expr the
    true ones.  An equation written by a conversion step holds its normal
    form in both, since that normal form is the equation daefix emits.
    """

    name: str
    raw: Expr
    expr: Expr
    origin: str = "original"
    alias: Optional[str] = None


def make_equation(name: str, raw: Expr, origin: str = "original",
                  alias: Optional[str] = None) -> Equation:
    return Equation(name, raw, simplify(raw), origin, alias)


class DaeSystem(Record):
    name: str
    var_names: tuple
    equations: tuple
    params: tuple = ()          # (name, Fraction value or None) pairs
    input_names: tuple = ()

    # two systems are two objects, whatever their fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.__dict__.update((f, tuple(getattr(self, f)))
                             for f in self.__match_args__[1:])
        self._validate()

    def _validate(self, kept=()):
        """Checks the system once, when it is built.  kept holds equations
        already checked against these declarations less any appended
        states (with_equations passes its own): they are not walked again."""
        if len(self.equations) != len(self.var_names):
            raise ModelError("system must be square: %d equations, %d variables"
                             % (len(self.equations), len(self.var_names)))
        if not self.var_names:
            raise ModelError("system has no variables")
        names = list(self.var_names) + [p for p, _ in self.params] \
            + list(self.input_names)
        seen = set()
        for nm in names:
            if nm in RESERVED:
                raise ModelError("name %r is reserved" % nm)
            if nm in seen:
                raise ModelError("name %r declared twice" % nm)
            seen.add(nm)
        eq_names = set()
        for eq in self.equations:
            if eq.name in eq_names:
                raise ModelError("equation name %r declared twice" % eq.name)
            eq_names.add(eq.name)
        kept = {id(eq) for eq in kept}
        param_names = {p for p, _ in self.params}
        inputs = set(self.input_names)
        n = len(self.var_names)

        def undeclared(node):
            if isinstance(node, StateDeriv) and not 0 <= node.index < n:
                return "state %d" % node.index
            if isinstance(node, Param) and node.name not in param_names:
                return "parameter %r" % node.name
            if isinstance(node, DrivingFn) and node.name not in inputs:
                return "input %r" % node.name
        for eq in self.equations:
            if id(eq) not in kept and any(map(undeclared, atoms(eq.raw))):
                # the first offender as written names the error
                first = next(filter(None, map(undeclared, walk(eq.raw))))
                raise ModelError("equation %s uses undeclared %s"
                                 % (eq.name, first))

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def param_values(self) -> dict:
        return {p: v for p, v in self.params}

    def with_equations(self, equations: Sequence[Equation],
                       new_vars: Sequence[str] = ()) -> "DaeSystem":
        """This system with other equations, and states new_vars appended."""
        new = object.__new__(DaeSystem)
        new.__dict__.update(self.__dict__, equations=tuple(equations),
                            var_names=self.var_names + tuple(new_vars))
        new._validate(self.equations)
        return new


def fresh_indexed(prefix: str, start: int, taken) -> str:
    """First of prefix<start>, prefix<start+1>, ... not in `taken`."""
    k = start
    while "%s%d" % (prefix, k) in taken:
        k += 1
    return "%s%d" % (prefix, k)
