"""DAE system model: named equations over named state variables.

A DaeSystem is immutable and validated when it is built.  The conversion
rewrites in convert build each converted system in one construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .expr import DrivingFn, Expr, Param, StateDeriv, simplify, walk

RESERVED = {"t", "dae", "vars", "params", "input", "eq",
            "sin", "cos", "exp", "ln", "sqrt", "diff"}


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Equation:
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


@dataclass(frozen=True, eq=False)
class DaeSystem:
    name: str
    var_names: tuple
    equations: tuple
    params: tuple = ()          # (name, Fraction value or None) pairs
    input_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        self._validate()

    def _validate(self, kept=()):
        """Checks the system once, when it is built.  kept holds equations
        already checked against the same declarations (with_equations
        passes its own): they are not walked again."""
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
        for eq in self.equations:
            if id(eq) in kept:
                continue
            for node in walk(eq.raw):
                if isinstance(node, StateDeriv) and not 0 <= node.index < n:
                    raise ModelError("equation %s uses undeclared state %d"
                                     % (eq.name, node.index))
                if isinstance(node, Param) and node.name not in param_names:
                    raise ModelError("equation %s uses undeclared parameter %r"
                                     % (eq.name, node.name))
                if isinstance(node, DrivingFn) and node.name not in inputs:
                    raise ModelError("equation %s uses undeclared input %r"
                                     % (eq.name, node.name))

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def param_values(self) -> dict:
        return {p: v for p, v in self.params}

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise ModelError("unknown variable %r" % name) from None

    def with_equations(self, equations: Sequence[Equation]) -> "DaeSystem":
        """This system with other equations over the same declarations."""
        new = object.__new__(DaeSystem)
        new.__dict__.update(self.__dict__, equations=tuple(equations))
        new._validate(self.equations)
        return new


def fresh_indexed(prefix: str, start: int, taken) -> str:
    """First of prefix<start>, prefix<start+1>, ... not in `taken`."""
    k = start
    while "%s%d" % (prefix, k) in taken:
        k += 1
    return "%s%d" % (prefix, k)
