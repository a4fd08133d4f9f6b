"""DAEs whose structure is hidden by a transform with a known answer.

A constant change of variables x = T y with det T != 0 keeps the solution
set, so when the Sigma-method succeeds on the transformed system it must
report the degrees of freedom of the original (Pryce, BIT 41, 2001: on
success, dof = val Sigma).  pendulum_mod in the corpus is one such case.
"""

import random

import pytest

from daefix.convert import FixStatus, fix_dae
from daefix.dsl import parse_dae

PENDULUM_DOF = 2


def _combination(row, names):
    """sum_k row[k] * names[k] as .dae text, in parentheses."""
    text = ""
    for c, name in zip(row, names):
        if c:
            sign = "-" if c < 0 else ("+" if text else "")
            text += (" %s " % sign if text else sign) + name
    return "(%s)" % text


def pendulum_after_change_of_variables(T):
    """The pendulum with (x, y, lambda) = T (x1, x2, x3)."""
    x, y, lam = (_combination(row, ("x1", "x2", "x3")) for row in T)
    return ("dae pendulum_T\n"
            "vars x1, x2, x3\n"
            "params G = 9.8, L = 1\n"
            "eq f1: diff(%s, 2) + %s*%s = 0\n"
            "eq f2: diff(%s, 2) + %s*%s - G = 0\n"
            "eq f3: %s^2 + %s^2 - L^2 = 0\n"
            % (x, x, lam, y, y, lam, x, y))


def _det3(T):
    return (T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
            - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
            + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]))


def nonsingular_transforms(count, seed):
    """count 3x3 matrices over {-1, 0, 1} with nonzero determinant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = [[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)]
        if _det3(T):
            out.append(T)
    return out


@pytest.mark.parametrize("formal", (False, True))
def test_change_of_variables_keeps_pendulum_dof(formal):
    for T in nonsingular_transforms(40, seed=11):
        text = pendulum_after_change_of_variables(T)
        r = fix_dae(parse_dae(text), formal=formal)
        assert r.status is FixStatus.SUCCESS, text
        assert r.final_value == PENDULUM_DOF, text
        assert not r.uncertain, text
