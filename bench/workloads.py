"""Workloads: the .dae inputs each benchmark run feeds the CLI, with the
answer every operation must give.

Expected answers are written by hand from the paper and the README, or
from closed forms for the generated families; none is produced by daefix.
Each generated operation comes in VARIANTS orderings of its equations
and of its declared variables, and successive runs of it cycle through
them.  Every expected answer below is invariant under those orderings,
but the time is not: the lexicographically smallest transversal of the
pendulum chain at n = 128 took from 1.0 s to 3.1 s over 30 orderings.
Orderings drawn from the workload seed moved the chain's median by 15%
from seed to seed, more than any regression bound can allow, so the
orderings come from a fixed stream per operation instead.  The seed
sets the order of the operations and where each one's cycle starts.
"""

import os
import random
from dataclasses import dataclass, field, replace

VARIANTS = 2

# Which exit codes may accompany a correct verdict.  4 means the verdict
# rested on a probabilistic zero test; it counts as correct but unverified.
NONSINGULAR_EXITS = (0, 4)
SINGULAR_EXITS = (2,)
FIXED_EXITS = (0, 4)


@dataclass(frozen=True)
class Op:
    """One CLI call: `daefix <command> <file> --json <out>`."""

    name: str
    command: str          # "analyze" or "fix"
    texts: tuple          # .dae sources the parent writes, run in turn
    exits: tuple          # exit codes that can go with a correct verdict
    fields: dict = field(default_factory=dict)  # JSON fields and their values
    n: int = 0            # number of equations in each text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple


# ---------------------------------------------------------------------------
# generators

def _dae(name, var_names, equations, inputs=(), rng=None):
    """Writes .dae text; rng, when given, permutes declarations and rows."""
    var_names = list(var_names)
    equations = list(equations)
    if rng is not None:
        rng.shuffle(var_names)
        rng.shuffle(equations)
    lines = ["dae %s" % name, "vars %s" % ", ".join(var_names)]
    if inputs:
        lines.append("input %s" % ", ".join(inputs))
    lines += ["eq %s: %s = 0" % eq for eq in equations]
    return "\n".join(lines) + "\n"


def brenan_blocks(k, rng=None):
    """k decoupled copies of the Brenan system (n = 2k).

    Each block is identically singular with value 1, so the system starts
    at value k and needs k combination steps to reach value 0.
    """
    var_names, equations, inputs = [], [], []
    for b in range(1, k + 1):
        x, y = "x%d" % b, "y%d" % b
        h1, h2 = "h%d" % (2 * b - 1), "h%d" % (2 * b)
        var_names += [x, y]
        inputs += [h1, h2]
        equations += [("a%d" % b, "%s' + t*%s' - %s(t)" % (x, y, h1)),
                      ("b%d" % b, "%s + t*%s - %s(t)" % (x, y, h2))]
    return _dae("brenan_x%d" % k, var_names, equations, inputs, rng)


def pendulum_chain(n, rng=None):
    """n - 1 masses on springs x_i'' + x_i*lam - x_{i-1} = 0, tied by
    sum x_i^2 - 1 = 0 (n equations, n unknowns).

    The constraint takes x_{n-1}, its equation takes lam and every other
    row its own x_i'' on the highest-value transversal, so the value is
    2(n - 2) = 2n - 4; the offsets are those of the pendulum: index 3,
    and 2n - 4 degrees of freedom.
    """
    m = n - 1
    xs = ["x%d" % i for i in range(1, m + 1)]
    equations = []
    for i in range(1, m + 1):
        rhs = " - x%d" % (i - 1) if i > 1 else ""
        equations.append(("e%d" % i, "x%d'' + x%d*lam%s" % (i, i, rhs)))
    equations.append(("g", " + ".join("%s^2" % x for x in xs) + " - 1"))
    return _dae("chain_%d" % n, xs + ["lam"], equations, (), rng)


def power_system(k, rng=None):
    """(x + y + 1)^k + x' = 0, x - y' = 0.

    Both derivatives are first order and the power only touches order 0,
    so the value is 2, c = (0, 0), d = (1, 1), index 0, and J = diag(1, -1)
    up to row order: nonsingular.  The normal form of the power has
    (k + 1)(k + 2)/2 terms.
    """
    equations = [("f1", "(x + y + 1)^%d + x'" % k), ("f2", "x - y'")]
    return _dae("power_%d" % k, ["x", "y"], equations, (), rng)


def monomial_system(k):
    """x^k - 1 = 0 in one unknown: value 0, index 1, J = k*x^(k-1)."""
    return _dae("monomial", ["x"], [("f1", "x^%d - 1" % k)])


def equation_count(text):
    return sum(1 for ln in text.splitlines() if ln.startswith("eq "))


# ---------------------------------------------------------------------------
# workloads

def _corpus_dir(root):
    return os.path.join(root, "src", "daefix", "corpus")


# Values from the paper (arXiv 1608.06691) and the README: signature value,
# canonical offsets and the singularity of each bundled system, and the
# value each conversion reaches.
CORPUS_ANALYZE = {
    "pendulum": (NONSINGULAR_EXITS, {
        "value": 2, "offsets": {"c": [0, 0, 2], "d": [2, 2, 0]},
        "structural_index": 3, "dof": 2,
        "classification": "GenericallyNonsingular"}),
    "brenan": (SINGULAR_EXITS, {
        "value": 1, "offsets": {"c": [0, 1], "d": [1, 1]},
        "classification": "IdenticallySingular"}),
    "lc_example": (SINGULAR_EXITS, {
        "value": 1, "offsets": {"c": [0, 0, 1, 0], "d": [1, 1, 0, 0]},
        "classification": "IdenticallySingular"}),
    "es_example": (SINGULAR_EXITS, {
        "value": 2, "offsets": {"c": [0, 1], "d": [1, 2]},
        "classification": "IdenticallySingular"}),
    "pendulum_mod": (SINGULAR_EXITS, {
        "value": 4, "offsets": {"c": [0, 0, 2], "d": [2, 2, 2]},
        "classification": "IdenticallySingular"}),
    "scholz": (SINGULAR_EXITS, {
        "value": 2, "classification": "IdenticallySingular"}),
}

CORPUS_FIX = {
    "pendulum": (2, 2),
    "brenan": (1, 0),
    "lc_example": (1, 0),
    "es_example": (2, 1),
    "pendulum_mod": (4, 2),
    "scholz": (2, 0),
}


def _fixed(initial, final):
    return {"status": "success", "initial_value": initial,
            "final_value": final}


def corpus_ops(root):
    ops = []
    for name in sorted(CORPUS_ANALYZE):
        with open(os.path.join(_corpus_dir(root), name + ".dae")) as fh:
            text = fh.read()
        n = equation_count(text)
        exits, fields = CORPUS_ANALYZE[name]
        ops.append(Op(name + "/analyze", "analyze", (text,), exits, fields,
                      n))
        ops.append(Op(name + "/fix", "fix", (text,), FIXED_EXITS,
                      _fixed(*CORPUS_FIX[name]), n))
    return ops


BRENAN_KS = (2, 4, 8, 16)
CHAIN_NS = (16, 64, 128)
POWER_KS = (10, 20, 30, 40, 60)
MONOMIAL_K = 10 ** 7


def _variants(gen, size):
    rng = random.Random("%s:%d" % (gen.__name__, size))
    return tuple(gen(size, rng) for _ in range(VARIANTS))


def decoupled_ops():
    return [Op("brenan_x%d/fix" % k, "fix", _variants(brenan_blocks, k),
               FIXED_EXITS, _fixed(k, 0), 2 * k) for k in BRENAN_KS]


def coupled_ops():
    return [Op("chain_%d/analyze" % n, "analyze",
               _variants(pendulum_chain, n), NONSINGULAR_EXITS,
               {"value": 2 * n - 4, "structural_index": 3, "dof": 2 * n - 4,
                "classification": "GenericallyNonsingular"}, n)
            for n in CHAIN_NS]


def expansion_ops():
    ops = [Op("power_%d/analyze" % k, "analyze",
              _variants(power_system, k), NONSINGULAR_EXITS,
              {"value": 2, "offsets": {"c": [0, 0], "d": [1, 1]},
               "structural_index": 0, "dof": 2,
               "classification": "GenericallyNonsingular"}, 2)
           for k in POWER_KS]
    ops.append(Op("monomial/analyze", "analyze",
                  (monomial_system(MONOMIAL_K),), NONSINGULAR_EXITS,
                  {"value": 0, "classification": "GenericallyNonsingular"},
                  1))
    return ops


WHY = {
    "corpus": "the six bundled systems through analyze and fix: today's "
              "real traffic, small n, dominated by parse, probes and render",
    "decoupled": "Brenan blocks x2..x16 through fix: the rewrite loop, "
                 "k steps each re-running the whole analysis",
    "coupled": "pendulum chain n=16..128 through analyze: the signature, "
               "HVT, offsets and scheme on a nonsingular system, no rewrite",
    "expansion": "(x+y+1)^k and x^10000000 through analyze: a few huge "
                 "normal forms, holding the two documented hangs",
}


def build(name, root, seed):
    """The workload's operations, in the order the seed gives, each with
    its orderings rotated to the start the seed gives."""
    if name == "corpus":
        ops = corpus_ops(root)
    elif name == "decoupled":
        ops = decoupled_ops()
    elif name == "coupled":
        ops = coupled_ops()
    elif name == "expansion":
        ops = expansion_ops()
    else:
        raise KeyError(name)
    rng = random.Random("%s:%d" % (name, seed))
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        start = rng.randrange(len(op.texts))
        ops[k] = replace(op, texts=op.texts[start:] + op.texts[:start])
    return Workload(name, WHY[name], tuple(ops))
