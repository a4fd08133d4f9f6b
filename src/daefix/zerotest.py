"""Deciding whether an expression is identically zero.

Three outcomes: PROVEN_ZERO (normal form is the zero constant),
PROVEN_NONZERO (the normal form is a nonzero constant or a nonzero Laurent
monomial in the atoms, or a probe point evaluates to something nonzero), and
PROBABLY_ZERO (a probe budget was spent without finding a nonzero value).
Probing is deterministic: the RNG is keyed on the seed and on the normal form
of the expression, so the same question always gets the same answer.

probe_points is the one sampler every randomized check in the package draws
its points from: zero tests, rank probes and equivalence probes.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import Optional

from .expr import (
    ATOM_TYPES, Const, DomainError, Expr, Mul, Param, Pow, _key, atoms,
    evaluate_ex, simplify,
)
from .model import Record

DEFAULT_BUDGET = 8
DEFAULT_SEED = "daefix"

# below this magnitude a value that went through a rounded function value
# (evaluate_ex's exact flag is False) counts as zero evidence
NONZERO_GUARD = Fraction(1, 10 ** 40)

# bindings rejected by a domain error before a probe run gives up
_MAX_REDRAWS = 10


def probe_points(key, needed, evaluate, points, param_values=None):
    """Yields (binding, evaluate(binding)) for up to `points` random points.

    The RNG is seeded with key.  Atoms are bound in _key order to rationals
    p/q with -50 <= p <= 50 and 1 <= q <= 50, except parameters with a
    value in param_values, which keep it.  A binding that evaluate rejects
    with DomainError is redrawn; after _MAX_REDRAWS rejections over the
    whole run the stream ends early, so fewer than `points` pairs come out.
    """
    rng = random.Random(key)
    ats = sorted(needed, key=_key)
    pinned = param_values or {}
    redraws = 0
    while points > 0:
        b = {}
        for a in ats:
            v = pinned.get(a.name) if isinstance(a, Param) else None
            b[a] = (Fraction(v) if v is not None
                    else Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        try:
            result = evaluate(b)
        except DomainError:
            redraws += 1
            if redraws >= _MAX_REDRAWS:
                return
            continue
        points -= 1
        yield b, result


class ZeroKind(Enum):
    PROVEN_ZERO = "proven_zero"
    PROVEN_NONZERO = "proven_nonzero"
    PROBABLY_ZERO = "probably_zero"


class Verdict(Record, uncompared=("witness",)):
    kind: ZeroKind
    value: Optional[Fraction] = None
    witness: Optional[dict] = None
    probes: int = 0
    domain_warning: bool = False

    @property
    def proven_zero(self) -> bool:
        return self.kind is ZeroKind.PROVEN_ZERO

    @property
    def proven_nonzero(self) -> bool:
        return self.kind is ZeroKind.PROVEN_NONZERO

    @property
    def probably_zero(self) -> bool:
        return self.kind is ZeroKind.PROBABLY_ZERO


class Prober:
    """Zero-tests expressions with a fixed budget of rational probe points.

    uncertain_seen flips to True when a result rests on an unproven zero,
    and drivers mark such results.  Four places set it: verdict, on handing
    out PROBABLY_ZERO; jacobian._full_rank, when no probe point shows full
    rank or the one that does was rounded; convert._certify, when fewer
    points than asked were compared; and the basis helper of
    convert._search_candidates, on a NullspaceError.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET, seed=DEFAULT_SEED):
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.budget = budget
        self.seed = seed
        self.uncertain_seen = False
        self._cache: dict = {}

    def verdict(self, e: Expr) -> Verdict:
        s = simplify(e)
        v = self._cache.get(s)
        if v is None:
            v = self._decide(s)
            self._cache[s] = v
        if v.probably_zero:
            self.uncertain_seen = True
        return v

    def _decide(self, s: Expr) -> Verdict:
        if isinstance(s, Const):
            if s.value == 0:
                return Verdict(ZeroKind.PROVEN_ZERO)
            return Verdict(ZeroKind.PROVEN_NONZERO, value=s.value)
        if _nonzero_monomial(s):
            return Verdict(ZeroKind.PROVEN_NONZERO)
        probes = 0
        for b, (v, exact) in probe_points("%s:%r" % (self.seed, s), atoms(s),
                                          lambda b: evaluate_ex(s, b),
                                          self.budget):
            if (exact and v != 0) or (not exact and abs(v) >= NONZERO_GUARD):
                return Verdict(ZeroKind.PROVEN_NONZERO, value=v, witness=b,
                               probes=probes + 1)
            probes += 1
        # a short run means the redraws ran out
        return Verdict(ZeroKind.PROBABLY_ZERO, probes=probes,
                       domain_warning=probes < self.budget)


def _nonzero_monomial(s: Expr) -> bool:
    """True for a normal form c * a1^k1 * ... * am^km with c != 0 and atoms
    a_i: a nonzero Laurent monomial, so not identically zero."""
    for f in (s.children if isinstance(s, Mul) else (s,)):
        if isinstance(f, Pow):
            f = f.base
        if isinstance(f, Const):
            if f.value == 0:
                return False
        elif not isinstance(f, ATOM_TYPES):
            return False
    return True
