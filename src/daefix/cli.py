"""Command-line frontend: analyze, fix, and trace subcommands.

Exit codes form a small contract for CI embedding:
  0  Jacobian generically nonsingular / conversion succeeded
  1  usage, parse or file errors, such as input nested past 200 levels;
     a failed forced vector; a converted tree too deep to recurse over
  2  singular Jacobian (analyze), no method applies, or a forced step
     rejected by a method condition
  3  structurally ill posed input, or a conversion exposed ill-posedness
  4  result rests on an unproven zero test (unverified)

A run builds no reference cycles, so reference counting frees all it
makes; main runs the command with the cyclic collector off, which would
only walk the heap, and restores the caller's setting after it.
"""

import gc
import json
import sys
from types import SimpleNamespace

# CPython's own SHA-256, as random.py gets its sha512: hashlib would load
# OpenSSL for one digest
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .convert import (ConditionRejected, ConvertError, FixStatus,
                      PivotRejected, VectorRejected, analyze, fix_dae)
from .dsl import ParseError, emit_dae, parse_dae, parse_vector
from .expr import ZERO, format_expr, simplify
from .jacobian import JacobianClass
from .model import ModelError
from .nullspace import residual
from .render import (jacobian_entries, render_equations, render_jacobian,
                     render_scheme, render_sigma, render_step)
from .structural import (degrees_of_freedom, sigma_from_rows, signature_rows,
                         solution_scheme, structural_index)
from .zerotest import DEFAULT_BUDGET, DEFAULT_SEED, Prober

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_ILL_POSED = 3
EXIT_UNVERIFIED = 4

_EPILOG = """exit codes:
  0  generically nonsingular / fixed
  1  usage, parse, or vector-verification error
  2  singular, no method applies, or condition rejected a forced step
  3  structurally ill posed
  4  unverified: a zero test ran out of probe budget
"""


def _load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        # the bytes before the first bad one decode; count from them
        head = data[:ex.start]
        col = len(head[head.rfind(b"\n") + 1:].decode("utf-8")) + 1
        raise ParseError("not UTF-8: byte 0x%02x" % data[ex.start],
                         head.count(b"\n") + 1, col) from None
    return parse_dae(text), sha256(data).hexdigest()


def _prober(args) -> Prober:
    return Prober(budget=args.probe_budget, seed=args.seed)


def _write_json(args, doc):
    """Writes the bytes of json.dump(doc, fh, indent=2) and a newline,
    streamed: Python walks the containers and joins a list of scalars
    from the texts of its items, a table row from the text of its fill
    and those of its nonzeros.  The keys of doc are str."""
    if args.json_path:
        with open(args.json_path, "w") as fh:
            _dump(doc, fh.write, 0)
            fh.write("\n")


# the exact types that json writes as scalars
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Row(list):
    """A table row of n cells: the values of the {column: value} dict
    sparse, and fill elsewhere; fill and the values are scalars."""

    __slots__ = ("sparse", "fill")

    def __init__(self, sparse, n, fill):
        super().__init__([fill] * n)
        for j, value in sparse.items():
            self[j] = value
        self.sparse, self.fill = sparse, fill


def _text(value):
    """json's text of a scalar or of an empty container."""
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    return "null" if value is None else json.dumps(value)


def _dump(value, write, depth):
    """json's indent=2 form of value at nesting depth, through write.  An
    item that is the very container of an earlier item is written from
    its text."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value:
        brackets, items = "{}", [(json.encoder.encode_basestring_ascii(key)
                                  + ": ", item) for key, item in value.items()]
    elif not isinstance(value, (list, tuple)) or not value:
        return write(_text(value))
    elif type(value) is _Row:
        # the row of fill texts, with the texts of the nonzeros put in
        texts = [_text(value.fill)] * len(value)
        for j, item in value.sparse.items():
            texts[j] = _text(item)
        return write("[%s%s%s]" % (inner, ("," + inner).join(texts),
                                   inner[:-2]))
    elif _SCALARS.issuperset(map(type, value)):
        return write("[%s%s%s]" % (inner, ("," + inner).join(
            map(_text, value)), inner[:-2]))
    else:
        brackets, items = "[]", [("", item) for item in value]
    ids = [id(item) for _, item in items]
    texts = {i: None for i in ids if ids.count(i) > 1} \
        if len(set(ids)) < len(ids) else {}
    sep = brackets[0] + inner
    for head, item in items:
        write(sep + head)
        sep = "," + inner
        if id(item) not in texts:
            _dump(item, write, depth + 1)
            continue
        if texts[id(item)] is None:
            parts: list = []
            _dump(item, parts.append, depth + 1)
            texts[id(item)] = "".join(parts)
        write(texts[id(item)])
    write(inner[:-2] + brackets[1])


def _sigma_json(sig):
    entries = [_Row(row, sig.n, None) for row in sig.rows]
    hvt = [[i + 1, j + 1] for i, j in sig.hvt] if sig.hvt else None
    return {"entries": entries, "hvt": hvt,
            "value": None if not sig.swp else sig.value}


def _offsets_json(off):
    return None if off is None else {"c": list(off.c), "d": list(off.d)}


def _det_string(system, jac):
    """The determinant's normal form, None when it was not expanded."""
    if jac is None or jac.det is None:
        return None
    return format_expr(jac.det, system.var_names)


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    system, digest = _load(args.path)
    prober = _prober(args)
    formal = args.mode == "formal"
    a = analyze(system, prober, formal)
    sig = a.signature
    # the other mode's table, solved again only when its rows differ
    rows = signature_rows(system, formal=not formal)
    other = sig if rows == sig.rows else sigma_from_rows(rows)
    true_sig, formal_sig = (other, sig) if formal else (sig, other)
    doc = {
        "kind": "analysis",
        "name": system.name,
        "input_sha256": digest,
        "mode": args.mode,
        "variables": list(system.var_names),
        "equations": [eq.name for eq in system.equations],
        "sigma_true": (table := _sigma_json(true_sig)),
        # where the modes agree, one table, its text written twice
        "sigma_formal": table if other is sig else _sigma_json(formal_sig),
    }
    print("system %s: %d equations" % (system.name, system.n))
    if a.jacobian is None:
        doc.update(classification="StructurallyIllPosed", offsets=None,
                   value=None, structural_index=None, dof=None, scheme=None,
                   jacobian=None, determinant=None,
                   uncertain=prober.uncertain_seen)
        _write_json(args, doc)
        print("no highest-value transversal: structurally ill posed")
        return EXIT_ILL_POSED
    off, rep = a.offsets, a.jacobian
    scheme = solution_scheme(off, rep.matrix)
    print()
    print(render_sigma(system, sig, off))
    print()
    print("value %d   structural index %d   degrees of freedom %d"
          % (sig.value, structural_index(off), degrees_of_freedom(off)))
    print()
    print("solution scheme:")
    scheme_text, stages = render_scheme(system, scheme)
    print(scheme_text)
    print()
    print("System Jacobian:")
    jac_entries = jacobian_entries(system, rep.matrix)
    print(render_jacobian(system, jac_entries))
    det_str = _det_string(system, rep)
    if det_str is not None:
        print("det(J) = %s" % det_str)
    print("classification: %s" % rep.klass.value)
    if prober.uncertain_seen:
        print("confidence: unverified (a zero test ran out of probe budget)")
    doc.update(
        offsets=_offsets_json(off),
        value=sig.value,
        structural_index=structural_index(off),
        dof=degrees_of_freedom(off),
        scheme=stages,
        jacobian=[_Row(row, system.n, "0") for row in jac_entries],
        determinant=det_str,
        classification=rep.klass.value,
        uncertain=prober.uncertain_seen,
    )
    _write_json(args, doc)
    if rep.klass is JacobianClass.GENERICALLY_NONSINGULAR:
        return EXIT_UNVERIFIED if prober.uncertain_seen else EXIT_OK
    if rep.klass is JacobianClass.PROBABLY_SINGULAR:
        return EXIT_UNVERIFIED
    return EXIT_SINGULAR


# ---------------------------------------------------------------------------
# fix / trace

def _report_fix(args, system, digest, report):
    """Prints the fix text and returns the fix document, both from one
    walk over the report: each step, the resulting system and the
    determinant are formatted once."""
    initial = report.initial
    if initial.offsets is not None:
        print(render_sigma(system, initial.signature, initial.offsets))
        print()
    steps = []
    before = system
    for st in report.steps:
        text, entry = render_step(st, before)
        print(text)
        print()
        steps.append(entry)
        before = st.system
    jac = report.final.jacobian
    det_str = _det_string(report.system, jac)
    taken = "%d step%s" % (len(steps), "" if len(steps) == 1 else "s")
    if report.status is FixStatus.SUCCESS:
        if report.steps:
            print("fixed in %s, value %s -> %s"
                  % (taken, report.initial_value, report.final_value))
        else:
            print("nothing to do: System Jacobian already generically "
                  "nonsingular")
        if det_str is not None:
            print("det(J) = %s" % det_str)
    elif report.status is FixStatus.ILL_POSED:
        if report.steps:
            print("ill posed: the rewrite at step %d removed the last "
                  "transversal, so the original system has no solution "
                  "scheme" % len(report.steps))
        else:
            print("structurally ill posed: no highest-value transversal")
    elif report.status is FixStatus.NO_METHOD:
        print("no method applies at step %d: neither rewrite accepts the "
              "null vectors found" % (len(report.steps) + 1))
    else:
        print("step budget exhausted after %s; Jacobian still singular"
              % taken)
    print()
    print("resulting system:")
    text, equations = render_equations(report.system)
    print(text)
    if report.uncertain:
        print("confidence: unverified (a zero test ran out of probe budget)")
    # -inf marks a lost transversal; JSON carries null there
    final_value = None if jac is None else report.final_value
    return {
        "kind": "conversion",
        "name": system.name,
        "input_sha256": digest,
        "mode": args.mode,
        "status": report.status.value,
        "initial_value": report.initial_value,
        "final_value": final_value,
        "uncertain": report.uncertain,
        "steps": steps,
        "system": {"name": report.system.name,
                   "variables": list(report.system.var_names),
                   "equations": equations},
        "final": {
            "classification": (jac.klass.value if jac
                               else "StructurallyIllPosed"),
            "determinant": det_str,
            "offsets": _offsets_json(report.final.offsets),
            "value": final_value,
        },
    }


def cmd_fix(args) -> int:
    system, digest = _load(args.path)
    if args.pivot is not None and args.pivot > system.n:
        print("error: --pivot %d is above n = %d, the size of the system"
              % (args.pivot, system.n), file=sys.stderr)
        return EXIT_USAGE
    prober = _prober(args)
    vec = None if args.vector is None else parse_vector(args.vector, system)
    try:
        report = fix_dae(system, prober=prober, method=args.method,
                         vector=vec,
                         pivot=None if args.pivot is None else args.pivot - 1,
                         max_steps=args.max_steps,
                         formal=args.mode == "formal")
    except VectorRejected as ex:
        print("vector rejected: %s" % ex, file=sys.stderr)
        if ex.jacobian is not None:
            nonzero = {k: e for k, e in enumerate(vec) if e is not ZERO}
            for k, r in enumerate(residual(ex.jacobian, nonzero,
                                           left=args.method == "lc"), 1):
                r = ZERO if r is None else simplify(r)
                if r != ZERO:
                    print("  residual[%d] = %s"
                          % (k, format_expr(r, system.var_names)),
                          file=sys.stderr)
        return EXIT_USAGE
    _write_json(args, _report_fix(args, system, digest, report))
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(emit_dae(report.system))
    if report.status is FixStatus.ILL_POSED:
        return EXIT_ILL_POSED
    # a forced step that was applied is done, even if J stays singular
    if report.status is FixStatus.SUCCESS or (vec is not None
                                              and report.steps):
        return EXIT_UNVERIFIED if report.uncertain else EXIT_OK
    return EXIT_SINGULAR


# ---------------------------------------------------------------------------
# command line

def _at_least(least):
    """argparse type: an int no smaller than least."""
    def parse(text):
        value = int(text)
        if value < least:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError("must be at least %d" % least)
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


# command -> (help, set_defaults); trace is fix with one forced step
_COMMANDS = {
    "analyze": ("signature matrix, offsets, scheme, Jacobian",
                {"func": cmd_analyze}),
    "fix": ("repair an identically singular Jacobian",
            {"func": cmd_fix, "vector": None, "pivot": None}),
    "trace": ("apply exactly one forced conversion step",
              {"func": cmd_fix, "max_steps": 1}),
}

# Every option once, in help order: (flag, commands that take it,
# add_argument keywords).  _build_parser and _plain_args both read it.
_ALL = tuple(_COMMANDS)
_OPTIONS = (
    ("path", _ALL, {"help": "input system in .dae format"}),
    ("--mode", _ALL, {"choices": ("true", "formal"), "default": "true",
                      "help": "signature source: simplified (true) or "
                              "as-written (formal) equations"}),
    ("--probe-budget", _ALL, {"type": _at_least(1), "default": DEFAULT_BUDGET,
                              "metavar": "N",
                              "help": "probe points per zero test"}),
    ("--seed", _ALL, {"default": DEFAULT_SEED,
                      "help": "seed for the zero-test probes"}),
    ("--json", _ALL, {"metavar": "OUT", "dest": "json_path",
                      "help": "write a machine-readable report"}),
    ("--method", ("fix",), {"choices": ("lc", "es"),
                            "help": "restrict every step to one rewrite"}),
    ("--method", ("trace",), {"choices": ("lc", "es"), "required": True}),
    ("--max-steps", ("fix",), {"type": _at_least(0), "metavar": "N",
                               "help": "step budget (default: initial "
                                       "value + 1)"}),
    ("--vector", ("trace",), {"required": True,
                              "help": "null vector, e.g. "
                                      "\"[x2, x1, 1, -1]\""}),
    ("--pivot", ("trace",), {"type": _at_least(1), "metavar": "L",
                             "help": "1-based pivot equation (lc) or "
                                     "variable (es)"}),
    ("--emit", ("fix", "trace"), {"metavar": "OUT", "help": "write the "
                                  "converted system in .dae format"}),
)


def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="daefix",
        description="Structural analysis of DAE systems with automatic "
                    "repair of identically singular System Jacobians.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, commands, kwargs in _OPTIONS:
            if command in commands:
                p.add_argument(flag, **kwargs)
        p.set_defaults(**defaults)
    return parser


def _plain_args(argv):
    """The Namespace argparse makes of argv, read from _OPTIONS without
    building a parser, or None unless argv is a command, one path and
    exact flags, each with a value that does not start with '-'.

    Everything else (help, abbreviations, --opt=value, values that fail
    their type or choices, missing or extra arguments) is left to
    argparse, which owns the messages and exit codes."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    defaults = _COMMANDS[command][1]
    options = {flag: kwargs for flag, commands, kwargs in _OPTIONS
               if command in commands}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if "path" in given:
                return None
            given["path"] = token
            continue
        kwargs = options.get(token)
        text = next(tokens, "-")
        if kwargs is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse runs it again and reports the failure
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[token] = value
    values = {"command": command}
    for flag, kwargs in options.items():
        if flag in given:
            value = given[flag]
        elif flag == "path" or kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        values[kwargs.get("dest", flag.lstrip("-").replace("-", "_"))] = value
    values.update(defaults)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as ex:
            return EXIT_USAGE if ex.code else EXIT_OK
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ParseError, ModelError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_USAGE
    except (ConditionRejected, PivotRejected) as ex:
        print("step rejected: %s" % ex, file=sys.stderr)
        return EXIT_SINGULAR
    except ConvertError as ex:
        print("conversion failed: %s" % ex, file=sys.stderr)
        return EXIT_SINGULAR
    except RecursionError:
        # the parser refuses input nested past its limit; this is the last
        # resort for a deeper tree a conversion built
        print("error: expression is nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
