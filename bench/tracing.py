"""Per-layer tracing for the traced benchmark run.

Inside one child, every public function listed in LAYERS is wrapped in
the namespace of each daefix module that holds it, so spans sit where one
layer calls another.  The expr module's own namespace is left alone:
simplify and partial recurse through it, and those calls are the layer's
inside, not a boundary.  Each span records its function, start, end and
parent; a child runs one operation, so the operation id is the child.
Spans and counts stay in memory and are reduced once, after main()
returns.
"""

import statistics
import time

# module -> public functions wrapped at its boundary
LAYERS = {
    "dsl": ("parse_dae",),
    "expr": ("simplify", "total_derivative", "partial", "evaluate_ex"),
    "structural": ("signature_matrix", "canonical_offsets",
                   "solution_scheme"),
    "jacobian": ("system_jacobian", "classify_jacobian"),
    "zerotest": ("Prober.verdict",),
    "nullspace": ("kernel_vector", "cokernel_vector", "normalize_candidates",
                  "verify_nullvector"),
    "convert": ("fix_dae", "lc_analyze", "es_analyze", "lc_apply",
                "es_apply", "lc_equivalence_probes", "es_equivalence_probes"),
    "render": ("render_sigma", "render_step", "render_scheme",
               "render_jacobian", "render_equations"),
    "cli": ("main",),
}

MODULES = ("cli", "convert", "dsl", "expr", "jacobian", "model",
           "nullspace", "render", "structural", "zerotest")


def span_name(module, func):
    return "%s.%s" % (module, func.split(".")[-1])


SPANS = tuple(span_name(m, f) for m, fs in LAYERS.items() for f in fs)

# counters taken at the boundaries, beyond calls
COUNTERS = ("expr.evaluate_ex.domain_errors",
            "jacobian.classify_jacobian.probably_singular",
            "zerotest.verdict.probably_zero",
            "nullspace.kernel_vector.stuck",
            "nullspace.normalize_candidates.returned",
            "convert.fix_dae.steps")
# counted only to form convert.probe_points_compared_ratio
PROBE_COUNTERS = ("convert.probe_points_requested",
                  "convert.probe_points_compared")


def _metric_list():
    out = []
    for name in SPANS:
        if name != "cli.main":
            out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    out += [(name, "count") for name in COUNTERS]
    out += [("structural.signature_matrix.calls_per_step", "ratio"),
            ("convert.analyses_per_step", "ratio"),
            ("convert.probe_points_compared_ratio", "ratio"),
            ("trace.overhead_ratio", "ratio")]
    return tuple(out)


# (name, unit) of every per-layer metric the traced run reports
METRICS = _metric_list()


class Tracer:
    """Collects spans and counters in one child; install() then summary()."""

    def __init__(self):
        self.spans = []       # [span id, start, end, parent index]
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS + PROBE_COUNTERS, 0)

    def install(self):
        import importlib
        mods = {m: importlib.import_module("daefix." + m) for m in MODULES}
        from daefix.convert import PROBE_POINTS
        from daefix.nullspace import EliminationStuck
        from daefix.expr import DomainError
        from daefix.jacobian import JacobianClass
        from daefix.zerotest import Prober
        counts = self.counts

        def on_probes(result, args, kwargs):
            points = kwargs.get("points", args[3] if len(args) > 3
                                else PROBE_POINTS)
            counts["convert.probe_points_requested"] += points
            counts["convert.probe_points_compared"] += result

        def bump(key, amount):
            counts[key] += amount

        after = {
            "jacobian.classify_jacobian": lambda r, a, k: bump(
                "jacobian.classify_jacobian.probably_singular",
                r.klass is JacobianClass.PROBABLY_SINGULAR),
            "zerotest.verdict": lambda r, a, k: bump(
                "zerotest.verdict.probably_zero", r.probably_zero),
            "nullspace.normalize_candidates": lambda r, a, k: bump(
                "nullspace.normalize_candidates.returned", len(r)),
            "convert.fix_dae": lambda r, a, k: bump(
                "convert.fix_dae.steps", len(r.steps)),
            "convert.lc_equivalence_probes": on_probes,
            "convert.es_equivalence_probes": on_probes,
        }
        # exceptions counted as they pass a boundary, and their counter
        raised = {"expr.evaluate_ex": (DomainError,
                                       "expr.evaluate_ex.domain_errors"),
                  "nullspace.kernel_vector": (EliminationStuck,
                                              "nullspace.kernel_vector.stuck")}

        for module, funcs in LAYERS.items():
            for func in funcs:
                name = span_name(module, func)
                sid = SPANS.index(name)
                if func == "Prober.verdict":
                    Prober.verdict = self._wrap(sid, Prober.verdict,
                                                after.get(name),
                                                raised.get(name))
                    continue
                original = getattr(mods[module], func)
                wrapped = self._wrap(sid, original, after.get(name),
                                     raised.get(name))
                for owner, mod in mods.items():
                    if module == "expr" and owner == "expr":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, sid, fn, after, raised):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        error, error_key = raised if raised is not None else ((), None)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [sid, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except error:
                counts[error_key] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """{span name: [calls, self seconds]} plus the raw counters."""
        child_time = [0.0] * len(self.spans)
        for sid, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        for k, (sid, start, end, _) in enumerate(self.spans):
            calls[sid] += 1
            self_s[sid] += end - start - child_time[k]
        out = {name: [calls[i], self_s[i]] for i, name in enumerate(SPANS)}
        out.update(self.counts)
        return out


def _flat(summary):
    out = {}
    for name in SPANS:
        out[name + ".calls"], out[name + ".self_s"] = summary[name]
    for name in COUNTERS + PROBE_COUNTERS:
        out[name] = summary[name]
    return out


def reduce_layers(per_op, untraced_pass_s, traced_pass_s):
    """Per-layer metrics for one pass of a workload.

    per_op maps an operation to the summaries of its traced runs, over
    whole cycles of its variants.  Every quantity is the median over those
    runs, summed over operations; the ratios are formed from those sums.
    """
    totals = {name: 0 if unit == "count" else 0.0 for name, unit in METRICS}
    sums = dict.fromkeys(("steps", "sig", "analyses", "asked", "compared"), 0)
    for runs in per_op.values():
        flat = [_flat(r) for r in runs]
        med = {k: statistics.median(f[k] for f in flat) for k in flat[0]}
        for name in totals:
            if name in med:
                totals[name] += med[name]
        if med["convert.fix_dae.steps"]:
            sums["steps"] += med["convert.fix_dae.steps"]
            sums["sig"] += med["structural.signature_matrix.calls"]
            sums["analyses"] += (med["convert.lc_analyze.calls"]
                                 + med["convert.es_analyze.calls"])
        sums["asked"] += med["convert.probe_points_requested"]
        sums["compared"] += med["convert.probe_points_compared"]

    def ratio(a, b):
        return a / b if b else 0.0
    totals["structural.signature_matrix.calls_per_step"] = ratio(
        sums["sig"], sums["steps"])
    totals["convert.analyses_per_step"] = ratio(sums["analyses"],
                                                sums["steps"])
    totals["convert.probe_points_compared_ratio"] = ratio(sums["compared"],
                                                          sums["asked"])
    totals["trace.overhead_ratio"] = ratio(traced_pass_s, untraced_pass_s)
    return totals
