"""Plain-text tables for signature matrices, Jacobians, and fix traces.

The signature table marks one highest-value transversal with a bullet and
brackets the entries where the offsets exceed the signature (those
positions contribute a structural zero to the System Jacobian), with the
offsets in the right and bottom margins.
"""

from .expr import NEG_INF, ZERO, format_expr


def _grid(headers, rows) -> str:
    widths = [max(map(len, col)) for col in zip(headers, *rows)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.rjust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_sigma(system, sig, off=None) -> str:
    hvt = dict(sig.hvt or ())     # row -> its transversal column
    headers = [""] + list(system.var_names) + (["c_i"] if off else [])
    rows = []
    for i, (eq, sig_row) in enumerate(zip(system.equations, sig.rows)):
        cells = [eq.name]
        for j, s in enumerate(sig_row):
            if s == NEG_INF:
                cell = "-"
            else:
                cell = str(s)
                if off is not None and off.d[j] - off.c[i] > s:
                    cell = "[%s]" % cell
            cells.append(cell)
        if i in hvt:
            cells[hvt[i] + 1] += "•"
        if off is not None:
            cells.append(str(off.c[i]))
        rows.append(cells)
    if off is not None:
        rows.append(["d_j"] + [str(d) for d in off.d] + [""])
    return _grid(headers, rows)


def render_jacobian(system, matrix) -> str:
    headers = [""] + list(system.var_names)
    rows = []
    for i, eq in enumerate(system.equations):
        cells = [eq.name]
        for entry in matrix[i]:
            cells.append("0" if entry is ZERO
                         else format_expr(entry, system.var_names))
        rows.append(cells)
    return _grid(headers, rows)


def _deriv_name(name: str, order: int) -> str:
    if order == 0:
        return name
    if order <= 3:
        return name + "'" * order
    return "%s^(%d)" % (name, order)


def render_scheme(system, scheme) -> str:
    lines = []
    for st in list(scheme.stages) + [scheme.generic]:
        eqs = ", ".join(_deriv_name(system.equations[i].name, o)
                        for i, o in st.equations)
        unk = ", ".join(_deriv_name(system.var_names[j], o)
                        for j, o in st.unknowns)
        k = "k=%d" % st.k if st.k < 0 else "k>=0"
        note = "linear" if st.linear else "generic"
        lines.append("  %-5s solve %s for %s  (%s)" % (k, eqs, unk, note))
    return "\n".join(lines)


def render_equations(system) -> str:
    lines = []
    for eq in system.equations:
        tag = eq.origin
        if eq.alias:
            tag += ", stands for %s" % eq.alias
        suffix = "" if tag == "original" else "   (%s)" % tag
        lines.append("  %s: %s = 0%s"
                     % (eq.name, format_expr(eq.expr, system.var_names), suffix))
    return "\n".join(lines)


def render_vector(vector, var_names) -> str:
    return "[%s]" % ", ".join(format_expr(e, var_names) for e in vector)


def render_step(step, before) -> str:
    """One conversion step: what was rewritten, with the resulting table."""
    app = step.application
    lines = ["step %d: %s, pivot %s, %s equivalence"
             % (step.index, step.kind.value,
                before.equations[step.pivot].name
                if step.kind.value == "lc" else before.var_names[step.pivot],
                step.grade)]
    lines.append("  vector %s" % render_vector(step.vector, before.var_names))
    lines.append("  value %s -> %s" % (step.value_before, step.value_after))
    after = step.system
    if step.kind.value == "lc":
        eq = after.equations[step.pivot]
        lines.append("  %s = %s   (replaced)"
                     % (eq.name, format_expr(eq.expr, after.var_names)))
    else:
        for rec in app.renamed:
            lines.append("  %s (%s) stands for %s"
                         % (rec.var_name, rec.alias,
                            format_expr(rec.definition, before.var_names)))
        for i in app.rewritten:
            eq = after.equations[i]
            lines.append("  %s = %s   (rewritten)"
                         % (eq.name, format_expr(eq.expr, after.var_names)))
    if step.after.offsets is not None:
        lines.append(_indent(render_sigma(after, step.after.signature,
                                          step.after.offsets)))
    else:
        lines.append("  signature lost its transversal: structurally ill posed")
    return "\n".join(lines)


def _indent(text: str) -> str:
    return "\n".join("  " + ln for ln in text.splitlines())
