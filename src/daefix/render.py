"""Plain-text tables for signature matrices, Jacobians, and fix traces.

The signature table marks one highest-value transversal with a bullet and
brackets the entries where the offsets exceed the signature (those
positions contribute a structural zero to the System Jacobian), with the
offsets in the right and bottom margins.
"""

from .convert import MethodKind
from .expr import format_expr


def _grid(headers, rows, fill) -> str:
    """Right-aligned columns two spaces apart, trailing blanks cut.  Each
    row is a dict {column: cell}; every other cell of the row is fill,
    which is padded once per column, so a row costs its own cells and one
    join.  Every column holds a cell or a header at least as wide as
    fill."""
    widths = [max(len(h), len(fill)) for h in headers]
    for row in rows:
        for k, cell in row.items():
            if len(cell) > widths[k]:
                widths[k] = len(cell)
    filled = [fill.rjust(w) for w in widths]
    lines = ["  ".join([h.rjust(w) for h, w in zip(headers, widths)])]
    for row in rows:
        line = filled[:]
        for k, cell in row.items():
            line[k] = cell.rjust(widths[k])
        lines.append("  ".join(line))
    return "\n".join([line.rstrip() for line in lines])


def render_sigma(system, sig, off=None) -> str:
    """Only each row's finite entries are read; the others print "-"."""
    hvt = dict(sig.hvt or ())     # row -> its transversal column
    headers = [""] + list(system.var_names) + (["c_i"] if off else [])
    rows = []
    for i, (eq, sig_row) in enumerate(zip(system.equations, sig.rows)):
        cells = {0: eq.name}
        for j, s in sig_row.items():
            cells[j + 1] = ("[%s]" % s if off is not None
                            and off.d[j] - off.c[i] > s else str(s))
        if i in hvt:
            cells[hvt[i] + 1] += "•"
        if off is not None:
            cells[sig.n + 1] = str(off.c[i])
        rows.append(cells)
    if off is not None:
        rows.append(dict(enumerate(["d_j"] + [str(d) for d in off.d] + [""])))
    return _grid(headers, rows, "-")


def jacobian_entries(system, matrix) -> list:
    """Row by row, {column: text} of J's entries, the sparse rows of
    system_jacobian: the text that both the table and the JSON report
    print."""
    return [{j: format_expr(e, system.var_names) for j, e in row.items()}
            for row in matrix]


def render_jacobian(system, entries) -> str:
    """The table of jacobian_entries, "0" off them."""
    headers = [""] + list(system.var_names)
    rows = []
    for eq, row in zip(system.equations, entries):
        cells = {j + 1: text for j, text in row.items()}
        cells[0] = eq.name
        rows.append(cells)
    return _grid(headers, rows, "0")


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


def vector_entries(vector, var_names) -> list:
    """The n texts of a null vector {index: entry}, "0" off its entries:
    the list that both the step and the JSON report print."""
    return [format_expr(vector[k], var_names) if k in vector else "0"
            for k in range(len(var_names))]


def render_step(step, before) -> str:
    """One conversion step: what was rewritten, with the resulting table."""
    app = step.application
    lines = ["step %d: %s, pivot %s, %s equivalence"
             % (step.index, step.kind.value,
                step.kind.pivot_name(before, step.pivot), step.grade)]
    lines.append("  vector [%s]"
                 % ", ".join(vector_entries(step.vector, before.var_names)))
    lines.append("  value %s -> %s" % (step.value_before, step.value_after))
    after = step.system
    if step.kind is MethodKind.LC:
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
