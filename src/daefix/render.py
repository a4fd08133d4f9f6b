"""Plain-text tables for signature matrices, Jacobians, and fix traces.

A report part that the JSON report also holds (a step, the scheme, a
system's equations) comes from one function that returns its text and its
JSON piece, each expression in it formatted once for both.

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


def render_scheme(system, scheme):
    """The scheme's lines and its JSON stages, the generic stage last,
    from one walk."""
    lines, stages = [], []
    for st in list(scheme.stages) + [scheme.generic]:
        solve = [[system.equations[i].name, o] for i, o in st.equations]
        unknowns = [[system.var_names[j], o] for j, o in st.unknowns]
        k = "k=%d" % st.k if st.k < 0 else "k>=0"
        lines.append("  %-5s solve %s for %s  (%s)" % (
            k, ", ".join(_deriv_name(nm, o) for nm, o in solve),
            ", ".join(_deriv_name(nm, o) for nm, o in unknowns),
            "linear" if st.linear else "generic"))
        stages.append({"k": st.k, "generic": st is scheme.generic,
                       "solve": solve, "unknowns": unknowns,
                       "linear": st.linear})
    return "\n".join(lines), stages


def render_equations(system):
    """The lines of the system's equations and their JSON entries, each
    equation formatted once for both."""
    lines, entries = [], []
    for eq in system.equations:
        text = format_expr(eq.expr, system.var_names)
        tag = eq.origin
        if eq.alias:
            tag += ", stands for %s" % eq.alias
        suffix = "" if tag == "original" else "   (%s)" % tag
        lines.append("  %s: %s = 0%s" % (eq.name, text, suffix))
        entries.append({"name": eq.name, "expression": text,
                        "origin": eq.origin, "alias": eq.alias})
    return "\n".join(lines), entries


def render_step(step, before):
    """One conversion step, what was rewritten with the resulting table,
    and its JSON entry: the pivot name, the vector and each definition
    are formatted once for both."""
    after = step.system
    pivot_name = step.kind.pivot_name(before, step.pivot)
    # the n texts of the vector, "0" off its entries
    vector = [format_expr(step.vector[k], before.var_names)
              if k in step.vector else "0" for k in range(before.n)]
    ill_posed = step.after.offsets is None
    entry = {"index": step.index, "method": step.kind.value,
             "pivot": step.pivot + 1, "pivot_name": pivot_name,
             "grade": step.grade, "vector": vector,
             "value_before": step.value_before,
             # -inf marks a lost transversal; JSON carries null there
             "value_after": None if ill_posed else step.value_after}
    lines = ["step %d: %s, pivot %s, %s equivalence"
             % (step.index, step.kind.value, pivot_name, step.grade),
             "  vector [%s]" % ", ".join(vector),
             "  value %s -> %s" % (step.value_before, step.value_after)]
    if step.kind is MethodKind.LC:
        eq = after.equations[step.pivot]
        lines.append("  %s = %s   (replaced)"
                     % (eq.name, format_expr(eq.expr, after.var_names)))
        entry["replaced"] = eq.name
    else:
        added = entry["added"] = []
        for rec in step.application.renamed:
            definition = format_expr(rec.definition, before.var_names)
            lines.append("  %s (%s) stands for %s"
                         % (rec.var_name, rec.alias, definition))
            added.append({"variable": rec.var_name, "equation": rec.eq_name,
                          "alias": rec.alias, "definition": definition})
        rewritten = entry["rewritten"] = []
        for i in step.application.rewritten:
            eq = after.equations[i]
            lines.append("  %s = %s   (rewritten)"
                         % (eq.name, format_expr(eq.expr, after.var_names)))
            rewritten.append(eq.name)
    if ill_posed:
        lines.append("  signature lost its transversal: structurally ill posed")
    else:
        lines.append(_indent(render_sigma(after, step.after.signature,
                                          step.after.offsets)))
    return "\n".join(lines), entry


def _indent(text: str) -> str:
    return "\n".join("  " + ln for ln in text.splitlines())
