"""Output checks on idq curve files.

Checks report problems as short strings; none means the output passed.  A
failed check is counted against the command, it never aborts the run.
"""

import io
import math

# a reference file keeps every k-th row so that it stores at most this many values
REF_MAX_VALUES = 4000


def is_rate_column(col: str) -> bool:
    return col == "rate" or col.startswith("r_") or col == "pr_maybe"


def round_trip(text, parse, write):
    """The file must parse, and writing the parsed content back must give the
    same bytes."""
    meta, cols, rows = parse(text)
    problems = []
    if not cols or not rows:
        return (meta, cols, rows), ["no rows"]
    if any(len(r) != len(cols) for r in rows):
        problems.append("row width differs from the column header")
    buf = io.StringIO()
    write(buf, meta, cols, rows, "csv")
    if buf.getvalue() != text:
        problems.append("rows do not round-trip through parse_curve_file")
    return (meta, cols, rows), problems


def rates_nondecreasing(cols, rows):
    d = cols.index("d_id")
    ordered = sorted(rows, key=lambda r: r[d])
    problems = []
    for j, col in enumerate(cols):
        if is_rate_column(col):
            vals = [r[j] for r in ordered]
            if any(math.isnan(v) for v in vals) or any(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"{col} decreases in d_id")
    return problems


def shortfall(tables, label, col, opt_label, opt_col):
    """How far `label`.`col` falls below `opt_label`.`opt_col`, row by row,
    at worst (negative if it is above everywhere); inf if the row counts differ."""
    (cols, rows), (ocols, orows) = tables[label], tables[opt_label]
    if len(rows) != len(orows):
        return math.inf
    a, b = cols.index(col), ocols.index(opt_col)
    return max((o[b] - r[a] for r, o in zip(rows, orows) if not math.isinf(o[b])),
               default=-math.inf)


def above_optimum(tables, pairs, tol):
    """Each (label, column, optimum label, optimum column) pair: the scheme's
    rate sits at or above the optimum within `tol` bits.  Returns (label,
    problem) pairs."""
    problems = []
    for pair in pairs:
        short = shortfall(tables, *pair)
        if not short <= tol:
            label, col, opt_label, opt_col = pair
            problems.append((label, f"{col} falls {short:.3g} below {opt_label}.{opt_col}"))
    return problems


def subsample(rows):
    stride = max(1, math.ceil(len(rows) * len(rows[0]) / REF_MAX_VALUES)) if rows else 1
    return stride, rows[::stride]


def maxdev(cols, rows, ref, d_scale=1.0):
    """Largest absolute difference from the reference rows, whose similarity
    columns are multiplied by `d_scale`; inf if the shapes differ."""
    stride, kept = subsample(rows)
    if cols != ref["columns"] or stride != ref["stride"] or len(kept) != len(ref["rows"]):
        return math.inf
    scale = [d_scale if c.startswith("d_id") else 1.0 for c in cols]
    worst = 0.0
    for row, ref_row in zip(kept, ref["rows"]):
        for v, r, s in zip(row, ref_row, scale):
            r = float(r) * s
            dev = 0.0 if v == r else abs(v - r)
            worst = max(worst, dev if not math.isnan(dev) else math.inf)
    return worst


def reference_entry(cols, rows):
    stride, kept = subsample(rows)
    return {"columns": cols, "stride": stride,
            "rows": [[v if math.isfinite(v) else str(v) for v in r] for r in kept]}
