"""Regenerate the frozen figure reference: python3 benchmarks/reference.py

Each of the five figure calls is run at truncation N = 60, 120, 240, ...
until doubling N moves no value beyond the figure tolerance; the tables at
that N are written to figures_reference.json.  The check is repeated on every
regeneration, so a reference that is not converged is never written.
"""

from __future__ import annotations

import json
import re
import sys

from checkout import import_library, source_digest

N_START = 60
N_MAX = 960


def _converged_tables(workloads, argv):
    n_trunc = N_START
    tables = workloads.parse_tables(workloads.CliOutput(argv + ["--n-trunc", str(n_trunc)]).text)
    while n_trunc < N_MAX:
        doubled = workloads.parse_tables(
            workloads.CliOutput(argv + ["--n-trunc", str(2 * n_trunc)]).text
        )
        worst = max(
            abs(a - b) / (workloads.FIGURE_ATOL + workloads.FIGURE_RTOL * abs(b))
            for t, u in zip(tables, doubled)
            for ra, rb in zip(t["rows"], u["rows"])
            for a, b in zip(ra, rb)
        )
        if worst <= 1.0:
            return n_trunc, tables
        n_trunc, tables = 2 * n_trunc, doubled
    raise SystemExit(f"{argv}: not converged within the tolerance by N = {N_MAX}")


def main() -> int:
    import_library()
    import workloads

    out = {
        "tolerance": {"atol": workloads.FIGURE_ATOL, "rtol": workloads.FIGURE_RTOL},
        "source_sha256": source_digest(),
        "tables": {},
    }
    for name, argv in workloads.FIGURE_CALLS:
        n_trunc, tables = _converged_tables(workloads, argv)
        print(f"{name}: converged at N = {n_trunc}", file=sys.stderr)
        out["tables"][name] = [
            {"n_trunc": n_trunc, "columns": t["columns"], "rows": t["rows"]} for t in tables
        ]
    text = json.dumps(out, indent=1)
    # one table row per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    workloads.REFERENCE_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
