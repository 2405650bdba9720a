"""Record the reference rows that curve_maxdev is measured against.

    python3 perfbench/make_reference.py [--tiny] [workload ...]

Runs every input variant of each workload once and writes
perfbench/reference/<workload>[-tiny].json.  Run it on the commit whose
curves later commits must reproduce, and commit the result.  It also prints
how far each achievable-scheme column falls below the optimum, which sets
the workloads' optimum tolerances.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import idq.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def record(name, tiny):
    out, shortfall = {}, -math.inf
    variants = range(len(workloads.VARIANTS[name]))
    if name == "closed-form":  # one variant at variance 1 serves every seed
        variants = [workloads.CLOSED_FORM_VARIANCES.index(1.0)]
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for v in variants:
            wl = workloads.build_variant(name, v, tiny)
            tables = {}
            for cmd in wl.commands:
                path = Path(tmp) / f"{cmd.label}.csv"
                rc = idq.cli.run(list(cmd.argv) + ["--out", str(path)])
                if rc != 0:
                    raise SystemExit(f"{name} variant {v}: {cmd.label} exited {rc}")
                _, cols, rows = idq.cli.parse_curve_file(path.read_text())
                tables[cmd.label] = (cols, rows)
            out[wl.ref_key] = {k: checks.reference_entry(*t) for k, t in tables.items()}
            for pair in wl.optimum:
                shortfall = max(shortfall, checks.shortfall(tables, *pair))
            print(f"{name} variant {v} done", file=sys.stderr)
    path = HERE / "reference" / f"{name}{'-tiny' if tiny else ''}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out) + "\n")
    print(f"{path.name}: largest shortfall below the optimum {shortfall:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("names", nargs="*", default=list(workloads.VARIANTS))
    args = ap.parse_args()
    for name in args.names:
        record(name, args.tiny)


if __name__ == "__main__":
    main()
