"""One workload run in a fresh process.

Started by run.py with the monotonic time at which it was spawned.  Imports
idq from the checkout's `src`, builds the workload's command lines, then
issues them one after another through `idq.cli.run` (a closed loop with one
caller), checks every output, and prints one JSON line with its timings,
checks and, when traced, its per-layer metrics.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import idq.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

OUT = ROOT / ".perfbench_out"


def load_reference(name, tiny):
    path = Path(__file__).resolve().parent / "reference" / f"{name}{'-tiny' if tiny else ''}.json"
    return json.loads(path.read_text())


def check_outputs(wl, texts, reference):
    """Per-command problems and the largest deviation from the reference rows."""
    problems, tables, dev = {}, {}, 0.0
    ref = reference.get(wl.ref_key, {})
    for cmd in wl.commands:
        text = texts.get(cmd.label)
        if text is None:
            problems[cmd.label] = ["no output"]
            continue
        (meta, cols, rows), probs = checks.round_trip(
            text, idq.cli.parse_curve_file, idq.cli.write_curve_file)
        if not probs:
            probs += checks.rates_nondecreasing(cols, rows)
            tables[cmd.label] = (cols, rows)
            d = checks.maxdev(cols, rows, ref[cmd.label], cmd.d_scale) \
                if cmd.label in ref else float("inf")
            dev = max(dev, d)
            if not d <= wl.maxdev_bound:
                probs.append(f"curve_maxdev {d:.3g} above {wl.maxdev_bound:g}")
        if "false_negatives" in meta and meta["false_negatives"] != "0":
            probs.append(f"false_negatives={meta['false_negatives']}")
        problems[cmd.label] = probs
    if {x for label, _, opt, _ in wl.optimum for x in (label, opt)} <= tables.keys():
        for label, problem in checks.above_optimum(tables, wl.optimum, wl.optimum_tol):
            problems[label].append(problem)
    return problems, dev


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tag", default="0")
    ap.add_argument("--run-id", default=None)
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.tiny)
    work = OUT / f"work-{args.workload}-{args.tag}"
    work.mkdir(parents=True, exist_ok=True)
    runs = [(c.label, list(c.argv) + ["--out", str(work / f"{c.label}.csv")])
            for c in wl.commands]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        work.rmdir()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(args.run_id)
    if args.trace:
        tracer.install()
    rcs = {}
    t0 = time.perf_counter()
    for label, cmd in runs:
        try:
            rcs[label] = idq.cli.run(cmd)
        except Exception as exc:  # a crash counts as a failed command
            print(f"{label}: {exc!r}", file=sys.stderr)
            rcs[label] = -1
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    texts = {}
    for label, _ in runs:
        path = work / f"{label}.csv"
        if rcs[label] == 0 and path.is_file():
            texts[label] = path.read_text()
    shutil.rmtree(work, ignore_errors=True)
    problems, dev = check_outputs(wl, texts, load_reference(args.workload, args.tiny))
    for label, rc in rcs.items():
        if rc != 0:
            problems[label].insert(0, f"exit code {rc}")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "variant": wl.variant,
        "commands": [label for label, _ in runs],
        "problems": problems,
        "curve_maxdev": dev,
        "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()},
    }
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-{args.tag}.jsonl")
        result["layers"] = summarize(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
