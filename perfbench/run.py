"""idq benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload solver --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from anywhere; idq is imported from the `src` directory next to this
one.  Every workload run is a fresh worker process (worker.py), so set-up
time and peak memory belong to that run alone.  With `--trace 0` the runs are
untraced and the end-to-end metrics of BENCHMARK.json are printed; with
`--trace 1` traced runs give the per-layer metrics, and one untraced run
gives the tracing overhead.  `--workload all` runs every workload in both
modes and prints every metric with its unit.  `--tiny` shrinks every
workload (smoke test only).  A machine stamp goes to standard output before
the result line, and the full record to `.perfbench_out/`.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# a workload's run ends within this many seconds even if a worker hangs
HARD_LIMIT_S = 170
# counts that must repeat exactly between traced runs of one seed
REPEAT_COUNTS = ("tcdelta.iterations", "tcdelta.solve_calls", "tcdelta.nonconverged",
                 "simulator.train_calls", "linalg.eigh_calls")


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def worker_env():
    """Thread counts are fixed here, at most the CPUs this process may use:
    IDQ_THREADS for the simulator's workers, one BLAS thread."""
    threads = min(2, len(os.sched_getaffinity(0)))
    return dict(os.environ, IDQ_THREADS=str(threads), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(seed, env):
    import numpy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: env[k] for k in ("IDQ_THREADS", "OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def spawn(argv, env, tag, hard_deadline):
    """Run one worker to completion; its result, or {"error": ...}."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(t0),
           "--tag", tag]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, hard_deadline - t0))
    except subprocess.TimeoutExpired:
        res = {"error": "timeout"}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            res = json.loads(lines[-1])
        else:
            res = {"error": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    res["elapsed"] = time.monotonic() - t0
    res["tag"] = tag
    return res


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, tiny, env):
    """All worker runs of one benchmark run; returns (result line, record)."""
    wl = workloads.build(name, seed, tiny)
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--run-id", uuid.uuid4().hex]
    base += ["--tiny"] if tiny else []
    probes = [spawn(base + ["--setup-only"], env, f"probe{i}", hard) for i in range(SETUP_PROBES)]

    # closed loop: each worker starts after the previous one has ended
    kinds = ["traced", "untraced", "traced"] if trace else ["untraced", "untraced"]
    reps = []
    while True:
        if len(reps) >= len(kinds):
            est = max(r["elapsed"] for r in reps) * (2 if wl.thread_check else 1)
            if time.monotonic() + est > deadline:
                break
            kinds.append(kinds[-2])
        kind = kinds[len(reps)]
        argv = base + (["--trace", "1"] if kind == "traced" else [])
        reps.append(spawn(argv, env, f"{kind}{len(reps)}", hard))
        reps[-1]["kind"] = kind
    if wl.thread_check:
        # outputs must not depend on the simulator's worker count
        reps.append(spawn(base, dict(env, IDQ_THREADS="1"), "threads1", hard))
        reps[-1]["kind"] = "threads1"

    labels = [c.label for c in wl.commands]
    ok = [r for r in reps if "error" not in r]
    first = ok[0] if ok else {"digests": {}}
    traced = [r for r in ok if r["kind"] == "traced"]
    failed = 0
    for r in reps:
        if "error" in r:
            bad = set(labels)
        else:
            bad = {k for k, v in r["problems"].items() if v}
            bad |= {k for k in labels if r["digests"].get(k) != first["digests"].get(k)}
            if traced and r["kind"] == "traced" and any(
                    r["layers"][k] != traced[0]["layers"][k] for k in REPEAT_COUNTS):
                bad = set(labels)
        failed += len(bad)
    attempted = len(labels) * len(reps)

    untraced = [r for r in ok if r["kind"] == "untraced"]
    metrics = {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "setup_s": median([r["setup_s"] for r in probes + ok if "error" not in r]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "failed_frac": failed / attempted,
        "curve_maxdev": min(max((r["curve_maxdev"] for r in ok), default=math.inf),
                            sys.float_info.max),
    }
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = median([r["layers"][key] for r in traced])
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                       - median([r["wall_s"] for r in untraced]))
    e2e, layers = metric_units()
    units = layers if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "trace": trace, "tiny": tiny, "variant": wl.variant,
              "commands": [list(c.argv) for c in wl.commands], "probes": probes,
              "reps": reps, "metrics": metrics, "result": result}
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.VARIANTS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "idq" / "cli.py").is_file():
        print(f"perfbench: no idq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = worker_env()
    OUT.mkdir(exist_ok=True)
    stamp = machine_stamp(args.seed, env)
    print("# machine " + json.dumps(stamp))
    runs = ([(w, t) for w in workloads.VARIANTS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        result, record = run_workload(name, args.seed, args.seconds, trace, args.tiny, env)
        record["machine"] = stamp
        tag = f"{name}-seed{args.seed}-trace{trace}{'-tiny' if args.tiny else ''}"
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        for key, m in result["metrics"].items():
            print(f"# {name:<12} {key:<28} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        for k in ("attempted", "failed"):
            combined[k] += result[k]
        combined["correct"] &= result["correct"]
    print(json.dumps(result if len(runs) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
