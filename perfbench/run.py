"""fraccond benchmark: suite workloads timed end to end, traced layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each suite run is one fresh child process that imports fraccond from
``src/`` and calls ``fraccond.cli.main(["run", ...])`` on an INI config
written here; runs are sequential (a closed loop with one caller).  Every
run's report.json and exit code are checked against the references recorded
in ``perfbench/references``.

With ``--trace 0`` the benchmark first starts SETUP_PROBES import-only
children, then runs the suite repeatedly until S seconds have passed (at
least once), and reports the median suite time, set-up time and peak RSS.
With ``--trace 1`` it runs the suite once untraced and once with the tracer
installed, and reports per-layer calls, total and self time.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import compare
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH_DIR / "references"

WORKLOADS = {
    "residuals-2d": {"n": 2, "grid_points": 256, "suite": "residuals"},
    "reduction-2d": {"n": 2, "grid_points": 256, "suite": "reduction"},
    "instability-1d": {"n": 1, "grid_points": 16384, "suite": "instability"},
    "exterior-2d-512": {"n": 2, "grid_points": 512, "suite": "exterior"},
}
SHIPPED_SEEDS = 10  # suite seed = benchmark seed % SHIPPED_SEEDS; one reference each
SETUP_PROBES = 3
END_TO_END = {"suite_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_BUDGET_S = 160.0  # no child is started that could end after this
CHILD_TIMEOUT_S = 170.0
# BLAS threads in every child.  One thread keeps runs steady:
# on a 2-core x86_64 machine, exterior-2d-512 suite_s had a quartile spread
# of 5.2% of its median over 10 seeds with 2 threads (median 11.4 s), and
# 2.3% over 5 seeds with 1 thread (median 12.8 s).
BLAS_THREADS = 1


def suite_seed(seed):
    return seed % SHIPPED_SEEDS


def write_config(path, workload, seed):
    spec = WORKLOADS[workload]
    path.write_text(
        "[geometry]\n"
        f"n = {spec['n']}\n"
        f"grid_points = {spec['grid_points']}\n"
        "[suite]\n"
        f"name = {spec['suite']}\n"
        f"seed = {suite_seed(seed)}\n"
    )


def child_env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["FRACCOND_CACHE"] = str(work)
    return env


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_child(work, tag, env, config=None, trace=False, timeout=CHILD_TIMEOUT_S):
    """Start one child, wait for it, return its result dict plus setup_s."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path)]
    out_dir = None
    if config is not None:
        out_dir = work / tag
        cmd += [str(config), str(out_dir)]
        if trace:
            cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s", "wall_s": time.monotonic() - started}
    wall = time.monotonic() - started
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}", "wall_s": wall}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - started
    result["wall_s"] = wall
    if out_dir is not None and (out_dir / "report.json").exists():
        result["report"] = json.loads((out_dir / "report.json").read_text())
    return result


def load_references(workload):
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text())["seeds"]


def judge(result, reference):
    """Mismatches of one suite run against its reference (empty: correct).

    A run that raises, exits 2 (config error) or 3 (solver failure), or whose
    exit code or output differs from the reference's, is a failed run; no
    reference exits 2 or 3, since recording needs a report.
    """
    if result.get("error"):
        return [result["error"].strip().splitlines()[-1]]
    return compare(reference, result.get("exit_code"), result.get("report"))


def invariants_failed(result):
    checks = (result.get("report") or {}).get("checks", {})
    return sum(1 for ok in checks.values() if not ok)


def layer_metrics(traced, untraced):
    """Per-layer metrics from one traced and one untraced suite run."""
    metrics = {}
    stats = traced.get("layers", {})
    named_self = 0.0
    for name in LAYERS:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        named_self += self_s
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": total, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    lookups = stats.get("solver.interior_system", (0,))[0]
    factorizations = stats.get("solver.factorize", (0,))[0]
    ratio = 1.0 - factorizations / lookups if lookups else 0.0
    metrics["solver.cache_hit_ratio"] = {"value": ratio, "unit": "ratio"}
    unknowns = traced.get("unknowns") or 0
    metrics["solver.unknowns"] = {"value": unknowns, "unit": "count"}
    metrics["solver.dense_block_mb"] = {"value": unknowns**2 * 8 / 1e6, "unit": "MB"}
    suite_s = traced.get("suite_s", 0.0)
    metrics["trace.suite_s"] = {"value": suite_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": suite_s - untraced.get("suite_s", 0.0), "unit": "s"}
    coverage = named_self / suite_s if suite_s else 0.0
    metrics["trace.self_coverage"] = {"value": coverage, "unit": "ratio"}
    metrics["trace.absent_layers"] = {"value": len(traced.get("absent") or []), "unit": "count"}
    metrics["report.invariants_failed"] = {"value": invariants_failed(traced), "unit": "count"}
    return metrics


def describe(tag, result, problems):
    verdict = "ok" if not problems else "FAIL: " + "; ".join(problems[:5])
    return (
        f"{tag}: suite_s={result.get('suite_s', float('nan')):.3f} "
        f"setup_s={result.get('setup_s', float('nan')):.3f} "
        f"peak_rss_mb={result.get('peak_rss_mb', float('nan')):.1f} "
        f"exit={result.get('exit_code')} invariants_failed={invariants_failed(result)} {verdict}"
    )


def measure(workload, seed, seconds, trace, work):
    """Run the workload; return (record, final result line)."""
    env = child_env(work)
    config = work / "suite.ini"
    write_config(config, workload, seed)
    reference = load_references(workload)[str(suite_seed(seed))]
    start = time.monotonic()

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - start)

    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_child(work, f"probe{i}", env, timeout=max(remaining(), 1.0))
            if probe.get("error"):
                raise RuntimeError(f"fraccond could not be set up: {probe['error']}")
            setups.append(probe["setup_s"])

    runs = []

    def suite_run(tag, traced=False):
        result = run_child(work, tag, env, config, traced, timeout=max(remaining(), 1.0))
        result["tag"] = tag
        result["problems"] = judge(result, reference)
        runs.append(result)
        print(describe(tag, result, result["problems"]), flush=True)

    if trace:
        suite_run("run0")
        suite_run("run1-traced", traced=True)
    else:
        loop_start = time.monotonic()
        suite_run("run0")
        while (time.monotonic() - loop_start < seconds
               and remaining() > max(r["wall_s"] for r in runs)):
            suite_run(f"run{len(runs)}")

    failed = sum(1 for r in runs if r["problems"])
    ok_runs = [r for r in runs if "suite_s" in r]
    if trace:
        metrics = layer_metrics(runs[1], runs[0])
    else:
        setups += [r["setup_s"] for r in ok_runs]
        samples = {
            "suite_s": [r["suite_s"] for r in ok_runs],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok_runs],
        }
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        } if ok_runs else {}
    line = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "suite_seed": suite_seed(seed),
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setups,
        "invariants_failed": [invariants_failed(r) for r in runs],
        "failed_frac": failed / len(runs),
        "runs": [
            {k: r.get(k) for k in ("tag", "suite_s", "setup_s", "peak_rss_mb", "exit_code", "problems", "absent")}
            for r in runs
        ],
        "result": line,
    }
    return record, line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraccond" / "cli.py").is_file():
        print(f"error: no fraccond sources under {SRC}", file=sys.stderr)
        return 2
    env_record = environment()
    print("environment: " + json.dumps(env_record, sort_keys=True), flush=True)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        record, line = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env_record
    with open(WORK / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"summary: invariants_failed={max(record['invariants_failed'], default=0)} "
        f"failed_frac={record['failed_frac']:.3f} blas_threads={env_record['blas_threads']}",
        flush=True,
    )
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
