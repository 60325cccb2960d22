"""Steadiness evidence: two independent sets of benchmark runs, with quartiles.

Usage (from the repository root):

    python3 perfbench/steadiness.py

Runs ``perfbench/run.py`` with ``--trace 0`` once per seed and workload, in
each set, exactly as BENCHMARK.json declares it, and writes
``perfbench/STEADINESS.json``.  For every workload and end-to-end metric it
records each set's values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (Q3 - Q1 over the
median).  Every later set's median must lie within the metric's bound of
the first set's, in either direction.  Every spread must be at most a third
of the metric's bound, except that of ``setup_s``: start-up time follows the
machine's load from one run to the next, so only its median is held to
the bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "STEADINESS.json"
SETS = 2
SEEDS = 10  # set k uses seeds 100k .. 100k + SEEDS - 1


def one_run(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in line["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def judge(sets, bounds):
    """Spreads above a third of the bound (setup_s exempt), and medians off set 0's by more than the bound."""
    problems = []
    for workload in sets[0]:
        for name, bound in bounds.items():
            first = sets[0][workload][name]["median"]
            for k, later in enumerate(sets):
                summary = later[workload][name]
                if name != "setup_s" and summary["spread"] > bound / 3:
                    problems.append(f"set {k} {workload} {name}: spread above bound/3")
                if abs(summary["median"] / first - 1) > bound:
                    problems.append(f"set {k} {workload} {name}: median off set 0's by more than bound")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for k in range(SETS):
        summary = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = [one_run(spec, workload, 100 * k + seed) for seed in range(SEEDS)]
            summary[workload] = {
                name: summarize([r[name] for r in runs]) for name in bounds
            }
            for name, s in summary[workload].items():
                print(f"set {k} {workload:16s} {name:12s} median {s['median']:.4f} "
                      f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
        sets.append(summary)

    problems = judge(sets, bounds)
    document = {
        "run_seconds": spec["run_seconds"],
        "seeds_per_set": SEEDS,
        "seeds": "set k uses seeds 100k .. 100k + seeds_per_set - 1",
        "bounds": bounds,
        "sets": sets,
        "problems": problems,
    }
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    print("\n".join(problems) or "steady: every spread within bound/3, medians within bound")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
