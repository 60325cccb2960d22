"""Record the reference outputs the benchmark's output check compares against.

Usage (from the repository root):

    python3 perfbench/record_references.py

For every workload and every shipped suite seed, runs the
suite once in a child process and stores its exit code, invariant flags and
payload in ``perfbench/references/<workload>.json``, together with the
source digest and commit they were recorded at.  Re-record only in a change
that alters the benchmark, never in one that claims a gain.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def record(workload, env_record):
    seeds = {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.WORK))
    try:
        env = run.child_env(work)
        for seed in range(run.SHIPPED_SEEDS):
            config = work / f"seed{seed}.ini"
            run.write_config(config, workload, seed)
            result = run.run_child(work, f"seed{seed}", env, config)
            if result.get("error") or "report" not in result:
                raise RuntimeError(f"{workload} seed {seed}: {result.get('error', 'no report')}")
            report = result["report"]
            seeds[str(seed)] = {
                "exit_code": result["exit_code"],
                "checks": report["checks"],
                "payload": report["payload"],
            }
            print(f"{workload} seed {seed}: exit {result['exit_code']} "
                  f"suite_s {result['suite_s']:.2f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    document = {
        "workload": workload,
        "spec": run.WORKLOADS[workload],
        "recorded_at": {k: env_record[k] for k in ("commit", "source_sha256")},
        "seeds": seeds,
    }
    run.REFERENCES.mkdir(exist_ok=True)
    path = run.REFERENCES / f"{workload}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main():
    env_record = run.environment()
    for workload in sorted(run.WORKLOADS):
        record(workload, env_record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
