"""One benchmark child process: import fraccond, optionally trace it, run one suite.

Usage:
    python3 perfbench/child.py RESULT.json                         # import only
    python3 perfbench/child.py RESULT.json CONFIG.ini OUT_DIR [--trace]

The parent measures set-up time from just before it starts this process to
the ``ready`` timestamp written here; both read the system-wide monotonic
clock.  The suite is run through ``fraccond.cli.main(["run", ...])`` and
timed around that call only.  Results go to RESULT.json as one object.
"""

import json
import sys
import time


def main(argv):
    result_path = argv[0]
    from fraccond import cli  # noqa: F401  (the set-up being measured)

    result = {"ready": time.monotonic()}
    if len(argv) > 1:
        result.update(run_suite(argv[1], argv[2], trace="--trace" in argv[3:]))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_suite(config_path, out_dir, trace):
    import resource
    import traceback

    from fraccond import cli

    tracer = absent = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        absent = install(tracer)

    result = {"exit_code": None, "error": None}
    start = time.perf_counter()
    try:
        result["exit_code"] = cli.main(["run", "--config", config_path, "--out", out_dir])
    except Exception:  # a crash is a failed run, recorded and reported by the parent
        result["error"] = traceback.format_exc()
    result["suite_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        result["layers"] = tracer.stats
        result["absent"] = absent
        result["unknowns"] = interior_unknowns(cli, config_path)
    return result


def interior_unknowns(cli, config_path):
    """Interior degrees of freedom of the configured geometry.

    Any error here fails the traced run: a missing measurement must not read
    as a zero.
    """
    geometry = cli.build_geometry(cli.parse_config(config_path))
    return int(geometry.omega_mask().sum())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
