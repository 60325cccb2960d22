"""Command-line harness: config ingestion, suite orchestration, persistence.

Commands:

    fraccond run      --config FILE --out DIR [--seed N]
    fraccond plots    --report FILE --out DIR
    fraccond validate --config FILE

Configs are INI files with [geometry] and [suite] sections; unknown
sections and keys are rejected.  [geometry] region = <r_in> <r_out> sets
the one measurement region, the annulus r_in < |x| < r_out.  A suite's
[suite] keys are its keyword parameters: each is cast to the type of its
default (a tuple default reads space-separated numbers) and falls back to
that default.  `name` and `seed` are run keys, accepted for every suite;
the seed is recorded in every report and passed only to the suites that
declare it.

A run writes report.json (the deterministic payload, hashed) and
provenance.json (version, seed, wall time and the solver's counts:
systems built and those certified by one product, PCG solves, block
steps in total and in the longest solve, block columns, coarse-space
columns, convolution hits, worst Galerkin residual) plus the plot
sidecars.  Exit codes: 0 ok, 2 config error, 3 solver failure, 4
suite invariant failure.  `plots` redraws a report's sidecars and exits 0,
or 2 when the report is missing, is not JSON or names no registered suite.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import SUITES
from .geometry import default_geometry
from .operators import FracOperator
from .plots import emit_plots
from .solver import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


_GEOMETRY_KEYS = {
    "n": int,
    "s": float,
    "box_halfwidth": float,
    "grid_points": int,
    "omega_radius": float,
    "region": str,
}
_RUN_KEYS = {"name": str, "seed": int}


def suite_keys(name):
    """The named suite's own [suite] keys with their defaults: the keyword
    parameters after (geometry, op)."""
    params = list(inspect.signature(SUITES[name].run).parameters.values())[2:]
    return {p.name: p.default for p in params}


def _caster(default):
    if isinstance(default, tuple):
        return lambda text: tuple(float(v) for v in text.split())
    return type(default)


def parse_config(path):
    """Parse and strictly validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section in parser.sections():
        if section not in ("geometry", "suite"):
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_option("suite", "name"):
        raise ConfigError("config must declare [suite] name")
    name = parser.get("suite", "name")
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    casts = {
        "geometry": _GEOMETRY_KEYS,
        "suite": {**_RUN_KEYS, **{k: _caster(d) for k, d in suite_keys(name).items()}},
    }
    config = {}
    for section in parser.sections():
        config[section] = {}
        for key, value in parser.items(section):
            if key not in casts[section]:
                if section == "suite":
                    raise ConfigError(f"suite {name!r} does not read {key}")
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                config[section][key] = casts[section][key](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
    return config


def build_geometry(config):
    """The [geometry] section's layout; `default_geometry` supplies the keys
    it leaves out.  region reads '<r_in> <r_out>', two numbers."""
    geo = dict(config.get("geometry", {}))
    if "region" in geo:
        try:
            r_in, r_out = map(float, geo["region"].split())
            geo["region"] = (r_in, r_out)
        except ValueError as exc:
            raise ConfigError("geometry.region must be '<r_in> <r_out>'") from exc
    try:
        return default_geometry(**geo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def canonical_payload_bytes(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii")


def execute(config, seed_override=None):
    """Run the configured suite; return the report document and the
    operator's `SolverCounts`.  The document echoes the config with the
    seed the suite ran with: a seed_override replaces the file's."""
    geometry = build_geometry(config)
    suite_cfg = dict(config["suite"])
    name = suite_cfg.pop("name")
    seed = suite_cfg.pop("seed", 0)
    echoed = {k: dict(v) for k, v in config.items()}
    if seed_override is not None:
        seed = echoed["suite"]["seed"] = seed_override
    if "seed" in suite_keys(name):
        suite_cfg["seed"] = seed
    op = FracOperator(geometry)
    payload = SUITES[name].run(geometry, op, **suite_cfg)
    checks = SUITES[name].gates(payload)
    document = {
        "config": echoed,
        "suite": name,
        "seed": seed,
        "payload": payload,
        "checks": checks,
    }
    document["content_hash"] = hashlib.sha256(
        canonical_payload_bytes({k: v for k, v in document.items() if k != "content_hash"})
    ).hexdigest()
    return document, op.counts


def cmd_run(args):
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        document, counts = execute(config, seed_override=args.seed)
    # a ConfigError is a ValueError; NotImplementedError is a valid config
    # that a suite does not cover (instability at n = 2)
    except (ValueError, NotImplementedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        (out / "FAILED").write_text(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    wall = time.time() - t0

    report_path = out / "report.json"
    report_path.write_bytes(canonical_payload_bytes(document) + b"\n")
    provenance = {
        "version": __version__,
        "seed": document["seed"],
        "wall_time_s": wall,
        "numpy": np.__version__,
        "solver": dataclasses.asdict(counts),
    }
    (out / "provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=2) + "\n"
    )
    emit_plots(document, out)
    failures = [k for k, ok in document["checks"].items() if not ok]
    for name, ok in sorted(document["checks"].items()):
        print(f"[{'pass' if ok else 'FAIL'}] {document['suite']}: {name}")
    if failures:
        print(f"invariant failure: {', '.join(failures)}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_plots(args):
    try:
        report = json.loads(Path(args.report).read_text())
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read report {args.report}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(report, dict) or report.get("suite") not in SUITES:
        print(f"config error: {args.report} names no suite of {sorted(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    files = emit_plots(report, args.out)
    for f in files:
        print(f)
    return EXIT_OK


def cmd_validate(args):
    try:
        config = parse_config(args.config)
        build_geometry(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fraccond",
        description="stability experiments for the fractional conductivity problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment suite")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_plots = sub.add_parser("plots", help="re-emit plots from a report")
    p_plots.add_argument("--report", required=True)
    p_plots.add_argument("--out", required=True)
    p_plots.set_defaults(func=cmd_plots)

    p_val = sub.add_parser("validate", help="dry-run config checks")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
