"""Config ingestion, CLI exit codes, reports and plots."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraccond
from fraccond.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    build_geometry,
    execute,
    main,
    parse_config,
    suite_keys,
)
from fraccond.experiments import SUITES, Suite
from fraccond.geometry import Region, default_geometry
from fraccond.dnmap import DnMatrix
from fraccond.operators import FracOperator
from fraccond.plots import emit_plots


BASE_CONFIG = """
[geometry]
n = 1
s = 0.4
box_halfwidth = 6.0
grid_points = {N}
omega_radius = 1.0
region = 2.0 3.0

[suite]
name = {suite}
seed = {seed}
"""


# the suites that accept each [suite] key
_ALL = ("residuals", "exterior", "reduction", "logmodulus", "instability")
_BASIS = ("exterior", "reduction", "logmodulus", "instability")
KEY_READERS = {
    "name": _ALL,
    "seed": _ALL,
    "theta0": ("reduction", "logmodulus"),
    "q_index": ("logmodulus",),
    "base_amplitude": ("logmodulus",),
    "pairs": ("logmodulus",),
    "amplitude": ("reduction",),
    "factor": ("reduction",),
    "amplitudes": ("exterior",),
    "basis_size": _BASIS,
    "ell": ("instability",),
    "eps": ("instability",),
    "beta": ("instability",),
    "lattice_spacing": ("instability",),
    "count": ("instability",),
    "probe_point": ("exterior",),
    "recovery_height": ("exterior",),
}


def ini_text(value):
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def suite_config(tmp_path, name, extra=""):
    """A config of the default 1D geometry on 64 points naming one suite."""
    path = tmp_path / f"{name}.ini"
    path.write_text(f"[geometry]\ngrid_points = 64\n[suite]\nname = {name}\n{extra}")
    return path


def write_config(tmp_path, suite="logmodulus", seed=7, N=1024, extra=""):
    # basis_size only where the suite reads it: residuals builds no basis
    basis = "" if suite == "residuals" else "basis_size = 8\n"
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.format(suite=suite, seed=seed, N=N) + basis + extra)
    return path


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg["suite"]["name"] == "logmodulus"
        geom = build_geometry(cfg)
        assert geom.grid_points == 1024

    def test_unknown_key_rejected(self, tmp_path):
        base = write_config(tmp_path).read_text()
        for key in ("wibble", "operator_mode", "basis_kind", "solver_tol"):
            path = tmp_path / f"{key}.ini"
            path.write_text(base.replace("seed = 7", f"seed = 7\n{key} = 3"))
            with pytest.raises(ConfigError, match=key):
                parse_config(path)
            assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_duplicate_section_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[suite]\nname = exterior\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        base = write_config(tmp_path).read_text()
        for section, body in (("mystery", "x = 1"), ("tolerances", "solver_tol = 1e-10")):
            path = tmp_path / f"{section}.ini"
            path.write_text(base + f"\n[{section}]\n{body}\n")
            with pytest.raises(ConfigError, match=section):
                parse_config(path)
            assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[suite]\nname = logmodulus\nseed = banana\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    def test_unknown_suite_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[suite]\nname = wizardry\n")
        with pytest.raises(ConfigError, match="wizardry"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_key_the_suite_does_not_read_rejected(self, tmp_path):
        for extra in ("theta0 = 0.9\n", "basis_size = 8\n", "amplitudes = 0.1\n"):
            path = write_config(tmp_path, suite="residuals", extra=extra)
            key = extra.split()[0]
            with pytest.raises(ConfigError, match=f"'residuals' does not read {key}"):
                parse_config(path)
            assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
            assert main(["run", "--config", str(path), "--out", str(tmp_path / key)]) == EXIT_CONFIG
            assert not (tmp_path / key / "report.json").exists()

    def test_suite_defaults_have_castable_types(self):
        for name in SUITES:
            for key, default in suite_keys(name).items():
                castable = type(default) in (int, float, str) or (
                    type(default) is tuple and all(type(v) is float for v in default)
                )
                assert castable, (name, key, default)

    def test_suite_defaults_round_trip(self, tmp_path):
        for name in SUITES:
            keys = {"seed": 0, **suite_keys(name)}
            body = "".join(f"{k} = {ini_text(v)}\n" for k, v in keys.items())
            path = tmp_path / f"{name}.ini"
            path.write_text(f"[suite]\nname = {name}\n{body}")
            assert parse_config(path)["suite"] == {"name": name, **keys}

    def test_accepted_keys_are_the_suites_parameters(self, tmp_path):
        accepted = {(n, k) for n in SUITES for k in ("name", "seed", *suite_keys(n))}
        assert accepted == {(n, k) for k, readers in KEY_READERS.items() for n in readers}
        values = {k: v for n in SUITES for k, v in suite_keys(n).items()}
        values["seed"] = 0
        path = tmp_path / "pair.ini"
        for name in SUITES:
            for key in set(KEY_READERS) - {"name"}:
                path.write_text(f"[suite]\nname = {name}\n{key} = {ini_text(values[key])}\n")
                if name in KEY_READERS[key]:
                    assert parse_config(path)["suite"][key] == values[key]
                else:
                    with pytest.raises(ConfigError, match=f"'{name}' does not read {key}"):
                        parse_config(path)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_benchmark_config_shape_validates(self, tmp_path, suite):
        # perfbench/run.py writes only these four keys, seed for every suite
        path = tmp_path / "bench.ini"
        path.write_text(
            f"[geometry]\nn = 2\ngrid_points = 256\n[suite]\nname = {suite}\nseed = 3\n"
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_geometry_is_default_geometry(self, tmp_path, n):
        path = tmp_path / "exp.ini"
        section = "" if n == 1 else f"n = {n}\n"
        path.write_text(f"[geometry]\n{section}[suite]\nname = residuals\n")
        assert build_geometry(parse_config(path)) == default_geometry(n)

    def test_malformed_region_rejected(self, tmp_path):
        # the region is two radii and carries no name
        base = write_config(tmp_path).read_text()
        for region in ("2.0", "two 3.0", "2.0 3.0 4.0", "annulus 2.0 3.0"):
            path = tmp_path / "region.ini"
            path.write_text(base.replace("region = 2.0 3.0", f"region = {region}"))
            with pytest.raises(ConfigError, match="region"):
                build_geometry(parse_config(path))
            assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("suite", ["exterior", "reduction", "logmodulus", "instability"])
    def test_suite_region_key_rejected(self, tmp_path, suite):
        # the geometry holds the one region, so no suite reads a region key:
        # validate and run refuse it alike
        path = write_config(tmp_path, suite=suite, N=256, extra="region = annulus\n")
        with pytest.raises(ConfigError, match=f"'{suite}' does not read region"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_geometry_region_is_run(self, tmp_path):
        path = write_config(tmp_path, suite="reduction", N=256)
        path.write_text(path.read_text().replace("region = 2.0 3.0", "region = 2.25 3.25"))
        assert build_geometry(parse_config(path)).region == Region(2.25, 3.25)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) in (EXIT_OK, EXIT_INVARIANT)
        assert (out / "report.json").exists()

    def test_amplitudes_parsing(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[suite]\nname = exterior\namplitudes = 0.05 0.1 0.2\n"
        )
        cfg = parse_config(path)
        assert cfg["suite"]["amplitudes"] == (0.05, 0.1, 0.2)


class TestCliExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(write_config(tmp_path))])
        assert rc == EXIT_OK

    def test_validate_bad_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[suite]\nname = nope\n")
        rc = main(["validate", "--config", str(path)])
        assert rc == EXIT_CONFIG

    def test_run_ok_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, suite="logmodulus", seed=7)
        rc1 = main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        rc2 = main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc1 == EXIT_OK and rc2 == EXIT_OK
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_run_invariant_failure_exit_code(self, tmp_path):
        # a 64-point grid cannot meet the residual thresholds
        cfg = write_config(tmp_path, suite="residuals", N=64)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert rc == EXIT_INVARIANT

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        # a DN matrix that lost symmetry is a solver failure, not a config error
        def asymmetric_suite(geometry, op):
            entries = np.array([[1.0, 1e-3], [0.0, 1.0]])
            return DnMatrix(entries=entries, basis=None)

        monkeypatch.setitem(SUITES, "asymmetric", Suite(asymmetric_suite, None, None))
        out = tmp_path / "e"
        rc = main(["run", "--config", str(suite_config(tmp_path, "asymmetric")), "--out", str(out)])
        assert rc == EXIT_SOLVER
        assert (out / "FAILED").read_text().startswith("solver failure")

    def test_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # parse_config refuses unknown suite names, so a KeyError a suite
        # raises is a defect and propagates
        def broken_suite(geometry, op):
            return {}["missing"]

        monkeypatch.setitem(SUITES, "broken", Suite(broken_suite, None, None))
        cfg = suite_config(tmp_path, "broken")
        with pytest.raises(KeyError, match="missing"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", json.dumps({"suite": "wizardry", "payload": {}})],
        ids=["missing", "not-json", "unregistered-suite"],
    )
    def test_plots_refuses_what_it_cannot_plot(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        if content is not None:
            report.write_text(content)
        rc = main(["plots", "--report", str(report), "--out", str(tmp_path / "p")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "p").exists()

    def test_bad_theta0_is_config_error(self, tmp_path):
        # s = 0.4, n = 1: the admissible window is (0.8, 1)
        for suite in ("reduction", "logmodulus"):
            cfg = write_config(tmp_path, suite=suite, extra="theta0 = 0.7\n")
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / suite)])
            assert rc == EXIT_CONFIG

    def test_instability_integer_gap_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, suite="instability", extra="ell = 2.8\ncount = 4\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == EXIT_CONFIG

    def test_instability_in_2d_is_config_error(self, tmp_path):
        # the lattice family is built on 1D grids only: a clean exit 2 with a
        # config error line, not a traceback
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[geometry]\nn = 2\ngrid_points = 64\n[suite]\nname = instability\n")
        src = os.path.dirname(os.path.dirname(fraccond.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fraccond.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        # the child imports the package under test, wherever pytest found it
        src = os.path.dirname(os.path.dirname(fraccond.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fraccond.cli", "validate", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "config ok" in proc.stdout


# imports fraccond.cli, runs each config given and then builds a 2D
# operator's quadrature symbol, printing the scipy modules loaded after the
# import, after each run and after the symbol as one JSON line
_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from fraccond import cli
from fraccond.geometry import default_geometry
from fraccond.operators import FracOperator

seen = {"import": scipy_modules()}
for i, config in enumerate(sys.argv[2:]):
    code = cli.main(["run", "--config", config, "--out", f"{sys.argv[1]}/run{i}"])
    seen[config] = [code, scipy_modules()]
FracOperator(default_geometry(n=2, grid_points=64)).quadrature_symbol
seen["quadrature_symbol"] = scipy_modules()
print(json.dumps(seen))
"""


class TestColdStart:
    def test_runs_load_no_scipy(self, tmp_path):
        # a fresh interpreter: this session imports scipy for its oracles
        configs = {
            "ext2": "[geometry]\nn = 2\ngrid_points = 64\n[suite]\nname = exterior\n",
            "ins1": "[geometry]\nn = 1\ngrid_points = 256\n[suite]\nname = instability\n",
            "res1": "[geometry]\nn = 1\ngrid_points = 256\n[suite]\nname = residuals\n",
        }
        paths = [tmp_path / f"{stem}.ini" for stem in configs]
        for cfg, text in zip(paths, configs.values()):
            cfg.write_text(text)
        src = os.path.dirname(os.path.dirname(fraccond.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *map(str, paths)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "import": [],
            **{str(p): [EXIT_OK, []] for p in paths},
            "quadrature_symbol": [],
        }

    def test_sources_import_no_scipy(self):
        # a deferred import inside a function is caught too
        src = Path(fraccond.__file__).parent
        found = []
        for module in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(module.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [
                    f"{module.name}:{node.lineno}"
                    for name in names
                    if name == "scipy" or name.startswith("scipy.")
                ]
        assert found == []


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp, suite="logmodulus", seed=3)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp / "out")])
    assert rc == EXIT_OK
    return json.loads((tmp / "out" / "report.json").read_text()), tmp / "out"


class TestReportsAndPlots:
    def test_config_echo_round_trip(self, report):
        doc, _ = report
        assert doc["config"]["suite"]["name"] == "logmodulus"
        assert doc["config"]["geometry"]["grid_points"] == 1024
        assert doc["seed"] == 3

    def test_content_hash_present(self, report):
        doc, _ = report
        assert len(doc["content_hash"]) == 64

    def test_plot_files_written(self, report):
        doc, out = report
        assert (out / "logmodulus.dat").exists()
        assert (out / "logmodulus.svg").exists()
        rows = [
            line
            for line in (out / "logmodulus.dat").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == len(doc["payload"]["data_points"])

    def test_plots_command_reruns(self, report, tmp_path):
        _, out = report
        rc = main(["plots", "--report", str(out / "report.json"), "--out", str(tmp_path / "p")])
        assert rc == EXIT_OK
        assert (tmp_path / "p" / "logmodulus.svg").exists()

    def test_empty_data_headers_only(self, tmp_path):
        doc = {
            "config": {"suite": {"name": "logmodulus"}},
            "suite": "logmodulus",
            "payload": {"data_points": [], "flagged_points": [], "C": 1.0, "sigma": 1.0},
        }
        with pytest.warns(UserWarning, match="no retained data"):
            files = emit_plots(doc, tmp_path)
        names = {f.name for f in files}
        assert "logmodulus.dat" in names
        assert "logmodulus.svg" not in names
        content = (tmp_path / "logmodulus.dat").read_text()
        assert all(line.startswith("#") or not line for line in content.splitlines())

    def test_decay_plot_slope_matches_report(self, geom, op_quad, tmp_path):
        from fraccond.cli import execute

        cfg = {
            "geometry": {"grid_points": 1024},
            "suite": {"name": "instability", "seed": 7, "count": 8, "basis_size": 12},
        }
        doc, _ = execute(cfg)
        files = emit_plots(doc, tmp_path)
        dat = next(f for f in files if f.name == "decay.dat")
        rows = np.loadtxt(dat)
        # refit the sidecar contents; the slope must reproduce the report
        coef = np.polyfit(rows[:, 0], np.log(rows[:, 1]), 1)
        assert -coef[0] == pytest.approx(doc["payload"]["decay_rate"], rel=1e-9)


def probe_run(geometry, op, width=2.0):
    return {"width": width, "points": [(1.0, width), (2.0, 2.0 * width)]}


def probe_gates(payload):
    return {"width_small": payload["width"] <= 3.0}


def probe_figures(payload):
    rows = [tuple(p) for p in payload["points"]]
    series = [{"x": [r[0] for r in rows], "y": [r[1] for r in rows], "kind": "line"}]
    plot = dict(series=series, xlabel="x", ylabel="width", title="probe")
    return [("probe", ["probe data", "columns: x width"], rows, plot)]


class TestRegisteredSuite:
    @pytest.mark.parametrize("width, code", [(2.0, EXIT_OK), (4.0, EXIT_INVARIANT)])
    def test_record_runs_and_plots_end_to_end(self, tmp_path, monkeypatch, width, code):
        # a suite is its record: run, gates and figures, with no other module
        # naming it
        monkeypatch.setitem(SUITES, "probe", Suite(probe_run, probe_gates, probe_figures))
        cfg = suite_config(tmp_path, "probe", f"width = {width}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["suite"] == {"name": "probe", "width": width}
        assert doc["checks"] == {"width_small": code == EXIT_OK}
        assert np.array_equal(np.loadtxt(out / "probe.dat"), [[1.0, width], [2.0, 2.0 * width]])
        assert (out / "probe.svg").read_text().startswith("<svg")
        again = tmp_path / "again"
        assert main(["plots", "--report", str(out / "report.json"), "--out", str(again)]) == EXIT_OK
        assert sorted(p.name for p in again.iterdir()) == ["probe.dat", "probe.svg"]
        for p in again.iterdir():
            assert p.read_bytes() == (out / p.name).read_bytes()


class TestProvenance:
    def test_provenance_fields(self, tmp_path):
        cfg = write_config(tmp_path, suite="residuals")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert {"version", "seed", "wall_time_s"} <= set(prov)

    def test_provenance_records_solver_counts(self, tmp_path):
        cfg = write_config(tmp_path, suite="reduction", N=256)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (EXIT_OK, EXIT_INVARIANT)
        counts = json.loads((tmp_path / "out" / "provenance.json").read_text())["solver"]
        assert set(counts) == {
            "systems",
            "pcg_solves",
            "pcg_iterations",
            "pcg_max_iterations",
            "pcg_columns",
            "coarse_columns",
            "certificate_products",
            "convolution_hits",
            "worst_residual",
        }
        # 7 DN matrices on one basis, one system per conductivity: every g
        # is 1 on the basis' support, so each Liouville potential's map is
        # its conductivity's, and all 7 applies share one convolution
        assert (counts["systems"], counts["convolution_hits"]) == (7, 6)
        # a solve per system, and a certificate run for the first system and
        # for the one that the first's kept vector does not certify
        assert (counts["pcg_solves"], counts["certificate_products"]) == (9, 5)
        # no block is wider than the basis
        assert counts["pcg_iterations"] < counts["pcg_columns"] <= 8 * counts["pcg_iterations"]
        # the one operator's coarse space is built once, by one product
        V, _ = FracOperator(build_geometry(parse_config(cfg))).coarse_space
        assert counts["coarse_columns"] == V.shape[1]
        assert 0 < counts["worst_residual"] <= 1e-10
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "solver" not in report

    def test_instability_members_share_one_convolution(self, tmp_path):
        # the unit system and the 32 Mandache members on one basis: every
        # member is 1 on the basis' support, so a key that stopped matching
        # would show here as fewer hits
        cfg = write_config(tmp_path, suite="instability")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc in (EXIT_OK, EXIT_INVARIANT)
        counts = json.loads((tmp_path / "out" / "provenance.json").read_text())["solver"]
        assert (counts["systems"], counts["convolution_hits"]) == (33, 32)

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, suite="residuals", seed=1)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "s1")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "s9"), "--seed", "9"])
        d1 = json.loads((tmp_path / "s1" / "report.json").read_text())
        d9 = json.loads((tmp_path / "s9" / "report.json").read_text())
        assert d1["seed"] == 1 and d9["seed"] == 9

    def test_seed_override_is_echoed_in_the_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, suite="residuals", N=256, seed=1))
        doc, _ = execute(cfg, seed_override=9)
        assert doc["seed"] == doc["config"]["suite"]["seed"] == 9
        assert cfg["suite"]["seed"] == 1  # the parsed config is not mutated
        doc, _ = execute(cfg)
        assert doc["seed"] == doc["config"]["suite"]["seed"] == 1

    def test_large_instability_run_takes_the_pcg_path(self, tmp_path):
        # 2731 unknowns at 1D N = 16384, every system solved by
        # box-preconditioned PCG
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.format(suite="instability", seed=7, N=16384) + "count = 8\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        counts = json.loads((tmp_path / "out" / "provenance.json").read_text())["solver"]
        # a solve per system; the unit system's certificate run certifies
        # every member by one product
        assert (counts["systems"], counts["pcg_solves"]) == (9, 10)
        assert counts["certificate_products"] == 8
        assert 0 < counts["worst_residual"] <= 1e-10
