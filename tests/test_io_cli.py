"""Serialization formats, config ingestion, CLI exit codes."""

import json
import os
import subprocess
import sys

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
)
from fraccond.conductivity import Potential, bump_conductivity, liouville_potential
from fraccond.dnmap import DnMatrix
from fraccond.io import FormatError, load_conductivity, save_conductivity
from fraccond.plots import emit_plots


BASE_CONFIG = """
[geometry]
n = 1
s = 0.4
box_halfwidth = 6.0
grid_points = {N}
omega_radius = 1.0
region = annulus 2.0 3.0

[suite]
name = {suite}
seed = {seed}
basis_size = 8
"""


def write_config(tmp_path, suite="logmodulus", seed=7, N=1024, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.format(suite=suite, seed=seed, N=N) + extra)
    return path


class TestConductivityRoundTrip:
    def test_bitwise_round_trip(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam, seed=11)
        back = load_conductivity(path)
        assert np.array_equal(back.values, gam.values)
        assert back.geometry == gam.geometry
        assert back.gamma0 == gam.gamma0

    def test_tampered_payload_detected(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="hash mismatch"):
            load_conductivity(path)

    def test_version_refusal(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam)
        text = path.read_bytes()
        path.write_bytes(text.replace(b"v1", b"v9", 1))
        with pytest.raises(FormatError, match="v9"):
            load_conductivity(path)

    def test_tampered_header(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam, seed=11)
        path.write_bytes(path.read_bytes().replace(b"seed = 11", b"seed = 12"))
        with pytest.raises(FormatError, match="hash mismatch"):
            load_conductivity(path)

    def test_truncated_payload_rejected(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            load_conductivity(path)

    def test_trailing_bytes_rejected(self, geom, tmp_path):
        gam = bump_conductivity(geom, height=0.5, width=0.8)
        path = tmp_path / "gamma.fcc"
        save_conductivity(path, gam)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FormatError, match="bytes"):
            load_conductivity(path)


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
        def asymmetric_suite(name, geometry, op, config):
            entries = np.array([[1.0, 1e-3], [0.0, 1.0]])
            return DnMatrix(entries=entries, basis=None, equation="conductivity")

        monkeypatch.setattr("fraccond.cli.run_suite", asymmetric_suite)
        out = tmp_path / "e"
        rc = main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert rc == EXIT_SOLVER
        assert (out / "FAILED").read_text().startswith("solver failure")

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
        doc = execute(cfg)
        files = emit_plots(doc, tmp_path)
        dat = next(f for f in files if f.name == "decay.dat")
        rows = np.loadtxt(dat)
        # refit the sidecar contents; the slope must reproduce the report
        coef = np.polyfit(rows[:, 0], np.log(rows[:, 1]), 1)
        assert -coef[0] == pytest.approx(doc["payload"]["decay_rate"], rel=1e-9)


class TestProvenance:
    def test_provenance_fields(self, tmp_path):
        cfg = write_config(tmp_path, suite="residuals")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert {"version", "seed", "wall_time_s"} <= set(prov)

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, suite="residuals", seed=1)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "s1")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "s9"), "--seed", "9"])
        d1 = json.loads((tmp_path / "s1" / "report.json").read_text())
        d9 = json.loads((tmp_path / "s9" / "report.json").read_text())
        assert d1["seed"] == 1 and d9["seed"] == 9
