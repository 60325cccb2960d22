"""Self-tests of the benchmark: output check, tracer, metric names.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import copy
import json
import sys
import types
from pathlib import Path

import pytest

from check import compare
from tracer import LAYERS, Tracer, _resolve, install

import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def reference():
    return run.load_references("residuals-2d")["0"]


def report_from(reference):
    return {"checks": dict(reference["checks"]), "payload": copy.deepcopy(reference["payload"])}


def test_reference_matches_itself(reference):
    assert compare(reference, reference["exit_code"], report_from(reference)) == []


def test_check_fires_on_leaf_scaled_by_two(reference):
    report = report_from(reference)
    report["payload"]["cases"][0]["liouville_residual"] *= 2
    problems = compare(reference, reference["exit_code"], report)
    assert len(problems) == 1 and "cases[0].liouville_residual" in problems[0]


def test_check_tolerates_roundoff(reference):
    report = report_from(reference)
    report["payload"]["cases"][0]["liouville_residual"] *= 1 + 1e-9
    assert compare(reference, reference["exit_code"], report) == []


def test_check_fires_on_invariant_flipped_to_fail(reference):
    report = report_from(reference)
    assert report["checks"]["residuals_refine"] is True
    report["checks"]["residuals_refine"] = False
    problems = compare(reference, reference["exit_code"], report)
    assert problems == ["invariant residuals_refine: False != reference True"]


def test_check_fires_on_exit_code_and_missing_report(reference):
    problems = compare(reference, 0, None)
    assert len(problems) == 2


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0])  # parent start, child start, child end, parent end
    tracer = Tracer(clock=lambda: next(ticks))
    child = tracer.wrap("child", lambda: None)
    parent = tracer.wrap("parent", lambda: child())
    parent()
    assert tracer.stats["parent"] == [1, 4.0, 2.0]
    assert tracer.stats["child"] == [1, 2.0, 2.0]


def test_wraps_by_identity_in_every_namespace_and_reports_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def work():
        return 7

    class Box:
        def method(self):
            return 8

    mod.work, mod.Box = work, Box
    user.work = work  # bound by name, as ``from .mod import work`` does
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    layers = {
        "mod.work": ("fakepkg.mod", "work"),
        "mod.method": ("fakepkg.mod", "Box.method"),
        "mod.deleted": ("fakepkg.mod", "interior_system"),
        "mod.deleted_class": ("fakepkg.mod", "InteriorSystem.__init__"),
        "gone.module": ("fakepkg.gone", "set_default_threads"),
    }
    tracer = Tracer()
    absent = install(tracer, layers, package="fakepkg")
    assert absent == ["gone.module", "mod.deleted", "mod.deleted_class"]
    assert user.work is mod.work is not work
    assert user.work() == 7 and Box().method() == 8
    assert tracer.stats["mod.work"][0] == 1 and tracer.stats["mod.method"][0] == 1


def test_every_layer_resolves_in_the_current_sources(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    missing = [name for name, (module, path) in LAYERS.items() if _resolve(module, path) is None]
    assert missing == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = run.layer_metrics({}, {})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: value["unit"] for name, value in per_layer.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_references_cover_every_shipped_seed():
    for workload in run.WORKLOADS:
        seeds = run.load_references(workload)
        assert sorted(seeds, key=int) == [str(s) for s in range(run.SHIPPED_SEEDS)]
