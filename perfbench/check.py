"""Output check: compare a run's report and exit code with a recorded reference.

Numeric leaves of the payload agree when they are within ``REL_TOL`` of each
other relative to the larger magnitude (or within ``ABS_TOL`` absolutely, for
leaves that are zero).  Roundoff-level reorderings of the numerics move the
suites' leaves by at most about 5e-8; a real defect, such as a stale cache
that doubles DN entries, moves them by order one, so 1e-6 separates the two.
Integers, booleans, strings, the structure of the payload, the invariant
flags and the exit code must match exactly.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6
ABS_TOL = 1e-14


def _leaf_diffs(ref, got, path):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(ref):
            out += _leaf_diffs(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += _leaf_diffs(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) and math.isnan(got):
            return []
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def compare(reference, exit_code, report):
    """Return a list of mismatches (empty when the run is correct).

    ``reference`` holds ``exit_code``, ``checks`` and ``payload`` recorded at
    the reference commit; ``report`` is the run's report.json document, or
    None when the run wrote none.
    """
    problems = []
    if exit_code != reference["exit_code"]:
        problems.append(f"exit code {exit_code} != reference {reference['exit_code']}")
    if report is None:
        return problems + ["no report.json written"]
    for flag, ok in sorted(reference["checks"].items()):
        got = report.get("checks", {}).get(flag)
        if got is not ok:
            problems.append(f"invariant {flag}: {got} != reference {ok}")
    return problems + _leaf_diffs(reference["payload"], report.get("payload"), "payload")
