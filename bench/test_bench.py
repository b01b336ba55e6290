"""The benchmark's own checks: exact counts repeat, every declared layer is
reached, the correctness gate catches wrong results, host-speed
normalisation scales timings as documented, and a tree without the package
gives no result.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# where a declared count must be above 0: a layer that the tracer stops
# seeing (say, because a call site now goes through an alias it does not
# rebind) would otherwise read 0 and look like a large win
HOMES = {
    "polynomials.expand_capped.calls": "atn-poly",
    "polynomials.expand_capped.terms_out": "atn-poly",
    "polynomials.atn_from_polynomial.calls": "atn-poly",
    "orientations.eulerian_census.calls": "atn-orient",
    "orientations.atn_from_orientations.calls": "atn-orient",
    "cli.main.calls": "atn-orient",
    "polynomials.coefficient_of.calls": "verify-campaigns",
    "polynomials.full_expansion.calls": "verify-campaigns",
    "polynomials.evaluate.calls": "verify-campaigns",
    "orientations.orientation_census_table.calls": "verify-campaigns",
    "coloring.is_k_choosable.calls": "verify-campaigns",
    "coloring.proper_coloring_from_lists.calls": "verify-campaigns",
    "canon.canonical_key.calls": "verify-campaigns",
    "verify.run_instance.calls": "verify-campaigns",
}


@functools.lru_cache(maxsize=None)
def _traced_layers(workload: str, attempt: int) -> dict:
    """Layers of one traced child; `attempt` tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result["layers"]


def _is_count(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return last in ("calls", "terms_out", "spans") or last.endswith("_ratio") or (
        ".terms_out.cap" in name
    )


@pytest.mark.parametrize("workload", child.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = _traced_layers(workload, 0), _traced_layers(workload, 1)
    counts = {k: v for k, v in first.items() if _is_count(k)}
    assert counts == {k: v for k, v in second.items() if _is_count(k)}


def test_every_declared_layer_is_measured():
    layers = {w: _traced_layers(w, 0) for w in child.WORKLOADS}
    declared = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
    for name in declared:
        assert any(layers[w].get(name, 0) > 0 for w in layers), f"{name} is 0 everywhere"
    for name, workload in HOMES.items():
        assert name in declared
        assert layers[workload][name] > 0, f"{name} is 0 on {workload}"


def _ladder_op(label: str) -> child.Op:
    for _, rungs in child.LADDERS.values():
        for rung in rungs:
            if rung.label == label:
                return child.Op((), rung)
    raise KeyError(label)


def test_gate_rejects_wrong_atn_and_changed_claims():
    checker = child.Checker()
    wrong = {"atn": 4, "certificates": {"poly": {"atn": 4}}}
    checker.check(_ladder_op("K5"), 0, [json.dumps(wrong)])
    assert (checker.attempted, checker.failed) == (1, 1)

    expected = json.loads(child.EXPECTED.read_text(encoding="utf-8"))
    reports = []
    for row in expected["reports"]["thm1"]:
        iid, sig = row.rsplit(" ", 1)
        claims = expected["claims"][int(sig)]
        reports.append({"instance": iid, "claims": claims, "pass": True, "values": {}})
    op = child.Op(("verify", "thm1"))
    checker = child.Checker()
    checker.check(op, 0, [json.dumps(r) for r in reports])
    assert (checker.attempted, checker.failed) == (len(reports), 0)
    checker.check(op, 1, [json.dumps(r) for r in reports[:-1]])
    assert checker.failed == 1
    reports[0]["claims"] = {**reports[0]["claims"], "extra": True}
    checker.check(op, 1, [json.dumps(r) for r in reports])
    assert checker.failed == 2


def test_no_result_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atn-orient", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_normalisation():
    import hostspeed

    speed = hostspeed.HostSpeed()
    # probes at 1 s intervals, taking twice the reference time from t = 10 on
    speed.starts = [float(t) for t in range(20)]
    speed.probe_s = [hostspeed.REF_S * (2 if t >= 10 else 1) for t in range(20)]
    assert speed.net(2.5, 4.5) == pytest.approx(2.0 - 2 * hostspeed.REF_S)
    assert speed.normalised(2.5, 4.5) == pytest.approx(speed.net(2.5, 4.5))
    assert speed.normalised(14.5, 15.5) == pytest.approx(speed.net(14.5, 15.5) / 2)
    with hostspeed.HostSpeed() as live:
        pass
    assert len(live.probe_s) == 1  # a phase shorter than one period still has a probe
