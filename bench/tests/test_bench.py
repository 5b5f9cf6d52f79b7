"""The benchmark's own checks: BENCHMARK.json, the result file, smoke runs.

Run from the repository root with ``python -m pytest bench/tests -q``.  The
smoke runs use tiny sizes (``--smoke``) and take a few seconds each.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_schema():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    cmd = SPEC["command"]
    assert 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)
    assert all(not c.startswith("/") and ".." not in c for c in cmd)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
        assert m["name"] in proc.stdout.split("\n", 1)[1]  # printed by name too

    result = json.loads((ROOT / "bench" / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert result["failed_frac"] == 0 and result["correct"] is True
    env = result["environment"]
    for key in ("nproc", "workers", "blas", "blas_threads", "numpy", "scipy", "python",
                "caches", "working_set_mb"):
        assert key in env
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(c["skew_ok"] and c["monotone_ok"] for c in result["spot_checks"])
    if trace:
        assert result["path_steps_traced"] == result["path_steps"]
        assert set(result["kernel_counts"]["levels"]) == set(env["working_set_mb"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
