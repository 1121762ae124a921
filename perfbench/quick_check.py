"""The benchmark's own tests: every workload at the quick size, both modes.

    python3 -m pytest -q perfbench/quick_check.py

They check the output schema against BENCHMARK.json and that every
correctness check passes; they assert nothing about timings.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(cwd, workload, trace, quick=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--quick"] if quick else []), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_schema_and_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    context = json.loads(proc.stdout.splitlines()[0])["context"]
    for key in ("python", "numpy", "nproc", "blas_threads", "git_commit", "seed", "model", "moe"):
        assert key in context


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), "serve", 0, quick=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_recorder_restores_patched_functions_and_derives_self_time():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import xft.model
        import xft.tensor
        from spans import Recorder, tensor_ops

        before = dict(vars(xft.tensor)), dict(vars(xft.model)), xft.model.ffn_forward.__defaults__
        rec = Recorder()
        rec.install()
        assert xft.model.ffn_forward is not before[1]["ffn_forward"]
        assert xft.model.ffn_forward.__wrapped__.__defaults__[0] is not xft.tensor.gelu.__wrapped__
        x = xft.tensor.Tensor([[1.0, 2.0]])
        xft.tensor.gelu(x + x)
        rec.uninstall()
        assert (dict(vars(xft.tensor)), dict(vars(xft.model)),
                xft.model.ffn_forward.__defaults__) == before
        assert rec.ops == 2 and "gelu" in tensor_ops(xft.tensor) and rec.missing == []
    finally:
        del sys.path[:2]

    rec = Recorder()
    outer = rec.wrap("outer", lambda: inner())
    inner = rec.wrap("inner", lambda: None)
    outer()
    rec.group("step", rec.starts[0] - 1.0, rec.ends[0] + 1.0)
    assert rec.parents == [2, 0, -1]
    summary = rec.summary()
    assert summary["step"]["self_ms"] == pytest.approx(2000.0, rel=1e-6)
    assert summary["outer"]["self_ms"] == pytest.approx(
        summary["outer"]["total_ms"] - summary["inner"]["total_ms"])
