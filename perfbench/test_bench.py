"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

Not part of the repository's test suite: these start several interpreters and
take about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPS, Tracer  # noqa: E402
from worker import run_cli  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def _op(argv: list[str], out: bytes) -> dict:
    return {"argv": argv, "rc": 0, "passed": True, "error": None,
            "sha256": hashlib.sha256(out).hexdigest()}


def test_corrupted_classify_golden_is_caught():
    from classtower.cli import main

    deep = workloads.make("classify-deep")
    argv = next(deep.passes(0))[0]
    rc, out = run_cli(main, argv)
    assert rc == 0
    passes = [{"ops": [_op(argv, out)]}]
    assert run.check(deep, passes)[0] == 0
    key = (int(argv[2]), int(argv[4]))
    deep._digest[key] = _corrupt(deep._digest[key])
    failed, problems = run.check(deep, passes)
    assert failed == 1 and "differs from the golden" in problems[0]


def test_corrupted_scan_golden_is_caught(tmp_path, monkeypatch):
    golden = workloads.SWEEP_GOLDEN.read_bytes()
    argv = workloads.scan_argv(1)
    passes = [{"ops": [_op(argv, golden)]}]
    assert run.check(workloads.make("sweep"), passes)[0] == 0
    bad = tmp_path / "scan.json"
    bad.write_bytes(golden.replace(b'"ok":true', b'"ok":false'))
    monkeypatch.setattr(workloads, "SWEEP_GOLDEN", bad)
    assert run.check(workloads.make("sweep"), passes)[0] == 1
    assert run.check(workloads.make("sweep-jobs2"), passes)[0] == 1


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    co = tmp_path / "checkout"
    shutil.copytree(HERE, co / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", co / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", co / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return co


def _run(co: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=co, capture_output=True, text=True, timeout=170)


def test_run_fails_on_a_corrupted_golden(tmp_path):
    co = _checkout(tmp_path)
    path = co / "perfbench" / "data" / "deep_profiles.json"
    profiles = json.loads(path.read_text(encoding="utf-8"))
    for entry in profiles[0]["pairs"]:
        entry["sha256"] = _corrupt(entry["sha256"])
    path.write_text(json.dumps(profiles), encoding="utf-8")
    proc = _run(co, "--workload", "classify-deep", "--seed", "1", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert "differs from the golden" in proc.stdout


def test_run_without_the_program_exits_nonzero(tmp_path):
    co = _checkout(tmp_path, with_src=False)
    proc = _run(co, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    co = _checkout(tmp_path)
    proc = _run(co, "--workload", "classify-deep", "--seed", "2", "--seconds", "0",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    spec = _bench_json()["per_layer"]
    assert set(metrics) == {m["name"] for m in spec}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec)
    layer_self = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".self_ms") and k.count(".") == 1)
    assert 0 < layer_self <= metrics["trace.wall_ms"]["value"]
    assert metrics["classify.engine.profiles_built"]["value"] == 38
    assert (co / ".perfbench" / "spans-classify-deep-2.jsonl").stat().st_size > 0


def test_end_to_end_names_match_benchmark_json():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_restore_puts_every_original_back():
    import importlib

    def snapshot():
        out = {}
        for _, _, module, attr, callers in WRAPS:
            for caller in callers if "." not in attr else [module]:
                owner = importlib.import_module(f"classtower.{caller}")
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner, attr_name = getattr(owner, cls), meth
                else:
                    attr_name = attr
                out[(caller, attr)] = owner.__dict__.get(attr_name)
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.restore()
    assert snapshot() == before
    assert not tracer.absent
