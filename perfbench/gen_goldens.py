"""Generate the benchmark's committed inputs and golden outputs.

    python3 perfbench/gen_goldens.py [sweep] [deep] [large]

* ``data/scan-<N>.json``: the canonical ``scan --max N --json`` stdout bytes,
  the golden for both sweep workloads.
* ``data/deep_profiles.json``: every distinct symbol profile
  (legendre, pi, B, q, m, n, psi) realized by a pair with p1*p2 <= DEEP_MAX,
  with up to DEEP_CHOICES realizing pairs and the sha256 of each pair's
  ``classify --json`` output.
* ``data/large_pool.json``: a seeded sample of the classify-large range with
  each pair's output digest and ``cost_ms``, its ``classify`` time in a fresh
  interpreter on the generating machine.  ``cost_ms`` is only used to split
  the pool into equal-work strata.

Run it only at a commit whose outputs are known good; the benchmark then
checks every later commit against these files.  Nothing here is timed by the
benchmark.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from worker import run_cli  # noqa: E402


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _digest(main, p1: int, p2: int) -> str:
    rc, out = run_cli(main, W.classify_argv(p1, p2))
    if rc != 0 or not json.loads(out)["cross_validation"]["passed"]:
        raise SystemExit(f"classify {p1} {p2} failed at generation (exit {rc})")
    return hashlib.sha256(out).hexdigest()


def gen_sweep() -> None:
    from classtower.cli import main

    rc, out = run_cli(main, W.scan_argv(1))
    if rc != 0 or not json.loads(out)["ok"]:
        raise SystemExit(f"scan --max {W.SWEEP_MAX} failed at generation (exit {rc})")
    W.SWEEP_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    W.SWEEP_GOLDEN.write_bytes(out)


def gen_deep() -> None:
    from classtower.classify import invariants
    from classtower.cli import main
    from classtower.symbols import primes_5_mod_8, validate_pair

    ps = primes_5_mod_8(W.DEEP_MAX // 5)
    by_profile = defaultdict(list)
    for i, a in enumerate(ps):
        for b in ps[i + 1 :]:
            if a * b > W.DEEP_MAX:
                break
            rec = invariants(validate_pair(a, b))
            prof = rec.profile()
            by_profile[prof[:6] + (prof[6].value,)].append((a * b, a, b))
    out = []
    for prof in sorted(by_profile):
        chosen = sorted(by_profile[prof])[: W.DEEP_CHOICES]
        out.append({
            "profile": list(prof),
            "pairs": [{"p1": a, "p2": b, "sha256": _digest(main, a, b)} for _, a, b in chosen],
        })
    _write_json(W.DEEP_PROFILES, out)
    print(f"{len(out)} profiles", file=sys.stderr)


def gen_large() -> None:
    pool = []
    for p1, p2 in W.sample_large_pairs(W.LARGE_POOL_SEED, W.LARGE_POOL_SIZE):
        job = json.dumps({"ops": [W.classify_argv(p1, p2)]})
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                              capture_output=True, text=True, check=True)
        op = json.loads(proc.stdout.strip().splitlines()[-1])["ops"][0]
        if op["rc"] != 0 or not op["passed"]:
            raise SystemExit(f"classify {p1} {p2} failed at generation: {op}")
        pool.append({"p1": p1, "p2": p2, "sha256": op["sha256"], "cost_ms": round(op["ms"], 1)})
    _write_json(W.LARGE_POOL, pool)


def main(argv: list[str]) -> int:
    parts = argv or ["sweep", "deep", "large"]
    for part in parts:
        {"sweep": gen_sweep, "deep": gen_deep, "large": gen_large}[part]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
