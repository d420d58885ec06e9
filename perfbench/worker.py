"""One benchmark pass: run CLI calls in this fresh interpreter and report them.

Reads a job from stdin as JSON::

    {"ops": [[argv...], ...], "trace": false, "spans": null, "workers_dir": null}

and prints one JSON line with, per call, the wall time of ``classtower.cli.main``
in milliseconds, the exit code, the sha256 of its stdout and the program's own
verdict (``cross_validation.passed`` or the scan's ``ok``), plus the times of
a fixed calibration loop run between calls.  With ``"trace": true`` the public
functions are wrapped for the pass (see tracer.py), the spans are written to
the ``spans`` path and their aggregate is returned.

Run by run.py; a pass is one fresh interpreter so the program's caches start
empty, as they do for a command-line user.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_cli(main, argv: list[str]) -> tuple[int, bytes]:
    """Call ``main(argv)`` in-process and return (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode("utf-8")


def verdict(argv: list[str], out: bytes) -> tuple[bool, int]:
    """(the program's own pass/fail verdict, pairs covered) from canonical JSON."""
    doc = json.loads(out)
    if argv[0] == "scan":
        return doc["ok"] is True, doc["pairs"]
    return doc["cross_validation"]["passed"] is True, 1


def run_op(main, argv: list[str], tracer=None) -> dict:
    rec = {"argv": argv, "ms": None, "rc": None, "sha256": None, "passed": False, "pairs": 0,
           "error": None}
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            rc, out = run_cli(main, argv)
        else:
            rc, out = tracer_span(tracer, main, argv)
    except (Exception, SystemExit) as exc:  # a failed operation, counted by the caller
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["traceback"] = traceback.format_exc()
        return rec
    rec["ms"] = (time.perf_counter_ns() - t0) / 1e6
    rec["rc"] = rc
    rec["sha256"] = hashlib.sha256(out).hexdigest()
    try:
        rec["passed"], rec["pairs"] = verdict(argv, out)
    except (ValueError, KeyError, TypeError) as exc:
        rec["error"] = f"unreadable output: {exc}"
    return rec


def tracer_span(tracer, main, argv):
    """run_cli under a root span for the cli layer, with the pair as request id."""
    tracer.request = f"{argv[2]},{argv[4]}" if argv[0] == "classify" else argv[0]
    return tracer.wrap(run_cli, "cli.main", "cli", None)(main, argv)


CALIBRATION_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed loop of interpreter work (dict stores, integer arithmetic).

    The machine's speed drifts by well over the benchmark's bounds within
    minutes; this loop slows down with it, so timings can be scaled by it.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(150_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS plus ``jobs`` times its largest child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * children if jobs > 1 else 0)) / 1024


def main() -> int:
    job = json.load(sys.stdin)
    import classtower.cli as cli

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(child_dir=job.get("workers_dir"))
        tracer.install()
    # calibrate before the first call, then after any call that ends at least
    # CALIBRATION_EVERY_S after the previous calibration, and after the last
    calibration = [calibrate()]
    last_cal = time.perf_counter()
    ops = []
    t0 = time.perf_counter_ns()
    try:
        for i, argv in enumerate(job["ops"]):
            ops.append(run_op(cli.main, argv, tracer))
            if i == len(job["ops"]) - 1 or time.perf_counter() - last_cal >= CALIBRATION_EVERY_S:
                calibration.append(calibrate())
                last_cal = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    wall_ms = (time.perf_counter_ns() - t0) / 1e6 - sum(calibration[1:]) * 1e3
    jobs = max((int(a[a.index("--jobs") + 1]) for a in job["ops"] if "--jobs" in a), default=1)
    result = {"ops": ops, "wall_ms": wall_ms, "peak_rss_mb": peak_rss_mb(jobs),
              "calibration_s": calibration, "trace": None}
    if tracer is not None:
        agg = tracer.aggregate()
        layer_self = sum(agg["layer_self_ms"].values())
        workers = tracer.merge_children()
        result["trace"] = {
            "main": agg,
            "workers": [w["aggregate"] for w in workers],
            "unattributed_ms": wall_ms - layer_self,
            "absent": sorted(tracer.absent),
        }
        if job.get("spans"):
            with open(job["spans"], "a", encoding="utf-8") as fh:
                for proc, spans in [("main", tracer.spans)] + [
                    (f"worker{i}", w["spans"]) for i, w in enumerate(workers)
                ]:
                    for idx, (parent, name, layer, start, end, request, _) in enumerate(spans):
                        fh.write(json.dumps({
                            "proc": proc, "id": idx, "parent": parent, "name": name,
                            "layer": layer, "start_ns": start, "end_ns": end,
                            "request": request,
                        }) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
