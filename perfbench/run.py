"""classtower benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; classtower is imported from ``src/``.
Each pass is a fresh interpreter (worker.py) that calls ``classtower.cli.main``
in-process for every argument vector of the pass, so the program's caches
start empty as they do for a command-line user.  Passes repeat until ``S``
seconds have been measured.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.  Their
times are calibrated: scaled by a fixed interpreter loop timed next to them
(worker.calibrate), because the host's speed drifts more than the bounds
within minutes.  The uncalibrated values are printed above the result.
``--trace 1`` alternates an untraced and a traced pass on the same input and
reports per-layer metrics from the traced ones (tracer.py); spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every call's output is checked against the committed goldens (data/).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 only when every call was correct; 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from worker import calibrate  # noqa: E402

SETUP_PER_PASS = 3  # set-up samples are spread over the run, not taken in one burst
# Calibrated times are scaled to a machine on which worker.calibrate() takes
# this long; the value only fixes the scale (near its median on the 2-vCPU
# machine that measured baseline.json).
CALIBRATION_REF_S = 0.024
PASS_TIMEOUT_S = 50
STOP_STARTING_AFTER_S = 120  # with PASS_TIMEOUT_S, a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "classify_ms_p50": "ms",
    "classify_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats: int) -> list[list[float]]:
    """[seconds, calibration seconds] per fresh ``import classtower.cli``."""
    cmd = [sys.executable, "-c", "import classtower.cli"]
    env = _env()
    samples = []
    before = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    cal = (before + calibrate()) / 2
    return [[x, cal] for x in samples]


def run_pass(ops: list[list[str]], trace: bool = False, spans: Path | None = None,
             workers_dir: Path | None = None) -> dict:
    """One worker interpreter over ``ops``; a crashed worker fails every op."""
    job = {"ops": ops, "trace": trace, "spans": str(spans) if spans else None,
           "workers_dir": str(workers_dir) if workers_dir else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        reason = f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        reason = f"worker exceeded {PASS_TIMEOUT_S} s"
    except (ValueError, IndexError) as exc:
        reason = f"unreadable worker output: {exc}"
    print(f"pass failed: {reason}", file=sys.stderr)
    return {"ops": [{"argv": a, "error": reason} for a in ops], "wall_ms": None,
            "peak_rss_mb": None, "trace": None}


def check(workload, passes: list[dict]) -> tuple[int, list[str]]:
    """Number of failed calls and a description of each failure."""
    problems = []
    for res in passes:
        for op in res["ops"]:
            why = op.get("error")
            if why is None and op["rc"] != 0:
                why = f"exit code {op['rc']}"
            if why is None and not op["passed"]:
                why = "program reported a failed check"
            if why is None and op["sha256"] != workload.golden(op["argv"]):
                why = "output differs from the golden"
            if why is not None:
                problems.append(f"{' '.join(op['argv'])}: {why}")
    return len(problems), problems


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def min_samples(workload) -> int:
    """Calls needed so the tail percentile has at least 10 samples beyond it."""
    if workload.tail_pct is None:
        return 1
    return math.ceil(10 / (1 - workload.tail_pct / 100))


def end_to_end(workload, passes: list[dict], setup: list[list[float]],
               calibrated: bool = True) -> tuple[dict, list[str]]:
    """The end-to-end metrics; times in calibrated seconds unless ``calibrated`` is false.

    A calibrated time is the measured time times CALIBRATION_REF_S over the
    calibration loop's time next to it, i.e. the time on a machine where that
    loop takes CALIBRATION_REF_S.
    """

    def scale(cal_s: float) -> float:
        return CALIBRATION_REF_S / cal_s if calibrated else 1.0

    good = [p for p in passes if p["wall_ms"] is not None]
    rates, per_pair_ms, per_pass_ms = [], [], []
    for p in good:
        k = scale(statistics.median(p["calibration_s"]))
        pairs = sum(op["pairs"] for op in p["ops"])
        busy_ms = k * sum(op["ms"] for op in p["ops"] if op.get("ms") is not None)
        if pairs:
            rates.append(pairs / (busy_ms / 1e3))
            per_pair_ms.append(busy_ms / pairs)
        per_pass_ms.append([k * op["ms"] for op in p["ops"] if op.get("ms") is not None])
    if not rates:
        return {}, ["no pass completed"]
    latencies = [ms for pass_ms in per_pass_ms for ms in pass_ms]
    pct = workload.tail_pct
    if pct is None:
        # scan exposes no per-pair time untraced: per pass, scan time / pairs
        p50, tail = statistics.median(per_pair_ms), max(per_pair_ms)
        lat_note = f"scan ms/pair over {len(per_pair_ms)} passes, tail = max"
    elif workload.same_inputs_each_pass:
        # pooled, the percentile's rank would move between profiles as the
        # number of passes changes; per pass it stays at one rank
        p50 = statistics.median(statistics.median(ms) for ms in per_pass_ms if ms)
        tail = statistics.median(percentile(ms, pct) for ms in per_pass_ms if ms)
        lat_note = (f"{len(latencies)} calls; p50 and p{pct} per pass, median over "
                    f"{len(per_pass_ms)} passes")
    else:
        p50, tail = statistics.median(latencies), percentile(latencies, pct)
        lat_note = f"{len(latencies)} calls, tail = p{pct}"
    values = {
        "setup_s": statistics.median(x * scale(cal) for x, cal in setup),
        "pairs_per_s": statistics.median(rates),
        "classify_ms_p50": p50,
        "classify_ms_tail": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh imports",
        f"pairs_per_s: median of {len(rates)} passes",
        f"classify_ms: {lat_note}",
        f"peak_rss_mb: median of {len(good)} passes",
    ]
    return values, notes


def _sum_aggregates(aggs: list[dict]) -> dict:
    fn = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    layer = defaultdict(float)
    counts = defaultdict(float)
    spans = 0
    for a in aggs:
        for name, e in a["fn"].items():
            for k in ("calls", "ms", "self_ms"):
                fn[name][k] += e[k]
        for name, v in a["layer_self_ms"].items():
            layer[name] += v
        for name, v in a["counts"].items():
            counts[name] += v
        spans += a["spans"]
    return {"fn": fn, "layer": layer, "counts": counts, "spans": spans}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics, averaged per traced pass, and their units."""
    from tracer import LAYERS

    n = len(traced)
    agg = _sum_aggregates([t["trace"]["main"] for t in traced]
                          + [w for t in traced for w in t["trace"]["workers"]])
    fn, layer, counts = agg["fn"], agg["layer"], agg["counts"]
    pairs = sum(op["pairs"] for t in traced for op in t["ops"])

    def calls(name):
        return fn[name]["calls"] if name in fn else 0

    def ms(*names):
        return sum(fn[x]["ms"] for x in names if x in fn)

    def self_ms(name):
        return fn[name]["self_ms"] if name in fn else 0.0

    sqrt_calls = calls("unitindex.exact_square_root")
    xv_calls = calls("classify.cross_validate")
    built = counts.get("classify.engine.profiles_built", 0)
    m = {}
    unit = {}

    def put(name, value, u, per_pass=True):
        m[name] = value / n if per_pass else value
        unit[name] = u

    put("quadratic.class_group.calls",
        calls("quadratic.class_group.neg") + calls("quadratic.class_group.pos"), "count")
    put("quadratic.class_group.misses", counts.get("quadratic.class_group.misses", 0), "count")
    put("quadratic.class_group.neg_ms", ms("quadratic.class_group.neg"), "ms")
    put("quadratic.class_group.pos_ms", ms("quadratic.class_group.pos"), "ms")
    put("quadratic.class_group.elements", counts.get("quadratic.class_group.elements", 0),
        "count")
    put("quadratic.class_group.counting_path",
        counts.get("quadratic.class_group.counting_path", 0), "count")
    put("quadratic.fundamental_unit.ms", ms("quadratic.fundamental_unit"), "ms")
    for caller in ("quadratic", "gengroup"):
        name = f"abelian.abelian_structure.{caller}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.ms", ms(name), "ms")
        put(f"{name}.elements", counts.get(f"{name}.elements", 0), "count")
    put("unitindex.unit_index_q.calls_per_pair",
        calls("unitindex.unit_index_q") / pairs if pairs else 0.0, "calls/pair", False)
    put("unitindex.unit_index_q.ms", ms("unitindex.unit_index_q"), "ms")
    put("unitindex.exact_square_root.calls", sqrt_calls, "count")
    put("unitindex.exact_square_root.ms", ms("unitindex.exact_square_root"), "ms")
    put("unitindex.square_found",
        counts.get("unitindex.square_found", 0) / sqrt_calls if sqrt_calls else 0.0,
        "ratio", False)
    put("gengroup.transfer_kernel.calls", calls("gengroup.transfer_kernel"), "count")
    put("gengroup.transfer_kernel.ms", ms("gengroup.transfer_kernel"), "ms")
    put("gengroup.Subgroup.generated.ms", ms("gengroup.Subgroup.generated"), "ms")
    put("gengroup.abelianization.ms", ms("gengroup.abelianization"), "ms")
    put("gengroup.lower_central_series.ms", ms("gengroup.lower_central_series"), "ms")
    put("gengroup.elements", counts.get("gengroup.elements", 0), "count")
    put("classify.engine.profiles_built", built, "count")
    put("classify.engine.hit_ratio", 1 - built / xv_calls if xv_calls else 0.0, "ratio", False)
    put("classify.invariants.self_ms", self_ms("classify.invariants"), "ms")
    put("classify.predict.ms", ms("classify.predict"), "ms")
    put("classify.norm_groups_from_symbols.ms", ms("classify.norm_groups_from_symbols"), "ms")
    put("classify.cross_validate.self_ms", self_ms("classify.cross_validate"), "ms")
    put("gaussian.ms", ms("gaussian.split_prime", "gaussian.symbol_pi", "gaussian.symbol_B"),
        "ms")
    put("symbols.ms", ms("symbols.validate_pair", "symbols.quartic_symbol"), "ms")
    put("cli.command.ms", ms("cli.command"), "ms")
    put("cli.dumps.ms", ms("cli.dumps"), "ms")
    for name in LAYERS:
        put(f"{name}.self_ms", layer.get(name, 0.0), "ms")
    traced_wall = sum(t["wall_ms"] for t in traced)
    untraced_wall = sum(u["wall_ms"] for u in untraced)
    put("trace.wall_ms", traced_wall, "ms")
    put("trace.untraced_wall_ms", untraced_wall, "ms")
    put("trace.overhead_ms", traced_wall - untraced_wall, "ms")
    put("trace.unattributed_ms", sum(t["trace"]["unattributed_ms"] for t in traced), "ms")
    put("trace.spans", agg["spans"], "count")
    return m, unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "classtower" / "cli.py").is_file():
        print(f"no classtower source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    try:
        workload = workloads.make(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    inputs = workload.passes(args.seed)
    need = min_samples(workload)
    setup: list[float] = []
    if not args.trace:
        # the first import also writes the bytecode cache; it is not a sample
        subprocess.run([sys.executable, "-c", "import classtower.cli"], env=_env(), cwd=ROOT,
                       check=True)

    untraced, traced = [], []
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    workers_dir = OUT / f"workers-{os.getpid()}"
    if args.trace:
        spans_path.unlink(missing_ok=True)
        workers_dir.mkdir(exist_ok=True)
    t0 = time.monotonic()
    try:
        while True:
            ops = next(inputs)
            untraced.append(run_pass(ops))
            if args.trace:
                traced.append(run_pass(ops, True, spans_path, workers_dir))
            else:
                setup.extend(measure_setup(SETUP_PER_PASS))
            elapsed = time.monotonic() - t0
            calls = sum(len(p["ops"]) for p in untraced)
            if elapsed >= STOP_STARTING_AFTER_S:
                break
            if elapsed >= args.seconds and (args.trace or calls >= need):
                break
    finally:
        shutil.rmtree(workers_dir, ignore_errors=True)

    passes = untraced + traced
    raw = OUT / f"passes-{args.workload}-{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"setup_s": setup, "passes": passes}), encoding="utf-8")
    attempted = sum(len(p["ops"]) for p in passes)
    failed, problems = check(workload, passes)
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} passes, "
          f"{attempted} calls, error_rate = {failed / attempted:.4f} ({failed}/{attempted})")

    if args.trace:
        ok_traced = [t for t in traced if t["trace"] is not None]
        ok_untraced = [u for u, t in zip(untraced, traced)
                       if t["trace"] is not None and u["wall_ms"] is not None]
        if not ok_traced or len(ok_untraced) != len(ok_traced):
            values, units = {}, {}
        else:
            values, units = per_layer(ok_traced, ok_untraced)
            absent = sorted({a for t in ok_traced for a in t["trace"]["absent"]})
            print(f"spans: {spans_path.relative_to(ROOT)}; absent: {', '.join(absent) or 'none'}")
            print(f"per-layer values are per traced pass, over {len(ok_traced)} passes")
    else:
        values, notes = end_to_end(workload, untraced, setup)
        units = END_TO_END
        for line in notes:
            print(line)
        raw, _ = end_to_end(workload, untraced, setup, calibrated=False)
        cal = [c for p in untraced if p["wall_ms"] is not None for c in p["calibration_s"]]
        if cal:
            print(f"calibration loop: median {statistics.median(cal) * 1e3:.2f} ms over "
                  f"{len(cal)} samples (reference {CALIBRATION_REF_S * 1e3:.0f} ms)")
        for name, value in raw.items():
            print(f"uncalibrated {name:<35} {value:14.4f} {units[name]}")
    for name, value in values.items():
        print(f"{name:<48} {value:14.4f} {units[name]}")
    correct = failed == 0 and bool(values)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
