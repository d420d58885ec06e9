"""Workload inputs for the classtower benchmark.

Every workload turns the run's ``--seed`` into a sequence of passes.  A pass is
the list of CLI argument vectors that one fresh interpreter executes, one after
the other (closed loop, one caller).  The program only ever sees these argument
vectors.  Nothing here is timed: the committed data files below already hold
the expensive enumerations, and the sampling is a few list operations.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# sweep and sweep-jobs2: every pair p1 < p2 <= SWEEP_MAX, one scan per pass.
SWEEP_MAX = 250
SWEEP_GOLDEN = DATA / f"scan-{SWEEP_MAX}.json"

# classify-large: pairs with LARGE_MIN <= p1*p2 <= LARGE_MAX.  The pool is a
# fixed seeded sample of that range, committed with golden digests; each pass
# draws one pair from each of LARGE_PER_PASS cost strata of the pool, so every
# pass carries about the same amount of work whatever the seed.
LARGE_MIN = 10**6
LARGE_MAX = 4 * 10**6
LARGE_POOL_SEED = 2015
LARGE_POOL_SIZE = 240
LARGE_PER_PASS = 10
LARGE_POOL = DATA / "large_pool.json"

# classify-deep: one realizing pair for each distinct symbol profile
# (legendre, pi, B, q, m, n, psi) with p1*p2 <= DEEP_MAX.  Up to
# DEEP_CHOICES pairs are kept per profile; each pass picks one of them.
DEEP_MAX = 6 * 10**4
DEEP_CHOICES = 5
DEEP_PROFILES = DATA / "deep_profiles.json"


def large_pairs_in_range() -> list[tuple[int, int]]:
    """All pairs p1 < p2 of primes = 5 (mod 8) with LARGE_MIN <= p1*p2 <= LARGE_MAX."""
    from classtower.symbols import primes_5_mod_8

    ps = primes_5_mod_8(LARGE_MAX // 5)
    out = []
    for i, a in enumerate(ps):
        if a * a > LARGE_MAX:
            break
        out.extend((a, b) for b in ps[i + 1 :] if LARGE_MIN <= a * b <= LARGE_MAX)
    return out


def sample_large_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """A seeded sample of distinct pairs, uniform over the classify-large range."""
    return sorted(random.Random(seed).sample(large_pairs_in_range(), count))


def classify_argv(p1: int, p2: int) -> list[str]:
    return ["classify", "--p1", str(p1), "--p2", str(p2), "--json"]


def scan_argv(jobs: int) -> list[str]:
    return ["scan", "--max", str(SWEEP_MAX), "--jobs", str(jobs), "--json"]


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Seeded pass generator plus the golden check for one workload."""

    name: str
    tail_pct: int | None = None  # fixed tail percentile of classify latency
    # True when every pass covers the same set of inputs; latency percentiles
    # are then taken per pass and the run reports their median over passes
    same_inputs_each_pass = False

    def passes(self, seed: int):
        raise NotImplementedError

    def golden(self, argv: list[str]) -> str:
        """sha256 of the canonical stdout expected for argv."""
        raise NotImplementedError


class Sweep(Workload):
    def __init__(self, name: str, jobs: int):
        self.name = name
        self.jobs = jobs
        self._digest = hashlib.sha256(SWEEP_GOLDEN.read_bytes()).hexdigest()

    def passes(self, seed: int):
        # The scan covers a fixed range; the seed has nothing to vary.
        while True:
            yield [scan_argv(self.jobs)]

    def golden(self, argv):
        return self._digest


class ClassifyLarge(Workload):
    name = "classify-large"
    tail_pct = 75

    def __init__(self):
        pool = load_json(LARGE_POOL)
        self._digest = {(e["p1"], e["p2"]): e["sha256"] for e in pool}
        ranked = sorted(pool, key=lambda e: (e["cost_ms"], e["p1"], e["p2"]))
        k = LARGE_PER_PASS
        self._strata = [
            [(e["p1"], e["p2"]) for e in ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k]]
            for i in range(k)
        ]

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            picked = [rng.choice(stratum) for stratum in self._strata]
            rng.shuffle(picked)
            yield [classify_argv(p1, p2) for p1, p2 in picked]

    def golden(self, argv):
        return self._digest[(int(argv[2]), int(argv[4]))]


class ClassifyDeep(Workload):
    name = "classify-deep"
    tail_pct = 90
    same_inputs_each_pass = True  # every pass visits all 38 profiles

    def __init__(self):
        profiles = load_json(DEEP_PROFILES)
        self._choices = [[(e["p1"], e["p2"]) for e in p["pairs"]] for p in profiles]
        self._digest = {(e["p1"], e["p2"]): e["sha256"] for p in profiles for e in p["pairs"]}

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            picked = [rng.choice(choices) for choices in self._choices]
            rng.shuffle(picked)
            yield [classify_argv(p1, p2) for p1, p2 in picked]

    def golden(self, argv):
        return self._digest[(int(argv[2]), int(argv[4]))]


def make(name: str) -> Workload:
    if name == "sweep":
        return Sweep("sweep", 1)
    if name == "sweep-jobs2":
        return Sweep("sweep-jobs2", 2)
    if name == "classify-large":
        return ClassifyLarge()
    if name == "classify-deep":
        return ClassifyDeep()
    raise KeyError(name)


NAMES = ("sweep", "classify-large", "classify-deep", "sweep-jobs2")
