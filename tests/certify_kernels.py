"""Certify the exact kernels under ``classify.invariants()`` against their oracles.

Run from the root of a checkout:

    python3 tests/certify_kernels.py

It compares, and prints the number of cases and of mismatches for each:

- ``symbols.sqrt_mod`` with ``tonelli_shanks`` (the same root, or the same ValueError
  message) on every ``a mod p`` for every prime ``p < 3000``, and on seeded random
  primes below ``2^61``;
- ``quadratic._principal_cycle`` with ``signed_principal_cycle`` on ``m = r, 2r`` for
  every pair with ``p2 <= 1500`` and for the pairs of the benchmark's large pool;
- ``unitindex.unit_index_q`` with the square test alone, ``exact_square_root`` of
  ``unit_product``, on the same pairs.

The exit code is 1 when any case mismatches.  The pool is read from
``perfbench/data/large_pool.json``, which is only read.  pytest does not collect this
file.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from class_group_oracle import signed_principal_cycle, tonelli_shanks  # noqa: E402
from classtower.quadratic import _principal_cycle, fundamental_unit  # noqa: E402
from classtower.symbols import is_prime, primes_5_mod_8, sqrt_mod, validate_pair  # noqa: E402
from classtower.unitindex import exact_square_root, unit_index_q, unit_product  # noqa: E402


def _outcome(f, a: int, p: int):
    try:
        return f(a, p)
    except ValueError as exc:
        return str(exc)


def sqrt_cases():
    for p in range(3000):
        if is_prime(p):
            for a in range(p):
                yield a, p
    rng = random.Random(2**61 - 1)
    primes = []
    while len(primes) < 200:
        p = rng.randrange(3, 2**61) | 1 if len(primes) % 2 else rng.randrange(1, 2**20) << 40 | 1
        if is_prime(p):
            primes.append(p)
    for p in primes:
        for a in [rng.randrange(p) for _ in range(100)] + [0, 1, 2, p - 1]:
            yield a, p


def pairs() -> dict[str, list]:
    ps = primes_5_mod_8(1500)
    small = [validate_pair(p1, p2) for i, p1 in enumerate(ps) for p2 in ps[i + 1:]]
    with open(ROOT / "perfbench" / "data" / "large_pool.json", encoding="utf-8") as fh:
        pool = [validate_pair(row["p1"], row["p2"]) for row in json.load(fh)]
    return {"p2 <= 1500": small, "large pool": pool}


def full_q(pair) -> int:
    """q as it was decided before the unit-norm shortcuts: N(eps_r) = +1, else the square test."""
    if fundamental_unit(pair.r).norm == 1:
        return 1
    return 2 if exact_square_root(unit_product(pair)) is not None else 1


def report(name: str, cases: int, mismatches: list) -> bool:
    print(f"{name}: {cases} cases, {len(mismatches)} mismatches"
          + (f", first {mismatches[:5]}" if mismatches else ""), flush=True)
    return not mismatches


def main() -> int:
    ok = True
    cases = list(sqrt_cases())
    bad = [(a, p) for a, p in cases if _outcome(sqrt_mod, a, p) != _outcome(tonelli_shanks, a, p)]
    ok &= report("sqrt_mod vs tonelli_shanks", len(cases), bad)
    for label, group in pairs().items():
        ms = [m for pair in group for m in (pair.r, 2 * pair.r)]
        bad = [m for m in ms if _principal_cycle(m) != signed_principal_cycle(m)]
        ok &= report(f"walk vs signed walk, m = r, 2r, {label}", len(ms), bad)
        bad = [(pair.p1, pair.p2) for pair in group if unit_index_q(pair) != full_q(pair)]
        ok &= report(f"unit_index_q vs the square test, {label}", len(group), bad)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
