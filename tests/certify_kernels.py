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
  ``unit_product``, on the same pairs;
- the 2-Sylow descent of ``quadratic.class_group`` with the old kernels on ``D`` of
  ``-r, r, -2r, 2r`` for the same pairs (``descent_report``): every level of Lagrange's
  descent (``_legendre`` with ``recursive_legendre``), every square root of a form
  (``_square_root`` with ``search_square_root``), every genus vector (``_genus_vector``
  with ``jacobi_genus_vector`` and ``odd_part_two_character``), every ``(exponents,
  height)`` of ``_narrow_exponents`` and every 2-part, the last two recomputed with
  the old kernels in place of the new, and, by class, every composition (``compose``
  with ``united_forms_compose``, the copy from before the closed formula);
- ``gengroup.engine_table`` with ``group_oracle.planless_engine_table``, the table as it
  was built before the subgroup plan, on every presentation ``GPresentation`` accepts
  (order at most ``2^MAX_ORDER_BITS``), and ``classify._engine_checks`` with
  ``planless_engine_checks`` on every symbol profile of the pairs with ``p2 <= 1500``
  and on the benchmark's deep profiles, from cold caches.

The exit code is 1 when any case mismatches.  The pool and the deep profiles are read
from ``perfbench/data/large_pool.json`` and ``deep_profiles.json``, which are only read.
pytest does not collect this file.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import class_group_oracle as oracle  # noqa: E402
from class_group_oracle import signed_principal_cycle, tonelli_shanks  # noqa: E402
from group_oracle import planless_engine_checks, planless_engine_table  # noqa: E402
from classtower import classify, gengroup, quadratic  # noqa: E402
from classtower.gengroup import MAX_ORDER_BITS, GPresentation, PresentationError, PsiVariant  # noqa: E402
from classtower.quadratic import _principal_cycle, field_discriminant, fundamental_unit  # noqa: E402
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


def _recorded(module, names: list[str], calls: dict):
    """Wrap ``module``'s functions ``names`` to append (arguments, a copy of the result) to
    ``calls[name]``; returns a function that puts the originals back.  The copy keeps what
    was returned: class_group edits the exponent list of _narrow_exponents afterwards."""
    originals = {name: getattr(module, name) for name in names}

    def recorder(name):
        def wrapped(*args):
            result = originals[name](*args)
            calls.setdefault(name, []).append((args, copy.deepcopy(result)))
            return result
        return wrapped

    for name in names:
        setattr(module, name, recorder(name))
    return lambda: [setattr(module, name, f) for name, f in originals.items()]


def _old_genus_vector(f, primes, two):
    """The old genus vector of f, from the D that f has: the new one reads no D."""
    D = oracle.disc(f)
    return oracle.jacobi_genus_vector(f, D, primes, oracle.odd_part_two_character(D, primes))


COMPOSITIONS = "compositions vs the united-forms copy"


def descent_report(pairs) -> dict[str, tuple[int, list]]:
    """{kernel: (cases, mismatches)} of the 2-Sylow descent against the old kernels on the
    discriminants of -r, r, -2r, 2r, each class group computed from a cold cache."""
    discs = sorted({field_discriminant(s * k * pair.r) for pair in pairs
                    for s in (-1, 1) for k in (1, 2)})
    calls: dict[str, list] = {}
    restore = _recorded(quadratic, ["_legendre", "_square_root", "_genus_vector",
                                    "_narrow_exponents", "compose"], calls)
    quadratic.class_group.cache_clear()
    try:
        new = {D: quadratic.class_group(D).two_part for D in discs}
    finally:
        restore()
        quadratic.class_group.cache_clear()
    levels: dict[str, list] = {}
    restore = _recorded(oracle, ["recursive_legendre"], levels)
    try:  # the old recursion calls itself through the module, so every level is recorded
        for args, _ in calls["_legendre"]:
            oracle.recursive_legendre(*args)
    finally:
        restore()
    old_kernels = {"_square_root": oracle.search_square_root, "_genus_vector": _old_genus_vector}
    saved = {name: getattr(quadratic, name) for name in old_kernels}
    for name, f in old_kernels.items():
        setattr(quadratic, name, f)
    try:
        bad_exponents = [args[0] for args, result in calls["_narrow_exponents"]
                         if quadratic._narrow_exponents(*args) != result]
        bad_two_parts = [D for D in discs if quadratic.class_group(D).two_part != new[D]]
    finally:
        for name, f in saved.items():
            setattr(quadratic, name, f)
        quadratic.class_group.cache_clear()
    level_calls = levels["recursive_legendre"]
    return {
        "conic points, every level of the descent": (len(level_calls), [
            args for args, result in level_calls if quadratic._legendre(*args) != result]),
        "square roots of forms": (len(calls["_square_root"]), [
            args for args, result in calls["_square_root"]
            if oracle.search_square_root(*args) != result]),
        "genus vectors": (len(calls["_genus_vector"]), [
            args for args, result in calls["_genus_vector"]
            if _old_genus_vector(*args) != result]),
        "(exponents, height)": (len(calls["_narrow_exponents"]), bad_exponents),
        "2-parts": (len(discs), bad_two_parts),
        COMPOSITIONS: (len(calls["compose"]), [
            args for args, result in calls["compose"]
            if not oracle.same_class(oracle.united_forms_compose(*args), result)]),
    }


def accepted_presentations() -> list[GPresentation]:
    """Every (m, n, q, psi) that GPresentation accepts: m >= 2, n >= 1, order <= 2^MAX_ORDER_BITS."""
    out = []
    for m in range(2, MAX_ORDER_BITS + 1):
        for n in range(1, MAX_ORDER_BITS + 1):
            for q in (1, 2):
                for psi in PsiVariant:
                    try:
                        out.append(GPresentation(m, n, q, psi))
                    except PresentationError:
                        pass
    return out


def engine_report(pairs) -> dict[str, tuple[int, list]]:
    """{what: (cases, mismatches)} of the engine tables and the per-profile checks against the
    planless copies, the checks on the profiles of pairs and on the deep profiles: the new
    ones from cold caches, the old ones on the planless tables with every type built anew."""
    presentations = accepted_presentations()
    gengroup.engine_table.cache_clear()
    bad_tables = [tuple(pres) for pres in presentations
                  if (table := gengroup.engine_table(pres)) != (old := planless_engine_table(pres))
                  or list(table.over) != list(old.over)]
    with open(ROOT / "perfbench" / "data" / "deep_profiles.json", encoding="utf-8") as fh:
        deep = {classify.Profile(*e["profile"][:6], PsiVariant(e["profile"][6])) for e in json.load(fh)}
    out = {"engine_table, every accepted presentation": (len(presentations), bad_tables)}
    for label, profiles in (("the profiles of the pairs with p2 <= 1500",
                             {classify.invariants(pair).profile() for pair in pairs}),
                            ("the benchmark's deep profiles", deep)):
        for cached in (classify._engine_checks, classify._two_type, classify.predict,
                       gengroup.engine_table):
            cached.cache_clear()
        new = {profile: classify._engine_checks(profile) for profile in sorted(profiles, key=str)}
        # the old checks read the planless table, and predict builds every type anew
        saved = classify.engine_table, classify._two_type
        classify.engine_table = planless_engine_table
        classify._two_type = classify._two_type.__wrapped__
        classify.predict.cache_clear()
        try:
            bad = [profile for profile in new if planless_engine_checks(profile) != new[profile]]
        finally:
            classify.engine_table, classify._two_type = saved
            classify.predict.cache_clear()
        out[f"_engine_checks, {label}"] = (len(new), bad)
    return out


def report(name: str, cases: int, mismatches: list) -> bool:
    print(f"{name}: {cases} cases, {len(mismatches)} mismatches"
          + (f", first {mismatches[:5]}" if mismatches else ""), flush=True)
    return not mismatches


def main() -> int:
    ok = True
    cases = list(sqrt_cases())
    bad = [(a, p) for a, p in cases if _outcome(sqrt_mod, a, p) != _outcome(tonelli_shanks, a, p)]
    ok &= report("sqrt_mod vs tonelli_shanks", len(cases), bad)
    groups = pairs()
    for name, (n_cases, bad) in engine_report(groups["p2 <= 1500"]).items():
        ok &= report(f"{name} vs the planless copy", n_cases, bad)
    for label, group in groups.items():
        ms = [m for pair in group for m in (pair.r, 2 * pair.r)]
        bad = [m for m in ms if _principal_cycle(m) != signed_principal_cycle(m)]
        ok &= report(f"walk vs signed walk, m = r, 2r, {label}", len(ms), bad)
        bad = [(pair.p1, pair.p2) for pair in group if unit_index_q(pair) != full_q(pair)]
        ok &= report(f"unit_index_q vs the square test, {label}", len(group), bad)
        for name, (n_cases, bad) in descent_report(group).items():
            name = name if name == COMPOSITIONS else f"descent vs the old kernels: {name}"
            ok &= report(f"{name}, D of -r, r, -2r, 2r, {label}", n_cases, bad)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
