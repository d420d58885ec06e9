"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS line (visible with -s or -rP) naming the
criterion, the scope it covered and the elapsed time.  Criteria 4-6 share one
classification sweep over all valid pairs up to 500.
"""

import time
from itertools import product

import group_oracle as oracle
import pytest
from group_oracle import ElementSubgroup, generators, power

from classtower.abelian import AbelianType
from classtower.classify import (
    Profile,
    admissible,
    classify_pair,
    invariants,
    norm_groups,
)
from classtower.fixtures import verify_fixtures
from classtower.gengroup import (
    GPresentation,
    PsiVariant,
    Subgroup,
    class_to_group,
    lower_central_series,
    transfer_kernel,
)
from classtower.quadratic import field_discriminant, norm_eps, two_part_of_class_group
from classtower.symbols import jacobi, primes_5_mod_8, quartic_symbol, validate_pair
from classtower.unitindex import exact_square_root, unit_product

MASTER_LIMIT = 500
Q_EQUIV_LIMIT = 300


def _pairs(limit):
    ps = primes_5_mod_8(limit)
    return [validate_pair(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]


@pytest.fixture(scope="module")
def sweep():
    """classify_pair over every valid pair up to MASTER_LIMIT, timed."""
    t0 = time.perf_counter()
    out = {}
    for pair in _pairs(MASTER_LIMIT):
        out[(pair.p1, pair.p2)] = classify_pair(pair.p1, pair.p2)
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_base_field_table():
    """Table 4: symbols, exponents, q, disc, subfield 2-types, coclass; exact."""
    t0 = time.perf_counter()
    results = verify_fixtures(table="4")
    elapsed = time.perf_counter() - t0
    assert len(results) == 8
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.d, r.failures()) for r in bad]
    assert elapsed < 10.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS (8/8 base-field rows exact, {elapsed:.2f}s)")


def test_criterion_2_extension_tables():
    """Tables 5, 6, 7, 8, 34, 35: 2-parts of all printed class groups; exact."""
    t0 = time.perf_counter()
    total = 0
    for table in ("5", "6", "7", "8", "34", "35"):
        results = verify_fixtures(table=table)
        total += len(results)
        bad = [r for r in results if not r.passed]
        assert not bad, (table, [(r.d, r.failures()) for r in bad])
    elapsed = time.perf_counter() - t0
    assert total == 40
    assert elapsed < 30.0, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 2: PASS ({total}/40 extension rows exact on 2-parts, {elapsed:.2f}s)")


def _admissible_presentations(max_m, max_n):
    out = []
    for m in range(3, max_m + 1):
        out.append(GPresentation(m, 1, 1, PsiVariant.TAU_SIGMA))
        out.append(GPresentation(m, 1, 1, PsiVariant.SIGMA_ONLY))
    for n in range(2, max_n + 1):
        out.append(GPresentation(2, n, 1, PsiVariant.TAU_SIGMA))
        out.append(GPresentation(2, n, 1, PsiVariant.SIGMA_ONLY))
    for n in range(1, max_n + 1):
        out.append(GPresentation(2, n, 2, PsiVariant.TAU_SIGMA))
    return out


def test_admissible_presentations_match_the_predicate():
    # the list above states the exponent patterns independently of classify.admissible
    listed = [(p.m, p.n, p.q, p.psi) for p in _admissible_presentations(5, 5)]
    from_predicate = {(m, n, q, psi)
                      for legendre, pi, b, q, psi in product((1, -1), (1, -1), (1, -1), (1, 2),
                                                              PsiVariant)
                      for m in range(2, 6) for n in range(1, 6)
                      if admissible(Profile(legendre, pi, b, q, m, n, psi))}
    assert len(listed) == len(set(listed)) and set(listed) == from_predicate


def test_criterion_3_engine_vs_structure_theorems():
    """Derived subgroup, lower central series, coclass, class; m, n <= 5; exact."""
    t0 = time.perf_counter()
    count = 0
    for pres in _admissible_presentations(5, 5):
        derived = Subgroup.whole_group(pres).derived_subgroup()
        squares = [pres.word("ss"), pres.word("tt")]
        assert derived == Subgroup.generated(pres, squares), pres
        series = lower_central_series(pres)
        for j in range(1, len(series)):
            gamma = Subgroup.generated(
                pres,
                [power(pres, pres.sigma(), 1 << j), power(pres, pres.tau(), 1 << j)],
            )
            assert series[j] == gamma, (pres, j)
        if pres.m <= 4 and pres.n <= 4:  # the element oracle agrees
            assert ElementSubgroup.of(derived).elements == ElementSubgroup.generated(pres, squares).elements
            assert [ElementSubgroup.of(s).elements for s in series] == [
                s.elements for s in oracle.lower_central_series(pres)
            ], pres
        c = len(series) - 1
        expected_c = (
            max(pres.n, pres.m - 1) + 1 if pres.q == 1 else max(pres.n + 1, pres.m) + 1
        )
        assert c == expected_c, pres
        assert pres.order.bit_length() - 1 - c == 3, pres
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS ({count} presentations, {elapsed:.2f}s)")


def test_criterion_4_master_property(sweep):
    """Every pair <= 500: engine types and kernels equal predictions; Taussky A."""
    results, sweep_time = sweep
    t0 = time.perf_counter()
    assert len(results) == len(_pairs(MASTER_LIMIT))
    for key, (record, report, validation) in results.items():
        assert validation.passed, (key, [c.name for c in validation.failures()])
    # kernel sizes read off the engine itself, once per distinct symbol profile
    profiles = {record.profile() for record, _, _ in results.values()}
    for profile in profiles:
        pres = GPresentation(profile[4], profile[5], profile[3], profile[6])
        derived = Subgroup.whole_group(pres).derived_subgroup()
        norms = norm_groups(profile)
        for j in range(1, 8):
            gens = [class_to_group(pres, v) for v in norms[j]] + list(generators(derived))
            Gj = Subgroup.generated(pres, gens)
            size = len(transfer_kernel(pres, Gj))
            assert size == (4 if (j != 3 or profile[3] == 1) else 2), (profile, j)
    elapsed = time.perf_counter() - t0 + sweep_time
    assert elapsed < 300.0, f"criterion 4 exceeded budget: {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 4: PASS ({len(results)} pairs, {len(profiles)} profiles, "
        f"{elapsed:.2f}s incl. sweep)"
    )


def test_criterion_5_symbol_identities(sweep):
    """Quartic product identity (<=500) and the q-equivalence (<=300); exact."""
    results, _ = sweep
    t0 = time.perf_counter()
    n_quartic = n_equiv = 0
    for (p1, p2), (record, _, _) in results.items():
        if record.legendre == 1:
            prod = quartic_symbol(p1, p2) * quartic_symbol(p2, p1)
            assert prod == record.pi, (p1, p2)
            n_quartic += 1
    for pair in _pairs(Q_EQUIV_LIMIT):
        if jacobi(pair.p1, pair.p2) != -1:
            continue
        record = results[(pair.p1, pair.p2)][0]
        q_exact = 2 if exact_square_root(unit_product(pair)) is not None else 1
        assert (record.pi == record.B) == (q_exact == 1), pair
        assert q_exact == record.q, pair
        n_equiv += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 exceeded budget: {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 5: PASS ({n_quartic} quartic identities, "
        f"{n_equiv} q-equivalences, {elapsed:.2f}s)"
    )


def test_dirichlet_and_scholz_clauses(sweep):
    """The sign of N(eps_r) from the symbols, on every pair with p2 <= 500: (p1/p2) = -1 gives
    -1 (Dirichlet); for (p1/p2) = +1, mixed quartic symbols give +1 and both -1 give -1 (Scholz,
    Math. Z. 39 (1934); Lemmermeyer, Reciprocity Laws, ch. 5).  Both +1 leave the sign open."""
    results, _ = sweep
    seen = {"dirichlet": 0, "mixed": 0, "both -1": 0}
    for (p1, p2), (record, _, _) in results.items():
        if record.legendre == -1:
            case, sign = "dirichlet", -1
        else:  # the quartic symbols need (p1/p2) = +1
            quartic = {quartic_symbol(p1, p2), quartic_symbol(p2, p1)}
            if quartic == {1}:
                continue
            case, sign = ("mixed", 1) if len(quartic) == 2 else ("both -1", -1)
        assert record.norm_eps_r == sign, (p1, p2, case)
        seen[case] += 1
    assert all(seen.values()), seen


def test_every_scanned_profile_is_admissible():
    """The profiles of the pairs that scan --max 1000 covers all satisfy classify.admissible."""
    profiles = {invariants(pair).profile() for pair in _pairs(1000)}
    assert len(profiles) == 45
    assert [p for p in profiles if not admissible(p)] == []


def test_criterion_6_oracle_sanity(sweep):
    """Genus (2,2) values, N(eps_d) = -1, 2-class shapes; every pair <= 500."""
    results, _ = sweep
    t0 = time.perf_counter()
    two_two = AbelianType((2, 2))
    for (p1, p2), (record, _, _) in results.items():
        pair = record.pair
        assert two_part_of_class_group(field_discriminant(pair.d)) == two_two
        assert two_part_of_class_group(field_discriminant(-pair.d)) == two_two
        assert norm_eps(pair.d) == -1
        minus = two_part_of_class_group(field_discriminant(-pair.r))
        assert minus.rank() == 2 and minus.divisors[0] == 2 and minus.divisors[1] >= 4
        plus = two_part_of_class_group(field_discriminant(pair.r))
        assert plus.is_cyclic() and plus.order() >= 2
        assert minus.order() == 1 << (record.m + 1)
        assert plus.order() == 1 << record.n
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 6: PASS ({len(results)} pairs of oracle checks, {elapsed:.2f}s)")


def test_criterion_7_property_floor(monkeypatch, tmp_path):
    """Criteria 3-6 style checks stand alone with the fixture corpus disabled."""
    t0 = time.perf_counter()
    monkeypatch.setenv("CLASSTOWER_FIXTURES", str(tmp_path / "absent.json"))
    from classtower import fixtures

    with pytest.raises(OSError):
        fixtures.load_fixtures()  # corpus is genuinely unavailable
    # a structural identity, a prediction-vs-engine run, a symbol identity and
    # an oracle shape, none of which may touch fixtures
    pres = GPresentation(2, 3, 2, PsiVariant.TAU_SIGMA)
    derived = Subgroup.whole_group(pres).derived_subgroup()
    squares = [pres.word("ss"), pres.word("tt")]
    assert derived == Subgroup.generated(pres, squares)
    assert ElementSubgroup.of(derived).elements == ElementSubgroup.generated(pres, squares).elements
    for p1, p2 in ((5, 13), (13, 29), (5, 461)):
        record, report, validation = classify_pair(p1, p2)
        assert validation.passed
        if record.legendre == 1:
            prod = quartic_symbol(p1, p2) * quartic_symbol(p2, p1)
            assert prod == record.pi
        pair = record.pair
        assert two_part_of_class_group(field_discriminant(pair.d)) == AbelianType((2, 2))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7: PASS (fixture-free floor checks, {elapsed:.2f}s)")
