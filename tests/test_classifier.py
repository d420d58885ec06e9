import json
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from classtower import classify, gaussian
from classtower.abelian import AbelianType
from classtower.classify import (
    ConsistencyError,
    Profile,
    _engine_checks,
    admissible,
    classify_pair,
    cross_validate,
    engine_abelianizations,
    exponents_coupled,
    invariants,
    kernels,
    norm_groups,
    norm_groups_from_symbols,
    predict,
    presentation_class,
    q_matches_pi_b,
    subgroup_span,
)
from classtower.gaussian import split_prime
from classtower.gengroup import CLASS_VECTORS, PresentationError, PsiVariant, span
from classtower.symbols import primes_5_mod_8, validate_pair


def pairs_upto(limit):
    ps = primes_5_mod_8(limit)
    return [validate_pair(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]


def test_invariants_fixture_rows():
    rec = invariants(validate_pair(5, 13))
    assert (rec.legendre, rec.m, rec.n, rec.q, rec.pi) == (-1, 2, 1, 2, -1)
    assert rec.disc == 1081600
    rec = invariants(validate_pair(5, 37))
    assert (rec.legendre, rec.m, rec.n, rec.q, rec.pi) == (-1, 3, 1, 1, -1)
    rec = invariants(validate_pair(5, 29))
    assert (rec.legendre, rec.m, rec.n, rec.q) == (1, 2, 2, 1)
    assert rec.psi is PsiVariant.TAU_SIGMA  # N(eps_145) = -1
    rec = invariants(validate_pair(13, 29))
    assert rec.psi is PsiVariant.SIGMA_ONLY  # N(eps_377) = +1


def test_norm_groups_table_entries():
    rec29 = invariants(validate_pair(5, 29))  # legendre = +1
    norms = norm_groups(rec29)
    assert norms[3] == subgroup_span(("H0", "H1H2"))
    assert norms[1] == subgroup_span(("H0H1", "H0H2"))
    # K4 entry for legendre = +1, pi = -1, B = +1 (pair 5, 109 hits it)
    rec = invariants(validate_pair(5, 109))
    assert (rec.pi, rec.B) == (-1, 1)
    assert norm_groups(rec)[4] == subgroup_span(("H0", "H2"))


def test_norm_groups_match_first_principles():
    for pair in pairs_upto(300):
        rec = invariants(pair)
        assert norm_groups(rec) == norm_groups_from_symbols(rec), pair


def _norm_groups_from_21_symbols(record):
    """norm_groups_from_symbols as it was: each symbol of a radicand representation evaluated
    whole, 21 Gaussian symbols per pair."""
    from functools import reduce

    from classtower.gaussian import ONE_PLUS_I, GaussianInt, gauss_symbol

    s1, s2 = record.splits
    moduli = {"pi1": s1, "pi2": s1.conjugate_choice(), "pi3": s2, "pi4": s2.conjugate_choice()}
    gauss = {"2": GaussianInt(2, 0), **{f: s.pi for f, s in moduli.items()}}

    def mul(x, y):  # the product in Z[i]
        return GaussianInt(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)

    out = {}
    for j in range(1, 8):
        reps = classify._RADICAND_FACTORS[j]
        chi = {"H0": 1}
        for f in next(rep for rep in reps if "2" not in rep):
            chi["H0"] *= gauss_symbol(ONE_PLUS_I, moduli[f])
        for name, avoid in (("H1", "pi1"), ("H2", "pi2")):
            rep = next(rep for rep in reps if avoid not in rep)
            alpha = reduce(mul, (gauss[f] for f in rep))
            chi[name] = gauss_symbol(alpha, moduli[avoid])
        signs = (chi["H0"], chi["H1"], chi["H2"])
        out[j] = frozenset(v for v in classify.CLASS_VECTORS
                           if signs[0] ** v[0] * signs[1] ** v[1] * signs[2] ** v[2] == 1)
    return out


def _norm_groups_from_12_symbols(record):
    """norm_groups_from_symbols before its plane table: the 12 basic symbols multiplied per
    K_j, each plane rebuilt from its sign triple."""
    from math import prod

    from classtower.gaussian import ONE_PLUS_I, GaussianInt, gauss_symbol

    s1, s2 = record.splits
    moduli = {"pi1": s1, "pi2": s1.conjugate_choice(), "pi3": s2, "pi4": s2.conjugate_choice()}
    gauss = {"2": GaussianInt(2, 0), **{f: s.pi for f, s in moduli.items()}}
    one_plus_i = {f: gauss_symbol(ONE_PLUS_I, s) for f, s in moduli.items()}
    residues = {avoid: {f: gauss_symbol(alpha, moduli[avoid])
                        for f, alpha in gauss.items() if f != avoid} for avoid in ("pi1", "pi2")}
    out = {}
    for j in range(1, 8):
        reps = classify._RADICAND_FACTORS[j]
        odd_rep = next(rep for rep in reps if "2" not in rep)
        signs = (prod(one_plus_i[f] for f in odd_rep),
                 *(prod(residues[avoid][f] for f in next(rep for rep in reps if avoid not in rep))
                   for avoid in ("pi1", "pi2")))
        if signs == (1, 1, 1):
            raise ConsistencyError(f"norm group of K{j} came out with index 1")
        out[j] = frozenset(v for v in CLASS_VECTORS
                           if signs[0] ** v[0] * signs[1] ** v[1] * signs[2] ** v[2] == 1)
    return out


def _benchmark_pairs(name):
    """The (p1, p2) of the benchmark's input file perfbench/data/<name>.json."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"{name}.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    if name == "deep_profiles":
        rows = [row for entry in rows for row in entry["pairs"]]
    return [validate_pair(row["p1"], row["p2"]) for row in rows]


def test_plane_table_matches_the_twelve_symbol_path():
    # the sign triples read through _PLANES against the planes rebuilt per pair: every pair
    # up to 1000, the 240 pool pairs and the 161 deep pairs, with every choice of conjugates
    pairs = pairs_upto(1000) + _benchmark_pairs("large_pool") + _benchmark_pairs("deep_profiles")
    assert len(pairs) == 903 + 240 + 161
    for pair in pairs:
        s1, s2 = split_prime(pair.p1), split_prime(pair.p2)
        for splits in product((s1, s1.conjugate_choice()), (s2, s2.conjugate_choice())):
            record = SimpleNamespace(splits=splits)
            assert norm_groups_from_symbols(record) == _norm_groups_from_12_symbols(record), pair


def test_sign_triples_map_one_to_one_onto_the_planes():
    # the 7 sign triples other than (1, 1, 1) and the 7 planes (index-2 subspaces) of F_2^3
    triples = set(product((1, -1), repeat=3)) - {(1, 1, 1)}
    planes = {plane for plane in map(span, product(CLASS_VECTORS, repeat=2)) if len(plane) == 4}
    assert set(classify._PLANES) == triples and len(planes) == 7
    assert set(classify._PLANES.values()) == planes
    for signs, plane in classify._PLANES.items():
        assert plane == {v for v in CLASS_VECTORS
                         if signs[0] ** v[0] * signs[1] ** v[1] * signs[2] ** v[2] == 1}


def test_twelve_basic_symbols_match_the_21_symbols():
    # the products of the 12 basic symbols against the 21 symbols evaluated whole, for every
    # pair up to 500 and every choice of the conjugates pi_1, pi_3
    for pair in pairs_upto(500):
        s1, s2 = split_prime(pair.p1), split_prime(pair.p2)
        for splits in product((s1, s1.conjugate_choice()), (s2, s2.conjugate_choice())):
            record = SimpleNamespace(splits=splits)
            assert norm_groups_from_symbols(record) == _norm_groups_from_21_symbols(record), pair


def test_predict_fixture_examples():
    rec, rep, _ = classify_pair(5, 13)
    assert rep.k_fields[4].cl2 == AbelianType((2, 4))
    assert rep.k_fields[4].kernel == subgroup_span(("H0", "H1"))
    assert rep.l_fields[6].cl2 == AbelianType((2, 8))
    assert rep.l_fields[7].cl2 == AbelianType((4, 4))
    rec, rep, _ = classify_pair(5, 37)
    assert rep.cl2_k3 == AbelianType((4, 8))  # (4, 2^m), m = 3
    assert rep.derived == AbelianType((2, 4))  # (2^(m-1), 2^n)


def test_kernel_sizes():
    for pair in pairs_upto(200):
        rec = invariants(pair)
        rep = predict(rec.profile())
        for j in range(1, 8):
            expected = 4 if (j != 3 or rec.q == 1) else 2
            assert len(rep.k_fields[j].kernel) == expected
            assert rep.k_fields[j].taussky_A
            assert len(rep.l_fields[j].kernel) == 8


def test_cross_validate_examples():
    for p1, p2 in [(5, 37), (5, 13), (13, 29)]:
        _, _, val = classify_pair(p1, p2)
        assert val.passed, (p1, p2, [c.name for c in val.failures()])
    # the q=2, pi=-1 case has G(L6) = <tau, sigma^2>; covered by the word check
    _, _, val = classify_pair(5, 13)
    assert any(c.name == "L6:subgroup-words" and c.ok for c in val.checks)


CONJ_K_MAP = {1: 1, 2: 2, 3: 3, 4: 5, 5: 4, 6: 7, 7: 6}
CONJ_L_MAP = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 7, 7: 6}


def _conjugate_split_of(monkeypatch, p2):
    """Make classify split p2 as the conjugate of its usual pi_3."""
    monkeypatch.setattr(classify, "split_prime",
                        lambda p: split_prime(p).conjugate_choice() if p == p2 else split_prime(p))


def test_conjugate_swap_symmetry(monkeypatch):
    """Swapping pi_3 with its conjugate relabels K4/K5, K6/K7 and L2/L3, L6/L7."""
    for pair in pairs_upto(200):
        rec = invariants(pair)
        with monkeypatch.context() as patch:
            _conjugate_split_of(patch, pair.p2)
            swapped = invariants(pair)
        assert swapped.splits[1] == split_prime(pair.p2).conjugate_choice()
        assert swapped.B == -rec.B
        assert swapped.pi == (-rec.pi if rec.legendre == -1 else rec.pi)
        rep, rep_swapped = predict(rec.profile()), predict(swapped.profile())
        for j in range(1, 8):
            other = rep_swapped.k_fields[CONJ_K_MAP[j]]
            mine = rep.k_fields[j]
            assert mine.cl2 == other.cl2, (pair, j)
            assert mine.norm_group == other.norm_group, (pair, j)
            assert mine.kernel == other.kernel, (pair, j)
        for j in range(1, 8):
            assert rep.l_fields[j].cl2 == rep_swapped.l_fields[CONJ_L_MAP[j]].cl2
            assert (
                rep.l_fields[j].norm_group
                == rep_swapped.l_fields[CONJ_L_MAP[j]].norm_group
            )


def test_conjugate_swap_cross_validates(monkeypatch):
    for p1, p2 in [(5, 13), (5, 37), (5, 29), (13, 29)]:
        _conjugate_split_of(monkeypatch, p2)
        _, _, val = classify_pair(p1, p2)
        assert val.passed, (p1, p2, [c.name for c in val.failures()])


def test_symbols_trust_the_splits(monkeypatch):
    """Each prime is split once; after that no symbol re-tests primality."""
    split, inside = [], []

    def split_prime_once(p):
        inside.append(p)
        s = split_prime(p)
        split.append(inside.pop())
        return s

    def no_retest(n):
        if split and not inside:
            raise RuntimeError(f"is_prime({n}) re-tested after the pair was split")
        return real_is_prime(n)

    real_is_prime = gaussian.is_prime
    monkeypatch.setattr(classify, "split_prime", split_prime_once)
    monkeypatch.setattr(gaussian, "is_prime", no_retest)
    _, _, val = classify_pair(5, 13)
    assert val.passed
    assert split == [5, 13]


SWAP_K_MAP = {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5, 7: 7}
SWAP_L_MAP = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 6, 7: 7}


def test_pair_order_swap_invariance():
    """Predictions are invariant under (p1, p2) swap up to the field relabeling.

    The class-vector basis changes under the swap, so only the labelled types
    and kernel sizes are compared; symbols and exponents must agree exactly.
    """
    for pair in pairs_upto(200):
        rec = invariants(pair)
        rec_swapped = invariants(validate_pair(pair.p2, pair.p1))
        assert rec.legendre == rec_swapped.legendre
        assert rec.pi == rec_swapped.pi
        assert rec.B == rec_swapped.B
        assert (rec.m, rec.n, rec.q, rec.psi) == (
            rec_swapped.m,
            rec_swapped.n,
            rec_swapped.q,
            rec_swapped.psi,
        )
        rep, rep_swapped = predict(rec.profile()), predict(rec_swapped.profile())
        for j in range(1, 8):
            assert rep.k_fields[j].cl2 == rep_swapped.k_fields[SWAP_K_MAP[j]].cl2
            assert len(rep.k_fields[j].kernel) == len(
                rep_swapped.k_fields[SWAP_K_MAP[j]].kernel
            )
            assert rep.l_fields[j].cl2 == rep_swapped.l_fields[SWAP_L_MAP[j]].cl2


def test_h_k3_product_law():
    for pair in pairs_upto(200):
        rec = invariants(pair)
        rep = predict(rec.profile())
        expected = 1 << (rec.n + rec.m + (1 if rec.q == 1 else 2))
        assert rep.cl2_k3.order() == expected


def test_engine_abelianizations_helper():
    fields = engine_abelianizations((-1, -1, 1, 2, 2, 1, PsiVariant.TAU_SIGMA))
    assert fields["K3"] == AbelianType((4, 8))
    assert fields["L7"] == AbelianType((4, 4))
    # the same profile as a Profile of (5, 13): a real 7-tuple, one cached report
    rec = invariants(validate_pair(5, 13))
    prof = rec.profile()
    assert prof == tuple(prof) and hash(prof) == hash(tuple(prof))
    assert prof[:6] + (prof[6].value,) == (-1, -1, 1, 2, 2, 1, "tau-sigma")
    assert predict(tuple(prof)) is predict(prof)
    assert engine_abelianizations(prof) == fields
    with pytest.raises(TypeError):
        predict(rec)
    with pytest.raises(KeyError):
        engine_abelianizations((1, 0, 1, 1, 3, 1, PsiVariant.TAU_SIGMA))


def test_admissible_is_what_the_engine_accepts():
    """Over every profile with m + n <= 13, admissible holds exactly when every engine check
    passes, save (p1/p2) = +1, pi = +1, q = 1, (m, n) = (2, 1), psi = sigma (B either sign):
    the engine accepts these two, and only exponent coupling (n >= 2 when pi = +1) excludes
    them.  The profiles that only a psi clause excludes fail 12 checks or more, or have no
    presentation."""
    seen = Counter()
    for m in range(2, 13):
        for n in range(1, 14 - m):
            for legendre, pi, b, q, psi in product((1, -1), (1, -1), (1, -1), (1, 2), PsiVariant):
                profile = Profile(legendre, pi, b, q, m, n, psi)
                try:
                    failed = sum(not c.ok for c in _engine_checks(profile))
                except PresentationError:
                    failed = None
                if admissible(profile):
                    assert failed == 0, profile
                    assert len(engine_abelianizations(profile)) == 14, profile
                    seen["admissible"] += 1
                elif failed == 0:
                    assert (legendre, pi, q, m, n, psi) == (1, 1, 1, 2, 1, PsiVariant.SIGMA_ONLY)
                    seen["engine only"] += 1
                elif exponents_coupled(profile) and (legendre == 1 or q_matches_pi_b(profile)):
                    assert failed is None or failed >= 12, profile
                    seen["psi clause"] += 1
    assert seen == {"admissible": 102, "engine only": 2, "psi clause": 62}


def test_presentation_classes_share_no_presentation():
    """Over every admissible profile with m + n <= 11, each presentation (m, n, q, psi) lies in
    one presentation class, and all four classes occur."""
    classes = {}
    for m in range(1, 11):
        for n in range(1, 12 - m):
            for legendre, pi, b, q, psi in product((1, -1), (1, -1), (1, -1), (1, 2), PsiVariant):
                if admissible(Profile(legendre, pi, b, q, m, n, psi)):
                    classes.setdefault((m, n, q, psi), set()).add(presentation_class(legendre, pi, b))
    assert [pres for pres, found in classes.items() if len(found) > 1] == []
    assert set().union(*classes.values()) == {(-1, 1), (-1, -1), (1, 1), (1, -1)}
    assert len(classes) == 41


def test_detached_consistency_errors():
    # a record with a wrong q must be rejected by the consistency layer
    rec = invariants(validate_pair(5, 13))
    bad = rec._replace(q=1)
    from classtower.classify import _check_consistency

    with pytest.raises(ConsistencyError):
        _check_consistency(bad)


@pytest.mark.parametrize(
    "rule, base, forge",
    [
        # pi = +1 of (5, 29) against the quartic product -1 of (13, 29)
        ("quartic-product-rule", (5, 29), {"pair": validate_pair(13, 29)}),
        # q = 1 with pi = -1 needs B = -1
        ("q-agreement", (5, 37), {"B": 1}),
        # (p1/p2) = -1 needs N(eps_r) = -1
        ("q-agreement", (5, 37), {"norm_eps_r": 1}),
        # the symbol criterion gives q = 2 for (5, 13)
        ("q-agreement", (5, 13), {"q": 1, "B": -1, "m": 3}),
        # (p1/p2) = -1 with q = 1 needs m >= 3
        ("exponent-coupling", (5, 37), {"m": 2}),
        # q = 2 needs m = 2
        ("exponent-coupling", (5, 13), {"m": 3}),
        # N(eps_r) = +1 needs q = 1
        ("exponent-coupling", (5, 461), {"norm_eps_r": 1}),
        # Scholz: mixed quartic symbols (13, 29) need N(eps_r) = +1, both -1 (5, 29) need -1
        ("quartic-product-rule", (13, 29), {"norm_eps_r": -1}),
        ("quartic-product-rule", (5, 29), {"norm_eps_r": 1}),
    ],
)
def test_each_rule_names_its_failure(rule, base, forge):
    from classtower.classify import _check_consistency

    bad = invariants(validate_pair(*base))._replace(**forge)
    with pytest.raises(ConsistencyError) as exc:
        _check_consistency(bad)
    assert exc.value.rules == (rule,)
    assert rule in str(exc.value)
