import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from math import gcd
from pathlib import Path

import pytest

import group_oracle as oracle
from group_oracle import (
    ElementSubgroup,
    commutator,
    conj,
    coset_rep,
    elements,
    generators,
    power,
    transfer,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import classtower
from classtower import gengroup
from classtower.abelian import AbelianType, GroupCheckError, abelian_structure
from classtower.classify import Profile, derived_type, nilpotency_class_formula
from classtower.gengroup import (
    CLASS_VECTORS,
    GPresentation,
    PresentationError,
    PsiVariant,
    Subgroup,
    abelian_invariants,
    class_to_group,
    lower_central_series,
    over_derived,
    span,
    transfer_kernel,
    vadd,
    _hermite,
    _reduce,
    _rows,
)

SIGMA, TAU_SIGMA = PsiVariant.SIGMA_ONLY, PsiVariant.TAU_SIGMA


def admissible_presentations(max_m=5, max_n=5):
    """The exponent patterns that actual prime pairs realize."""
    out = []
    for m in range(3, max_m + 1):  # q = 1, n = 1, m >= 3
        out.append(GPresentation(m, 1, 1, TAU_SIGMA))
        out.append(GPresentation(m, 1, 1, SIGMA))
    for n in range(2, max_n + 1):  # q = 1, m = 2, n >= 2
        out.append(GPresentation(2, n, 1, TAU_SIGMA))
        out.append(GPresentation(2, n, 1, SIGMA))
    for n in range(1, max_n + 1):  # q = 2, m = 2
        out.append(GPresentation(2, n, 2, TAU_SIGMA))
    return out


SMALL = [
    GPresentation(3, 1, 1, TAU_SIGMA),
    GPresentation(3, 1, 1, SIGMA),
    GPresentation(2, 2, 1, TAU_SIGMA),
    GPresentation(2, 2, 1, SIGMA),
    GPresentation(2, 1, 2),
    GPresentation(2, 2, 2),
]


def test_order_formula_and_enumeration():
    assert GPresentation(3, 1, 1).order == 64
    assert GPresentation(2, 1, 2).order == 64
    assert GPresentation(2, 2, 1).order == 64
    for pres in constructible_presentations(10):
        elems = elements(pres)
        assert len(elems) == len(set(elems)) == pres.order == Subgroup.whole_group(pres).order
        q_bits = 3 if pres.q == 2 else 2
        assert pres.order == 1 << (pres.m + pres.n + q_bits)
        # products of normal forms land on normal forms (closure spot check)
        sample = elems[:: max(1, len(elems) // 40)]
        for x in sample[:12]:
            for y in sample[:12]:
                assert pres.mul(x, y) in set(elems)


def constructible_presentations(max_mn):
    """Every (m, n, q, psi) the constructor accepts with m + n <= max_mn."""
    out = []
    for m in range(2, max_mn):
        for n in range(1, max_mn - m + 1):
            for psi in (SIGMA, TAU_SIGMA):
                out.append(GPresentation(m, n, 1, psi))
            if m == 2:
                out.append(GPresentation(2, n, 2, TAU_SIGMA))
    return out


def test_inconsistent_presentations_rejected():
    with pytest.raises(PresentationError):
        GPresentation(3, 1, 2)  # q = 2 needs m = 2
    with pytest.raises(PresentationError):
        GPresentation(1, 1, 1)
    with pytest.raises(PresentationError):
        GPresentation(2, 0, 1)
    with pytest.raises(PresentationError):
        GPresentation(2, 1, 3)
    with pytest.raises(PresentationError):
        GPresentation(2, 1, 2, SIGMA)


def test_defining_relations():
    for pres in SMALL + admissible_presentations(5, 5):
        rho, sig, tau = pres.rho(), pres.sigma(), pres.tau()
        e = pres.identity()
        assert power(pres, rho, 4) == e
        assert power(pres, sig, 1 << pres.m) == (
            e if pres.q == 1 else power(pres, tau, 1 << (pres.n + 1))
        )
        assert power(pres, tau, 1 << (pres.n + 1 + (pres.q == 2))) == e
        psi = pres.mul(rho, rho)
        pa = 1 << (pres.m - 1)
        pb = 0 if (pres.q == 1 and pres.psi is SIGMA) else 1 << pres.n
        assert psi == pres.element(0, pa, pb)
        assert commutator(pres, tau, sig) == e
        twist = power(pres, sig, 2 if pres.q == 1 else -2)
        assert commutator(pres, rho, sig) == twist
        assert commutator(pres, rho, tau) == power(pres, tau, 2)


def test_associativity_exhaustive_small():
    pres = GPresentation(2, 1, 2)  # order 64; 64^3 triples
    elems = elements(pres)
    for x in elems:
        for y in elems:
            xy = pres.mul(x, y)
            for z in elems:
                assert pres.mul(xy, z) == pres.mul(x, pres.mul(y, z))


def test_associativity_random_larger():
    rng = random.Random(11)
    for pres in admissible_presentations(5, 5):
        elems = elements(pres)
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert pres.mul(pres.mul(x, y), z) == pres.mul(x, pres.mul(y, z))
        for _ in range(50):
            x = rng.choice(elems)
            assert pres.mul(x, pres.inv(x)) == pres.identity()


def test_power_commutator_identities():
    for pres in SMALL:
        rho, sig, tau = pres.rho(), pres.sigma(), pres.tau()
        inv = pres.inv
        mul = pres.mul
        # rho^-1 sigma rho = sigma^-1 (q=1) or sigma^3 (q=2); rho^-1 tau rho = tau^-1
        assert conj(pres, sig, rho) == power(pres, sig, -1 if pres.q == 1 else 3)
        assert conj(pres, tau, rho) == inv(tau)
        rho2 = mul(rho, rho)
        assert commutator(pres, rho2, sig) == pres.identity()
        assert commutator(pres, rho2, tau) == pres.identity()
        taurho = mul(tau, rho)
        assert mul(taurho, taurho) == rho2
        sigrho = mul(sig, rho)
        sigtaurho = mul(sig, taurho)
        expected = rho2 if pres.q == 1 else mul(rho2, power(pres, sig, 4))
        assert mul(sigrho, sigrho) == expected
        assert mul(sigtaurho, sigtaurho) == expected
        for r in range(0, pres.n + 2):
            t2r = power(pres, tau, 1 << r)
            assert commutator(pres, rho, t2r) == power(pres, tau, 1 << (r + 1))
            s2r = power(pres, sig, 1 << r)
            sign = 1 if pres.q == 1 else -1
            assert commutator(pres, rho, s2r) == power(pres, sig, sign * (1 << (r + 1)))


def test_derived_subgroup_is_squares():
    for pres in admissible_presentations(5, 5):
        G = Subgroup.whole_group(pres)
        derived = G.derived_subgroup()
        squares = [power(pres, pres.sigma(), 2), power(pres, pres.tau(), 2)]
        assert derived == Subgroup.generated(pres, squares)
        if pres.m <= 4 and pres.n <= 4:
            assert ElementSubgroup.of(derived).elements == ElementSubgroup.generated(pres, squares).elements


def test_lower_central_series_and_coclass():
    for pres in admissible_presentations(5, 5):
        series = lower_central_series(pres)
        for j in range(1, len(series)):
            expected = Subgroup.generated(
                pres,
                [
                    power(pres, pres.sigma(), 1 << j),
                    power(pres, pres.tau(), 1 << j),
                ],
            )
            assert series[j] == expected, (pres, j)
        m, n = pres.m, pres.n
        if pres.q == 1:
            expected_class = max(n, m - 1) + 1
        else:
            expected_class = max(n + 1, m) + 1
        nilpotency_class = len(series) - 1
        assert nilpotency_class == expected_class
        assert pres.order.bit_length() - 1 - nilpotency_class == 3  # coclass


def test_abelianization_is_2_2_2():
    for pres in SMALL:
        G = Subgroup.whole_group(pres)
        assert abelian_invariants(G, G.derived_subgroup()) == AbelianType((2, 2, 2))


def test_abelian_invariants_examples():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    sig, tau, rho = pres.sigma(), pres.tau(), pres.rho()
    H = Subgroup.generated(pres, [sig, power(pres, tau, 2)])
    assert abelian_invariants(H, Subgroup.trivial(pres)) == AbelianType((2, 8))
    K1 = Subgroup.generated(pres, [sig, rho])
    assert K1.abelianization() == AbelianType((2, 4))


def test_abelian_invariants_rejects_non_normal():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    G = Subgroup.whole_group(pres)
    H = Subgroup.generated(pres, [pres.rho()])  # <rho> is not normal in G
    assert not ElementSubgroup.generated(pres, [pres.rho()]).is_normal_in(ElementSubgroup.whole_group(pres))
    with pytest.raises(ValueError):
        abelian_invariants(G, H)


def test_transfer_known_values():
    # V_{G/G1}(rho G') = G1', V(tau G') = tau^2 G1' != G1' when (p1/p2) = -1
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    G1 = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    triv = coset_rep(G1.derived_subgroup(), pres.identity())
    assert triv == pres.identity()
    assert transfer(pres, G1, pres.rho()) == triv
    assert transfer(pres, G1, pres.sigma()) == triv
    tau_val = transfer(pres, G1, pres.tau())
    assert tau_val == coset_rep(G1.derived_subgroup(), power(pres, pres.tau(), 2))
    assert tau_val != triv


def test_transfer_identity_is_trivial():
    for pres in SMALL[:3]:
        H = Subgroup.generated(pres, [pres.sigma(), pres.tau()])
        assert transfer(pres, H, pres.identity()) == pres.identity()


def test_transfer_closed_form_agrees_with_generic():
    # every index-2 subgroup, every element, orders <= 2^9
    for pres in SMALL:
        if pres.order > 512:
            continue
        derived = Subgroup.whole_group(pres).derived_subgroup()
        for H in _index2_subgroups(pres, derived):
            EH, Hp = ElementSubgroup.of(H), H.derived_subgroup()
            z = next(x for x in elements(pres) if x not in H)
            for g in elements(pres):
                closed = oracle.transfer_index2(pres, EH, g, z)
                assert transfer(pres, H, g) == coset_rep(Hp, closed)


def _index2_subgroups(pres, derived):
    # index-2 subgroups = preimages of index-2 subgroups of G/(G')  = (2,2,2)
    out = []
    for kernel_vectors in itertools.combinations([v for v in CLASS_VECTORS if v != (0, 0, 0)], 2):
        vs = span(kernel_vectors)
        if len(vs) != 4:
            continue
        gens = [class_to_group(pres, v) for v in vs] + list(generators(derived))
        out.append(Subgroup.generated(pres, gens))
    uniq = list(dict.fromkeys(out))  # equal subgroups have equal lattices and r
    assert len(uniq) == 7
    return uniq


def test_transfer_rep_choice_independence():
    rng = random.Random(3)
    pres = GPresentation(2, 1, 2)
    H = Subgroup.generated(pres, [pres.tau(), power(pres, pres.sigma(), 2)])
    derived = ElementSubgroup.of(Subgroup.whole_group(pres).derived_subgroup())
    for _ in range(40):
        g = rng.choice(elements(pres))
        base = transfer(pres, H, g)
        # transfer of any element of the same G'-coset agrees
        d = rng.choice(sorted(derived.elements))
        assert transfer(pres, H, pres.mul(g, d)) == base


def test_transfer_kernel_examples():
    # H = <sigma, rho>: kernel = <[H1], [H2]> (K1 row behavior)
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    H = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    kern = transfer_kernel(pres, H)
    assert kern == span([(0, 1, 0), (0, 0, 1)])
    # H = G is the identity transfer: only the trivial class dies
    G = Subgroup.whole_group(pres)
    assert transfer_kernel(pres, G) == frozenset({(0, 0, 0)})
    # H = G' (the Hilbert-class-field subgroup): every class transfers into
    # G'' trivially, i.e. total capitulation (principal ideal theorem)
    assert transfer_kernel(pres, G.derived_subgroup()) == frozenset(CLASS_VECTORS)
    # total capitulation into <tau, sigma^2> when q = 2
    pres2 = GPresentation(2, 1, 2)
    H2 = Subgroup.generated(pres2, [pres2.tau(), power(pres2, pres2.sigma(), 2)])
    assert transfer_kernel(pres2, H2) == frozenset(CLASS_VECTORS)


def _subgroups_over_derived(pres):
    """The 16 subgroups over G', one for each subgroup of G/G' = (2, 2, 2)."""
    derived = Subgroup.whole_group(pres).derived_subgroup()
    spans = {span(vs) for k in range(4) for vs in itertools.combinations(CLASS_VECTORS[1:], k)}
    return [Subgroup.generated(pres, [*(class_to_group(pres, v) for v in vs), *generators(derived)])
            for vs in spans]


def test_transfer_kernel_from_three_transfers_matches_all_eight():
    # the table carries the transfers of tau, rho, rho sigma down the flag of F_2^3, one
    # index-2 step per subgroup; here every class is transferred along H's whole chain, for
    # every presentation with m + n <= 11
    presentations = [pres for pres in _accepted_presentations(10, 9) if pres.m + pres.n <= 11]
    assert len(presentations) == 99
    for pres in presentations:
        subgroups = _subgroups_over_derived(pres)
        assert len(set(subgroups)) == 16
        for H in subgroups:
            Hp = H.derived_subgroup()
            direct = frozenset(v for v in CLASS_VECTORS
                               if transfer(pres, H, class_to_group(pres, v)) in Hp)
            assert transfer_kernel(pres, H) == direct, (pres, H)


def test_engine_table_matches_the_reference_table():
    # the one-step transfers, the lattice kernels, the shared G' lattice and the stored indices
    # against the table as it was built before them, for every presentation with m + n <= 11
    presentations = [pres for pres in _accepted_presentations(10, 9) if pres.m + pres.n <= 11]
    assert len(presentations) == 99
    for pres in presentations:
        table, reference = gengroup.engine_table(pres), oracle.reference_engine_table(pres)
        assert list(table.over) == list(reference), pres
        G = Subgroup.whole_group(pres)
        for V, entry in table.over.items():
            H, derived, abelianization, kernel, transfers = reference[V]
            assert (entry.H, entry.derived, entry.abelianization) == (H, derived, abelianization)
            assert (entry.kernel, entry.transfers) == (kernel, transfers), (pres, sorted(V))
            assert entry.index == G.order // H.order == 8 // len(V), (pres, sorted(V))
        assert table.G_derived.kernel == frozenset(CLASS_VECTORS)  # principal ideal theorem


# the 12 words of length 1 and 2 in s, t and r
_SHORT_WORDS = ["".join(w) for k in (1, 2) for w in itertools.product("str", repeat=k)]


def _table_words():
    """Every word tuple of the K_j and L_j tables of classify."""
    from classtower import classify

    words = set()
    for table in (classify._GJ_PLUS, classify._GJ_MINUS, classify._GL_PLUS, classify._GL_MINUS):
        for entry in table.values():
            words.update(entry.values() if isinstance(entry, dict) else [entry])
    return sorted(words)


def test_closed_form_steps_and_the_burnside_word_test_match_the_oracles(monkeypatch):
    # every presentation with m + n <= 7: the table equals the one built with the generic
    # index-2 step, and generated_by agrees with Subgroup.generated on all 16 subspaces for every
    # 1- and 2-subset of the 12 short words and for every table word tuple
    presentations = [pres for pres in _accepted_presentations(6, 5) if pres.m + pres.n <= 7]
    subsets = [c for k in (1, 2) for c in itertools.combinations(_SHORT_WORDS, k)] + _table_words()
    assert len(presentations) == 35 and len(subsets) == 78 + 33
    outcomes = Counter()
    for pres in presentations:
        table = gengroup.engine_table(pres)
        with monkeypatch.context() as patch:
            patch.setattr(gengroup, "_step_down", oracle.generic_step_down)
            assert gengroup.engine_table.__wrapped__(pres) == table, pres
        for entry in table.over.values():
            for words in subsets:
                gens = [pres.word(w) for w in words]
                generated = Subgroup.generated(pres, gens) == entry.H
                assert entry.generated_by(gens) == generated, (pres, entry.H, words)
                outcomes[generated] += 1
    assert outcomes[True] and outcomes[False]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pres=st.sampled_from(SMALL + [GPresentation(2, 5, 2), GPresentation(6, 1, 1, SIGMA)]),
       h11=st.integers(1, 16), h12=st.integers(0, 15), h22=st.integers(1, 16))
def test_t_stability_closed_form_matches_the_lattice_test(pres, h11, h12, h22):
    # _from_lattice tests only (1 + s) h12 = 0 mod h22; the old test reduced both T-images
    lattice = (h11, h12 % h22, h22)
    stable = all(_reduce(lattice, *v) == (0, 0) for v in gengroup._conj(pres, _rows(lattice)))
    try:
        Subgroup._from_lattice(pres, lattice, pres.rho())
    except GroupCheckError:
        assert not stable, lattice
    else:
        assert stable, lattice


def test_two_group_factors_match_the_realigning_path():
    # from_factors reads a 2-group's type off its sorted factors; _realigned factorizes them
    for factors in itertools.chain.from_iterable(
            itertools.product((1, 2, 4, 8, 16, 1 << 20), repeat=k) for k in range(5)):
        assert AbelianType.from_factors(factors) == AbelianType._realigned(factors), factors
    assert AbelianType.from_factors(iter((4, 2))) == AbelianType((2, 4))
    for factors in ((6, 2), (2, 3), (30, 10, 2), (2.0, 4)):
        assert AbelianType.from_factors(factors) == AbelianType._realigned(factors), factors
    with pytest.raises(ValueError, match="cyclic orders must be >= 1"):
        AbelianType.from_factors((2, 0))


def test_class_to_group_dictionary():
    for pres in SMALL:
        derived = Subgroup.whole_group(pres).derived_subgroup()
        # the 8 class vectors hit the 8 cosets of G' exactly once
        seen = set()
        for v in CLASS_VECTORS:
            x = class_to_group(pres, v)
            coset = frozenset(pres.mul(x, d) for d in ElementSubgroup.of(derived).elements)
            seen.add(coset)
        assert len(seen) == 8
        # sigma lands in the [H1 H2] coset
        x = class_to_group(pres, (0, 1, 1))
        assert pres.mul(pres.inv(x), pres.sigma()) in derived


def test_word_helper():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    assert pres.word("st") == pres.mul(pres.sigma(), pres.tau())
    assert pres.word("ss") == power(pres, pres.sigma(), 2)
    assert pres.word("") == pres.identity()
    # each product is formed once per presentation, from its prefix's: against a left fold
    for pres in SMALL:
        letters = {"r": pres.rho(), "s": pres.sigma(), "t": pres.tau()}
        for k in range(5):
            for word in map("".join, itertools.product("rst", repeat=k)):
                expected = reduce(pres.mul, (letters[ch] for ch in word), pres.identity())
                assert pres.word(word) == expected and pres.word(word) is pres.word(word), word


# ---------------------------------------------------------------------------
# The fast paths against test-only copies of the algorithms they replaced
# ---------------------------------------------------------------------------


def _ref_canon(pres, a, b):
    if pres.q == 1:
        return a % (1 << pres.m), b % (1 << (pres.n + 1))
    b %= 1 << (pres.n + 2)
    if b >= 1 << (pres.n + 1):  # tau^(2^(n+1)) = sigma^(2^m)
        b -= 1 << (pres.n + 1)
        a += 1 << pres.m
    return a % (1 << (pres.m + 1)), b % (1 << (pres.n + 1))


def _ref_psi(pres):
    return 1 << (pres.m - 1), 0 if (pres.q == 1 and pres.psi is SIGMA) else 1 << pres.n


def _ref_conj_a(pres, a, b):
    return _ref_canon(pres, a * (3 if pres.q == 2 else -1), -b)


def _ref_mul(pres, x, y):
    """Product of normal forms: conjugate, add, fold in psi = rho^2, canonicalise."""
    e1, a1, b1 = x
    e2, a2, b2 = y
    if e2:
        a1, b1 = _ref_conj_a(pres, a1, b1)
    e, a, b = e1 + e2, a1 + a2, b1 + b2
    if e == 2:
        pa, pb = _ref_psi(pres)
        e, a, b = 0, a + pa, b + pb
    return (e, *_ref_canon(pres, a, b))


def _ref_inv(pres, x):
    e, a, b = x
    if e == 0:
        return (0, *_ref_canon(pres, -a, -b))
    pa, pb = _ref_psi(pres)
    return (1, *_ref_canon(pres, -a * (3 if pres.q == 2 else -1) - pa, b - pb))


def test_kernel_matches_reference_exhaustive():
    for pres in admissible_presentations(3, 3):
        elems = elements(pres)
        assert len(elems) == pres.order
        for x in elems:
            assert pres.inv(x) == _ref_inv(pres, x)
            for y in elems:
                assert pres.mul(x, y) == _ref_mul(pres, x, y), (pres, x, y)


def test_kernel_matches_reference_random():
    rng = random.Random(5)
    for pres in constructible_presentations(8):
        for _ in range(300):
            x, y, z = ((rng.randrange(2), *_ref_canon(pres, rng.randrange(1 << 12), rng.randrange(1 << 12)))
                       for _ in range(3))
            assert pres.inv(x) == _ref_inv(pres, x)
            assert pres.mul(pres.mul(x, y), z) == _ref_mul(pres, _ref_mul(pres, x, y), z), (pres, x, y, z)


def _ref_closure(pres, gens):
    elems = {pres.identity()}
    frontier = [pres.identity()]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pres.mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def _ref_normal_closure(pres, seeds, conjugators):
    """Element set of the normal closure, conjugating every element each round."""
    current = frozenset(seeds)
    while True:
        sub = _ref_closure(pres, tuple(current))
        conjugates = {conj(pres, x, g) for x in sub for g in conjugators}
        if conjugates <= sub:
            return sub
        current = sub | conjugates


def _ref_lower_central_series(pres):
    """Element sets gamma_1 = G, ..., 1, with gamma_(i+1) seeded by every element of gamma_i."""
    gens = (pres.rho(), pres.sigma(), pres.tau())
    series = [_ref_closure(pres, gens)]
    while len(series[-1]) > 1:
        seeds = {commutator(pres, x, g) for x in series[-1] for g in gens}
        series.append(_ref_normal_closure(pres, seeds, gens))
        assert series[-1] < series[-2]
    return series


def _ref_transfer_values(pres, H):
    """V_{G/H}(g) for each class vector, from a locate table over all of G.

    The transversal is the largest element of each right coset (the engine
    once took the smallest), so this also checks independence of that choice.
    """
    locate, reps = {}, []
    for x in sorted(elements(pres), reverse=True):
        if x not in locate:
            reps.append(x)
            for h in H.elements:
                locate[pres.mul(h, x)] = x
    values = {}
    for v in CLASS_VECTORS:
        g = class_to_group(pres, v)
        val = pres.identity()
        for x in reps:
            xg = pres.mul(x, g)
            h = pres.mul(xg, pres.inv(locate[xg]))
            assert h in H.elements
            val = pres.mul(val, h)
        values[v] = val
    return values


def _engine_subgroups(pres, engine=Subgroup):
    """The 14 subgroups the engine checks: the index-2 and index-4 subgroups over G'.

    engine is Subgroup (lattices) or ElementSubgroup (the oracle), in the same order.
    """
    G = engine.whole_group(pres)
    derived = G.derived_subgroup()
    derived_gens = derived.generators if engine is ElementSubgroup else generators(derived)
    nonzero = [v for v in CLASS_VECTORS if v != (0, 0, 0)]
    spans = {span(vs) for k in (1, 2) for vs in itertools.combinations(nonzero, k)}
    out = [
        engine.generated(pres, [class_to_group(pres, v) for v in sorted(vs)] + list(derived_gens))
        for vs in sorted(spans, key=sorted)
    ]
    assert sorted(G.order // H.order for H in out) == [2] * 7 + [4] * 7
    return out


def test_transfer_matches_locate_table_reference():
    for pres in admissible_presentations(4, 4):
        for H in _engine_subgroups(pres):
            EH, Hp = ElementSubgroup.of(H), H.derived_subgroup()
            hprime = _ref_normal_closure(
                pres, [commutator(pres, x, y) for x, y in itertools.combinations(EH.generators, 2)],
                EH.generators,
            )
            assert hprime == ElementSubgroup.of(Hp).elements
            ref = _ref_transfer_values(pres, EH)
            for v, val in ref.items():
                got = transfer(pres, H, class_to_group(pres, v))
                assert got == coset_rep(Hp, val), (pres, H, v)
            ref_kernel = frozenset(v for v, val in ref.items() if val in hprime)
            assert transfer_kernel(pres, H) == ref_kernel, (pres, H)


def test_lower_central_series_matches_element_seeded_reference():
    for pres in admissible_presentations(4, 4):
        series = [ElementSubgroup.of(s).elements for s in lower_central_series(pres)]
        assert series == _ref_lower_central_series(pres)


def test_normal_closure_matches_reference():
    # <x> is not always normal (e.g. x = rho), so the conjugates matter
    for pres in SMALL:
        gens = (pres.rho(), pres.sigma(), pres.tau())
        for x in elements(pres):
            assert oracle._normal_closure(pres, [x], gens).elements == _ref_normal_closure(pres, [x], gens)


def test_abelian_structure_self_checks():
    # 8-element non-groups, given by their squaring maps (op is only called with x == y)
    with pytest.raises(GroupCheckError, match="does not fill order"):
        abelian_structure(range(8), lambda x, y: x, 0)  # x^2 = x: no 2-torsion but 0
    squares = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 5, 7: 6}  # torsion counts 1, 3, 5, ...
    with pytest.raises(GroupCheckError, match="p-power graded"):
        abelian_structure(range(8), lambda x, y: squares[x], 0)


def test_transfer_rejects_a_forged_step(monkeypatch):
    # each self-check of the engine table fires on the forgery it guards against, through
    # transfer_kernel; the table is cleared first, since a table built before the forgery hides
    # it, and a build that raises is not cached
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    H = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    step_down = gengroup._step_down

    gengroup.engine_table.cache_clear()
    with monkeypatch.context() as patch:  # z inside K: the formula assumes z outside
        patch.setattr(gengroup, "_step_down", lambda pres, K, parent, z, values: step_down(
            pres, K, parent, pres.identity(), values))
        with pytest.raises(GroupCheckError, match="index-2 step: z = .* lies inside K"):
            transfer_kernel(pres, H)
    with monkeypatch.context() as patch:  # a step from <rho^2> below G', where g^2 leaves K
        patch.setattr(gengroup, "_step_down", lambda pres, K, parent, z, values: step_down(
            pres, Subgroup.trivial(pres), Subgroup.generated(pres, [pres.word("rr")]), pres.rho(),
            values))
        with pytest.raises(GroupCheckError, match="index-2 step: the value .* leaves K"):
            transfer_kernel(pres, H)
    with monkeypatch.context() as patch:  # transfer values outside A, where H' is no lattice
        patch.setattr(gengroup, "_step_down", lambda *args: tuple(
            (1, a, b) for _, a, b in step_down(*args)))
        with pytest.raises(GroupCheckError, match="kernel: the transfer value .* lies outside A"):
            transfer_kernel(pres, H)
    kernel = gengroup._kernel
    with monkeypatch.context() as patch:  # a class that does not capitulate in G'
        patch.setattr(gengroup, "_kernel", lambda values, derived: kernel(values, derived) - {(1, 1, 1)})
        with pytest.raises(GroupCheckError, match="kernel: the transfer into G' is not trivial"):
            transfer_kernel(pres, H)
    plane = span([(0, 0, 1), (0, 1, 0)])
    with monkeypatch.context() as patch:  # G built over a plane: each plane's <K, z> has index 1
        patch.setattr(gengroup, "over_derived", lambda pres, classes: over_derived(
            pres, plane if len(classes) == 8 else classes))
        with pytest.raises(GroupCheckError, match="index-2 step: .* has index 1 over K"):
            transfer_kernel(pres, H)
    table = gengroup.engine_table(pres)
    forged = table._replace(over=dict.fromkeys(table.over, table.G))
    with monkeypatch.context() as patch:  # a table that does not give H back from its classes
        patch.setattr(gengroup, "engine_table", lambda pres: forged)
        with pytest.raises(GroupCheckError, match="is not the subgroup over G' of its classes"):
            transfer_kernel(pres, H)


def test_quotient_type_needs_a_power_of_2_diagonal(monkeypatch):
    # H/N is a 2-group, so its type is its Smith invariants; invariants with the right
    # product but entries that are not powers of 2 (two of them negated) are an explicit raise
    G = Subgroup.whole_group(GPresentation(3, 1, 1, TAU_SIGMA))
    smith = gengroup._smith_diagonal
    monkeypatch.setattr(gengroup, "_smith_diagonal", lambda x, y, z, r2=None: [
        -d if i < 2 else d for i, d in enumerate(smith(x, y, z, r2))])
    with pytest.raises(GroupCheckError, match="Smith invariants .* are not powers of 2"):
        G.abelianization()


def test_warm_transfer_kernel_only_reads_the_table(monkeypatch):
    # H/H' and the kernel are computed when the table is built; a later call computes no quotient
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    H = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    cold, calls = transfer_kernel(pres, H), []
    monkeypatch.setattr(gengroup, "_quotient_type", lambda H, N: calls.append((H, N)))
    assert transfer_kernel(pres, H) == cold and calls == []


_UNCLOSED = """
from classtower.abelian import GroupCheckError
from classtower.gengroup import GPresentation
from group_oracle import ElementSubgroup
pres = GPresentation(3, 1, 1)
try:
    ElementSubgroup.from_elements(pres, [pres.identity(), pres.sigma()])
except GroupCheckError as exc:
    print(__debug__, exc)
"""


def test_from_elements_rejects_unclosed_set_under_python_O():
    # an explicit raise survives -O, where an assert statement vanishes
    src = str(Path(classtower.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", _UNCLOSED], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.stdout == "False element set is not closed under the group law\n"


# ---------------------------------------------------------------------------
# The lattice engine against the element oracle, and beyond the oracle's range
# ---------------------------------------------------------------------------


def test_lattice_engine_matches_element_oracle():
    # every admissible presentation with m, n <= 4 (orders up to 2^9)
    for pres in admissible_presentations(4, 4):
        G, EG = Subgroup.whole_group(pres), ElementSubgroup.whole_group(pres)
        Gp, EGp = G.derived_subgroup(), EG.derived_subgroup()
        assert ElementSubgroup.of(Gp).elements == EGp.elements, pres
        assert [ElementSubgroup.of(s).elements for s in lower_central_series(pres)] == [
            s.elements for s in oracle.lower_central_series(pres)
        ], pres
        assert abelian_invariants(G, Gp) == oracle.abelian_invariants(EG, EGp)
        trivial, Etrivial = Subgroup.trivial(pres), ElementSubgroup.trivial(pres)
        assert abelian_invariants(Gp, trivial) == oracle.abelian_invariants(EGp, Etrivial)
        for H, EH in zip(_engine_subgroups(pres), _engine_subgroups(pres, ElementSubgroup)):
            assert ElementSubgroup.of(H).elements == EH.elements, (pres, H)
            assert H.abelianization() == EH.abelianization(), (pres, H)
            assert transfer_kernel(pres, H) == oracle.transfer_kernel(pres, EH), (pres, H)
            # the chain and H' read once; transfer, which looks them up per call, is compared
            # at every element of SMALL below
            ectx = oracle.transfer_context(pres, EH)
            steps, Hp = oracle.chain(pres, H), gengroup._table_entry(pres, H).derived
            for g in elements(pres):
                got = coset_rep(Hp, oracle.transfer_along(pres, steps, g))
                assert ectx["hprime_rep"][got] == oracle.element_transfer(pres, EH, g, ectx), (pres, H, g)


def test_random_subgroups_match_element_oracle():
    # arbitrary subgroups, not only those over G': closure, order, membership, <=, == and
    # derived subgroups
    rng = random.Random(17)
    for pres in SMALL:
        elems = elements(pres)
        for _ in range(25):
            gens_h = rng.sample(elems, rng.randint(1, 3))
            gens_k = rng.sample(elems, rng.randint(1, 3))
            H, K = Subgroup.generated(pres, gens_h), Subgroup.generated(pres, gens_k)
            EH, EK = ElementSubgroup.generated(pres, gens_h), ElementSubgroup.generated(pres, gens_k)
            assert ElementSubgroup.of(H).elements == EH.elements, (pres, gens_h)
            assert H.order == EH.order
            assert (H <= K) == (EH.elements <= EK.elements)
            assert (H == K) == (EH.elements == EK.elements)
            assert ElementSubgroup.of(H.derived_subgroup()).elements == EH.derived_subgroup().elements
            assert H.abelianization() == EH.abelianization(), (pres, gens_h)
            assert Subgroup.generated(pres, generators(H)) == H


def test_quotient_types_of_the_three_relation_shapes_match_element_oracle():
    # H/N is read off [[x, y], [0, z]] when H lies in A or H and N both leave it, and off
    # [[x, y, 0], [0, z, 0], [a, b, -2]] when H leaves A and N lies in it; each shape occurs
    rng, shapes = random.Random(20), Counter()
    for pres in SMALL:
        elems = elements(pres)
        for _ in range(25):
            H = Subgroup.generated(pres, rng.sample(elems, rng.randint(1, 3)))
            EH, Hp = ElementSubgroup.of(H), H.derived_subgroup()
            inside = rng.choices(sorted(EH.elements), k=rng.randint(0, 2))
            N = Subgroup.generated(pres, [*generators(Hp), *inside])
            for M in (Hp, N):
                shapes[H.r is None, M.r is None] += 1
            assert H.abelianization() == EH.abelianization(), (pres, H)
            EN = ElementSubgroup.of(N)
            assert abelian_invariants(H, N) == oracle.abelian_invariants(EH, EN), (pres, H, N)
    assert set(shapes) == {(True, True), (False, False), (False, True)}, shapes  # each occurs


def test_transfers_over_the_derived_subgroup_match_element_oracle():
    # all 16 subgroups over G' (G, the seven of index 2, the seven of index 4, G'): every
    # transfer value agrees with the oracle's generic right-transversal transfer
    for pres in SMALL:
        G = Subgroup.whole_group(pres)
        for H in [G, *_engine_subgroups(pres), G.derived_subgroup()]:
            EH = ElementSubgroup.of(H)
            ectx = oracle.transfer_context(pres, EH)
            for g in elements(pres):
                got = transfer(pres, H, g)
                assert ectx["hprime_rep"][got] == oracle.element_transfer(pres, EH, g, ectx), (pres, H, g)
        # below G' the quotient G/H is not elementary abelian: no chain of index-2 steps
        for H in (Subgroup.generated(pres, [pres.rho()]), Subgroup.generated(pres, [pres.sigma()]),
                  Subgroup.trivial(pres)):
            with pytest.raises(ValueError, match="containing G'"):
                transfer(pres, H, pres.tau())
            with pytest.raises(ValueError, match="containing G'"):
                transfer_kernel(pres, H)


def _accepted_presentations(max_m, max_n):
    """Every presentation GPresentation accepts with m <= max_m, n <= max_n, admissible or not."""
    out = []
    for m, n, q, psi in itertools.product(range(2, max_m + 1), range(1, max_n + 1), (1, 2), (SIGMA, TAU_SIGMA)):
        try:
            out.append(GPresentation(m, n, q, psi))
        except PresentationError:
            pass
    return out


def test_over_derived_matches_generated_oracle_and_intersections():
    # the 7 planes (K_j) and 7 lines (L_j) of F_2^3 against the closure of <G', class reps>, the
    # element oracle, and for a line the intersection of the three planes through it
    nonzero = [v for v in CLASS_VECTORS if v != (0, 0, 0)]
    planes = {span(vs) for vs in itertools.combinations(nonzero, 2)}
    lines = {span([v]) for v in nonzero}
    assert len(planes) == len(lines) == 7
    presentations = _accepted_presentations(4, 4)
    assert len(presentations) == 28
    for pres in presentations:
        derived = Subgroup.whole_group(pres).derived_subgroup()
        assert over_derived(pres, frozenset(CLASS_VECTORS)) == Subgroup.whole_group(pres)
        built = {}
        for classes in planes | lines:
            H = built[classes] = over_derived(pres, classes)
            gens = [class_to_group(pres, v) for v in sorted(classes)] + list(generators(derived))
            assert H == Subgroup.generated(pres, gens), (pres, sorted(classes))
            assert ElementSubgroup.of(H).elements == ElementSubgroup.generated(pres, gens).elements
            assert Subgroup.whole_group(pres).order // H.order == 8 // len(classes)
        for line in lines:
            above = [built[plane] for plane in planes if line < plane]
            assert len(above) == 3
            meet = reduce(ElementSubgroup.intersection, map(ElementSubgroup.of, above))
            assert meet.elements == ElementSubgroup.of(built[line]).elements, (pres, sorted(line))


def test_over_derived_rejects_a_non_subspace():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    for classes in (frozenset(), frozenset({(1, 0, 0)}), frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0)}),
                    frozenset({(0, 0, 0), (2, 0, 0)})):
        with pytest.raises(ValueError, match="not a subspace of F_2"):
            over_derived(pres, classes)


def test_one_subgroup_plan_for_every_accepted_presentation():
    # the representatives' bits mod 2, and so H & A and r of the 16 subgroups over G', are the
    # same in every presentation the constructor accepts (order <= 2^MAX_ORDER_BITS), and the
    # plan read by over_derived gives the subgroups of the Hermite basis formed anew
    presentations = _accepted_presentations(gengroup.MAX_ORDER_BITS, gengroup.MAX_ORDER_BITS)
    assert len(presentations) == 287
    assert len({tuple(pres._plan.items()) for pres in presentations}) == 1
    for pres in presentations:
        for V in gengroup.SUBSPACES:
            H = oracle.reference_over_derived(pres, V)
            assert over_derived(pres, V) == H and pres._plan[V] == (H.lattice, H.r), (pres, V)


def test_over_derived_follows_forged_class_representatives():
    # representatives forged to other bits mod 2 (other cosets of G', inside A or not) get a
    # plan of their own, made on first use, and over_derived still gives the subgroups that
    # the Hermite basis of their vectors gives
    rng = random.Random(34)
    plans = len(gengroup._PLANS)
    for pres in SMALL * 3:
        pres = GPresentation(*pres)  # a fresh instance, with no plan read yet
        forged = (pres.identity(), *(pres.element(rng.randrange(2), rng.randrange(pres.a_mod),
                                                  rng.randrange(pres.b_mod)) for _ in range(7)))
        pres.__dict__["class_elements"] = forged
        for V in gengroup.SUBSPACES:
            assert over_derived(pres, V) == oracle.reference_over_derived(pres, V), (forged, V)
    assert len(gengroup._PLANS) > plans


_NOT_T_STABLE = """
from classtower import gengroup
from classtower.abelian import GroupCheckError
pres = gengroup.GPresentation(2, 2, 2)
gengroup._hermite = lambda vectors: (1, 1, 8)  # T = diag(3, -1) takes (1, 1) to (3, -1), outside
try:
    gengroup.over_derived(pres, gengroup.span([(0, 1, 0), (1, 0, 0)]))
except GroupCheckError as exc:
    print(__debug__, exc)
"""


def test_over_derived_rejects_a_forged_basis_under_python_O():
    # the T-stability check of a subgroup outside A is an explicit raise, so it survives -O
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _NOT_T_STABLE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout == "False lattice (1, 1, 8) of a subgroup outside A is not T-stable\n"


def test_hermite_rejects_rank_deficient_input():
    for vectors in ([], [(0, 0)], [(2, 4), (-1, -2)], [(0, 3), (0, 5)], [(3, 1), (0, 0), (6, 2)]):
        with pytest.raises(GroupCheckError, match="full-rank"):
            _hermite(vectors)


_VECTORS = st.lists(st.one_of(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), st.just((0, 0))),
                    max_size=5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pres=st.sampled_from(SMALL), vectors=_VECTORS, sign=st.sampled_from([1, -1]), data=st.data())
def test_hermite_matches_echelon(pres, vectors, sign, data):
    # spanning sets with negative entries, zero rows and duplicates around a full-rank Lambda;
    # the basis is pinned by h11 (the gcd of the first coordinates), h11 h22 (the gcd of the
    # 2 x 2 minors, the index of the lattice) and every spanning vector lying in the lattice
    lam = [(sign * a, sign * b) for a, b in _rows(pres.relations)]
    spanning = data.draw(st.permutations(vectors + vectors[:data.draw(st.integers(0, 2))] + lam))
    h11, h12, h22 = lattice = _hermite(spanning)
    assert 0 <= h12 < h22
    assert h11 == gcd(*(a for a, _ in spanning))
    assert h11 * h22 == gcd(*(a * d - b * c for (a, b), (c, d) in itertools.combinations(spanning, 2)))
    assert all(_reduce(lattice, a, b) == (0, 0) for a, b in spanning)


_ADMISSIBLE_UP_TO_GUARD = st.one_of(  # every admissible pattern with |G| <= 2^20
    st.builds(lambda m, psi: GPresentation(m, 1, 1, psi), st.integers(3, 17), st.sampled_from([SIGMA, TAU_SIGMA])),
    st.builds(lambda n, psi: GPresentation(2, n, 1, psi), st.integers(2, 16), st.sampled_from([SIGMA, TAU_SIGMA])),
    st.builds(lambda n: GPresentation(2, n, 2, TAU_SIGMA), st.integers(1, 15)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pres=_ADMISSIBLE_UP_TO_GUARD, data=st.data())
def test_structure_theorems_beyond_the_oracle(pres, data):
    profile = Profile(1, 1, 1, pres.q, pres.m, pres.n, pres.psi)
    G = Subgroup.whole_group(pres)
    Gp = G.derived_subgroup()
    assert abelian_invariants(G, Gp) == AbelianType((2, 2, 2))
    assert abelian_invariants(Gp, Subgroup.trivial(pres)) == derived_type(profile)
    assert Gp == Subgroup.generated(pres, [pres.word("ss"), pres.word("tt")])
    series = lower_central_series(pres)
    assert len(series) - 1 == nilpotency_class_formula(profile)
    assert pres.order.bit_length() - len(series) == 3  # coclass
    coords = st.integers(0, 1 << 21)
    g = pres.element(data.draw(st.integers(0, 1)), data.draw(coords), data.draw(coords))
    d = pres.element(0, 2 * data.draw(coords), 2 * data.draw(coords))
    assert d in Gp
    x, y = (pres.element(data.draw(st.integers(0, 1)), data.draw(coords), data.draw(coords))
            for _ in range(2))
    for H in _engine_subgroups(pres):
        Hp = H.derived_subgroup()
        assert transfer(pres, H, pres.mul(g, d)) == transfer(pres, H, g)
        # the transfer is a homomorphism into H/H', and its kernel a subgroup of (Z/2)^3
        assert transfer(pres, H, pres.mul(x, y)) == coset_rep(
            Hp, pres.mul(transfer(pres, H, x), transfer(pres, H, y)))
        kern = transfer_kernel(pres, H)
        assert {vadd(u, v) for u in kern for v in kern} == kern
