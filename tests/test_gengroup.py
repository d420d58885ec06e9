import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import classtower
from classtower.abelian import AbelianType, GroupCheckError, abelian_structure
from classtower.gengroup import (
    CLASS_VECTORS,
    GPresentation,
    PresentationError,
    PsiVariant,
    Subgroup,
    abelian_invariants,
    class_to_group,
    coclass,
    lower_central_series,
    nilpotency_class,
    span,
    transfer,
    transfer_context,
    transfer_index2,
    transfer_kernel,
    _normal_closure,
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
        elems = pres.elements()
        assert len(elems) == len(set(elems)) == pres.order
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
        assert pres.power(rho, 4) == e
        assert pres.power(sig, 1 << pres.m) == (
            e if pres.q == 1 else pres.power(tau, 1 << (pres.n + 1))
        )
        assert pres.power(tau, 1 << (pres.n + 1 + (pres.q == 2))) == e
        psi = pres.mul(rho, rho)
        pa = 1 << (pres.m - 1)
        pb = 0 if (pres.q == 1 and pres.psi is SIGMA) else 1 << pres.n
        assert psi == pres.element(0, pa, pb)
        assert pres.commutator(tau, sig) == e
        twist = pres.power(sig, 2 if pres.q == 1 else -2)
        assert pres.commutator(rho, sig) == twist
        assert pres.commutator(rho, tau) == pres.power(tau, 2)


def test_associativity_exhaustive_small():
    pres = GPresentation(2, 1, 2)  # order 64; 64^3 triples
    elems = pres.elements()
    for x in elems:
        for y in elems:
            xy = pres.mul(x, y)
            for z in elems:
                assert pres.mul(xy, z) == pres.mul(x, pres.mul(y, z))


def test_associativity_random_larger():
    rng = random.Random(11)
    for pres in admissible_presentations(5, 5):
        elems = pres.elements()
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
        assert pres.conj(sig, rho) == pres.power(sig, -1 if pres.q == 1 else 3)
        assert pres.conj(tau, rho) == inv(tau)
        rho2 = mul(rho, rho)
        assert pres.commutator(rho2, sig) == pres.identity()
        assert pres.commutator(rho2, tau) == pres.identity()
        taurho = mul(tau, rho)
        assert mul(taurho, taurho) == rho2
        sigrho = mul(sig, rho)
        sigtaurho = mul(sig, taurho)
        expected = rho2 if pres.q == 1 else mul(rho2, pres.power(sig, 4))
        assert mul(sigrho, sigrho) == expected
        assert mul(sigtaurho, sigtaurho) == expected
        for r in range(0, pres.n + 2):
            t2r = pres.power(tau, 1 << r)
            assert pres.commutator(rho, t2r) == pres.power(tau, 1 << (r + 1))
            s2r = pres.power(sig, 1 << r)
            sign = 1 if pres.q == 1 else -1
            assert pres.commutator(rho, s2r) == pres.power(sig, sign * (1 << (r + 1)))


def test_derived_subgroup_is_squares():
    for pres in admissible_presentations(5, 5):
        G = Subgroup.whole_group(pres)
        derived = G.derived_subgroup()
        expected = Subgroup.generated(
            pres, [pres.power(pres.sigma(), 2), pres.power(pres.tau(), 2)]
        )
        assert derived.elements == expected.elements


def test_lower_central_series_and_coclass():
    for pres in admissible_presentations(5, 5):
        series = lower_central_series(pres)
        for j in range(1, len(series)):
            expected = Subgroup.generated(
                pres,
                [
                    pres.power(pres.sigma(), 1 << j),
                    pres.power(pres.tau(), 1 << j),
                ],
            )
            assert series[j].elements == expected.elements, (pres, j)
        m, n = pres.m, pres.n
        if pres.q == 1:
            expected_class = max(n, m - 1) + 1
        else:
            expected_class = max(n + 1, m) + 1
        assert nilpotency_class(pres) == expected_class
        assert coclass(pres) == 3


def test_abelianization_is_2_2_2():
    for pres in SMALL:
        G = Subgroup.whole_group(pres)
        assert abelian_invariants(G, G.derived_subgroup()) == AbelianType((2, 2, 2))


def test_abelian_invariants_examples():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    sig, tau, rho = pres.sigma(), pres.tau(), pres.rho()
    H = Subgroup.generated(pres, [sig, pres.power(tau, 2)])
    assert abelian_invariants(H, Subgroup.trivial(pres)) == AbelianType((2, 8))
    K1 = Subgroup.generated(pres, [sig, rho])
    assert K1.abelianization() == AbelianType((2, 4))


def test_abelian_invariants_rejects_non_normal():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    G = Subgroup.whole_group(pres)
    H = Subgroup.generated(pres, [pres.rho()])  # <rho> is not normal in G
    assert not H.is_normal_in(G)
    with pytest.raises(ValueError):
        abelian_invariants(G, H)


def test_transfer_known_values():
    # V_{G/G1}(rho G') = G1', V(tau G') = tau^2 G1' != G1' when (p1/p2) = -1
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    G1 = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    ctx = transfer_context(pres, G1)
    triv = ctx["hprime_rep"][pres.identity()]
    assert transfer(pres, G1, pres.rho(), _ctx=ctx) == triv
    assert transfer(pres, G1, pres.sigma(), _ctx=ctx) == triv
    tau_val = transfer(pres, G1, pres.tau(), _ctx=ctx)
    assert tau_val == ctx["hprime_rep"][pres.power(pres.tau(), 2)]
    assert tau_val != triv


def test_transfer_identity_is_trivial():
    for pres in SMALL[:3]:
        H = Subgroup.generated(pres, [pres.sigma(), pres.tau()])
        ctx = transfer_context(pres, H)
        triv = ctx["hprime_rep"][pres.identity()]
        assert transfer(pres, H, pres.identity(), _ctx=ctx) == triv


def test_transfer_closed_form_agrees_with_generic():
    # every index-2 subgroup, every element, orders <= 2^9
    for pres in SMALL:
        if pres.order > 512:
            continue
        G = Subgroup.whole_group(pres)
        derived = G.derived_subgroup()
        for H in _index2_subgroups(pres, derived):
            ctx = transfer_context(pres, H)
            z = next(x for x in sorted(G.elements) if x not in H.elements)
            for g in sorted(G.elements):
                assert transfer(pres, H, g, _ctx=ctx) == transfer_index2(pres, H, g, z)


def _index2_subgroups(pres, derived):
    # index-2 subgroups = preimages of index-2 subgroups of G/(G')  = (2,2,2)
    from classtower.gengroup import vadd

    out = []
    for kernel_vectors in itertools.combinations([v for v in CLASS_VECTORS if v != (0, 0, 0)], 2):
        vs = span(kernel_vectors)
        if len(vs) != 4:
            continue
        gens = [class_to_group(pres, v) for v in vs] + list(derived.generators)
        out.append(Subgroup.generated(pres, gens))
    seen = set()
    uniq = []
    for H in out:
        if H.elements not in seen:
            seen.add(H.elements)
            uniq.append(H)
    assert len(uniq) == 7
    return uniq


def test_transfer_rep_choice_independence():
    rng = random.Random(3)
    pres = GPresentation(2, 1, 2)
    H = Subgroup.generated(pres, [pres.tau(), pres.power(pres.sigma(), 2)])
    ctx = transfer_context(pres, H)
    G = Subgroup.whole_group(pres)
    for _ in range(40):
        g = rng.choice(sorted(G.elements))
        base = transfer(pres, H, g, _ctx=ctx)
        # transfer of any element of the same G'-coset agrees
        derived = G.derived_subgroup()
        d = rng.choice(sorted(derived.elements))
        assert transfer(pres, H, pres.mul(g, d), _ctx=ctx) == base


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
    H2 = Subgroup.generated(pres2, [pres2.tau(), pres2.power(pres2.sigma(), 2)])
    assert transfer_kernel(pres2, H2) == frozenset(CLASS_VECTORS)


def test_class_to_group_dictionary():
    for pres in SMALL:
        G = Subgroup.whole_group(pres)
        derived = G.derived_subgroup()
        # the 8 class vectors hit the 8 cosets of G' exactly once
        seen = set()
        for v in CLASS_VECTORS:
            x = class_to_group(pres, v)
            coset = frozenset(pres.mul(x, d) for d in derived.elements)
            seen.add(coset)
        assert len(seen) == 8
        # sigma lands in the [H1 H2] coset
        x = class_to_group(pres, (0, 1, 1))
        assert pres.mul(pres.inv(x), pres.sigma()) in derived.elements


def test_word_helper():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    assert pres.word("st") == pres.mul(pres.sigma(), pres.tau())
    assert pres.word("ss") == pres.power(pres.sigma(), 2)
    assert pres.word("") == pres.identity()


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
        elems = pres.elements()
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
        conj = {pres.conj(x, g) for x in sub for g in conjugators}
        if conj <= sub:
            return sub
        current = sub | conj


def _ref_lower_central_series(pres):
    """Element sets gamma_1 = G, ..., 1, with gamma_(i+1) seeded by every element of gamma_i."""
    gens = (pres.rho(), pres.sigma(), pres.tau())
    series = [_ref_closure(pres, gens)]
    while len(series[-1]) > 1:
        seeds = {pres.commutator(x, g) for x in series[-1] for g in gens}
        series.append(_ref_normal_closure(pres, seeds, gens))
        assert series[-1] < series[-2]
    return series


def _ref_transfer_values(pres, H):
    """V_{G/H}(g) for each class vector, from a locate table over all of G.

    The transversal is the largest element of each right coset (the engine
    once took the smallest), so this also checks independence of that choice.
    """
    locate, reps = {}, []
    for x in sorted(pres.elements(), reverse=True):
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


def _engine_subgroups(pres):
    """The 14 subgroups the engine checks: the index-2 and index-4 subgroups over G'."""
    derived = Subgroup.whole_group(pres).derived_subgroup()
    nonzero = [v for v in CLASS_VECTORS if v != (0, 0, 0)]
    spans = {span(vs) for k in (1, 2) for vs in itertools.combinations(nonzero, k)}
    out = [
        Subgroup.generated(pres, [class_to_group(pres, v) for v in sorted(vs)] + list(derived.generators))
        for vs in sorted(spans, key=sorted)
    ]
    assert sorted(H.index_in(Subgroup.whole_group(pres)) for H in out) == [2] * 7 + [4] * 7
    return out


def test_transfer_matches_locate_table_reference():
    for pres in admissible_presentations(4, 4):
        for H in _engine_subgroups(pres):
            ctx = transfer_context(pres, H)
            hprime = _ref_normal_closure(
                pres, [pres.commutator(x, y) for x, y in itertools.combinations(H.generators, 2)],
                H.generators,
            )
            assert hprime == ctx["derived"].elements
            ref = _ref_transfer_values(pres, H)
            for v, val in ref.items():
                got = transfer(pres, H, class_to_group(pres, v), _ctx=ctx)
                assert got == ctx["hprime_rep"][val], (pres, H.generators, v)
            ref_kernel = frozenset(v for v, val in ref.items() if val in hprime)
            assert transfer_kernel(pres, H) == ref_kernel, (pres, H.generators)


def test_lower_central_series_matches_element_seeded_reference():
    for pres in admissible_presentations(4, 4):
        assert [s.elements for s in lower_central_series(pres)] == _ref_lower_central_series(pres)


def test_normal_closure_matches_reference():
    # <x> is not always normal (e.g. x = rho), so the conjugates matter
    for pres in SMALL:
        gens = (pres.rho(), pres.sigma(), pres.tau())
        for x in pres.elements():
            assert _normal_closure(pres, [x], gens).elements == _ref_normal_closure(pres, [x], gens)


def test_abelian_structure_self_checks():
    # 8-element non-groups, given by their squaring maps (op is only called with x == y)
    with pytest.raises(GroupCheckError, match="does not fill order"):
        abelian_structure(range(8), lambda x, y: x, 0)  # x^2 = x: no 2-torsion but 0
    squares = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 5, 7: 6}  # torsion counts 1, 3, 5, ...
    with pytest.raises(GroupCheckError, match="p-power graded"):
        abelian_structure(range(8), lambda x, y: squares[x], 0)


def test_transfer_rejects_a_broken_transversal():
    pres = GPresentation(3, 1, 1, TAU_SIGMA)
    H = Subgroup.generated(pres, [pres.sigma(), pres.rho()])
    ctx = transfer_context(pres, H)
    ctx["rep_inverses"].append(ctx["rep_inverses"][0])  # coset H listed twice
    with pytest.raises(GroupCheckError):
        transfer(pres, H, pres.tau(), _ctx=ctx)


_UNCLOSED = """
from classtower.abelian import GroupCheckError
from classtower.gengroup import GPresentation, Subgroup
pres = GPresentation(3, 1, 1)
try:
    Subgroup.from_elements(pres, [pres.identity(), pres.sigma()])
except GroupCheckError as exc:
    print(__debug__, exc)
"""


def test_from_elements_rejects_unclosed_set_under_python_O():
    # an explicit raise survives -O, where an assert statement vanishes
    src = str(Path(classtower.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _UNCLOSED], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout == "False element set is not closed under the group law\n"
