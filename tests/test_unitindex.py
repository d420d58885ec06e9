from collections import Counter

import pytest
from hypothesis import given, strategies as st

from classtower.quadratic import fundamental_unit
from classtower.symbols import PrimePair, is_prime, primes_5_mod_8, validate_pair
from classtower.unitindex import (
    MultiQuadElt,
    exact_square_root,
    q_from_symbols,
    unit_index_q,
    unit_product,
)


def _elt(r, *doubled):
    """The element with doubled coordinates (c0, c1, c2, c3), zero-padded."""
    return MultiQuadElt(r, (*doubled, 0, 0, 0, 0)[:4])


def test_multiquad_ring():
    r = 65
    s2 = _elt(r, 0, 2, 0, 0)
    sr = _elt(r, 0, 0, 2, 0)
    s2r = _elt(r, 0, 0, 0, 2)
    assert (s2 * s2).c == (4, 0, 0, 0)
    assert (sr * sr).c == (2 * r, 0, 0, 0)
    assert (s2 * sr).c == (0, 0, 0, 2)
    assert (s2 * s2r).c == (0, 0, 4, 0)
    assert (sr * s2r).c == (0, 2 * r, 0, 0)
    x = _elt(r, 1, 6, -3, 2)
    y = _elt(r, 4, 1, 10, 7)
    z = _elt(r, 2, 2, 2, 2)
    assert ((x * y) * z).c == (x * (y * z)).c
    assert (x * y).c == (y * x).c


def test_non_integers_are_rejected():
    # (1, 0, 0, 0)/2 = 1/2 and (0, 1, 1, 0)/2 = (sqrt2 + sqrt r)/2 are not integers of K
    for c in ((1, 0, 0, 0), (0, 1, 1, 0)):
        with pytest.raises(ValueError):
            MultiQuadElt(65, c)


def _negated(c):
    return tuple(-x for x in c)


def _conj_sqrt2(x: MultiQuadElt) -> MultiQuadElt:
    """The conjugate fixing Q(sqrt r): sqrt(2) -> -sqrt(2)."""
    c0, c1, c2, c3 = x.c
    return MultiQuadElt(x.r, (c0, -c1, c2, -c3))


def test_conjugations_are_ring_maps():
    r = 65
    x = _elt(r, 1, 2, 3, 4)
    y = _elt(r, -1, 5, 1, 1)
    for conj in (MultiQuadElt.conj_sqrt_r, _conj_sqrt2):
        assert conj(x * y).c == (conj(x) * conj(y)).c


def test_exact_square_root_constructed_squares():
    r = 65
    eps2 = _elt(r, 2, 2, 0, 0)
    root = exact_square_root(eps2 * eps2)
    assert root is not None and (root * root).c == (eps2 * eps2).c
    assert root.c in (eps2.c, _negated(eps2.c))
    one = _elt(r, 2)
    assert exact_square_root(one).c in (one.c, _negated(one.c))
    # a half-integral root: (1 + 3*sqrt2 + sqrt r + 3*sqrt 2r)/2
    half = _elt(r, 1, 3, 1, 3)
    sq = half * half
    root = exact_square_root(sq)
    assert root is not None and (root * root).c == sq.c
    assert root.c in (half.c, _negated(half.c))


def test_exact_square_root_of_zero_is_zero():
    for r in (65, 377):
        zero = _elt(r)
        assert exact_square_root(zero) == zero


def test_exact_square_root_negative_cases():
    r = 65
    s2 = _elt(r, 0, 2, 0, 0)
    assert exact_square_root(s2) is None  # sqrt(sqrt2) is not in the field
    assert exact_square_root(_elt(r, 6)) is None
    eps2 = _elt(r, 2, 2, 0, 0)  # not totally positive
    assert exact_square_root(eps2) is None


# doubled coordinates of integers of K: c0 = c2 and c1 = c3 (mod 2), half-integral ones included
_INTEGERS_OF_K = st.tuples(*[st.integers(-40, 40)] * 4).filter(
    lambda c: (c[0] - c[2]) % 2 == 0 and (c[1] - c[3]) % 2 == 0)


@given(st.sampled_from((65, 377)), _INTEGERS_OF_K.filter(any))
def test_exact_square_root_property(r, coeffs):
    s = MultiQuadElt(r, coeffs)
    target = s * s
    root = exact_square_root(target)
    assert root is not None and root * root == target and root.c in (s.c, _negated(s.c))
    for t in (_elt(r, 6), _elt(r, 0, 2), _elt(r, 2, 2)):
        assert exact_square_root(target * t) is None


def test_unit_product_is_exactly_representable():
    pair = validate_pair(5, 13)
    prod = unit_product(pair)
    # eps_2 = 1+sqrt2, eps_65 = 8+sqrt65, eps_130 = 57+5*sqrt130
    assert fundamental_unit(130).u == 57
    e2 = _elt(65, 2, 2, 0, 0)
    e65 = _elt(65, 16, 0, 2, 0)
    e130 = _elt(65, 114, 0, 0, 10)
    assert prod.c == (e2 * e65 * e130).c


def test_q_fixture_rows():
    assert unit_index_q(validate_pair(5, 13)) == 2  # d = 130
    assert unit_index_q(validate_pair(5, 37)) == 1  # d = 370
    assert unit_index_q(validate_pair(5, 29)) == 1  # d = 290
    assert unit_index_q(validate_pair(13, 29)) == 1  # d = 754, N(eps_377) = +1


def test_q_discriminating_rows():
    # these rows separate implementations when (p1/p2) = +1, N(eps_r) = -1
    assert unit_index_q(validate_pair(5, 461)) == 2  # d = 4610
    assert unit_index_q(validate_pair(5, 509)) == 2  # d = 5090
    assert unit_index_q(validate_pair(5, 541)) == 1  # d = 5410
    assert unit_index_q(validate_pair(5, 709)) == 2  # d = 7090


def test_q_from_symbols():
    assert q_from_symbols(validate_pair(5, 13)) == 2
    assert q_from_symbols(validate_pair(5, 37)) == 1
    with pytest.raises(ValueError):
        q_from_symbols(validate_pair(13, 29))  # (13/29) = +1


def test_q_agreement_small_range():
    ps = primes_5_mod_8(150)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            pair = validate_pair(p1, p2)
            if pair.legendre == -1:
                assert unit_index_q(pair) == q_from_symbols(pair)


def test_mixed_fields_are_a_type_error():
    x, y = _elt(65, 2, 2), _elt(377, 2, 2)
    with pytest.raises(TypeError):
        x * y


def _full_square_test(pair) -> int:
    """q from the square test alone, with no shortcut: is eps_2 eps_r eps_2r a square?"""
    return 2 if exact_square_root(unit_product(pair)) is not None else 1


def test_unit_index_q_matches_the_full_square_test():
    ps = primes_5_mod_8(500)
    signs = Counter()
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            pair = validate_pair(p1, p2)
            assert unit_index_q(pair) == _full_square_test(pair), pair
            signs[pair.legendre] += 1
    assert signs[1] > 100 and signs[-1] > 100


def test_unit_index_shortcuts_hold_beyond_the_pairs():
    # N(eps_2r) = -1 for every valid pair, so the N(eps_2r) = +1 shortcut is checked on
    # products r = p1*p2 = 1 (mod 8) of other primes, where all four norm patterns occur
    ps = [p for p in range(3, 200) if is_prime(p)]
    branches = Counter()
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            if p1 * p2 % 8 == 1:
                pair = PrimePair(p1, p2)
                assert unit_index_q(pair) == _full_square_test(pair), pair
                branches[fundamental_unit(pair.r).norm, fundamental_unit(2 * pair.r).norm] += 1
    assert set(branches) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
