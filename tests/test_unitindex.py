import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from classtower.quadratic import fundamental_unit
from classtower.symbols import validate_pair
from classtower.unitindex import (
    MultiQuadElt,
    exact_square_root,
    q_from_symbols,
    unit_index_q,
    unit_product,
)


def test_multiquad_ring():
    r = 65
    s2 = MultiQuadElt.make(r, 0, 1, 0, 0)
    sr = MultiQuadElt.make(r, 0, 0, 1, 0)
    s2r = MultiQuadElt.make(r, 0, 0, 0, 1)
    assert (s2 * s2).c == (2, 0, 0, 0)
    assert (sr * sr).c == (r, 0, 0, 0)
    assert (s2 * sr).c == (0, 0, 0, 1)
    assert (s2 * s2r).c == (0, 0, 2, 0)
    assert (sr * s2r).c == (0, r, 0, 0)
    x = MultiQuadElt.make(r, Fraction(1, 2), 3, Fraction(-2, 3), 1)
    y = MultiQuadElt.make(r, 2, Fraction(1, 2), 5, Fraction(7, 2))
    z = MultiQuadElt.make(r, 1, 1, 1, 1)
    assert ((x * y) * z).c == (x * (y * z)).c
    assert (x * y).c == (y * x).c


def _conj_sqrt2(x: MultiQuadElt) -> MultiQuadElt:
    """The conjugate fixing Q(sqrt r): sqrt(2) -> -sqrt(2)."""
    c0, c1, c2, c3 = x.c
    return MultiQuadElt(x.r, (c0, -c1, c2, -c3))


def test_conjugations_are_ring_maps():
    r = 65
    x = MultiQuadElt.make(r, 1, 2, 3, 4)
    y = MultiQuadElt.make(r, -1, 5, 0, 2)
    for conj in (MultiQuadElt.conj_sqrt_r, _conj_sqrt2):
        assert conj(x * y).c == (conj(x) * conj(y)).c
        assert conj(x + y).c == (conj(x) + conj(y)).c


def test_exact_square_root_constructed_squares():
    r = 65
    eps2 = MultiQuadElt.make(r, 1, 1, 0, 0)
    root = exact_square_root(eps2 * eps2)
    assert root is not None and (root * root).c == (eps2 * eps2).c
    assert root.c == eps2.c  # principal-embedding-positive representative
    one = MultiQuadElt.make(r, 1)
    assert exact_square_root(one).c == one.c
    # a denominator-2 root
    half = MultiQuadElt.make(r, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), 1)
    sq = half * half
    root = exact_square_root(sq)
    assert root is not None and (root * root).c == sq.c


def test_exact_square_root_negative_cases():
    r = 65
    s2 = MultiQuadElt.make(r, 0, 1, 0, 0)
    assert exact_square_root(s2) is None  # sqrt(sqrt2) is not in the field
    assert exact_square_root(MultiQuadElt.make(r, 3)) is None
    eps2 = MultiQuadElt.make(r, 1, 1, 0, 0)  # not totally positive
    assert exact_square_root(eps2) is None


_HALF_INTEGERS = st.integers(-40, 40).map(lambda k: Fraction(k, 2))


@given(st.sampled_from((65, 377)), st.tuples(*[_HALF_INTEGERS] * 4).filter(any))
def test_exact_square_root_property(r, coeffs):
    s = MultiQuadElt(r, coeffs)
    target = s * s
    root = exact_square_root(target)
    assert root is not None and root.c in (s.c, (-s).c)
    assert root.principal_sign() == 1
    terms = [float(c) * math.sqrt(m) for c, m in zip(root.c, (1, 2, r, 2 * r))]
    if abs(sum(terms)) > 1e-9 * sum(map(abs, terms)):  # float sign unambiguous
        assert sum(terms) > 0
    for t in (MultiQuadElt.make(r, 3), MultiQuadElt.make(r, 0, 1), MultiQuadElt.make(r, 1, 1)):
        assert exact_square_root(target * t) is None


def test_principal_sign_under_cancellation():
    # (sqrt2 - 1)^k * (sqrt65 - 8)^j is tiny and positive, with huge coefficients
    # on all four basis elements that nearly cancel: the sign test must refine
    # its scale and bound every term from both sides
    r = 65
    u, v = MultiQuadElt.make(r, -1, 1, 0, 0), MultiQuadElt.make(r, -8, 0, 1, 0)
    x = MultiQuadElt.make(r, 1)
    for _ in range(12):
        y = x
        for _ in range(12):
            assert y.principal_sign() == 1
            assert (-y).principal_sign() == -1
            y = y * v
        x = x * u
    with pytest.raises(ValueError):
        MultiQuadElt.make(r).principal_sign()


def test_unit_product_is_exactly_representable():
    pair = validate_pair(5, 13)
    prod = unit_product(pair)
    # eps_2 = 1+sqrt2, eps_65 = 8+sqrt65, eps_130 = 57+5*sqrt130
    assert fundamental_unit(130).u == 57
    e2 = MultiQuadElt.make(65, 1, 1, 0, 0)
    e65 = MultiQuadElt.make(65, 8, 0, 1, 0)
    e130 = MultiQuadElt.make(65, 57, 0, 0, 5)
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
    from classtower.symbols import primes_5_mod_8

    ps = primes_5_mod_8(150)
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            pair = validate_pair(p1, p2)
            if pair.legendre == -1:
                assert unit_index_q(pair) == q_from_symbols(pair)


def test_mixed_fields_are_a_type_error():
    x, y = MultiQuadElt.make(65, 1, 1), MultiQuadElt.make(377, 1, 1)
    for op in (MultiQuadElt.__add__, MultiQuadElt.__sub__, MultiQuadElt.__mul__):
        with pytest.raises(TypeError):
            op(x, y)
