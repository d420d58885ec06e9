import pytest

from classtower.gaussian import (
    ONE_PLUS_I,
    GaussianInt,
    gauss_symbol,
    split_prime,
    symbol_B,
    symbol_pi,
)
from classtower.symbols import jacobi, primes_5_mod_8, quartic_symbol, validate_pair


def split_brute(p):
    """Exhaustive e, f search; oracle for split_prime."""
    f = 1
    while 4 * f * f < p:
        e2 = p - 4 * f * f
        e = int(e2**0.5)
        for cand in (e - 1, e, e + 1):
            if cand > 0 and cand * cand == e2:
                return cand, f
        f += 1
    raise AssertionError


def _norm(x):
    return x.re * x.re + x.im * x.im


def test_gaussian_ring_ops():
    x = GaussianInt(3, -2)
    y = GaussianInt(-1, 4)
    assert x * y == GaussianInt(5, 14)
    assert _norm(x * y) == _norm(x) * _norm(y)
    assert x * x.conjugate() == GaussianInt(13, 0)


def test_split_prime_examples():
    assert split_prime(5).pi == GaussianInt(1, 2)
    assert split_prime(13).pi == GaussianInt(3, 2)
    assert split_prime(29).pi == GaussianInt(5, 2)


def test_split_prime_against_brute_force():
    for p in primes_5_mod_8(2000):
        sp = split_prime(p)
        e, f = split_brute(p)
        assert (sp.pi.re, sp.pi.im // 2) == (e, f) and sp.pi.im % 2 == 0
        assert sp.pi * sp.pi.conjugate() == GaussianInt(p, 0)
        assert sp.pi.re % 2 == 1 and sp.pi.re > 0 and sp.pi.im > 0


def test_split_prime_rejects():
    with pytest.raises(ValueError):
        split_prime(17)  # 1 mod 8
    with pytest.raises(ValueError):
        split_prime(65)


def test_gauss_symbol_examples():
    assert split_prime(13).pi == GaussianInt(3, 2)
    assert split_prime(53).pi == GaussianInt(7, 2)
    assert gauss_symbol(GaussianInt(1, 2), split_prime(13)) == -1
    assert gauss_symbol(GaussianInt(1, 2), split_prime(53)) == 1
    for p in (5, 13, 29):
        assert gauss_symbol(GaussianInt(1, 0), split_prime(p)) == 1


def test_gauss_symbol_rejects():
    # moduli of norm 2 or composite norm have no PrimeSplit (test_split_prime_rejects)
    with pytest.raises(ValueError):
        gauss_symbol(GaussianInt(3, 2), split_prime(13))  # alpha = 0 mod pi


def test_gauss_symbol_is_multiplicative_in_alpha():
    pi = split_prime(53)
    vals = [GaussianInt(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    vals = [v for v in vals if gauss_symbol_defined(v, pi)]
    for x in vals[:20]:
        for y in vals[:20]:
            assert gauss_symbol(x * y, pi) == gauss_symbol(x, pi) * gauss_symbol(y, pi)


def gauss_symbol_defined(alpha, pi):
    try:
        gauss_symbol(alpha, pi)
        return True
    except ValueError:
        return False


def test_conjugate_factor_symbol_is_minus_one():
    # (pi/conj(pi)) = -1 for every p = 5 (mod 8), p < 2000
    for p in primes_5_mod_8(2000):
        sp = split_prime(p)
        assert gauss_symbol(sp.pi, sp.conjugate_choice()) == -1


def test_one_plus_i_flips_between_conjugates():
    # (2/p) = -1 forces (1+i/pi) = -(1+i/conj(pi))
    for p in primes_5_mod_8(2000):
        sp = split_prime(p)
        assert gauss_symbol(ONE_PLUS_I, sp) == -gauss_symbol(ONE_PLUS_I, sp.conjugate_choice())


def valid_pairs(limit):
    ps = primes_5_mod_8(limit)
    return [(p1, p2) for i, p1 in enumerate(ps) for p2 in ps[i + 1 :]]


def test_conjugate_choice_invariance_legendre_plus():
    for p1, p2 in valid_pairs(500):
        if jacobi(p1, p2) != 1:
            continue
        s1, s2 = split_prime(p1), split_prime(p2)
        s1_bar, s2_bar = s1.conjugate_choice(), s2.conjugate_choice()
        base = gauss_symbol(s1.pi, s2)
        assert gauss_symbol(s1_bar.pi, s2) == base
        assert gauss_symbol(s1.pi, s2_bar) == base
        assert gauss_symbol(s1_bar.pi, s2_bar) == base


def test_conjugate_swap_flips_legendre_minus():
    for p1, p2 in valid_pairs(500):
        if jacobi(p1, p2) != -1:
            continue
        s1, s2 = split_prime(p1), split_prime(p2)
        s1_bar, s2_bar = s1.conjugate_choice(), s2.conjugate_choice()
        base = gauss_symbol(s1.pi, s2)
        assert gauss_symbol(s1_bar.pi, s2_bar) == base
        assert gauss_symbol(s1_bar.pi, s2) == -base
        assert gauss_symbol(s1.pi, s2_bar) == -base


def test_quartic_product_identity_legendre_plus():
    # (p1/p2)_4 (p2/p1)_4 = (pi_1/pi_3) whenever (p1/p2) = +1
    for p1, p2 in valid_pairs(500):
        if jacobi(p1, p2) != 1:
            continue
        lhs = quartic_symbol(p1, p2) * quartic_symbol(p2, p1)
        rhs = symbol_pi(split_prime(p1), split_prime(p2))
        assert lhs == rhs, (p1, p2)


def test_symbol_pi_is_symmetric_in_the_pair():
    # together with B-symmetry this is what makes pair order irrelevant
    for p1, p2 in valid_pairs(300):
        s1, s2 = split_prime(p1), split_prime(p2)
        assert symbol_pi(s1, s2) == symbol_pi(s2, s1)
        assert symbol_B(s1, s2) == symbol_B(s2, s1)


def test_symbol_pi_fixture_rows():
    assert symbol_pi(split_prime(5), split_prime(13)) == -1  # d = 130
    assert symbol_pi(split_prime(5), split_prime(53)) == 1  # d = 530
    assert symbol_pi(split_prime(13), split_prime(29)) == -1  # d = 754


def test_symbol_B_values():
    pair = validate_pair(5, 13)
    assert symbol_B(split_prime(pair.p1), split_prime(pair.p2)) == 1
    assert symbol_B(split_prime(5), split_prime(37)) == -1


def test_symbols_reject_equal_primes():
    s = split_prime(5)
    with pytest.raises(ValueError):
        symbol_pi(s, s)
    with pytest.raises(ValueError):
        symbol_B(s, s)


def test_i_residue_is_a_root_of_each_factor():
    # e + 2fi = 0 in Z[i]/(pi): the stored residue of i, for pi and conj(pi)
    for p in primes_5_mod_8(2000):
        for s in (split_prime(p), split_prime(p).conjugate_choice()):
            assert (s.pi.re + s.pi.im * s.i_residue) % p == 0, (p, s)


def divisible_by(beta, pi, p):
    """pi | beta in Z[i] for pi of prime norm p, i.e. p | beta conj(pi); no residue of i."""
    t = beta * pi.conjugate()
    return t.re % p == 0 and t.im % p == 0


def test_gauss_symbol_matches_brute_force_squares():
    # alpha is a square mod pi iff pi | alpha - x^2 for some integer x in 0..p-1
    alphas = [GaussianInt(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for p in primes_5_mod_8(200):
        for s in (split_prime(p), split_prime(p).conjugate_choice()):
            for alpha in alphas:
                if divisible_by(alpha, s.pi, p):
                    continue
                square = any(divisible_by(GaussianInt(alpha.re - x * x, alpha.im), s.pi, p) for x in range(p))
                assert gauss_symbol(alpha, s) == (1 if square else -1), (p, s.pi, alpha)
