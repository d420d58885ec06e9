import random

import pytest
from hypothesis import given, strategies as st

from class_group_oracle import tonelli_shanks
from classtower.symbols import (
    _MR_BOUNDS,
    _MR_WITNESSES,
    InvalidPairError,
    is_prime,
    jacobi,
    primes_5_mod_8,
    quartic_symbol,
    quartic_symbol_mod2,
    sqrt_mod,
    validate_pair,
)


def legendre_naive(a, p):
    """Direct Euler criterion, the independent oracle."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def primes_upto_flags(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return sieve


def primes_upto(n):
    sieve = primes_upto_flags(n)
    return [i for i in range(2, n + 1) if sieve[i]]


ODD_PRIMES = [p for p in primes_upto(300) if p > 2]


def test_is_prime_against_sieve():
    sieve = set(primes_upto(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(1_000_000_007)


def strong_probable_prime(n, a):
    """n passes the Miller-Rabin round of base a (odd n > a)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def full_panel_is_prime(n):
    """is_prime as it was before the witness bounds: trial division, then all twelve bases."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in _MR_WITNESSES)


def test_witness_bounds_are_strong_pseudoprimes():
    # each psi_k is composite and passes the first k bases, so no tabled bound is above the
    # least such pseudoprime; that none is below it rests on the cited values (Jaeschke 1993,
    # Sorenson and Webster 2017, OEIS A014233), and the sieve test settles k = 1 exhaustively.
    # psi_12 is past 2^64, where the panel stops being a proof
    assert _MR_WITNESSES == tuple(primes_upto(37))
    assert len(_MR_BOUNDS) == len(_MR_WITNESSES) and list(_MR_BOUNDS) == sorted(_MR_BOUNDS)
    assert _MR_BOUNDS[-2] < 2**64 < _MR_BOUNDS[-1]
    for k, psi in enumerate(_MR_BOUNDS[:-1], start=1):
        assert all(strong_probable_prime(psi, a) for a in _MR_WITNESSES[:k]), k
        assert not is_prime(psi), k
        assert not full_panel_is_prime(psi), k


def test_is_prime_against_sieve_to_2e5():
    sieve = primes_upto_flags(200_000)
    assert all(is_prime(n) == bool(sieve[n]) for n in range(200_000))


def test_is_prime_matches_the_full_panel():
    # odd n of every bit length up to 64, so each bound's range is hit, plus the primes
    # next to them (where the early exit returns True) and the neighbours of each bound
    rng = random.Random(2015)
    cases = [rng.getrandbits(bits) | 1 << (bits - 1) | 1
             for bits in range(3, 65) for _ in range(40)]
    for n in cases[::10]:
        while not full_panel_is_prime(n):
            n += 2
        cases.append(n)
    cases += [psi + d for psi in _MR_BOUNDS[:-1] for d in (-2, 2)]
    primes = 0
    for n in cases:
        assert is_prime(n) == full_panel_is_prime(n), n
        primes += full_panel_is_prime(n)
    assert primes >= len(cases) // 10


def test_sqrt_mod_every_residue():
    # p = 3 (mod 4) takes the one-exponentiation shortcut, other primes the Tonelli-Shanks loop
    for p in primes_upto(400):
        squares = {x * x % p for x in range(p)}
        for a in range(-p, 2 * p):
            if a % p in squares:
                assert sqrt_mod(a, p) ** 2 % p == a % p, (a, p)
            else:
                with pytest.raises(ValueError, match="not a square"):
                    sqrt_mod(a, p)


def _outcome(f, a, p):
    """f(a, p), or the message of the ValueError it raises."""
    try:
        return f(a, p)
    except ValueError as exc:
        return str(exc)


def test_sqrt_mod_matches_the_old_tonelli_shanks():
    # the same root, or the same ValueError, for every a mod p, p < 3000 ...
    mismatches = [(a, p) for p in primes_upto(3000) for a in range(p)
                  if _outcome(sqrt_mod, a, p) != _outcome(tonelli_shanks, a, p)]
    assert mismatches == []
    # ... and on seeded random primes below 2^61, some with a long 2-part of p - 1
    rng = random.Random(61)
    primes = []
    while len(primes) < 60:
        p = rng.randrange(3, 2**61) | 1 if len(primes) % 2 else rng.randrange(1, 2**20) << 40 | 1
        if is_prime(p):
            primes.append(p)
    assert max(((p - 1) & (1 - p)).bit_length() for p in primes) > 40
    for p in primes:
        for a in [rng.randrange(p) for _ in range(40)] + [0, 1, 2, p - 1]:
            assert _outcome(sqrt_mod, a, p) == _outcome(tonelli_shanks, a, p), (a, p)


def test_jacobi_matches_legendre_on_primes():
    for p in ODD_PRIMES:
        for a in range(p):
            assert jacobi(a, p) == legendre_naive(a, p)


def test_jacobi_fixture_values():
    assert jacobi(5, 13) == -1  # row d = 130
    assert jacobi(5, 29) == 1  # row d = 290
    assert jacobi(13, 13) == 0


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -7)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(0, 400))
def test_jacobi_multiplicative(a, b, k):
    n = 2 * k + 1
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_quadratic_reciprocity_1_mod_4():
    ps = [p for p in primes_upto(1000) if p % 4 == 1]
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            assert jacobi(p, q) == jacobi(q, p)


def test_quartic_symbol_examples():
    assert quartic_symbol(5, 29) == -1  # 5^7 mod 29 = 28
    assert quartic_symbol(29, 5) == -1  # 29 = 4 mod 5, 4^1 = -1
    for p in (5, 13, 29, 37):
        assert quartic_symbol(1, p) == 1


def test_quartic_symbol_is_fourth_power_detector():
    for p in [p for p in primes_upto(200) if p % 4 == 1]:
        fourth_powers = {pow(x, 4, p) for x in range(1, p)}
        for a in range(1, p):
            if jacobi(a, p) != 1:
                continue
            s = quartic_symbol(a, p)
            assert s * s == 1
            assert (s == 1) == (a % p in fourth_powers)


def test_quartic_symbol_rejects():
    with pytest.raises(ValueError):
        quartic_symbol(2, 7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        quartic_symbol(2, 5)  # (2/5) = -1


def test_quartic_symbol_mod2():
    assert quartic_symbol_mod2(65) == 1
    assert quartic_symbol_mod2(185) == -1
    assert quartic_symbol_mod2(1) == 1
    with pytest.raises(ValueError):
        quartic_symbol_mod2(5)


def test_validate_pair():
    pair = validate_pair(5, 13)
    assert (pair.p1, pair.p2, pair.d) == (5, 13, 130)
    with pytest.raises(InvalidPairError, match="mod 8"):
        validate_pair(5, 17)
    with pytest.raises(InvalidPairError, match="not prime"):
        validate_pair(5, 25)
    with pytest.raises(InvalidPairError, match="distinct"):
        validate_pair(5, 5)


def test_two_is_nonresidue_for_accepted_primes():
    for p in primes_5_mod_8(1000):
        assert jacobi(2, p) == -1


def test_primes_5_mod_8_listing():
    assert primes_5_mod_8(61) == [5, 13, 29, 37, 53, 61]
