"""Residue symbols over Z and validation of the prime pairs we work with.

Everything here is exact integer arithmetic: Jacobi/Legendre symbols, the
rational quartic residue symbol (a/p)_4 for p = 1 (mod 4), its special-case
companion (x/2)_4, and the entry check that a pair of primes satisfies
p1 = p2 = 5 (mod 8), p1 != p2.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "InvalidPairError",
    "PrimePair",
    "is_prime",
    "jacobi",
    "quartic_symbol",
    "quartic_symbol_mod2",
    "sqrt_mod",
    "validate_pair",
]


class InvalidPairError(ValueError):
    """A prime pair failed validation (not prime, wrong congruence, or equal)."""


# Miller-Rabin witnesses: the first twelve primes.  _MR_BOUNDS[k - 1] is psi_k (OEIS
# A014233), the least odd composite that is a strong pseudoprime to the first k of them,
# so k witnesses decide every n < psi_k.  psi_12 > 2^64; above it the panel is a fixed
# strong-probable-prime test.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < psi_12 (> 2**64).

    After trial division by the primes up to 47 the witnesses 2, 3, 5, ... run
    in turn, and the test stops with True as soon as the k witnesses passed
    decide n: n < psi_k, the least strong pseudoprime to the first k prime bases
    (Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86
    (2017); OEIS A014233).  Two witnesses decide n < 1 373 653.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, bound in zip(_MR_WITNESSES, _MR_BOUNDS):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n), by binary reciprocity; no factoring of n.

    Equals the Legendre symbol when n is prime; 0 when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd positive n, got n={n}")
    a %= n
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int:
    """Some x with x^2 = a (mod p) for a prime p, by Tonelli-Shanks.

    Raises ValueError when a is not a square mod p.  With p - 1 = 2^s q, q odd, x =
    a^((q+1)/2) and t = a^q share one power, and Euler's test reads t^(2^(s-1)) = 1.  For
    p = 3 (mod 4), s = 1, so t = 1 and x = a^((p+1)/4) is the root.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    w = pow(a, q >> 1, p)
    x, t = a * w % p, a * w * w % p
    if pow(t, 1 << (s - 1), p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if t == 1:
        return x
    z = 2  # the least non-square; for p = 5 (mod 8) it is 2
    while p % 8 != 5 and pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:  # invariant: x^2 = a*t, and t has order 2^i < 2^s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ValueError(f"{p} is not prime")
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def quartic_symbol(a: int, p: int) -> int:
    """Rational quartic residue symbol (a/p)_4 = a^((p-1)/4) mod p, in {+1, -1}.

    Requires p prime, p = 1 (mod 4), and a a quadratic residue mod p (the
    symbol is only +/-1 under that hypothesis).
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"quartic symbol needs a prime p = 1 (mod 4), got p={p}")
    if jacobi(a, p) != 1:
        raise ValueError(
            f"quartic symbol (a/p)_4 needs (a/p) = +1, got a={a}, p={p}"
        )
    r = pow(a, (p - 1) // 4, p)
    # r^2 = a^((p-1)/2) = 1 (mod p), so r is +1 or -1 mod p.
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise AssertionError(f"a^((p-1)/4) mod p not +/-1 for a={a}, p={p}")


def quartic_symbol_mod2(x: int) -> int:
    """The symbol (x/2)_4 = (-1)^((x-1)/8) for x = 1 (mod 8)."""
    if x % 8 != 1:
        raise ValueError(f"(x/2)_4 requires x = 1 (mod 8), got x={x}")
    return -1 if ((x - 1) // 8) % 2 else 1


class PrimePair(NamedTuple):
    """A validated pair of distinct primes p1 = p2 = 5 (mod 8)."""

    p1: int
    p2: int

    @property
    def r(self) -> int:
        """The radicand p1*p2 of the real quadratic resolvent fields."""
        return self.p1 * self.p2

    @property
    def d(self) -> int:
        """The defining radicand d = 2*p1*p2."""
        return 2 * self.p1 * self.p2

    @property
    def legendre(self) -> int:
        """The Legendre symbol (p1/p2) (= (p2/p1), both primes are 1 mod 4)."""
        return jacobi(self.p1, self.p2)


def validate_pair(p1: int, p2: int) -> PrimePair:
    """Check p1, p2 are distinct primes with p1 = p2 = 5 (mod 8)."""
    for p in (p1, p2):
        if not is_prime(p):
            raise InvalidPairError(f"{p} is not prime")
        if p % 8 != 5:
            raise InvalidPairError(f"{p} = {p % 8} (mod 8), need 5 (mod 8)")
    if p1 == p2:
        raise InvalidPairError(f"primes must be distinct, got p1 = p2 = {p1}")
    return PrimePair(p1, p2)


def primes_5_mod_8(limit: int) -> list[int]:
    """All primes p <= limit with p = 5 (mod 8)."""
    return [p for p in range(5, limit + 1, 8) if is_prime(p)]
