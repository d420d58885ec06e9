"""Arithmetic in Z[i]: splitting p = 5 (mod 8) and quadratic symbols mod Gaussian primes.

A prime p = 5 (mod 8) splits as p = pi * conj(pi) with the normalized factor
pi = e + 2if, e odd > 0, f > 0 (so p = e^2 + 4f^2).  The quadratic residue
symbol (alpha/pi) is evaluated in the residue field Z[i]/(pi) = F_p via the
substitution i -> -e * (2f)^(-1) mod p, then one modular exponentiation.  Only
split_prime builds a PrimeSplit, so the symbols take p as proved prime; it splits
each prime once per process.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .symbols import is_prime, sqrt_mod

__all__ = [
    "CornacchiaError",
    "GaussianInt",
    "PrimeSplit",
    "ONE_PLUS_I",
    "split_prime",
    "gauss_symbol",
    "symbol_pi",
    "symbol_B",
]


class GaussianInt(NamedTuple):
    """An element a + bi of Z[i] with arbitrary-precision coordinates."""

    re: int
    im: int

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


ONE_PLUS_I = GaussianInt(1, 1)


class PrimeSplit(NamedTuple):
    """p = pi * conj(pi); split_prime returns pi = e + 2if normalized (e odd > 0, f > 0).

    i_residue is the image of i in Z[i]/(pi) = F_p.  conjugate_choice()
    deliberately breaks the normalization: swapping pi with conj(pi) is the
    symmetry that permutes the K4/K5 and K6/K7 predictions.
    """

    p: int
    pi: GaussianInt
    i_residue: int

    def conjugate_choice(self) -> "PrimeSplit":
        return PrimeSplit(self.p, self.pi.conjugate(), self.p - self.i_residue)


class CornacchiaError(AssertionError):
    """The split of a prime came out wrong; raised explicitly, so it survives python -O."""


@lru_cache(maxsize=None)
def split_prime(p: int) -> PrimeSplit:
    """Split p = 5 (mod 8) in Z[i], returning pi = e + 2if with e, f > 0.

    Cornacchia descent on a square root of -1 mod p yields p = x^2 + y^2;
    since p is odd exactly one of x, y is even and it is 2f.
    """
    if not is_prime(p) or p % 8 != 5:
        raise ValueError(f"split_prime needs a prime p = 5 (mod 8), got {p}")
    t = sqrt_mod(-1, p)
    # Euclid descent: the first remainder below sqrt(p) is a leg of the square sum.
    a, b = p, min(t, p - t)
    bound = math.isqrt(p)
    while b > bound:
        a, b = b, a % b
    x = b
    y2 = p - x * x
    y = math.isqrt(y2)
    if y * y != y2:
        raise CornacchiaError(f"Cornacchia failure for p={p}")
    e, f2 = (x, y) if x % 2 == 1 else (y, x)
    if f2 % 2 or e * e + f2 * f2 != p:
        raise CornacchiaError(f"bad split {e}^2 + {f2}^2 of p={p}")
    # e + 2fi = 0 in Z[i]/(pi)  =>  i = -e * (2f)^(-1) mod p (0 < 2f < p).
    return PrimeSplit(p, GaussianInt(e, f2), -e * pow(f2, -1, p) % p)


def gauss_symbol(alpha: GaussianInt, modulus: PrimeSplit) -> int:
    """Quadratic residue symbol (alpha/pi) in {+1, -1} for the split pi = modulus.pi.

    Computed as the image of alpha^((p-1)/2) in Z[i]/(pi) = F_p.
    """
    p = modulus.p
    a = (alpha.re + alpha.im * modulus.i_residue) % p
    if a == 0:
        raise ValueError(f"gauss_symbol argument {alpha} is divisible by {modulus.pi}")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def symbol_pi(split1: PrimeSplit, split2: PrimeSplit) -> int:
    """The classification symbol pi = (pi_1/pi_3) for a pair of splits."""
    if split1.p == split2.p:
        raise ValueError("symbol_pi needs splits of distinct primes")
    return gauss_symbol(split1.pi, split2)


def symbol_B(split1: PrimeSplit, split2: PrimeSplit) -> int:
    """The classification symbol B = (1+i/pi_1)(1+i/pi_3)."""
    if split1.p == split2.p:
        raise ValueError("symbol_B needs splits of distinct primes")
    return gauss_symbol(ONE_PLUS_I, split1) * gauss_symbol(ONE_PLUS_I, split2)
