"""Independent oracles for quadratic fields: fundamental units and class groups.

Units come from half a walk of the principal rho cycle of D = field_discriminant(m),
whose period is that of the continued fraction of sqrt(m) (or (1+sqrt(m))/2 when
m = 1 mod 4): the cycle is a signed palindrome, and the half products at its
symmetric point give the fundamental unit of the maximal order together with its
norm, which must match the period parity (-1)^l, and the ambiguous forms of the
principal cycle that class groups of D > 0 need.

Class groups are binary quadratic form groups under Dirichlet composition
(narrow for D > 0, then the wide quotient by the class of the negated
principal form).  Only their 2-Sylow subgroups are computed, by genus theory
and square roots of forms, without enumerating the group or computing the
class number h.  No analytic input anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, count, islice
from typing import NamedTuple

from .abelian import AbelianType, factorize
from .symbols import PrimePair, is_prime, sqrt_mod

__all__ = [
    "QuadUnit",
    "BQForm",
    "ClassGroup",
    "ClassGroupError",
    "fundamental_unit",
    "norm_eps",
    "field_discriminant",
    "class_group",
    "two_part_of_class_group",
    "exponents_mn",
    "DISCRIMINANT_BOUND",
    "DiscriminantBoundError",
]

DISCRIMINANT_BOUND = 10**8


def field_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for squarefree m: m if m = 1 (mod 4), else 4m."""
    return m if m % 4 == 1 else 4 * m


@lru_cache(maxsize=None)
def _odd_part_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The items of factorize(n) for odd n >= 1, cached: found once per radicand."""
    return tuple(factorize(n).items())


def _factorize(n: int) -> dict[int, int]:
    """factorize(n) for n >= 1 from the cached factorization of its odd part, so that
    _validate_disc on -4r, r, -8r, 8r and _principal_cycle on r, 2r trial-divide r once."""
    two = (n & -n).bit_length() - 1
    odd = _odd_part_factors(n >> two)
    return {2: two, **dict(odd)} if two else dict(odd)


# ---------------------------------------------------------------------------
# Fundamental units from the principal cycle
# ---------------------------------------------------------------------------


class QuadUnit(NamedTuple("QuadUnit", [("u", int), ("v", int), ("w", int), ("m", int),
                                         ("norm", int)])):
    """Fundamental unit (u + v*sqrt(m))/w of the maximal order of Q(sqrt(m)).

    w is 1, or 2 when m = 1 (mod 4) and u, v are both odd.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, u: int, v: int, w: int, m: int, norm: int) -> "QuadUnit":
        if u * u - m * v * v != norm * w * w:
            fault = f"does not have norm {norm}"
        elif norm not in (1, -1):
            fault = f"has norm {norm}, not a unit"
        elif u <= 0 or v <= 0:
            fault = "is not the unit > 1 with u, v > 0"
        else:
            return super().__new__(cls, u, v, w, m, norm)
        # by bit lengths: str() of a unit over 4300 digits raises ValueError
        raise ClassGroupError(f"unit of Q(sqrt({m})) with {u.bit_length()}-bit u, "
                              f"{v.bit_length()}-bit v {fault}")


def fundamental_unit(m: int) -> QuadUnit:
    """Fundamental unit of O_{Q(sqrt(m))}, from half a walk of the principal cycle of its D."""
    return _principal_cycle(m)[0]


@lru_cache(maxsize=None)
def _principal_cycle(m: int) -> tuple[QuadUnit, int, tuple[int, ...]]:
    """(eps, l, ambiguous) from half a walk of the principal rho cycle of D = field_discriminant(m).

    The l rho steps from the reduced principal form f_0 = (1, b_0, c_0) back to
    |a| = 1 are the period of the continued fraction of omega (Cohen, A Course
    in Computational Algebraic Number Theory, 5.7).  With f_i = (a_i, b_i, c_i),
    Phi_i = prod_(j<i) (b_j + sqrt(D))/(2 a_j) = (X_i + Y_i sqrt(D))/2 is an
    integer of norm a_i: Y_0 = 0, Y_1 = 1, Y_(i+1) = t_i Y_i - Y_(i-1) with
    t_i = (b_(i-1) + b_i)/(2 a_i), and X_i = sign(Y_i) isqrt(D Y_i^2 + 4 a_i).
    Reduced forms have a c < 0, so a_i = (-1)^i |a_i|, and the walk keeps only
    |a_i|, |c_i| and |Y_i|: |Y_(i+1)| = |t_i| |Y_i| + |Y_(i-1)|, and b^2 - 4ac =
    b'^2 - 4cc' gives the next |c| as |a| + |t_(i+1)| (b - b')/2, with no division.
    The cycle is a signed palindrome, so the walk stops at its symmetric point,
    whichever comes first: the first i >= 1 with a_i | b_i gives l = 2i,
    eps = +-Phi_i^2 / a_i and the ambiguous forms (1, a_i); the first i >= 0
    with |a_(i+1)| = |a_i| gives l = 2i + 1, eps = +-Phi_(i+1) Phi_i / a_i and
    (1,), the rest of the signed cycle being these forms negated.  A start
    with a != 1, a non-square, an inexact division or N(eps) != (-1)^l raises
    ClassGroupError (norm/period mismatch); m must be squarefree and > 1 (else ValueError).
    """
    if m <= 1 or max(_factorize(m).values()) > 1:
        raise ValueError(f"fundamental_unit needs squarefree m > 1, got {m}")
    D = field_discriminant(m)
    s = math.isqrt(D)
    a, b, c = _reduced_principal(D, s)
    if a != 1:
        raise ClassGroupError(f"norm/period mismatch for m={m}: the walk starts at a = {a}")
    t, y_prev, y, c = 0, 1, 0, -c  # t_0 = 0 and |Y_(-1)| = 1 give |Y_1| = 1
    for i in count():  # at f_i; eps = +-Phi_j Phi_k / a_k, j = k + 1 for odd l, else j = k
        y_prev, y = y, t * y + y_prev
        if c == a:
            steps, ambiguous, (y_j, a_j, y_k) = 2 * i + 1, (1,), (y, -c, y_prev)
            break
        t = (s + b) // (2 * c)  # _rho of a reduced form, |c| <= s: b' = 2|t c| - b
        tc = t * c
        a, c, b = c, a + t * (b - tc), tc + tc - b
        if b % a == 0:
            steps, ambiguous, (y_j, a_j, y_k) = 2 * i + 2, (1, a if i % 2 else -a), (y, a, y)
            break
    sign = -1 if steps // 2 % 2 else 1  # k = steps // 2, a_k = sign |a_k|, a_j = sign a_j
    # +-Phi_k = (X_k + |Y_k| sqrt(D))/2 with X_k = isqrt(D Y_k^2 + 4 a_k)
    n_j, n_k = D * y_j * y_j + 4 * sign * a_j, D * y_k * y_k + 4 * sign * a
    x_j, x_k = math.isqrt(max(n_j, 0)), math.isqrt(max(n_k, 0))
    (u, ru), (v, rv) = (divmod(x_j * x_k + D * y_j * y_k, 2 * a),
                        divmod(x_j * y_k + x_k * y_j, 2 * a))
    # eps = (u + v sqrt(m))/w, as sqrt(D) = sqrt(m) or 2 sqrt(m); w = 1 when u, v are even
    v, w, norm = v if D == m else 2 * v, 2, 1 if steps % 2 == 0 else -1
    if u % 2 == v % 2 == 0:
        u, v, w = u // 2, v // 2, 1
    if x_j * x_j != n_j or x_k * x_k != n_k or ru or rv or not v or u * u - m * v * v != norm * w * w:
        raise ClassGroupError(f"norm/period mismatch for m={m}: the half products give no "
                              f"unit of norm {norm} for l={steps}")
    return QuadUnit(u, v, w, m, norm), steps, ambiguous


def _reduced_principal(D: int, s: int) -> tuple[int, int, int]:
    """The reduced principal form (1, b_0, (b_0^2 - D)/4) of D > 0, s = isqrt(D): b_0 is the
    largest b <= s with b = D (mod 2), so 1 <= b_0 <= s and 2 - b_0 <= s < 2 + b_0."""
    b = s - (s - D) % 2
    return 1, b, (b * b - D) // 4


def norm_eps(m: int) -> int:
    """N(eps_m) in {+1, -1} for the fundamental unit of Q(sqrt(m))."""
    return fundamental_unit(m).norm


# ---------------------------------------------------------------------------
# Binary quadratic forms and Dirichlet composition
# ---------------------------------------------------------------------------


class BQForm(NamedTuple):
    a: int
    b: int
    c: int

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def principal_form(D: int) -> BQForm:
    k = D % 2
    return BQForm(1, k, (k * k - D) // 4)


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """x = r1 (mod m1), x = r2 (mod m2); moduli positive, need not be coprime."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("inconsistent congruences")
    if m2 == g:
        return r1 % m1
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (r1 + m1 * t) % (m1 // g * m2)


def compose(f1: BQForm, f2: BQForm) -> BQForm:
    """Dirichlet composition of primitive forms of one discriminant.

    f2 is first replaced by a properly equivalent form whose leading
    coefficient is coprime to a1; then the composite is (a1*a2, B, *) with
    B = b1 (mod 2|a1|) and B = b2 (mod 2|a2|) (united-forms construction).
    """
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    D = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != D:
        raise ClassGroupError(f"cannot compose {f1} and {f2}: discriminants differ")
    a2, b2, _ = f2 = _coprime_representative(f2, a1)
    n1, n2 = 2 * abs(a1), 2 * abs(a2)
    B = _crt(b1 % n1, n1, b2 % n2, n2)
    A = a1 * a2
    num = B * B - D
    if num % (4 * A):
        raise ClassGroupError(f"composite of {f1} and {f2} is not integral")
    return BQForm(A, B, num // (4 * A))


def _small_vectors():
    """Primitive (x, y) up to sign, by growing max(|x|, |y|)."""
    yield 1, 0
    for k in range(1, 1 << 10):
        for x in range(-k, k + 1):
            for y in (k,) if abs(x) < k else range(1, k + 1):
                if math.gcd(x, y) == 1:
                    yield x, y
    raise ClassGroupError("no suitable value among the small vectors; form not primitive?")


# The first vectors of _small_vectors(), built once.  For the discriminants -4r, r, -8r,
# 8r of the pairs with p2 <= 1000 the deepest search stops at index 177, and up to
# p2 <= 1500 none reaches the generator's tail.
_SMALL_VECTORS = tuple(islice(_small_vectors(), 256))


def _search_vectors():
    """_small_vectors(): the table, then the generator's tail."""
    return chain(_SMALL_VECTORS, islice(_small_vectors(), len(_SMALL_VECTORS), None))


def _coprime_representative(f: BQForm, n: int) -> BQForm:
    """A form properly equivalent to f whose leading coefficient is coprime to n.

    Primitive forms represent values coprime to any modulus, so a small search
    over primitive (x, y) always succeeds.
    """
    a, b, c = f
    if math.gcd(a, n) == 1:
        return f
    for x, y in _search_vectors():
        if math.gcd(a * x * x + b * x * y + c * y * y, n) == 1:
            return _transform(f, x, y)


def _transform(f: BQForm, x: int, y: int) -> BQForm:
    """Apply the unimodular substitution with first column (x, y), gcd(x, y) = 1."""
    g, u0, v0 = _xgcd(x, y)
    if g != 1:
        raise ClassGroupError(f"({x}, {y}) is not primitive")
    u, v = -v0, u0  # det [[x, u], [y, v]] = 1
    fa, fb, fc = f
    a = fa * x * x + fb * x * y + fc * y * y
    b = 2 * (fa * x * u + fc * y * v) + fb * (x * v + y * u)
    c = fa * u * u + fb * u * v + fc * v * v
    if b * b - 4 * a * c != fb * fb - 4 * fa * fc:
        raise ClassGroupError(f"substitution changed the discriminant of {f}")
    return BQForm(a, b, c)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# --- reduction ---------------------------------------------------------------


def reduce_definite(f: BQForm) -> BQForm:
    a, b, c = f
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ClassGroupError(f"{f} is not positive definite")
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return BQForm(a, b, c)


def _is_reduced_indefinite(a: int, b: int, s: int) -> bool:
    # reduced <=> |sqrt(D) - 2|a|| < b < sqrt(D); exact via s = isqrt(D)
    return 1 <= b <= s and 2 * abs(a) - b <= s and 2 * abs(a) + b >= s + 1


def _rho(b: int, c: int, D: int, s: int) -> tuple[int, int]:
    """(b', c') of the rho step (a, b, c) -> (c, b', c') for discriminant D, s = isqrt(D)."""
    ac = abs(c)
    if ac <= s:  # choose b' = -b (mod 2|c|) maximal below sqrt(D)
        b_new = s - (s + b) % (2 * ac)
    else:  # choose b' in (-|c|, |c|]
        b_new = (-b) % (2 * ac)
        if b_new > ac:
            b_new -= 2 * ac
    return b_new, (b_new * b_new - D) // (4 * c)


def reduce_indefinite(f: BQForm) -> BQForm:
    a, b, c = f
    s = math.isqrt(D := b * b - 4 * a * c)
    while not _is_reduced_indefinite(a, b, s):
        a, (b, c) = c, _rho(b, c, D, s)
    return BQForm(a, b, c)


# ---------------------------------------------------------------------------
# 2-Sylow subgroups of class groups by genus theory and square roots
# ---------------------------------------------------------------------------


class ClassGroup(NamedTuple):
    """The 2-Sylow subgroup of the form class group of discriminant D (wide for D > 0)."""

    D: int
    two_part: AbelianType


class ClassGroupError(AssertionError):
    """A self-check of the quadratic oracles failed; an oracle bug, not an unusual input."""


class DiscriminantBoundError(ValueError):
    """|D| exceeds DISCRIMINANT_BOUND, the largest |D| the class-group oracle accepts."""


def _validate_disc(D: int) -> dict[int, int]:
    """The factorization of |D|; ValueError unless D is fundamental and within the bound."""
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant (need 0 or 1 mod 4)")
    if D == 0 or (D > 0 and math.isqrt(D) ** 2 == D):
        raise ValueError(f"invalid discriminant {D}: perfect square")
    if abs(D) > DISCRIMINANT_BOUND:
        raise DiscriminantBoundError(f"|D| = {abs(D)} exceeds bound {DISCRIMINANT_BOUND}")
    factors = _factorize(abs(D))
    two = factors.get(2, 0)
    if any(e > 1 for q, e in factors.items() if q != 2) or two not in (0, 2, 3) or (
        two == 2 and D // 4 % 4 != 3
    ):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return factors


def _two_character(D: int) -> tuple[int, ...]:
    """Residues n mod 8 where the genus character of the prime 2 is -1 (none for odd D).

    D is the product of the prime discriminants (-1)^((q-1)/2) q of its odd primes, which
    is 1 (mod 4), and of -4 for D = 4 (mod 8), 8 or -8 for D = 8 or 24 (mod 32), else 1.
    """
    return {8: (3, 5), 24: (5, 7)}.get(D % 32, (3, 7) if D % 8 == 4 else ())


def _genus_vector(f: BQForm, D: int, primes: list[int], two: tuple[int, ...]) -> int:
    """Bit i set when the genus character of primes[i] is -1 on f; the last one dropped.

    The characters are evaluated on a value n of f coprime to D; their product
    is the Kronecker symbol (D/n) = 1, which is checked.  At odd q it is n^((q-1)/2) mod q.
    """
    a, b, c = f
    for x, y in _SMALL_VECTORS:
        n = a * x * x + b * x * y + c * y * y
        if math.gcd(n, D) == 1:
            break
    else:  # the whole search again, into the generator's tail
        n = next(n for x, y in _search_vectors()
                 if math.gcd(n := a * x * x + b * x * y + c * y * y, D) == 1)
    vec = 0
    for i, q in enumerate(primes):
        if (n % 8 in two) if q == 2 else pow(n, q >> 1, q) != 1:
            vec |= 1 << i
    if vec.bit_count() % 2:
        raise ClassGroupError(f"genus characters of {f} at n = {n} multiply to -1")
    return vec & ~(1 << (len(primes) - 1))


def _legendre(a: int, fa: list[int], b: int, fb: list[int]) -> tuple[int, int, int]:
    """Nonzero (w, x, y) with w^2 = a x^2 + b y^2, for squarefree a, b with primes fa, fb.

    Lagrange's descent, as one loop: with r^2 = a (mod b) and |r| <= |b|/2, r^2 - a =
    b s^2 c where c is squarefree and |c| < |b|, and a point for (a, c) lifts through the
    norm of r + sqrt(a), innermost level first.  Raises ClassGroupError when there is none.
    """
    lifts = []  # per level (r, a, s c), or None where a and b were swapped
    while True:
        if abs(a) > abs(b):
            a, fa, b, fb = b, fb, a, fa
            lifts.append(None)
        if a == 1 or b == 1:
            w, x, y = (1, 1, 0) if a == 1 else (1, 0, 1)
            break
        try:
            r, mod = 0, 1
            for q in fb:  # the CRT step for the coprime moduli mod and q
                r, mod = r + mod * ((sqrt_mod(a, q) - r) * pow(mod, -1, q) % q), mod * q
        except ValueError:
            raise ClassGroupError(f"w^2 = {a} x^2 + {b} y^2 has no rational point") from None
        if b == -1:  # and a = -1
            raise ClassGroupError("w^2 = -x^2 - y^2 has no rational point")
        r -= abs(b) if 2 * r > abs(b) else 0
        n = (r * r - a) // b  # = s^2 c with c squarefree of the sign of n: the next b
        fb = [q for q, e in factorize(abs(n)).items() if e % 2]
        b = math.prod(fb) if n > 0 else -math.prod(fb)
        lifts.append((r, a, math.isqrt(n // b) * b))
    for lift in reversed(lifts):
        if lift is None:
            x, y = y, x
        else:
            r, a, sc = lift
            w, x, y = r * w + a * x, w + r * x, sc * y
    return w, x, y


def _square_root(f: BQForm, m: int, m_primes: list[int]) -> BQForm:
    """A form whose Dirichlet square is properly equivalent to f, for f in the principal genus.

    f is moved to a prime leading coefficient p; a point of the conic
    X^2 - D Y^2 = 4p Z^2 is a representation f(x, y) = z^2, primitive after
    dividing out gcd(x, y), and z is prime to D because a primitive ideal has no
    square ramified factor.  Then f ~ (z^2, B, C) and (z, B, zC) squares to it.
    """
    a, b, c = f
    D = b * b - 4 * a * c
    for x, y in _SMALL_VECTORS:  # an odd prime value p prime to D
        p = abs(a * x * x + b * x * y + c * y * y)
        if p > 2 and D % p and is_prime(p):
            break
    else:  # the whole search again, into the generator's tail
        x, y = next((x, y) for x, y in _search_vectors()
                    if (p := abs(a * x * x + b * x * y + c * y * y)) > 2 and D % p and is_prime(p))
    g = _transform(f, x, y) if y else f  # (1, 0) is the one vector with y = 0
    p, b, _ = g
    w, u, v = _legendre(m, m_primes, p, [abs(p)])  # w^2 = m u^2 + p v^2
    X, Y, Z = 2 * w, u if D % 4 == 0 else 2 * u, v  # X^2 - D Y^2 = 4p Z^2
    if X * X - D * Y * Y != 4 * p * Z * Z:
        raise ClassGroupError(f"({X}, {Y}, {Z}) is not a point of X^2 - {D} Y^2 = 4*{p} Z^2")
    if not Y:  # then X^2 = 4p Z^2 with p prime: only the zero point
        raise ClassGroupError(f"conic point ({X}, {Y}, {Z}) of {g} has Y = 0")
    k = math.gcd(X, Y, Z)
    X, Y = X // k, Y // k
    if (X - b * Y) % (2 * p):
        X = -X
    if (X - b * Y) % (2 * p):
        raise ClassGroupError(f"conic point ({X}, {Y}) of {g} has p | Y")
    x, y = (X - b * Y) // (2 * p), Y
    k = math.gcd(x, y)
    A, B, C = sq = _transform(g, x // k, y // k)
    z = math.isqrt(A) if A > 0 else 0
    if z * z != A or math.gcd(z, B) != 1:
        raise ClassGroupError(f"conic point gives {sq}, not (z^2, B, C) with gcd(z, B) = 1")
    return BQForm(z, B, z * C)


def _ambiguous_form(D: int, q: int) -> BQForm:
    """The form (q, b, c) with q | b of the prime q | D (the ramified prime above q)."""
    b = 0 if D % (4 * q) == 0 else q
    return BQForm(q, b, (b * b - D) // (4 * q))


def _bits(n: int, primes: list[int]) -> int:
    """Bit i set when primes[i] divides n."""
    return sum(1 << i for i, q in enumerate(primes) if n % q == 0)


def _narrow_relation(D: int, m: int, primes: list[int], s_m: int) -> int:
    """The one nonzero relation S among the ambiguous forms: prod_{i in S} F_i ~ 1 (narrow).

    For D < 0 it is S_m, the primes of m, since sqrt(m) generates their product.
    For D > 0, with j the class of the negated principal form, sqrt(m) gives
    prod_{S_m} F_i ~ j, and every ambiguous form (a, b, c), a | b, on the
    principal rho cycle gives prod_{primes of a} F_i ~ j^[a < 0]; these must
    agree on exactly one nonzero S (the narrow 2-rank is t - 1).
    """
    if D < 0:
        relation = s_m or 1  # D = -4: (1 + i) is principal
        forms = [_ambiguous_form(D, q) for i, q in enumerate(primes) if relation >> i & 1]
        prod = reduce_definite(forms[0])
        for form in forms[1:]:
            prod = reduce_definite(compose(prod, form))
        if prod != principal_form(D):  # reduced for D < 0
            raise ClassGroupError(f"D={D}: the ambiguous forms of {m} compose to {prod}, not 1")
        return relation
    _, steps, ambiguous = _principal_cycle(m)
    found = set()
    for a in ambiguous:
        found.add(_bits(a, primes) ^ (s_m if a < 0 else 0))
        if steps % 2:  # the negated form (-a, b, -c) is on the signed cycle too
            found.add(_bits(a, primes) ^ (s_m if a > 0 else 0))
    found.discard(0)
    if len(found) != 1:
        raise ClassGroupError(f"D={D}: principal cycle gives relations {sorted(found)}, "
                              f"so the narrow 2-rank is not t - 1 = {len(primes) - 1}")
    return found.pop()


def _in_span(v: int, vectors) -> bool:
    pivots: dict[int, int] = {}
    for w in [*vectors, v]:
        while w and w.bit_length() in pivots:
            w ^= pivots[w.bit_length()]
        if w:
            pivots[w.bit_length()] = w
    return not w


def _narrow_exponents(D: int, m: int, primes: list[int], relation: int, j: int):
    """(e_1, ..., e_r) of the narrow 2-Sylow subgroup (2^e_1, ..., 2^e_r), and the height of j.

    Level k holds a basis x of V_k = A[2] & A^(2^(k-1)) (A the narrow 2-Sylow),
    as coordinates over the ambiguous forms, each with a 2^(k-1)-th root y.  The
    classes of A[2^(k-1)] have genus vectors W_k, spanned by the roots of the
    basis elements already of full order.  x lies in V_(k+1) exactly when
    chi(y) lies in W_k; then y times roots from W_k is a square, whose square
    root is the next root.  Elimination over F2 splits off the others, each a
    cyclic factor of order 2^k.  No two classes are compared.  A valid exponent e has
    2^e <= h < |D|, so a level beyond the bit length of |D| is a self-check failure.
    """
    two = _two_character(D)
    m_primes = [q for q in primes if m % q == 0]
    reduce = reduce_definite if D < 0 else reduce_indefinite
    top = relation.bit_length() - 1
    level = [(1 << i, reduce(_ambiguous_form(D, q))) for i, q in enumerate(primes) if i != top]
    full: dict[int, tuple[int, int, BQForm]] = {}  # pivot -> (genus vector, coordinates, root)
    exponents, height, k = [], 0, 1
    while level:
        if k > abs(D).bit_length():
            raise ClassGroupError(f"D={D}: the 2-Sylow descent reached level {k} > "
                                  f"{abs(D).bit_length()}, the bit length of |D|")
        pivots = {bit: (vec, 0, root) for bit, (vec, _, root) in full.items()}
        nxt = []
        for coords, root in level:
            vec = _genus_vector(root, D, primes, two)
            while vec and vec.bit_length() in pivots:
                pvec, pcoords, proot = pivots[vec.bit_length()]
                vec, coords, root = vec ^ pvec, coords ^ pcoords, reduce(compose(root, proot))
            if vec:
                pivots[vec.bit_length()] = (vec, coords, root)
                exponents.append(k)
            else:
                nxt.append((coords, reduce(_square_root(root, m, m_primes))))
        full, level = pivots, nxt
        if j and _in_span(j, (coords for coords, _ in level)):
            height = k
        k += 1
    return exponents, height


@lru_cache(maxsize=None)
def class_group(D: int) -> ClassGroup:
    """The 2-Sylow subgroup of the form class group of a fundamental discriminant D.

    Wide group for D > 0.  Nothing is enumerated and h is not computed: genus
    theory gives the 2-torsion from the ambiguous forms of the primes of D and
    decides squares by the genus characters, and square roots of forms descend
    level by level (Gauss, Disquisitiones 286; Shanks, Math. Comp. 25 (1971);
    Bosma and Stevenhagen, JTNB 8 (1996)).  For D > 0 the narrow type is divided
    by j, the class of the negated principal form: the ambiguous forms met on
    the walk of the principal rho cycle that also gives eps decide whether j is
    trivial, which must agree with the exact norm N(eps) = -1, and the height h
    of j replaces a cyclic factor 2^(h+1) by 2^h.
    """
    primes = sorted(_validate_disc(D))
    m = D if D % 4 == 1 else D // 4
    s_m = _bits(m, primes)
    relation = _narrow_relation(D, m, primes, s_m)
    # j = prod_{S_m} F_i, trivial for D < 0; of s_m and s_m + relation the smaller
    # lacks the relation's top bit, as the coordinates in _narrow_exponents do
    j = 0 if D < 0 else min(s_m, s_m ^ relation)
    if D > 0 and (j == 0) != (norm_eps(m) == -1):
        raise ClassGroupError(f"D={D}: negated-principal class trivial is "
                              f"{j == 0}, but N(eps) = {norm_eps(m)}")
    exponents, height = _narrow_exponents(D, m, primes, relation, j)
    if j:
        if height + 1 not in exponents:
            raise ClassGroupError(f"D={D}: j has height {height} but no factor 2^{height + 1}")
        exponents.remove(height + 1)
        if height:
            exponents.append(height)
    return ClassGroup(D, AbelianType.from_factors(2**e for e in exponents))


def two_part_of_class_group(D: int) -> AbelianType:
    return class_group(D).two_part


def exponents_mn(pair: PrimePair) -> tuple[int, int]:
    """(m, n) with 2^(m+1) = h(-p1p2) and 2^n = h(p1p2) as 2-class numbers.

    Fails loudly if the guaranteed bounds m >= 2, n >= 1 are violated; that
    would be an oracle bug, not an unusual pair.
    """
    r = pair.r
    h_minus_two = two_part_of_class_group(field_discriminant(-r)).order()
    h_plus_two = two_part_of_class_group(field_discriminant(r)).order()
    m = h_minus_two.bit_length() - 2
    n = h_plus_two.bit_length() - 1
    if m < 2:
        raise ClassGroupError(f"m={m} < 2 for pair {pair}; oracle bug")
    if n < 1:
        raise ClassGroupError(f"n={n} < 1 for pair {pair}; oracle bug")
    return m, n
