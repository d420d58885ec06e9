"""Concrete model of the metabelian 2-group G = <rho, sigma, tau> and its transfer maps.

Elements are normal forms rho^eps * sigma^a * tau^b over the abelian normal
subgroup A = <sigma, tau> of index 2.  The defining data (m, n, q, psi):

  q = 1:  sigma^(2^m) = tau^(2^(n+1)) = 1,  rho^2 = psi,
          rho^-1 sigma rho = sigma^-1, rho^-1 tau rho = tau^-1,
          psi = sigma^(2^(m-1))                (SIGMA_ONLY)
              | tau^(2^n) sigma^(2^(m-1))      (TAU_SIGMA)
  q = 2:  sigma^(2^(m+1)) = tau^(2^(n+2)) = 1, sigma^(2^m) = tau^(2^(n+1)),
          rho^2 = tau^(2^n) sigma^(2^(m-1)),
          rho^-1 sigma rho = sigma^3, rho^-1 tau rho = tau^-1.

Construction validates that conjugation by rho squares to the identity on A
and fixes psi (this forces m = 2 when q = 2); inconsistent parameters are
rejected loudly rather than silently collapsing the group.

Subgroups are lattices.  A is Z^2 / Lambda, Lambda the relation lattice, and
conjugation by any element outside A acts on it by T = diag(sigma_twist, -1).
A subgroup H is (H & A) u r(H & A) for at most one coset representative r
outside A, so it is stored as the Hermite basis of the preimage of H & A in
Z^2 (a lattice containing Lambda) and a canonical r.  Membership, derived
subgroups, the lower central series and quotients (Smith invariants as ratios of
the gcds of the minors of an at most 3 x 3 relation matrix) are then integer
arithmetic whose cost does not grow with |G| (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 8; Cohen, A Course in Computational
Algebraic Number Theory, sec. 2.4).  The subgroups over G' are the subspaces of
G/G' = Cl_2(k) = F_2^3 (over_derived).  G' & A is 2Z^2 and the class representatives
have the same bits mod 2 in every presentation, so the H & A and r of each are the same:
over_derived reads them from a table fixed at import.  A transfer into a subgroup over G' is, by
transitivity, a chain of index-2 transfers along a flag of subspaces up to F_2^3, each a
two-case formula (Huppert, Endliche Gruppen I, IV.1).  engine_table builds all 16 once
per presentation, top down the flag: the transfers of rho sigma, rho and tau into each
are carried one index-2 step on from the subgroup above (_step_down, in closed form),
and each stores H' (once per lattice H & A, with or without r), H/H' (once per lattice
and relation matrix), its index and its transfer kernel, read off sums of the three
transfers in A (_kernel); the transfer into G' must be trivial (the principal ideal
theorem).  transfer_kernel reads the table, generated_by tests generating sets by
Burnside's basis theorem.  A presentation forms each word of generators once (word).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, prod
from typing import NamedTuple

from .abelian import AbelianType, GroupCheckError

__all__ = [
    "PsiVariant",
    "PresentationError",
    "GPresentation",
    "Subgroup",
    "ClassVector",
    "CLASS_VECTORS",
    "span",
    "over_derived",
    "EngineTable",
    "engine_table",
    "transfer_kernel",
    "abelian_invariants",
    "lower_central_series",
]

# log2 of the largest order a presentation may have, so that no input builds huge powers
# of 2; the lattice engine never enumerates G.
MAX_ORDER_BITS = 20

GElement = tuple[int, int, int]  # (eps, a, b) in normal form
Lattice = tuple[int, int, int]  # Hermite basis (h11, h12), (0, h22) with 0 <= h12 < h22


class PsiVariant(Enum):
    SIGMA_ONLY = "sigma"
    TAU_SIGMA = "tau-sigma"

    # members are singletons, so the identity hash is a value hash; Enum's own __hash__ runs in
    # Python on every cache lookup keyed by a presentation or a profile
    __hash__ = object.__hash__


class PresentationError(ValueError):
    """The (m, n, q, psi) data does not define a consistent group."""


class _PresentationData(NamedTuple):
    m: int
    n: int
    q: int
    psi: PsiVariant = PsiVariant.TAU_SIGMA


class GPresentation(_PresentationData):
    """The data (m, n, q, psi) of G, equal and hashed by value.  Once the tuple holds them,
    __init__ validates them and sets the values derived from them on the instance."""

    def __init__(self, *args, **kwargs) -> None:
        if self.m < 2 or self.n < 1:
            raise PresentationError(f"need m >= 2 and n >= 1, got m={self.m}, n={self.n}")
        if self.q not in (1, 2):
            raise PresentationError(f"q must be 1 or 2, got {self.q}")
        if self.q == 2 and self.psi is not PsiVariant.TAU_SIGMA:
            raise PresentationError("q = 2 forces rho^2 = tau^(2^n) sigma^(2^(m-1))")
        log_order = self.m + self.n + 1 + self.q
        if log_order > MAX_ORDER_BITS:  # before any 2^m is formed
            raise PresentationError(f"group order 2^{log_order} exceeds 2^{MAX_ORDER_BITS}, "
                                    "the largest order a presentation may have")
        # Fixed here, so that mul is plain integer arithmetic: rho^-1 sigma rho =
        # sigma^sigma_twist, rho^2 = sigma^pa tau^pb (psi_exponents), and for q = 2 b is reduced
        # mod b_wrap and tau^(2^(n+1)) = sigma^(2^m) carries its top half into a (_canon).  The
        # relation lattice Lambda (with the carry relation (2^m, -2^(n+1)) for q = 2) serves the
        # subgroup lattices.
        q2, pb = self.q == 2, 0 if self.psi is PsiVariant.SIGMA_ONLY else 1 << self.n
        a_mod, b_mod, b_wrap = 1 << (self.m + q2), 1 << (self.n + 1), 1 << (self.n + 1 + q2)
        carry, self.sigma_twist = (1 << self.m) * q2, 3 if q2 else -1
        self.a_mod, self.b_mod, self.b_wrap, self.carry = a_mod, b_mod, b_wrap, carry
        self.order, self.psi_exponents = 1 << (self.m + self.n + 2 + q2), (1 << (self.m - 1), pb)
        self.relations = _hermite([(a_mod, 0), (carry, -b_mod), (0, b_wrap)])
        # conjugation by rho must be an involution of A fixing psi
        for g in (self.sigma(), self.tau()):
            twice = self._conj_a(*self._conj_a(g[1], g[2]))
            if twice != (g[1], g[2]):
                raise PresentationError(
                    f"rho^-2 g rho^2 != g for (m={self.m}, n={self.n}, q={self.q}); "
                    "inconsistent presentation (q = 2 requires m = 2)"
                )
        pa, pb = self.psi_exponents
        if self._conj_a(pa, pb) != self._canon(pa, pb):
            raise PresentationError("conjugation by rho does not fix psi")

    # --- normal forms ----------------------------------------------------

    def _canon(self, a: int, b: int) -> tuple[int, int]:
        b %= self.b_wrap
        if b >= self.b_mod:  # tau^(2^(n+1)) = sigma^(2^m)
            b -= self.b_mod
            a += self.carry
        return a % self.a_mod, b

    def element(self, eps: int, a: int, b: int) -> GElement:
        a, b = self._canon(a, b)
        return (eps & 1, a, b)

    def identity(self) -> GElement:
        return (0, 0, 0)

    def rho(self) -> GElement:
        return (1, 0, 0)

    def sigma(self) -> GElement:
        return self.element(0, 1, 0)

    def tau(self) -> GElement:
        return self.element(0, 0, 1)

    def _conj_a(self, a: int, b: int) -> tuple[int, int]:
        # rho^-1 (sigma^a tau^b) rho
        return self._canon(a * self.sigma_twist, -b)

    def mul(self, x: GElement, y: GElement) -> GElement:
        # rho^e1 A1 rho^e2 A2 = rho^(e1+e2) (rho^-e2 A1 rho^e2) A2, and rho^2 = psi
        e1, a, b = x
        e2, a2, b2 = y
        if e2:
            a, b = a * self.sigma_twist, -b
            if e1:
                pa, pb = self.psi_exponents
                a, b = a + pa, b + pb
        return (e1 ^ e2, *self._canon(a + a2, b + b2))

    @cached_property
    def class_elements(self) -> tuple[GElement, ...]:  # class_to_group over CLASS_VECTORS
        return tuple(class_to_group(self, v) for v in CLASS_VECTORS)

    @cached_property
    def derived_lattice(self) -> Lattice:
        """G' & A = (T - I)Z^2 + Lambda, the lattice every subgroup over G' contains."""
        return _hermite([*_conj(self, ((1, 0), (0, 1)), 1), *_rows(self.relations)])

    @cached_property
    def _words(self) -> dict[str, GElement]:
        return {"": self.identity()}

    def word(self, letters: str) -> GElement:
        """Product of generators named by letters: 's', 't', 'r' (e.g. 'str' or 'ss'); each
        product is formed once per presentation, from the product of its prefix."""
        words = self._words
        if letters not in words:
            words[letters] = self.mul(self.word(letters[:-1]), _LETTERS[letters[-1]])
        return words[letters]


_LETTERS = {"r": (1, 0, 0), "s": (0, 1, 0), "t": (0, 0, 1)}  # normal forms for every m, n


# ---------------------------------------------------------------------------
# Lattices of Z^2 and relation matrices
# ---------------------------------------------------------------------------


def _hermite(vectors) -> Lattice:
    """Hermite basis of a full-rank lattice of Z^2 given by spanning vectors: Euclid's
    algorithm on the first column leaves the row (h11, h12), and h22 the gcd of the rest."""
    h11 = h12 = h22 = 0
    for a, b in vectors:
        while a:
            k = h11 // a
            h11, h12, a, b = a, b, h11 - k * a, h12 - k * b
        h22 = gcd(h22, b)
    if not h11 or not h22:
        raise GroupCheckError("the vectors do not span a full-rank lattice of Z^2")
    return abs(h11), (h12 if h11 > 0 else -h12) % h22, h22


def _rows(lattice: Lattice) -> tuple[tuple[int, int], tuple[int, int]]:
    h11, h12, h22 = lattice
    return (h11, h12), (0, h22)


def _reduce(lattice: Lattice, a: int, b: int) -> tuple[int, int]:
    """The representative of (a, b) + lattice in [0, h11) x [0, h22)."""
    h11, h12, h22 = lattice
    k, a = divmod(a, h11)
    return a, (b - k * h12) % h22


def _coords(lattice: Lattice, a: int, b: int) -> tuple[int, int]:
    """(c1, c2) with (a, b) = c1 (h11, h12) + c2 (0, h22)."""
    h11, h12, h22 = lattice
    c1, r1 = divmod(a, h11)
    c2, r2 = divmod(b - c1 * h12, h22)
    if r1 or r2:
        raise GroupCheckError(f"({a}, {b}) does not lie in the lattice {lattice}")
    return c1, c2


def _conj(pres: GPresentation, vectors, shift: int = 0) -> list[tuple[int, int]]:
    """(T - shift I) v for each v: conjugation by an element outside A, less v if shift = 1."""
    s = pres.sigma_twist
    return [((s - shift) * a, (-1 - shift) * b) for a, b in vectors]


def _smith_diagonal(x: int, y: int, z: int, r2: tuple[int, int] | None = None) -> tuple[int, ...]:
    """Smith invariants of [[x, y], [0, z]], or for r2 = (a, b) of [[x, y, 0], [0, z, 0], [a, b, -2]].

    They are the ratios D_k / D_(k-1) of the determinantal divisors, D_k the gcd of the
    k x k minors: gcd(x, y, z) and |xz|, or gcd(x, y, z, a, b, 2), gcd(xz, xb - ya, 2x, 2y,
    za, 2z) and 2|xz|.
    """
    if r2 is None:
        d1 = gcd(x, y, z)
        return d1, abs(x * z) // d1
    a, b = r2
    d1, d2 = gcd(x, y, z, a, b, 2), gcd(x * z, x * b - y * a, 2 * x, 2 * y, z * a, 2 * z)
    return d1, d2 // d1, 2 * abs(x * z) // d2


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


class Subgroup(NamedTuple):
    """H = M u rM: M = H & A by the Hermite basis of its preimage in Z^2, r outside A or None.

    r is reduced modulo M, so two subgroups are equal exactly when their fields are.
    """

    pres: GPresentation
    lattice: Lattice
    r: GElement | None = None

    @classmethod
    def generated(cls, pres: GPresentation, gens) -> "Subgroup":
        """<gens>.

        With a generator r outside A, H & A is the smallest T-stable lattice over
        Lambda, the A-generators, r^2 and r^-1 g for the other generators g outside A: for
        r = rho x and g = rho y, r^-1 g = x^-1 y, the difference of their A-parts.
        """
        gens = [pres.element(*g) for g in gens]
        vectors = [g[1:] for g in gens if not g[0]]
        outside = [g for g in gens if g[0]]
        if not outside:
            return cls._from_vectors(pres, vectors)
        r = outside[0]
        vectors += [pres.mul(r, r)[1:], *((a - r[1], b - r[2]) for _, a, b in outside[1:])]
        return cls._from_vectors(pres, vectors + _conj(pres, vectors), r)

    @classmethod
    def _from_vectors(cls, pres: GPresentation, vectors, r: GElement | None = None) -> "Subgroup":
        return cls._from_lattice(pres, _hermite([*vectors, *_rows(pres.relations)]), r)

    @classmethod
    def _from_lattice(cls, pres: GPresentation, lattice: Lattice, r: GElement | None) -> "Subgroup":
        """M u rM for M the lattice over Lambda, which must be T-stable when r is given: T
        fixes (0, h22) up to sign and takes (h11, h12) to s (h11, h12) - (0, (1 + s) h12)."""
        if r is None:
            return cls(pres, lattice)
        h11, h12, h22 = lattice
        if (1 + pres.sigma_twist) * h12 % h22:
            raise GroupCheckError(f"lattice {lattice} of a subgroup outside A is not T-stable")
        return cls(pres, lattice, pres.element(1, *_reduce(lattice, r[1], r[2])))

    @classmethod
    def whole_group(cls, pres: GPresentation) -> "Subgroup":
        return cls(pres, (1, 0, 1), pres.rho())

    @classmethod
    def trivial(cls, pres: GPresentation) -> "Subgroup":
        return cls(pres, pres.relations)

    @property
    def order(self) -> int:
        h11, _, h22 = self.lattice  # |M / Lambda| = |A| / (h11 h22) and |A| = |G| / 2
        return self.pres.order // (h11 * h22) // (1 if self.r is not None else 2)

    def __contains__(self, x: GElement) -> bool:
        e, a, b = x
        _, (h11, h12, h22), r = self  # the fields read once; _reduce inlined below
        if e:
            if r is None:
                return False
            _, ra, rb = r
            a, b = a - ra, b - rb
        k, a = divmod(a, h11)
        return not a and not (b - k * h12) % h22

    def __le__(self, other: "Subgroup") -> bool:
        h11, h12, h22 = self.lattice
        return (0, h11, h12) in other and (0, 0, h22) in other and (
            self.r is None or self.r in other)

    def derived_subgroup(self) -> "Subgroup":
        """H' = (T - I)M + Lambda, since [r, x] = (T - I)x on A; H' = 1 when H lies in A."""
        if self.r is None:
            return Subgroup.trivial(self.pres)
        return Subgroup._from_vectors(self.pres, _conj(self.pres, _rows(self.lattice), 1))

    def abelianization(self) -> AbelianType:
        """Type of H/H'."""
        return _quotient_type(self, self.derived_subgroup())


# ---------------------------------------------------------------------------
# Quotients, abelian invariants, lower central series
# ---------------------------------------------------------------------------


def abelian_invariants(H: Subgroup, N: Subgroup) -> AbelianType:
    """Elementary divisors of the (abelian) quotient H/N; N must be normal in H."""
    if not N <= H:
        raise ValueError("modulus subgroup is not contained in H")
    # H' = (T - I)M + Lambda <= N, the same as N normal in H with H/N abelian (Lambda <= N)
    if H.r is not None and any((0, a, b) not in N for a, b in _conj(H.pres, _rows(H.lattice), 1)):
        raise ValueError("modulus subgroup is not normal in H, or H/N is not abelian")
    return _quotient_type(H, N)


def _quotient_type(H: Subgroup, N: Subgroup, relations=None) -> AbelianType:
    """H/N for H' <= N <= H by the Smith invariants of its relation matrix (_relations, unless
    given).  H/N is a 2-group, so the invariants, powers of 2 (checked), are its type."""
    diagonal = _smith_diagonal(*(relations or _relations(H, N)))
    if prod(diagonal) != H.order // N.order or any([d & (d - 1) for d in diagonal]):
        raise GroupCheckError(f"Smith invariants {diagonal} are not powers of 2 multiplying to "
                              f"[H : N] = {H.order // N.order}")
    return AbelianType(tuple([d for d in diagonal if d > 1]))


def _relations(H: Subgroup, N: Subgroup) -> tuple[int, int, int, tuple[int, int] | None]:
    """The relation matrix (x, y, z, r2) of H/N, H' <= N <= H, on the Hermite basis of M = H & A
    and r when N lies in A: the Hermite rows (x, y), (0, z) of N & A in M's coordinates, and
    2[r] = [r^2] for r2 the coordinates of r^2 in M (else None)."""
    (pres, lattice, r), (_, (n11, n12, n22), n_r) = H, N
    (x, y), (_, z) = _coords(lattice, n11, n12), _coords(lattice, 0, n22)
    if r is None or n_r is not None:
        return x, y, z, None
    _, a, b = pres.mul(r, r)
    return x, y, z, _coords(lattice, a, b)


def lower_central_series(pres: GPresentation) -> list[Subgroup]:
    """gamma_1 = G down to the trivial group, gamma_(i+1) = [gamma_i, G] = (T - I) gamma_i + Lambda.
    Each term must be a proper subgroup of the one before, else the series stalled."""
    series = [Subgroup.whole_group(pres)]
    while series[-1].order > 1:
        prev = series[-1]
        nxt = Subgroup._from_vectors(pres, _conj(pres, _rows(prev.lattice), 1))
        if not (nxt <= prev and nxt.order < prev.order):
            raise GroupCheckError("lower central series stalled")
        series.append(nxt)
    return series


# ---------------------------------------------------------------------------
# The class group (Z/2)^3 of the base field and its dictionary with G/G'
# ---------------------------------------------------------------------------

ClassVector = tuple[int, int, int]  # exponents of [H0], [H1], [H2]

CLASS_VECTORS: tuple[ClassVector, ...] = tuple(
    (x0, x1, x2) for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)
)


def vadd(u: ClassVector, v: ClassVector) -> ClassVector:
    return (u[0] ^ v[0], u[1] ^ v[1], u[2] ^ v[2])


def span(vectors) -> frozenset[ClassVector]:
    out = {(0, 0, 0)}
    for v in vectors:
        out |= {vadd(x, v) for x in out}
    return frozenset(out)


def class_to_group(pres: GPresentation, v: ClassVector) -> GElement:
    """Representative of the coset of G' matching [H0]^x0 [H1]^x1 [H2]^x2.

    The dictionary is tau <-> [H0], rho <-> [H1], rho*sigma <-> [H2]
    (so sigma <-> [H1 H2]).
    """
    x0, x1, x2 = v
    return pres.word("t" * x0 + "r" * x1 + "rs" * x2)


def over_derived(pres: GPresentation, classes: frozenset[ClassVector]) -> Subgroup:
    """The subgroup over G' whose image in G/G' = F_2^3 is the subspace classes: K_j over the
    plane N_j, L_j over the line N_a & N_b & N_c.  Its H & A and r are the same in every
    presentation, read from the fixed table _OVER_DERIVED."""
    if classes not in _FLAG:
        raise ValueError(f"{sorted(classes)} is not a subspace of F_2^3")
    return Subgroup(pres, *_OVER_DERIVED[classes])


# ---------------------------------------------------------------------------
# The engine table: the 16 subgroups over G' and their transfers (Verlagerung)
# ---------------------------------------------------------------------------

# the subspaces of F_2^3 top down: the whole space, the 7 planes, the 7 lines, {0}
SUBSPACES = tuple(sorted({span(vs) for k in range(4) for vs in combinations(CLASS_VECTORS[1:], k)},
                         key=lambda V: (-len(V), sorted(V))))
# the flag: V -> (the indices of V's classes, the index k of the first class z outside V and the
# subspace V + <z> above V), with k and V + <z> None for V = F_2^3
_FLAG = {V: (tuple(i for i, v in enumerate(CLASS_VECTORS) if v in V), k,
             None if k is None else V | {vadd(v, CLASS_VECTORS[k]) for v in V})
         for V in SUBSPACES
         for k in [next((i for i, v in enumerate(CLASS_VECTORS) if v not in V), None)]}
# the class representatives t^x0 r^x1 (rs)^x2 mod 2 in every presentation (engine_table checks
# them): rho^2 = psi, the carry sigma^(2^m) and T's change of sign and of sigma are all even
_CLASS_BITS = tuple((x1 ^ x2, x2, x0) for x0, x1, x2 in CLASS_VECTORS)


def _over_derived_table() -> dict[frozenset[ClassVector], tuple[Lattice, GElement | None]]:
    """V -> (H & A, r) of the subgroup H over G' of V, in every presentation.  One Hermite basis
    spans H & A: G' & A and the representatives inside A; r is the first one outside A (for a
    further one g, r^-1 g lies in A in the class of r g, whose representative is there).  G' & A =
    diag(s - 1, -2)Z^2 + Lambda is 2Z^2 (engine_table checks it), so H & A and r reduced modulo it
    are bits, read off _CLASS_BITS.  With r, H & A must be T-stable (Subgroup._from_lattice) for
    both T: -I fixes every lattice, and diag(3, -1) one with 4 h12 = 0 mod h22."""
    table = {}
    for V in SUBSPACES:
        reps = [_CLASS_BITS[k] for k in _FLAG[V][0]]
        lattice = _hermite([(2, 0), (0, 2), *(g[1:] for g in reps if not g[0])])
        r = next(((1, *_reduce(lattice, a, b)) for e, a, b in reps if e), None)
        if r is not None and 4 * lattice[1] % lattice[2]:
            raise GroupCheckError(f"lattice {lattice} of a subgroup outside A is not T-stable")
        table[V] = lattice, r
    return table


_OVER_DERIVED = _over_derived_table()


class OverDerived(NamedTuple):
    """The subgroup H over G' of a subspace V of G/G', with what the transfer into it needs."""

    H: Subgroup
    derived: Subgroup  # H'
    abelianization: AbelianType  # H/H'
    kernel: frozenset[ClassVector]  # the classes whose transfer to H lies in H'
    index: int  # [G : H]
    transfers: tuple[GElement, GElement, GElement]  # the transfers of rho sigma, rho, tau to H
    relations: tuple[int, int, int, tuple[int, int] | None]  # H/H''s relation matrix (_relations)

    def generated_by(self, gens) -> bool:
        """H == <gens>, by Burnside's basis theorem (Huppert, Endliche Gruppen I, III.3.15): the
        gens lie in H and span H/Phi(H), Phi(H) = H^2 H', which is H/H' mod 2: bits for M's
        Hermite basis and r, the relation rows mod 2, and g outside A as r^-1 g in M plus r's bit."""
        (_, (h11, h12, h22), r), (x, y, z, r2) = self.H, self.relations
        a2, b2 = r2 or (0, 0)  # no relation row for r when H lies in A
        images = [x & 1 | (y & 1) << 1, (z & 1) << 1, a2 & 1 | (b2 & 1) << 1]
        for e, a, b in gens:
            if e:
                if r is None:
                    return False
                a, b = a - r[1], b - r[2]
            c1, a = divmod(a, h11)
            c2, b = divmod(b - c1 * h12, h22)
            if a or b:  # g is not in H
                return False
            images.append(c1 & 1 | (c2 & 1) << 1 | e << 2)
        basis = []  # of the span over F_2, each vector with its own top bit
        for v in images:
            for u in basis:
                if v ^ u < v:  # v has u's top bit: clear it
                    v ^= u
            if v:
                basis.append(v)
        return len(basis) == (2 if r is None else 3)


class EngineTable(NamedTuple):
    """Everything the checks read of one presentation."""

    over: dict[frozenset[ClassVector], OverDerived]  # keyed by the subspaces V, in SUBSPACES order
    series: tuple[Subgroup, ...]  # the lower central series
    derived_squares: bool  # G' == <sigma^2, tau^2>
    G = property(lambda self: self.over[SUBSPACES[0]])  # H/H' is G/G'
    G_derived = property(lambda self: self.over[SUBSPACES[-1]])  # H/H' is the type of G'


@lru_cache(maxsize=None)
def engine_table(pres: GPresentation) -> EngineTable:
    """The 16 subgroups over G', top down the flag of F_2^3: above H = over_derived(V) is <H, z>,
    the subgroup over V + <z> for z the representative of the first class outside V.  By
    transitivity, H's transfers of rho sigma, rho and tau are those of <H, z> carried over the
    one step (H, z) by _step_down.  The transfer G/G' -> H/H' is a homomorphism, so these three
    give the kernel (_kernel).  By the principal ideal theorem the transfer into G' is trivial.
    G' & A = diag(s - 1, -2)Z^2 + Lambda is 2Z^2 and the class representatives reduce mod 2 to
    _CLASS_BITS (both checked), so H & A is one of five lattices read from _OVER_DERIVED
    (2Z^2, the three of index 2 over it, Z^2).  H' = (T - I)(H & A) + Lambda, or 1 for H inside
    A, is formed once for each lattice and each of the two cases, and the type of H/H' once for
    each lattice and relation matrix (r^2 in its coordinates)."""
    if pres.derived_lattice != (2, 0, 2):
        raise GroupCheckError(f"G' & A is the lattice {pres.derived_lattice}, not 2Z^2")
    classes = pres.class_elements
    if tuple((e, a & 1, b & 1) for e, a, b in classes) != _CLASS_BITS:
        raise GroupCheckError(f"the class representatives {classes} are not {_CLASS_BITS} mod 2")
    over: dict[frozenset[ClassVector], OverDerived] = {}
    derived_of: dict = {}  # (H & A, H inside A) -> H'
    quotients: dict = {}  # (H & A, the relations of H/H', with r^2 in its coordinates) -> H/H'
    for V in SUBSPACES:
        H, (_, k, above) = over_derived(pres, V), _FLAG[V]
        _, lattice, r = H
        derived = derived_of.get((lattice, r is None))
        if derived is None:
            derived = derived_of[lattice, r is None] = H.derived_subgroup()
        relations = _relations(H, derived)
        abelianization = quotients.get((lattice, relations))
        if abelianization is None:
            abelianization = quotients[lattice, relations] = _quotient_type(H, derived, relations)
        if above is None:  # H = G: the transfer is the identity of G/G'
            values = classes[1], classes[2], classes[4]
            kernel = frozenset(v for v, g in zip(CLASS_VECTORS, classes) if g in derived)
        else:
            parent = over[above]
            values = _step_down(pres, H, parent.H, classes[k], parent.transfers)
            kernel = _kernel(values, derived.lattice)
        over[V] = OverDerived(H, derived, abelianization, kernel, pres.order // H.order, values,
                              relations)
    if len(over[SUBSPACES[-1]].kernel) != len(CLASS_VECTORS):
        raise GroupCheckError("kernel: the transfer into G' is not trivial "
                              "(principal ideal theorem)")
    squares = Subgroup.generated(pres, [pres.word("ss"), pres.word("tt")])
    series = lower_central_series(pres)
    return EngineTable(over, tuple(series), over[SUBSPACES[0]].derived == squares)


def _step_down(pres: GPresentation, K: Subgroup, parent: Subgroup, z: GElement, values):
    """The transfers into K of the transfers values into parent = <K, z>, which must have index 2
    over K: g z g z^-1 for g in K, else g^2.  Both lie in A and have closed forms, with T =
    diag(s, -1) the conjugation by rho and psi = rho^2.  For g = x in A: g z g z^-1 = x + T(x) =
    ((1 + s) a, 0) for z outside A, else g^2 = 2x.  For g = rho x outside A: g^2 = T(x) + x + psi,
    and g z g z^-1 = g^2 + (T - I)(x - w) for z = rho w, g^2 + (T - I)w for z = w in A.  In A,
    membership in K is membership in its lattice."""
    (_, (h11, h12, h22), r), (_, (p11, _, p22), parent_r) = K, parent
    # [G : H] = h11 h22, doubled when H lies in A
    if h11 * h22 * (2 if r is None else 1) != 2 * p11 * p22 * (2 if parent_r is None else 1):
        raise GroupCheckError(f"index-2 step: <K, {z}> has index {parent.order // K.order} over K")
    if z in K:
        raise GroupCheckError(f"index-2 step: z = {z} lies inside K")
    twist, (pa, pb) = pres.sigma_twist, pres.psi_exponents
    z_outside, wa, wb = z
    out = []
    for e, a, b in values:
        if e:
            if r is not None and not (a - r[1]) % h11 and not (
                    b - r[2] - (a - r[1]) // h11 * h12) % h22:  # g in K: g - r in K's lattice
                da, db = (a - wa, b - wb) if z_outside else (wa, wb)
                a, b = (1 + twist) * a + pa + (twist - 1) * da, pb - 2 * db
            else:
                a, b = (1 + twist) * a + pa, pb
        elif z_outside and not a % h11 and not (b - a // h11 * h12) % h22:
            a, b = (1 + twist) * a, 0
        else:
            a, b = 2 * a, 2 * b
        a, b = pres._canon(a, b)
        if a % h11 or (b - a // h11 * h12) % h22:
            raise GroupCheckError(f"index-2 step: the value {(0, a, b)} leaves K")
        out.append((0, a, b))
    return tuple(out)


def _kernel(values, derived: Lattice) -> frozenset[ClassVector]:
    """The classes whose transfer lies in H' <= A, from the transfers values of rho sigma, rho
    and tau into a proper subgroup H.  These lie in A (each index-2 step forms g^2 or g z g z^-1),
    where the law is addition, so a class's transfer is the sum of theirs, and lies in H' when it
    reduces to 0 modulo H''s lattice."""
    for g in values:
        if g[0]:
            raise GroupCheckError(f"kernel: the transfer value {g} lies outside A")
    h11, h12, h22 = derived
    (_, a1, b1), (_, a2, b2), (_, a3, b3) = values
    a12, b12 = a1 + a2, b1 + b2
    return frozenset([v for v, a, b in zip(  # the sums, in the order of CLASS_VECTORS
        CLASS_VECTORS, (0, a1, a2, a12, a3, a1 + a3, a2 + a3, a12 + a3),
        (0, b1, b2, b12, b3, b1 + b3, b2 + b3, b12 + b3))
        if not a % h11 and not (b - a // h11 * h12) % h22])


def _table_entry(pres: GPresentation, H: Subgroup) -> OverDerived:
    """H's entry in the engine table, for H over G' (else ValueError)."""
    if (0, 2, 0) not in H or (0, 0, 2) not in H:  # sigma^2 and tau^2, for every m >= 2, n >= 1
        raise ValueError("the transfer needs a subgroup containing G' = <sigma^2, tau^2>")
    classes = frozenset(v for v, g in zip(CLASS_VECTORS, pres.class_elements) if g in H)
    entry = engine_table(pres).over.get(classes)
    if entry is None or entry.H != H:
        raise GroupCheckError(f"the subgroup with lattice {H.lattice} and r = {H.r} is not the "
                              "subgroup over G' of its classes")
    return entry


def transfer_kernel(pres: GPresentation, H: Subgroup) -> frozenset[ClassVector]:
    """Class vectors whose transfer to H lies in H' (the capitulation kernel), for H over G'."""
    return _table_entry(pres, H).kernel
