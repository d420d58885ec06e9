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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .abelian import AbelianType, GroupCheckError, abelian_structure

__all__ = [
    "PsiVariant",
    "PresentationError",
    "GPresentation",
    "Subgroup",
    "ClassVector",
    "CLASS_VECTORS",
    "span",
    "transfer",
    "transfer_index2",
    "transfer_kernel",
    "abelian_invariants",
    "derived_cosets",
    "lower_central_series",
]

ENUMERATION_GUARD = 1 << 20

GElement = tuple[int, int, int]  # (eps, a, b) in normal form


class PsiVariant(Enum):
    SIGMA_ONLY = "sigma"
    TAU_SIGMA = "tau-sigma"


class PresentationError(ValueError):
    """The (m, n, q, psi) data does not define a consistent group."""


@dataclass(frozen=True)
class GPresentation:
    m: int
    n: int
    q: int
    psi: PsiVariant = PsiVariant.TAU_SIGMA

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 1:
            raise PresentationError(f"need m >= 2 and n >= 1, got m={self.m}, n={self.n}")
        if self.q not in (1, 2):
            raise PresentationError(f"q must be 1 or 2, got {self.q}")
        if self.q == 2 and self.psi is not PsiVariant.TAU_SIGMA:
            raise PresentationError("q = 2 forces rho^2 = tau^(2^n) sigma^(2^(m-1))")
        log_order = self.m + self.n + 1 + self.q
        if log_order > ENUMERATION_GUARD.bit_length() - 1:  # before any 2^m is formed
            raise PresentationError(f"group order 2^{log_order} exceeds the enumeration "
                                    f"guard {ENUMERATION_GUARD}")
        # Fixed here, so that mul and inv are plain integer arithmetic: rho^-1 sigma rho =
        # sigma^sigma_twist, rho^2 = sigma^pa tau^pb, and for q = 2 b is reduced mod b_wrap
        # and tau^(2^(n+1)) = sigma^(2^m) carries its top half into a.
        q2, pb = self.q == 2, 0 if self.psi is PsiVariant.SIGMA_ONLY else 1 << self.n
        self.__dict__.update(
            a_mod=1 << (self.m + q2), b_mod=1 << (self.n + 1), order=1 << (self.m + self.n + 2 + q2),
            sigma_twist=3 if q2 else -1, psi_exponents=(1 << (self.m - 1), pb),
            b_wrap=1 << (self.n + 1 + q2), carry=(1 << self.m) * q2,
        )
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
        # rho^e1 A1 rho^e2 A2 = rho^(e1+e2) (rho^-e2 A1 rho^e2) A2; _canon inlined
        e1, a, b = x
        e2, a2, b2 = y
        if e2:
            a *= self.sigma_twist
            b = -b
            if e1:
                pa, pb = self.psi_exponents
                a += pa
                b += pb
        b = (b + b2) % self.b_wrap
        a += a2
        if b >= self.b_mod:
            b -= self.b_mod
            a += self.carry
        return (e1 ^ e2, a % self.a_mod, b)

    def inv(self, x: GElement) -> GElement:
        e, a, b = x
        if e:
            pa, pb = self.psi_exponents
            a, b = -a * self.sigma_twist - pa, (b - pb) % self.b_wrap
        else:
            a, b = -a, -b % self.b_wrap
        if b >= self.b_mod:
            b -= self.b_mod
            a += self.carry
        return (e, a % self.a_mod, b)

    def power(self, x: GElement, k: int) -> GElement:
        if k < 0:
            x, k = self.inv(x), -k
        acc = self.identity()
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            k >>= 1
        return acc

    def conj(self, x: GElement, g: GElement) -> GElement:
        return self.mul(self.mul(self.inv(g), x), g)

    def commutator(self, x: GElement, y: GElement) -> GElement:
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def elements(self) -> list[GElement]:
        return [
            (e, a, b)
            for e in (0, 1)
            for a in range(self.a_mod)
            for b in range(self.b_mod)
        ]

    def word(self, letters: str) -> GElement:
        """Product of generators named by letters: 's', 't', 'r' (e.g. 'str' or 'ss')."""
        table = {"s": self.sigma(), "t": self.tau(), "r": self.rho()}
        return reduce(self.mul, (table[ch] for ch in letters), self.identity())


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    pres: GPresentation
    generators: tuple[GElement, ...]
    elements: frozenset[GElement]

    @classmethod
    def generated(cls, pres: GPresentation, gens) -> "Subgroup":
        gens = tuple(pres.element(*g) for g in gens)
        return cls(pres, gens, _grow(pres, gens)[1])

    @classmethod
    def from_elements(cls, pres: GPresentation, elems) -> "Subgroup":
        """Recover a small generating set greedily from an element set."""
        elems = frozenset(elems)
        gens, closure = _grow(pres, sorted(elems))
        if closure != elems:
            raise GroupCheckError("element set is not closed under the group law")
        return cls(pres, tuple(gens), elems)

    @classmethod
    def whole_group(cls, pres: GPresentation) -> "Subgroup":
        return cls.generated(pres, [pres.rho(), pres.sigma(), pres.tau()])

    @classmethod
    def trivial(cls, pres: GPresentation) -> "Subgroup":
        return cls(pres, (), frozenset([pres.identity()]))

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_in(self, other: "Subgroup") -> int:
        if not self.elements <= other.elements:
            raise GroupCheckError("index_in: not a subgroup of the other group")
        return other.order // self.order

    def __contains__(self, x: GElement) -> bool:
        return x in self.elements

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup.from_elements(self.pres, self.elements & other.elements)

    def is_normal_in(self, other: "Subgroup") -> bool:
        # conjugation is an automorphism, so the generators decide
        return all(
            self.pres.conj(x, g) in self.elements
            for g in other.generators
            for x in self.generators
        )

    def derived_subgroup(self) -> "Subgroup":
        """Commutator subgroup: normal closure in self of generator commutators."""
        pres = self.pres
        seeds = [
            pres.commutator(x, y)
            for x, y in itertools.combinations(self.generators, 2)
        ]
        return _normal_closure(pres, seeds, self.generators)

    def abelianization(self, derived=None) -> AbelianType:
        """Type of H/H'; pass derived = derived_cosets(H) when it is already built."""
        _, reps, rep_of = derived or derived_cosets(self)
        return _quotient_type(self.pres, reps, rep_of)


def _grow(pres: GPresentation, candidates) -> tuple[list[GElement], frozenset[GElement]]:
    """The candidates outside the subgroup generated by the ones before them, and <candidates>."""
    gens: list[GElement] = []
    elems = frozenset([pres.identity()])
    for x in candidates:
        if x not in elems:
            gens.append(x)
            elems = _extend(pres, elems, gens)
    return gens, elems


def _extend(pres: GPresentation, base: frozenset[GElement], gens) -> frozenset[GElement]:
    """Elements of <gens>, given base = <gens[:-1]>, as a union of right cosets base*r.

    base*r*g is the coset base*(r g), so a new representative costs one product
    per generator instead of one per element and generator (Dimino's method).
    """
    mul = pres.mul
    elems = set(base)
    reps = [pres.identity()]
    for r in reps:
        for g in gens:
            y = mul(r, g)
            if y not in elems:
                elems.update([mul(x, y) for x in base])
                reps.append(y)
    return frozenset(elems)


def _normal_closure(pres, seeds, conjugators) -> Subgroup:
    """Smallest subgroup containing seeds and normalised by conjugators.

    Only generators are conjugated: their conjugates lying inside is enough.
    """
    gens: list[GElement] = []
    elems = frozenset([pres.identity()])
    todo = [pres.element(*s) for s in seeds]
    for x in todo:
        if x not in elems:
            gens.append(x)
            elems = _extend(pres, elems, gens)
            todo.extend(pres.conj(x, g) for g in conjugators)
    return Subgroup.from_elements(pres, elems)


# ---------------------------------------------------------------------------
# Quotients, abelian invariants, lower central series
# ---------------------------------------------------------------------------


def _coset_reps(pres, H: Subgroup, N: Subgroup):
    """Right cosets N*x inside H: canonical reps and the rep-of map."""
    rep_of: dict[GElement, GElement] = {}
    reps: list[GElement] = []
    for x in sorted(H.elements):
        if x in rep_of:
            continue
        coset = [pres.mul(nu, x) for nu in N.elements]
        r = min(coset)
        reps.append(r)
        for y in coset:
            rep_of[y] = r
    return reps, rep_of


def derived_cosets(H: Subgroup):
    """(H', reps, rep_of): the derived subgroup and its right cosets in H.

    Both the abelianization and the transfer into H need them; a caller doing
    both builds them once and passes them to each.
    """
    Hp = H.derived_subgroup()
    return (Hp, *_coset_reps(H.pres, H, Hp))


def abelian_invariants(H: Subgroup, N: Subgroup) -> AbelianType:
    """Elementary divisors of the (abelian) quotient H/N; N must be normal in H."""
    if not N.elements <= H.elements:
        raise ValueError("modulus subgroup is not contained in H")
    if not N.is_normal_in(H):
        raise ValueError("modulus subgroup is not normal in H")
    return _quotient_type(H.pres, *_coset_reps(H.pres, H, N))


def _quotient_type(pres: GPresentation, reps, rep_of) -> AbelianType:
    def op(x, y):
        return rep_of[pres.mul(x, y)]

    return abelian_structure(reps, op, rep_of[pres.identity()])


def lower_central_series(pres: GPresentation) -> list[Subgroup]:
    """gamma_1 = G down to the trivial group, gamma_(i+1) = [gamma_i, G]."""
    G = Subgroup.whole_group(pres)
    series = [G]
    while series[-1].order > 1:
        prev = series[-1]
        # [gamma_i, G] is the normal closure of the generators' commutators
        seeds = [pres.commutator(x, g) for x in prev.generators for g in G.generators]
        nxt = _normal_closure(pres, seeds, G.generators)
        if not nxt.elements < prev.elements:
            raise GroupCheckError("lower central series stalled")
        series.append(nxt)
    return series


def nilpotency_class(pres: GPresentation) -> int:
    return len(lower_central_series(pres)) - 1


def coclass(pres: GPresentation) -> int:
    h = pres.order.bit_length() - 1
    return h - nilpotency_class(pres)


# ---------------------------------------------------------------------------
# Transfer (Verlagerung)
# ---------------------------------------------------------------------------


def transfer(
    pres: GPresentation,
    H: Subgroup,
    g: GElement,
    _ctx: dict | None = None,
) -> GElement:
    """V_{G/H}(g G') as a canonical representative of its coset of H'.

    Standard coset-representative transfer: with right cosets H x_i, write
    x_i g = h_i x_j(i); the value is prod_i h_i mod H'.  The value is a
    well-defined function of g G' (checked in tests, not assumed).
    """
    if _ctx is None:
        _ctx = transfer_context(pres, H)
    mul = pres.mul
    val = pres.identity()
    for x in _ctx["reps"]:
        xg = mul(x, g)
        hs = [h for h in (mul(xg, t) for t in _ctx["rep_inverses"]) if h in H.elements]
        if len(hs) != 1:
            raise GroupCheckError(f"{xg} lies in {len(hs)} right cosets of H, not 1")
        val = mul(val, hs[0])
    return _ctx["hprime_rep"][val]


def transfer_context(pres: GPresentation, H: Subgroup, derived=None) -> dict:
    """Precomputed coset data for repeated transfers into one subgroup.

    The right transversal is grown from the identity by the generators of G:
    a product x joins it when x t^-1 lies in H for no representative t yet.
    derived = derived_cosets(H) when the caller has already built it.
    """
    mul = pres.mul
    reps, inverses = [pres.identity()], [pres.identity()]
    for r in reps:
        for g in (pres.rho(), pres.sigma(), pres.tau()):
            x = mul(r, g)
            if not any(mul(x, t) in H.elements for t in inverses):
                reps.append(x)
                inverses.append(pres.inv(x))
    Hp, _, hprime_rep = derived or derived_cosets(H)
    return {"reps": reps, "rep_inverses": inverses, "hprime_rep": hprime_rep, "derived": Hp}


def transfer_index2(pres: GPresentation, H: Subgroup, g: GElement, z: GElement) -> GElement:
    """Closed form for index-2 subgroups: g^2 [g, z] H' if g in H, else g^2 H'.

    z is the nontrivial coset representative; used as a test oracle against
    the generic coset transfer.
    """
    if z in H.elements:
        raise GroupCheckError("z must represent the nontrivial coset")
    _, _, hprime_rep = derived_cosets(H)
    if g in H.elements:
        val = pres.mul(pres.mul(g, g), pres.commutator(g, z))
    else:
        val = pres.mul(g, g)
    return hprime_rep[val]


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
    frontier = [(0, 0, 0)]
    while frontier:
        new = []
        for x in frontier:
            for v in vectors:
                y = vadd(x, v)
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return frozenset(out)


def class_to_group(pres: GPresentation, v: ClassVector) -> GElement:
    """Representative of the coset of G' matching [H0]^x0 [H1]^x1 [H2]^x2.

    The dictionary is tau <-> [H0], rho <-> [H1], rho*sigma <-> [H2]
    (so sigma <-> [H1 H2]).
    """
    x0, x1, x2 = v
    out = pres.identity()
    if x0:
        out = pres.mul(out, pres.tau())
    if x1:
        out = pres.mul(out, pres.rho())
    if x2:
        out = pres.mul(out, pres.mul(pres.rho(), pres.sigma()))
    return out


def transfer_kernel(pres: GPresentation, H: Subgroup, derived=None) -> frozenset[ClassVector]:
    """Class vectors whose transfer to H is trivial (the capitulation kernel)."""
    ctx = transfer_context(pres, H, derived)
    triv = ctx["hprime_rep"][pres.identity()]
    kernel = []
    for v in CLASS_VECTORS:
        g = class_to_group(pres, v)
        if transfer(pres, H, g, _ctx=ctx) == triv:
            kernel.append(v)
    return frozenset(kernel)
