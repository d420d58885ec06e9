"""Test-only oracle: the element engine that classtower.gengroup's lattices replaced.

It lists every normal form rho^eps sigma^a tau^b of G, closes subgroups coset
by coset (Dimino's method), builds normal closures by conjugating generators,
reads quotients off right-coset tables with abelian_structure, and transfers
along a right transversal found by membership tests.  Its cost grows with |G|,
so the tests run it for m, n <= 4 or so and compare the lattice engine with it.
Only GPresentation's multiplication is shared with the engine under test;
power, conj and commutator are built on it here, with inverses from _ref_inv,
which writes the normal form out anew (as do _ref_canon and _ref_psi) and which
the tests check against the multiplication.

The last sections hold what the tests read of lattice subgroups and the library
does not: coset representatives, lattice generators, and the transfer into a
subgroup over G' along its whole index-2 chain; and the engine table as it was
built before its one-step transfers, lattice kernels and shared G' lattice
(reference_engine_table), and its index-2 step before the closed form on A
(generic_step_down), which the tests compare the table with; and verbatim copies of
the engine table and its checks before the shared subgroup table (planless_engine_table,
planless_engine_checks), which tests/certify_kernels.py compares them with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from classtower import gengroup
from classtower.abelian import AbelianType, GroupCheckError, abelian_structure
from classtower.gengroup import (CLASS_VECTORS, GElement, GPresentation, PsiVariant, Subgroup,
                                 class_to_group)


def _ref_canon(pres, a, b):
    if pres.q == 1:
        return a % (1 << pres.m), b % (1 << (pres.n + 1))
    b %= 1 << (pres.n + 2)
    if b >= 1 << (pres.n + 1):  # tau^(2^(n+1)) = sigma^(2^m)
        b -= 1 << (pres.n + 1)
        a += 1 << pres.m
    return a % (1 << (pres.m + 1)), b % (1 << (pres.n + 1))


def _ref_psi(pres):
    sigma_only = pres.q == 1 and pres.psi is PsiVariant.SIGMA_ONLY
    return 1 << (pres.m - 1), 0 if sigma_only else 1 << pres.n


def _ref_inv(pres, x):
    e, a, b = x
    if e == 0:
        return (0, *_ref_canon(pres, -a, -b))
    pa, pb = _ref_psi(pres)
    return (1, *_ref_canon(pres, -a * (3 if pres.q == 2 else -1) - pa, b - pb))


def power(pres: GPresentation, x: GElement, k: int) -> GElement:
    if k < 0:
        x, k = _ref_inv(pres, x), -k
    acc = pres.identity()
    while k:
        if k & 1:
            acc = pres.mul(acc, x)
        x = pres.mul(x, x)
        k >>= 1
    return acc


def conj(pres: GPresentation, x: GElement, g: GElement) -> GElement:
    return pres.mul(pres.mul(_ref_inv(pres, g), x), g)


def commutator(pres: GPresentation, x: GElement, y: GElement) -> GElement:
    return pres.mul(pres.mul(_ref_inv(pres, x), _ref_inv(pres, y)), pres.mul(x, y))


def elements(pres: GPresentation) -> list[GElement]:
    return [
        (e, a, b)
        for e in (0, 1)
        for a in range(pres.a_mod)
        for b in range(pres.b_mod)
    ]


@dataclass(frozen=True)
class ElementSubgroup:
    pres: GPresentation
    generators: tuple[GElement, ...]
    elements: frozenset[GElement]

    @classmethod
    def generated(cls, pres: GPresentation, gens) -> "ElementSubgroup":
        gens = tuple(pres.element(*g) for g in gens)
        return cls(pres, gens, _grow(pres, gens)[1])

    @classmethod
    def from_elements(cls, pres: GPresentation, elems) -> "ElementSubgroup":
        """Recover a small generating set greedily from an element set."""
        elems = frozenset(elems)
        gens, closure = _grow(pres, sorted(elems))
        if closure != elems:
            raise GroupCheckError("element set is not closed under the group law")
        return cls(pres, tuple(gens), elems)

    @classmethod
    def of(cls, H: Subgroup) -> "ElementSubgroup":
        """The elements of a lattice subgroup, by its membership test over all of G."""
        return cls.from_elements(H.pres, (x for x in elements(H.pres) if x in H))

    @classmethod
    def whole_group(cls, pres: GPresentation) -> "ElementSubgroup":
        return cls.generated(pres, [pres.rho(), pres.sigma(), pres.tau()])

    @classmethod
    def trivial(cls, pres: GPresentation) -> "ElementSubgroup":
        return cls(pres, (), frozenset([pres.identity()]))

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_in(self, other: "ElementSubgroup") -> int:
        if not self.elements <= other.elements:
            raise GroupCheckError("index_in: not a subgroup of the other group")
        return other.order // self.order

    def intersection(self, other: "ElementSubgroup") -> "ElementSubgroup":
        return ElementSubgroup.from_elements(self.pres, self.elements & other.elements)

    def is_normal_in(self, other: "ElementSubgroup") -> bool:
        # conjugation is an automorphism, so the generators decide
        return all(
            conj(self.pres, x, g) in self.elements
            for g in other.generators
            for x in self.generators
        )

    def derived_subgroup(self) -> "ElementSubgroup":
        """Commutator subgroup: normal closure in self of generator commutators."""
        pres = self.pres
        seeds = [commutator(pres, x, y) for x, y in itertools.combinations(self.generators, 2)]
        return _normal_closure(pres, seeds, self.generators)

    def abelianization(self) -> AbelianType:
        return _quotient_type(self.pres, *_coset_reps(self.pres, self, self.derived_subgroup()))


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


def _normal_closure(pres, seeds, conjugators) -> ElementSubgroup:
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
            todo.extend(conj(pres, x, g) for g in conjugators)
    return ElementSubgroup.from_elements(pres, elems)


def _coset_reps(pres, H: ElementSubgroup, N: ElementSubgroup):
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


def abelian_invariants(H: ElementSubgroup, N: ElementSubgroup) -> AbelianType:
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


def lower_central_series(pres: GPresentation) -> list[ElementSubgroup]:
    """gamma_1 = G down to the trivial group, gamma_(i+1) = [gamma_i, G]."""
    G = ElementSubgroup.whole_group(pres)
    series = [G]
    while series[-1].order > 1:
        prev = series[-1]
        seeds = [commutator(pres, x, g) for x in prev.generators for g in G.generators]
        nxt = _normal_closure(pres, seeds, G.generators)
        if not nxt.elements < prev.elements:
            raise GroupCheckError("lower central series stalled")
        series.append(nxt)
    return series


def transfer_context(pres: GPresentation, H: ElementSubgroup) -> dict:
    """Right transversal grown from the identity, and the coset map of H'."""
    mul = pres.mul
    reps, inverses = [pres.identity()], [pres.identity()]
    for r in reps:
        for g in (pres.rho(), pres.sigma(), pres.tau()):
            x = mul(r, g)
            if not any(mul(x, t) in H.elements for t in inverses):
                reps.append(x)
                inverses.append(_ref_inv(pres, x))
    _, hprime_rep = _coset_reps(pres, H, H.derived_subgroup())
    return {"reps": reps, "rep_inverses": inverses, "hprime_rep": hprime_rep}


def element_transfer(pres: GPresentation, H: ElementSubgroup, g: GElement, ctx: dict) -> GElement:
    """V_{G/H}(g G') as the smallest element of its coset of H'."""
    mul = pres.mul
    val = pres.identity()
    for x in ctx["reps"]:
        xg = mul(x, g)
        hs = [h for h in (mul(xg, t) for t in ctx["rep_inverses"]) if h in H.elements]
        if len(hs) != 1:
            raise GroupCheckError(f"{xg} lies in {len(hs)} right cosets of H, not 1")
        val = mul(val, hs[0])
    return ctx["hprime_rep"][val]


def transfer_kernel(pres: GPresentation, H: ElementSubgroup) -> frozenset:
    ctx = transfer_context(pres, H)
    triv = ctx["hprime_rep"][pres.identity()]
    return frozenset(
        v for v in CLASS_VECTORS if element_transfer(pres, H, class_to_group(pres, v), ctx) == triv
    )


def transfer_index2(pres: GPresentation, H: ElementSubgroup, g: GElement, z: GElement) -> GElement:
    """Closed form for index-2 subgroups: g^2 [g, z] H' if g in H, else g^2 H'.

    z is the nontrivial coset representative.
    """
    if z in H.elements:
        raise GroupCheckError("z must represent the nontrivial coset")
    _, hprime_rep = _coset_reps(pres, H, H.derived_subgroup())
    if g in H.elements:
        val = pres.mul(pres.mul(g, g), commutator(pres, g, z))
    else:
        val = pres.mul(g, g)
    return hprime_rep[val]


# ---------------------------------------------------------------------------
# Lattice subgroups: coset representatives, generators, whole-chain transfers
# ---------------------------------------------------------------------------


def coset_rep(H: Subgroup, x: GElement) -> GElement:
    """Canonical representative of x(H & A); for H inside A, of the coset xH."""
    e, a, b = x
    return H.pres.element(e, *gengroup._reduce(H.lattice, a, b))


def generators(H: Subgroup) -> tuple[GElement, ...]:
    """H's Hermite basis as elements of A (identities dropped), then r."""
    pres = H.pres
    gens = [x for x in (pres.element(0, *v) for v in gengroup._rows(H.lattice)) if any(x)]
    return (*gens, H.r) if H.r is not None else tuple(gens)


def chain(pres: GPresentation, H: Subgroup) -> tuple[tuple[Subgroup, GElement], ...]:
    """(K_i, z_i) of the chain G = K_0 > ... > K_k = H, top first, for H over G' (else
    ValueError): up the flag of F_2^3 from H's subspace V_k, z_i is the representative of
    the first class outside V_i and K_(i-1) the engine table's subgroup over V_i + <z_i>."""
    gengroup._table_entry(pres, H)
    over = gengroup.engine_table(pres).over
    V = frozenset(v for v, g in zip(CLASS_VECTORS, pres.class_elements) if g in H)
    steps = []
    _, k, above = gengroup._FLAG[V]
    while above is not None:
        steps.append((over[V].H, pres.class_elements[k]))
        V = above
        _, k, above = gengroup._FLAG[V]
    return tuple(reversed(steps))


def transfer_along(pres: GPresentation, steps, g: GElement) -> GElement:
    """The index-2 transfers K_(i-1) -> K_i in turn: g z g z^-1 for g in K_i, else g^2."""
    mul = pres.mul
    for K, z in steps:
        if z in K:
            raise GroupCheckError(f"index-2 step: z = {z} lies inside K")
        g = mul(g, mul(mul(z, g), _ref_inv(pres, z))) if g in K else mul(g, g)
        if g not in K:
            raise GroupCheckError(f"index-2 step: the value {g} leaves K")
    return g


def transfer(pres: GPresentation, H: Subgroup, g: GElement) -> GElement:
    """V_{G/H}(g G') as the canonical representative of its coset of H', for H over G' (else
    ValueError): by transitivity, the composite of the index-2 transfers along H's chain."""
    steps = chain(pres, H)
    return coset_rep(gengroup._table_entry(pres, H).derived, transfer_along(pres, steps, g))


# ---------------------------------------------------------------------------
# The engine table before its fast paths
# ---------------------------------------------------------------------------


def reference_over_derived(pres: GPresentation, classes) -> Subgroup:
    """over_derived as it was: (T - I)Z^2 formed anew for each subspace, next to Lambda and the
    class representatives inside A."""
    reps = [pres.class_elements[k] for k in gengroup._FLAG[classes][0]]
    vectors = [*gengroup._conj(pres, ((1, 0), (0, 1)), 1), *(g[1:] for g in reps if not g[0])]
    return Subgroup._from_vectors(pres, vectors, next((g for g in reps if g[0]), None))


def reference_engine_table(pres: GPresentation) -> dict:
    """V -> (H, H', H/H', kernel, transfers of rho sigma, rho and tau) for the 16 subspaces V,
    as engine_table built them before: each subgroup's transfers by transfer_along over its one
    step, and its kernel from the images of all eight classes, by doubling, tested in H'."""
    over: dict = {}
    for V in gengroup.SUBSPACES:
        H, (_, k, above) = reference_over_derived(pres, V), gengroup._FLAG[V]
        values = tuple(pres.class_elements[i] for i in (1, 2, 4))
        if above is not None:
            z, parent = pres.class_elements[k], over[above][0]
            if parent.order != 2 * H.order:
                raise GroupCheckError(f"index-2 step: <K, {z}> has index "
                                      f"{parent.order // H.order} over K")
            values = tuple(transfer_along(pres, ((H, z),), g) for g in over[above][4])
        derived, images = H.derived_subgroup(), [pres.identity()]
        for g in values:
            images += [pres.mul(x, g) for x in images]
        kernel = frozenset(v for v, x in zip(CLASS_VECTORS, images) if x in derived)
        over[V] = (H, derived, gengroup._quotient_type(H, derived), kernel, values)
    return over


def generic_step_down(pres: GPresentation, K: Subgroup, parent: Subgroup, z: GElement, values):
    """gengroup._step_down before its closed form on A: g z g z^-1 for g in K, else g^2, each by
    generic multiplications, with the same checks."""
    if parent.order != 2 * K.order:
        raise GroupCheckError(f"index-2 step: <K, {z}> has index {parent.order // K.order} over K")
    if z in K:
        raise GroupCheckError(f"index-2 step: z = {z} lies inside K")
    mul, z_inv, out = pres.mul, _ref_inv(pres, z), []
    for g in values:
        g = mul(g, mul(mul(z, g), z_inv)) if g in K else mul(g, g)
        if g not in K:
            raise GroupCheckError(f"index-2 step: the value {g} leaves K")
        out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# The engine table and its checks before the shared subgroup table
# ---------------------------------------------------------------------------
# Verbatim copies of gengroup.over_derived, engine_table (uncached), _step_down and _kernel, and
# of classify._engine_checks (uncached), as they were before over_derived read a table shared by
# the presentations, H' was formed once per lattice, the steps took closed forms outside A and
# predict built each type (2^a, 2^b) once; only the module of each name they read is spelled
# out.  tests/certify_kernels.py compares the engine and the checks with them.


def planless_over_derived(pres: GPresentation, classes) -> Subgroup:
    if classes not in gengroup._FLAG:
        raise ValueError(f"{sorted(classes)} is not a subspace of F_2^3")
    vectors, r = list(gengroup._rows(pres.derived_lattice)), None
    for k in gengroup._FLAG[classes][0]:
        g = pres.class_elements[k]
        if not g[0]:
            vectors.append(g[1:])
        elif r is None:
            r = g
    return Subgroup._from_lattice(pres, gengroup._hermite(vectors), r)


def planless_engine_table(pres: GPresentation) -> gengroup.EngineTable:
    if pres.derived_lattice != (2, 0, 2):
        raise GroupCheckError(f"G' & A is the lattice {pres.derived_lattice}, not 2Z^2")
    over: dict = {}
    lattices: dict = {}  # (H & A, r^2 in its coordinates) -> H', the type and relations of H/H'
    classes = pres.class_elements
    for V in gengroup.SUBSPACES:
        H, (_, k, above) = planless_over_derived(pres, V), gengroup._FLAG[V]
        key = H.lattice, None if H.r is None else gengroup._coords(H.lattice, *pres.mul(H.r, H.r)[1:])
        if key not in lattices:
            derived = H.derived_subgroup()
            relations = gengroup._relations(H, derived)
            lattices[key] = derived, gengroup._quotient_type(H, derived, relations), relations
        derived, abelianization, relations = lattices[key]
        if above is None:  # H = G: the transfer is the identity of G/G'
            values = classes[1], classes[2], classes[4]
            kernel = frozenset(v for v, g in zip(CLASS_VECTORS, classes) if g in derived)
        else:
            values = planless_step_down(pres, H, over[above].H, classes[k], over[above].transfers)
            kernel = planless_kernel(values, derived.lattice)
        over[V] = gengroup.OverDerived(H, derived, abelianization, kernel, pres.order // H.order,
                                       values, relations)
    if len(over[gengroup.SUBSPACES[-1]].kernel) != len(CLASS_VECTORS):
        raise GroupCheckError("kernel: the transfer into G' is not trivial "
                              "(principal ideal theorem)")
    squares = Subgroup.generated(pres, [pres.word("ss"), pres.word("tt")])
    return gengroup.EngineTable(over, tuple(gengroup.lower_central_series(pres)),
                                over[gengroup.SUBSPACES[0]].derived == squares)


def planless_step_down(pres: GPresentation, K: Subgroup, parent: Subgroup, z: GElement, values):
    if parent.order != 2 * K.order:
        raise GroupCheckError(f"index-2 step: <K, {z}> has index {parent.order // K.order} over K")
    if z in K:
        raise GroupCheckError(f"index-2 step: z = {z} lies inside K")
    mul, out = pres.mul, []
    for g in values:
        if g[0]:
            g = mul(g, mul(mul(z, g), _ref_inv(pres, z))) if g in K else mul(g, g)
        elif z[0] and g in K:
            g = pres.element(0, (1 + pres.sigma_twist) * g[1], 0)
        else:  # g^2, which is also g z g z^-1 for z in A
            g = pres.element(0, 2 * g[1], 2 * g[2])
        if g not in K:
            raise GroupCheckError(f"index-2 step: the value {g} leaves K")
        out.append(g)
    return tuple(out)


def planless_kernel(values, derived) -> frozenset:
    for g in values:
        if g[0]:
            raise GroupCheckError(f"kernel: the transfer value {g} lies outside A")
    h11, h12, h22 = derived
    (_, a1, b1), (_, a2, b2), (_, a3, b3) = values
    a12, b12 = a1 + a2, b1 + b2
    sums = ((0, 0), (a1, b1), (a2, b2), (a12, b12),  # in the order of CLASS_VECTORS
            (a3, b3), (a1 + a3, b1 + b3), (a2 + a3, b2 + b3), (a12 + a3, b12 + b3))
    return frozenset(v for v, (a, b) in zip(CLASS_VECTORS, sums)
                     if not a % h11 and not (b - a // h11 * h12) % h22)


def planless_engine_checks(profile) -> tuple:
    from itertools import starmap

    from classtower import classify

    report = classify.predict(profile)
    table = classify.engine_table(GPresentation(profile.m, profile.n, profile.q, profile.psi))
    G, series_length = table.G.H, len(table.series)
    pres = G.pres
    rows = [  # (name, expected, got)
        ("G:order", report.group_order, G.order),
        ("G:derived-generators", True, table.derived_squares),
        ("G:abelianization", classify._T222, table.G.abelianization),
        ("G:derived-type", report.derived, table.G_derived.abelianization),
        ("G:nilpotency-class", report.nilpotency_class, series_length - 1),
        ("G:coclass", report.coclass, G.order.bit_length() - 1 - (series_length - 1)),
    ]
    k_words = classify._keyed_entries(classify._GJ_PLUS, classify._GJ_MINUS, profile)
    for j, kf in report.k_fields.items():
        K = table.over[kf.norm_group]
        index, words, type_, kernel, taussky = classify._K_CHECKS[j]
        rows += [
            (index, 2, K.index),
            (words, True, K.generated_by(map(pres.word, k_words[j]))),
            (type_, kf.cl2, K.abelianization),
            (kernel, classify._fmt_vectors(kf.kernel), classify._fmt_vectors(K.kernel)),
            (taussky, True, len(K.kernel & kf.norm_group) > 1),
        ]
    rows.append(("K3:class-group", report.cl2_k3,
                 table.over[report.k_fields[3].norm_group].abelianization))
    l_words = classify._keyed_entries(classify._GL_PLUS, classify._GL_MINUS, profile)
    for j, lf in report.l_fields.items():
        L = table.over[lf.norm_group]
        index, words, type_, kernel = classify._L_CHECKS[j]
        rows += [
            (index, 4, L.index),
            (words, True, L.generated_by(map(pres.word, l_words[j]))),
            (type_, lf.cl2, L.abelianization),
            (kernel, classify._fmt_vectors(lf.kernel), classify._fmt_vectors(L.kernel)),
        ]
    return tuple(starmap(classify._check, rows))
