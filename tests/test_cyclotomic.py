import hashlib
import re
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.abelian import coset_representatives, subgroup_elements, subgroups, unit_group
from noether.arith import euler_phi, factor, is_square, primes_below, split_prime
from noether.cyclotomic import (
    CycElement,
    FieldStore,
    _primitive,
    _top_kernels,
    cyclotomic_polynomial,
    period_ring,
    subfield_minpoly,
    subfields,
)
from noether.polyops import discriminant
from oracles import (
    SUBGROUP_CASES,
    conductor_oracle,
    coset_representatives_oracle,
    moebius,
    naive_is_prime,
    period_charpoly_oracle,
    subfield_minpoly_oracle,
)


def full_subgroup(n):
    return [s for s in subgroups(unit_group(n)) if s.index == 1][0]


def period(f, residues):
    """Σ_{u in residues} ζ_f^u as a sum of basis elements of Z[x]/(x^f - 1)."""
    terms = [CycElement(f, tuple(int(e == u % f) for e in range(f))) for u in residues]
    return sum(terms[1:], terms[0])


def constant(f, c):
    """c ∈ Z as an element of Z[x]/(x^f - 1)."""
    return CycElement(f, (c,) + (0,) * (f - 1))


def subgroup_with_elements(n, els):
    for s in subgroups(unit_group(n)):
        if s.elements() == sorted(els):
            return s
    raise AssertionError(f"no subgroup of (Z/{n})* with elements {els}")


def test_cyc_element_ring_ops():
    a = CycElement(5, (0, 1, 0, 0, 1))  # ζ + ζ^4
    b = a * a
    assert b.coeffs == (2, 0, 1, 1, 0)  # ζ^2 + 2 + ζ^3
    assert (a + a).coeffs == (0, 2, 0, 0, 2)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert len(cyclotomic_polynomial(105)) == euler_phi(105) + 1


def test_period_element_examples():
    h = subgroup_with_elements(5, [1, 4])
    theta = period(5, h.elements())
    assert theta.coeffs == (0, 1, 0, 0, 1)

    t2 = period(5, full_subgroup(5).elements())
    assert t2.coeffs == (0, 1, 1, 1, 1)
    assert (t2 - CycElement(5, (-1, 0, 0, 0, 0))).is_zero_value()  # θ = μ(5)

    h12 = subgroup_with_elements(12, [1, 7])
    degenerate = period(12, h12.elements())
    assert degenerate.is_zero_value()  # ζ12^7 = -ζ12


def test_subfield_minpoly_examples():
    h = subgroup_with_elements(5, [1, 4])
    desc = subfield_minpoly(h)
    assert desc.minpoly == (-1, 1, 1)  # x^2 + x - 1
    assert desc.degree == 2

    h7 = subgroup_with_elements(7, [1, 2, 4])
    desc7 = subfield_minpoly(h7)
    assert desc7.minpoly == (2, 1, 1)  # x^2 + x + 2
    assert discriminant(list(desc7.minpoly)) == -7

    for n in (5, 7, 12, 30):
        full = full_subgroup(n)
        assert subfield_minpoly(full).minpoly == (-moebius(n), 1)


def test_conductor_examples():
    # {1,7} mod 12 is exactly the kernel of reduction to (Z/3)*, so its
    # fixed field is Q(ζ3); {1,5} is the mod-4 kernel; {1,11} fixes Q(√3),
    # which needs the full modulus
    kernels = _top_kernels(unit_group(12))
    assert not _primitive(subgroup_with_elements(12, [1, 7]), kernels)
    assert not _primitive(subgroup_with_elements(12, [1, 5]), kernels)
    assert _primitive(subgroup_with_elements(12, [1, 11]), kernels)
    assert sorted(sd.period_modulus for sd in subfields(12, 2, min_degree=2)) == [3, 4, 12]
    # 46 ≡ 2 (mod 4): every subfield of Q(ζ46) already lives in Q(ζ23)
    assert not any(_primitive(h, _top_kernels(unit_group(46))) for h in subgroups(unit_group(46)))
    assert {sd.period_modulus for sd in subfields(46, euler_phi(46), min_degree=2)} == {23}


def test_top_kernels_generate_the_units_1_mod_n_over_q():
    # one vector per q^e ∥ n, whose residue generates the units ≡ 1
    # (mod n/q), found by brute force over the residues mod n alone
    for n in range(3, 500):
        g = unit_group(n)
        kernels = _top_kernels(g)
        assert len(kernels) == len(factor(n)), n
        for (q, _), v in zip(factor(n), kernels):
            r = 1
            for base, c in zip(g.generators, v):
                r = r * pow(base, c, n) % n
            generated = {1}
            x = r
            while x != 1:
                generated.add(x)
                x = x * r % n
            units = {u for u in range(1, n) if gcd(u, n) == 1 and u % (n // q) == 1 % (n // q)}
            assert generated == units, (n, q, v)


def test_conductor_matches_definition_oracle():
    # _primitive(h) says whether n is the conductor of h ⊆ (Z/n)*, for
    # every subgroup of SUBGROUP_CASES and of the prime-power moduli whose
    # top kernels are K_q(e - 1) with e >= 2
    for n, max_index in SUBGROUP_CASES + [(n, None) for n in (4, 8, 16, 32, 64, 9, 27, 25, 49)]:
        g = unit_group(n)
        kernels = _top_kernels(g)
        for h in subgroups(g, max_index=max_index):
            assert _primitive(h, kernels) == (conductor_oracle(n, subgroup_elements(h)) == n), (n, h.hnf)


def _field_of(n, h):
    """(degree, conductor, residues mod the conductor) of the fixed field
    of h ⊆ (Z/n)*, from the list of h's elements; Q is kept at modulus n."""
    elems = subgroup_elements(h)
    f = n if h.index == 1 else conductor_oracle(n, elems)
    return h.index, f, tuple(sorted({u % f for u in elems}))


def _field_of_descriptor(sd):
    assert sd.subgroup.group.n == sd.period_modulus
    return sd.degree, sd.period_modulus, tuple(sd.subgroup.elements())


def test_each_subgroup_meets_its_field_at_the_conductor():
    # every subgroup of SUBGROUP_CASES, which hold every subgroup of index
    # <= 12 of 19926, 19948 and 19996: subfields() lists one field per
    # subgroup of (Z/n)*, each as the subgroup of (Z/f)* that is its image
    # mod the conductor f
    checked = 0
    for n, max_index in SUBGROUP_CASES:
        hs = subgroups(unit_group(n), max_index=max_index)
        sds = subfields(n, max_index or euler_phi(n))
        assert sorted(map(_field_of_descriptor, sds)) == sorted(_field_of(n, h) for h in hs), n
        checked += sum(sd.period_modulus < n for sd in sds)
    assert checked > 1000


def test_subfield_minpoly_degenerate_period_recovery():
    # index-2 subgroup {1,7} of (Z/12)*: the mod-12 period ζ + ζ^7 is 0.
    # subfields() meets its field Q(ζ3) at conductor 3, where the plain
    # period works at once, and {1,5} as Q(i) at conductor 4
    at = {sd.period_modulus: sd for sd in subfields(12, 2, min_degree=2)}
    assert (at[3].degree, at[3].minpoly, at[3].subgroup.elements()) == (2, (1, 1, 1), [1])
    assert discriminant(list(at[3].minpoly)) == -3
    assert (at[4].minpoly, at[4].subgroup.elements()) == ((1, 0, 1), [1])

    # {1,5,9,13} mod 16 is the mod-4 kernel: fixed field Q(i)
    desc16 = [sd for sd in subfields(16, 4) if sd.period_modulus == 4]
    assert [sd.minpoly for sd in desc16] == [(1, 0, 1)]

    # built at modulus 12 instead, the period's conjugates collide
    h12 = subgroup_with_elements(12, [1, 7])
    with pytest.raises(ArithmeticError, match="index-2 subgroup mod 12 has colliding conjugates"):
        subfield_minpoly(h12)


def test_colliding_conjugates_raise(monkeypatch):
    import noether.cyclotomic as cyc
    from optimized import run_optimized

    # images that meet mod M and a zero exact discriminant leave the roots
    # unproven distinct: no minimal polynomial is returned
    message = "the period of an index-2 subgroup mod 5 has colliding conjugates"
    monkeypatch.setattr(cyc, "_pairwise_distinct", lambda images: False)
    monkeypatch.setattr(cyc, "discriminant", lambda g: 0)
    with pytest.raises(ArithmeticError, match=message):
        subfield_minpoly(subgroup_with_elements(5, [1, 4]))
    with pytest.raises(ArithmeticError, match="colliding conjugates"):
        subfields(15, 4, min_degree=4)

    proc = run_optimized(
        "import noether.cyclotomic as cyc\n"
        "cyc._pairwise_distinct = lambda images: False\n"
        "cyc.discriminant = lambda g: 0\n"
        "cyc.subfields(5, 2, min_degree=2)\n")
    assert proc.returncode == 1, proc
    assert f"ArithmeticError: {message}" in proc.stderr


# moduli with up to four squared primes: (n, max index)
_SQUARE_MODULI = [(72, 48), (200, 48), (225, 48), (360, 48), (392, 48), (675, 48), (900, 48),
                  (1800, 48), (1764, 24), (2700, 24), (3600, 24), (19600, 24)]


def test_period_generates_every_subfield_of_square_moduli():
    # the primitivity check raises unless the period generates the field,
    # so every subgroup yields a field of full degree
    for n, max_index in _SQUARE_MODULI:
        hs = subgroups(unit_group(n), max_index=max_index)
        sds = subfields(n, max_index)
        # one field per subgroup of (Z/n)*, met as a subgroup of (Z/f)*
        assert sorted(map(_field_of_descriptor, sds)) == sorted(_field_of(n, h) for h in hs), n
        assert all(len(sd.minpoly) == sd.degree + 1 == sd.subgroup.index + 1 for sd in sds), n


def test_subfields_examples():
    descs = subfields(46, 2)
    assert sorted(d.degree for d in descs) == [1, 2]
    deg2 = [d for d in descs if d.degree == 2][0]
    # fundamental part of the poly disc must be -23
    disc = discriminant(list(deg2.minpoly))
    f = 1
    while disc % 4 == 0 and (disc // 4) % 4 in (0, 1):
        disc //= 4
    assert disc == -23

    descs12 = subfields(12, 2)
    assert sorted(d.degree for d in descs12) == [1, 2, 2, 2]
    assert subfields(12, 2, min_degree=2) == descs12[1:]
    assert subfields(60, 4, min_degree=3) == [d for d in subfields(60, 4) if d.degree >= 3]

    descs3 = subfields(3, 8)
    assert [d.degree for d in descs3] == [1, 2]
    assert descs3[1].minpoly == (1, 1, 1)


def test_subfields_ordering_deterministic():
    a = subfields(60, 4)
    b = subfields(60, 4)
    assert a == b
    degs = [d.degree for d in a]
    assert degs == sorted(degs)


def test_minpoly_annihilates_period_ring_check():
    for n in (5, 7, 12, 13, 16, 21, 24, 36, 46):
        sds = subfields(n, 6)
        assert len(sds) == len(subgroups(unit_group(n), max_index=6)), n  # one field per subgroup
        for desc in sds:
            pm = desc.period_modulus
            theta = period(pm, desc.subgroup.elements())
            acc = constant(pm, desc.minpoly[0])
            power = constant(pm, 1)
            for c in desc.minpoly[1:]:
                power = power * theta
                acc = acc + power * constant(pm, c)
            assert acc.is_zero_value(), (n, desc.period_modulus, desc.subgroup.hnf)


def test_minpoly_squarefree_and_degree_for_small_moduli():
    for n in range(3, 61):
        hs = subgroups(unit_group(n))
        sds = subfields(n, euler_phi(n))
        # one field per subgroup of (Z/n)*, of degree its index
        assert sorted(sd.degree for sd in sds) == sorted(euler_phi(n) // h.order for h in hs), n
        for desc in sds:
            assert len(desc.minpoly) == desc.degree + 1
            assert desc.minpoly[-1] == 1
            assert discriminant(list(desc.minpoly)) != 0


def test_degree2_counts_match_even_cyclic_orders():
    for n in (5, 8, 12, 15, 16, 24, 46, 60, 100):
        g = unit_group(n)
        t = sum(1 for d in g.cyclic_orders if d % 2 == 0)
        deg2 = [d for d in subfields(n, 2) if d.degree == 2]
        assert len(deg2) == 2**t - 1, n


def test_degree2_minpolys_match_quadratic_discs():
    from noether.quadforms import quadratic_subfield_discs

    # each degree-2 minpoly x^2 + bx + c has discriminant D y^2 for exactly
    # one D of the list, and each D is met once. 8836 = 4 * 47^2: all three
    # quadratic subfields are imprimitive, so conductor reduction is what
    # keeps their periods nonzero at all
    for n in (12, 40, 46, 8836):
        discs = quadratic_subfield_discs(n)
        found = []
        for sd in subfields(n, 2):
            if sd.degree != 2:
                continue
            b, c = sd.minpoly[1], sd.minpoly[0]
            disc = b * b - 4 * c
            match = [D for D in discs if disc % D == 0 and is_square(disc // D)]
            assert len(match) == 1, (n, sd.minpoly, match)
            found += match
        assert sorted(found) == discs, n


def test_minpoly_irreducible_over_q():
    # exact factorisation over Q, for every subfield of every small modulus
    x = sympy.symbols("x")
    for n in range(3, 61):
        sds = subfields(n, euler_phi(n))
        assert len(sds) == len(subgroups(unit_group(n))), n  # one field per subgroup
        for desc in sds:
            poly = sympy.Poly(desc.minpoly[::-1], x, domain="QQ")
            assert poly.is_irreducible, (n, desc.period_modulus, desc.subgroup.hnf)


def test_performance_contract_large_modulus():
    import time

    # worst realistic shape: n just under 20000 with plenty of subgroups of
    # index 4 and 8, (Z/19960)* ≅ C996 × C2^3 (19996 = 4 · 4999 has none of
    # index 8)
    n = 19960  # = 8 * 5 * 499
    subs = [s for s in subgroups(unit_group(n), max_index=8) if s.index in (4, 8)]
    start = time.monotonic()
    built = subfields(n, 8, min_degree=4)
    elapsed = time.monotonic() - start
    sds = [sd for sd in built if sd.degree in (4, 8)]
    assert {sd.degree for sd in sds} == {4, 8}
    assert len(sds) == len(subs)  # one field per subgroup
    assert elapsed < 1.0 * len(built), f"{elapsed:.2f}s for {len(built)} fields"


# Fields whose conductor needs a multi-step Hensel lift: (n, max index, indices)
_LARGE_CONDUCTORS = {
    "19996-index-4-12": (19996, 12, {4, 12}),  # (Z/19996)* has no subgroup of index 8
    "8836-index-le-46": (8836, 46, None),  # all three quadratics are imprimitive
    "19948-index-le-12": (19948, 12, None),
}


@pytest.mark.parametrize("case", sorted(_LARGE_CONDUCTORS))
def test_minpoly_matches_complex_oracle_large_conductors(case):
    n, max_index, indices = _LARGE_CONDUCTORS[case]
    sds = subfields(n, max_index)
    assert len(sds) == len(subgroups(unit_group(n), max_index=max_index)), n  # one field per subgroup
    met = set()
    for desc in sds:
        if indices is not None and desc.degree not in indices:
            continue
        residues = desc.subgroup.elements()
        assert desc.degree == euler_phi(desc.period_modulus) // len(residues)
        assert list(desc.minpoly) == period_charpoly_oracle(desc.period_modulus, residues, (1,)), (
            n, desc.period_modulus, desc.subgroup.hnf)
        met.add(desc.degree)
    assert len(met) >= 2 and (indices is None or met == indices), met


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=10**300))
@settings(max_examples=60, deadline=None)
def test_root_of_unity_modulus(f, bound):
    ell, _ = split_prime(f)
    m, powers = period_ring(f, bound)
    z = powers[1 % f]
    assert naive_is_prime(ell) and ell < 2**64
    assert ell % f == 1 % f and not any(naive_is_prime(k * f + 1) for k in range(1, (ell - 1) // f))
    power = m
    while power % ell == 0:
        power //= ell
    assert power == 1 and m > bound and (m == ell or m // ell <= bound)
    acc = 0
    for c in reversed(cyclotomic_polynomial(f)):
        acc = (acc * z + c) % m
    assert acc == 0
    # the table holds the powers of z up to z^(f-1), and z^f = 1
    assert len(powers) == f and powers == [pow(z, e, m) for e in range(f)]
    assert pow(z, f, m) == 1


def test_root_of_unity_modulus_stays_below_2_64(monkeypatch):
    import noether.arith as arith

    # the prime search gives up before any table of 2^64 - 1 powers is built
    def no_root(f, ell):
        raise AssertionError("a root of unity was sought")

    monkeypatch.setattr(arith, "element_of_order", no_root)
    with pytest.raises(ArithmeticError, match="2\\^64"):
        period_ring(2**64 - 1, 10)


def test_subfield_minpoly_degree_checks_raise(monkeypatch):
    import noether.cyclotomic as cyc

    # 1 and 4 both lie in {1, 4}: two representatives of one coset
    monkeypatch.setattr(cyc, "coset_representatives", lambda h: [1, 4])
    with pytest.raises(ArithmeticError, match="1 and 4 .* share a coset"):
        subfield_minpoly(subgroup_with_elements(5, [1, 4]))
    monkeypatch.undo()
    # the ring map Z[ζ_13] → Z/53 is too small for the coefficient bound
    # 2 (|H| + 1)^d = 250 of the cubic field: its coefficients would wrap
    cubic = [s for s in subgroups(unit_group(13)) if s.index == 3][0]
    with pytest.raises(ValueError, match="ring modulus 53 does not exceed the coefficient bound 250"):
        subfield_minpoly(cubic, cyc.period_ring(13, 10))


def test_a_ring_of_another_conductor_raises():
    # the powers of ζ_26 read as those of ζ_13 give distinct images and a
    # wrong polynomial (x^3 + 3615538 x^2 + ...): the ring's conductor is
    # checked, as is the shorter table of ζ_7
    cubic = [s for s in subgroups(unit_group(13)) if s.index == 3][0]
    for other in (26, 7):
        with pytest.raises(ValueError, match=f"a ring of {other} powers is not the ring map of conductor 13"):
            subfield_minpoly(cubic, period_ring(other, 10**6))
    assert subfield_minpoly(cubic, period_ring(13, 10**6)) == subfield_minpoly(cubic)


def test_subfields_match_field_by_field_oracle():
    # index <= 12 everywhere: all 7820 subgroups of SUBGROUP_CASES agree
    # too, but the oracle's exact discriminants take ~35 s at high degree.
    # The oracle builds the field of each subgroup of (Z/n)* on its own.
    checked = 0
    for n, max_index in SUBGROUP_CASES:
        cap = min(max_index or 12, 12)
        expected = []
        for h in subgroups(unit_group(n), max_index=cap):
            degree, minpoly, shape, period_modulus = subfield_minpoly_oracle(n, h.elements())
            # the oracle walks its full shape schedule; the first primitive
            # shape is always the plain period
            assert shape == (1,), (n, h.hnf)
            expected.append((degree, minpoly, period_modulus))
        got = [(sd.degree, sd.minpoly, sd.period_modulus) for sd in subfields(n, cap)]
        assert got == sorted(expected), n
        checked += len(got)
    assert checked > 5000


def test_box_representatives_are_a_coset_transversal():
    for n, max_index in SUBGROUP_CASES:
        for h in subgroups(unit_group(n), max_index=max_index):
            residues = h.elements()
            reps = coset_representatives(h)
            # each representative named by the least unit of its coset
            least = {min(r * u % n for u in residues) for r in reps}
            assert len(reps) == h.index, (n, h.hnf)
            assert least == set(coset_representatives_oracle(n, residues)), (n, h.hnf)


_FALLBACK_MODULI = [(5, 4), (12, 4), (16, 8), (21, 12), (36, 12), (46, 22), (60, 16), (8836, 4)]


def test_exact_discriminant_fallback_gives_the_same_fields(monkeypatch):
    import noether.cyclotomic as cyc

    expected = {n: subfields(n, d) for n, d in _FALLBACK_MODULI}
    discs = []

    def counting_discriminant(g):
        discs.append(len(g) - 1)
        return discriminant(g)

    monkeypatch.setattr(cyc, "_pairwise_distinct", lambda images: False)
    monkeypatch.setattr(cyc, "discriminant", counting_discriminant)
    for n, d in _FALLBACK_MODULI:
        assert subfields(n, d) == expected[n], n
    assert len(discs) == sum(len(v) for v in expected.values())


def test_one_power_table_per_conductor(monkeypatch):
    import noether.cyclotomic as cyc

    built = []
    real_ring = cyc.period_ring

    def counting_ring(f, bound):
        built.append(f)
        return real_ring(f, bound)

    monkeypatch.setattr(cyc, "period_ring", counting_ring)
    # from degree 2, so that Q and its own ring at n are left out
    for n, max_degree in ((60, 16), (8836, 12), (19948, 12)):
        built.clear()
        conductors = {sd.period_modulus for sd in subfields(n, max_degree, min_degree=2)}
        assert sorted(built) == sorted(conductors) and len(conductors) > 2, n
        # asked one degree at a time through one store, still one each
        built.clear()
        store = FieldStore(max_degree)
        for d in range(2, max_degree + 1):
            subfields(n, d, d, store)
        assert sorted(built) == sorted(conductors), n
    # with the conductors 3, 4, 8, 12 and 24 of 24 in the store, 72 gets
    # rings only for the conductors 24 lacks
    store = FieldStore(6)
    subfields(24, 6, 2, store)
    built.clear()
    subfields(72, 6, 2, store)
    assert sorted(built) == [9, 36, 72]
    # the store keeps only the rings of the modulus last asked
    subfields(10, 6, 2, store)
    assert sorted(built) == [5, 9, 36, 72] and set(store.rings) == {5}


def test_cyclotomic_division_check_survives_optimize(monkeypatch):
    import noether.cyclotomic as cyc
    from optimized import run_optimized

    message = "Φ_1 does not divide x^6 - 1 exactly"
    monkeypatch.setattr(cyc, "poly_divmod_monic", lambda f, g: ([1], [1]))
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        cyc.cyclotomic_polynomial.__wrapped__(6)

    proc = run_optimized(
        "import noether.cyclotomic as cyc\n"
        "cyc.poly_divmod_monic = lambda f, g: ([1], [1])\n"
        "cyc.cyclotomic_polynomial.__wrapped__(6)\n")
    assert proc.returncode == 1, proc
    assert f"ArithmeticError: {message}" in proc.stderr


def _counting_minpoly(monkeypatch, built):
    import noether.cyclotomic as cyc

    minpoly = cyc.subfield_minpoly

    def counting_minpoly(h, *args):
        sd = minpoly(h, *args)
        built.append(_field_of_descriptor(sd))
        return sd

    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)


def test_field_store_gives_the_fresh_descriptors(monkeypatch):
    # one store, in scan order: every field of index 3..8 of p - 1 equals
    # its build without a store, and each distinct field is built once
    built = []
    moduli = [p - 1 for p in primes_below(3000)[2:]]
    store = FieldStore(8)
    _counting_minpoly(monkeypatch, built)
    got = [subfields(n, 8, 3, store) for n in moduli]
    monkeypatch.undo()
    assert got == [subfields(n, 8, 3) for n in moduli]
    descs = [sd for sds in got for sd in sds]
    distinct = {_field_of_descriptor(sd) for sd in descs}
    assert len(built) == len(set(built)) == len(distinct) < len(descs)
    assert set(built) == distinct
    # one listing per conductor met, one entry per field built, keyed by
    # its subgroup
    assert set(store.listed) == {f for n in moduli for f in range(3, n + 1)
                                 if n % f == 0 and f % 4 != 2}
    assert store == {sd.subgroup: sd for sd in descs}
    assert store.lattices


def test_field_store_reads_back_a_conductor_n_field(monkeypatch):
    # Q(ζ_12), of degree 4 and conductor 12, is built at p = 13 (n = 12)
    # and read back, not rebuilt, at p' = 37 ≡ 1 (mod 12): the very
    # descriptor stored at p
    built = []
    store = FieldStore(8)
    _counting_minpoly(monkeypatch, built)
    at = {p: subfields(p - 1, 8, 3, store) for p in primes_below(38)[2:]}
    monkeypatch.undo()
    key = (4, 12, (1,))
    assert built.count(key) == 1
    first, later = ([sd for sd in at[p] if _field_of_descriptor(sd) == key] for p in (13, 37))
    assert len(first) == len(later) == 1 and later[0] is first[0]
    assert later == [sd for sd in subfields(36, 8, 3) if _field_of_descriptor(sd) == key]
    assert len(built) == len(set(built))


def test_field_store_serves_every_degree_range_up_to_its_cap():
    # one store across calls of different degree ranges: each call still
    # gives exactly its own fields and builds no field outside its range,
    # and a range above the store's cap raises
    store = FieldStore(12)
    for n, max_degree, min_degree in ((72, 8, 3), (72, 4, 1), (144, 8, 3), (144, 6, 4), (36, 12, 2), (72, 8, 3)):
        assert subfields(n, max_degree, min_degree, store) == subfields(n, max_degree, min_degree), (
            n, max_degree, min_degree)
    assert {h.index for h in store} == {2, 3, 4, 6, 8, 12}
    lazy = FieldStore(12)
    assert subfields(144, 4, 4, lazy) == subfields(144, 4, 4)
    assert lazy and {h.index for h in lazy} == {4}
    with pytest.raises(ValueError, match="above the store's cap 12"):
        subfields(144, 13, 3, lazy)


def test_a_failed_build_stores_nothing(monkeypatch):
    # a build that raises leaves no entry for its field, so the next call
    # with that store builds it; the fields built before it, of its
    # conductor too, are stored as a fresh build makes them
    import noether.cyclotomic as cyc

    minpoly = cyc.subfield_minpoly

    def failing_minpoly(h, *args):
        if h.group.n == 24 and h.index == 8:
            raise ArithmeticError("failed build")
        return minpoly(h, *args)

    store = FieldStore(8)
    monkeypatch.setattr(cyc, "subfield_minpoly", failing_minpoly)
    with pytest.raises(ArithmeticError, match="failed build"):
        subfields(72, 8, 3, store)
    monkeypatch.undo()
    assert not any(h.group.n == 24 and h.index == 8 for h in store)
    assert any(h.group.n == 24 for h in store)
    for h, sd in store.items():
        assert sd == subfield_minpoly(h), h
    assert subfields(72, 8, 3, store) == subfields(72, 8, 3)


_PINNED_FIELDS = {
    "scan": "a566676ae4b0475c70999baa6dad052d55e6da3c6a6a0cb81f00432d92974a79",
    8836: "af0f94d59a029d83871a885c29d7ac014fbf04b3980ef1e31b8b7322229c28a6",
    19926: "f63e777b101f51cdad6844af286c5b3097ee38a0d483f41c46b860e137dae2e7",
    19948: "0aadd2dfb0449286a4d7f3235e761f0e93358510724a74620f8f84bb3506eea7",
}


def _field_lines(sds):
    return "".join(f"{sd.degree} {list(sd.minpoly)} {sd.period_modulus}\n" for sd in sds).encode()


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "one-store"])
def test_subfields_of_a_scan_are_pinned(shared):
    # the sha256 of subfields(p - 1, 8, 3) for 5 <= p < 3000, in scan
    # order, with a store per call or one store for all
    store = FieldStore(8) if shared else None
    digest = hashlib.sha256()
    for p in primes_below(3000)[2:]:
        digest.update(_field_lines(subfields(p - 1, 8, 3, store)))
    assert digest.hexdigest() == _PINNED_FIELDS["scan"]


@pytest.mark.parametrize("n", [8836, 19926, 19948])
def test_subfields_of_large_moduli_are_pinned(n):
    assert hashlib.sha256(_field_lines(subfields(n, 12))).hexdigest() == _PINNED_FIELDS[n]


def test_subfields_reject_a_degree_cap_below_one():
    for max_degree in (0, -1):
        with pytest.raises(ValueError, match="max_degree >= 1"):
            subfields(12, max_degree)


def test_trivial_field_keeps_the_full_modulus():
    # Q at modulus n, period μ(n), as subfield_minpoly builds it from (Z/n)*
    for n in (5, 12, 30, 36, 8836):
        sds = subfields(n, 2)
        assert (sds[0].degree, sds[0].minpoly, sds[0].period_modulus) == (1, (-moebius(n), 1), n)
        assert sds[0].subgroup.index == 1 and sds[0] == subfield_minpoly(sds[0].subgroup)
        assert [sd.degree for sd in sds[1:]] == [2] * (len(sds) - 1), n


def test_subfields_without_a_store_build_every_field(monkeypatch):
    import noether.cyclotomic as cyc

    built = []
    minpoly = cyc.subfield_minpoly

    def counting_minpoly(h, *args):
        built.append(h.group.n)
        return minpoly(h, *args)

    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)
    first = subfields(72, 8, 3)
    assert subfields(72, 8, 3) == first
    assert len(built) == 2 * len(first)
    assert any(sd.period_modulus < 72 for sd in first)
