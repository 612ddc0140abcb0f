import re
from array import array

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.abelian import subgroup_elements, subgroups, unit_group
from noether.arith import euler_phi, primes_below
from noether.cyclotomic import (
    CycElement,
    _cut,
    _prime_and_root,
    _root_of_unity_mod,
    conductor,
    cyclotomic_polynomial,
    subfield_minpoly,
    subfields,
)
from noether.polyops import discriminant, poly_eval
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
    assert a.galois_image(2).coeffs == (0, 0, 1, 1, 0)


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
    desc = subfield_minpoly(5, h)
    assert desc.minpoly == (-1, 1, 1)  # x^2 + x - 1
    assert desc.degree == 2

    h7 = subgroup_with_elements(7, [1, 2, 4])
    desc7 = subfield_minpoly(7, h7)
    assert desc7.minpoly == (2, 1, 1)  # x^2 + x + 2
    assert discriminant(list(desc7.minpoly)) == -7

    for n in (5, 7, 12, 30):
        full = full_subgroup(n)
        assert subfield_minpoly(n, full).minpoly == (-moebius(n), 1)


def test_conductor_examples():
    # {1,7} mod 12 is exactly the kernel of reduction to (Z/3)*, so its
    # fixed field is Q(ζ3); {1,5} is the mod-4 kernel; {1,11} fixes Q(√3),
    # which needs the full modulus
    assert conductor(subgroup_with_elements(12, [1, 7])) == 3
    assert conductor(subgroup_with_elements(12, [1, 5])) == 4
    assert conductor(subgroup_with_elements(12, [1, 11])) == 12
    assert conductor(full_subgroup(12)) == 1
    # 46 ≡ 2 (mod 4): every subfield of Q(ζ46) already lives in Q(ζ23)
    for h in subgroups(unit_group(46)):
        assert conductor(h) in (1, 23)


def test_conductor_matches_definition_oracle():
    for n, max_index in SUBGROUP_CASES:
        for h in subgroups(unit_group(n), max_index=max_index):
            assert conductor(h) == conductor_oracle(n, subgroup_elements(h)), (n, h.hnf)


def test_cut_matches_element_list_derivation(monkeypatch):
    # every subgroup of SUBGROUP_CASES, which hold every subgroup of index
    # <= 12 of 19926, 19948 and 19996: the conductor and the residues mod f
    # read off the HNF equal those derived from the list of h mod n, and
    # that list is only built when f = n
    import noether.cyclotomic as cyc

    listed = []

    def counting_elements(h):
        listed.append(h)
        return subgroup_elements(h)

    monkeypatch.setattr(cyc, "subgroup_elements", counting_elements)
    checked = 0
    for n, max_index in SUBGROUP_CASES:
        for h in subgroups(unit_group(n), max_index=max_index):
            elems = subgroup_elements(h)
            f = n if h.index == 1 else conductor_oracle(n, elems)
            listed.clear()
            assert _cut(n, h, cyc._reduction_kernels(h.group)) == (f, sorted({u % f for u in elems})), (n, h.hnf)
            assert listed == ([h] if f == n else []), (n, h.hnf)
            checked += f < n
    assert checked > 1000


def test_subfield_minpoly_degenerate_period_recovery():
    # index-2 subgroup {1,7} of (Z/12)*: the mod-12 period ζ + ζ^7 is 0,
    # but the field is Q(ζ3), where the plain period works at once
    h12 = subgroup_with_elements(12, [1, 7])
    desc = subfield_minpoly(12, h12)
    assert desc.degree == 2
    assert desc.period_modulus == 3
    assert desc.minpoly == (1, 1, 1)
    assert discriminant(list(desc.minpoly)) == -3

    # {1,5,9,13} mod 16 is the mod-4 kernel: fixed field Q(i)
    h16 = subgroup_with_elements(16, [1, 5, 9, 13])
    desc16 = subfield_minpoly(16, h16)
    assert desc16.minpoly == (1, 0, 1)
    assert desc16.period_modulus == 4


def test_colliding_conjugates_raise(monkeypatch):
    import noether.cyclotomic as cyc
    from optimized import run_optimized

    # images that meet mod M and a zero exact discriminant leave the roots
    # unproven distinct: no minimal polynomial is returned
    message = "the period of an index-2 subgroup mod 5 at conductor 5 has colliding conjugates"
    monkeypatch.setattr(cyc, "_pairwise_distinct", lambda images: False)
    monkeypatch.setattr(cyc, "discriminant", lambda g: 0)
    with pytest.raises(ArithmeticError, match=message):
        subfield_minpoly(5, subgroup_with_elements(5, [1, 4]))
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
        assert sorted(sd.subgroup.hnf for sd in sds) == sorted(h.hnf for h in hs), n
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
        for h in subgroups(unit_group(n), max_index=6):
            desc = subfield_minpoly(n, h)
            pm = desc.period_modulus
            theta = period(pm, {u % pm for u in h.elements()})
            acc = CycElement(pm, tuple([desc.minpoly[0]] + [0] * (pm - 1)))
            power = CycElement(pm, tuple([1] + [0] * (pm - 1)))
            for c in desc.minpoly[1:]:
                power = power * theta
                acc = acc + power.scale(c)
            assert acc.is_zero_value(), (n, h.hnf)


def test_minpoly_squarefree_and_degree_for_small_moduli():
    for n in range(3, 61):
        g = unit_group(n)
        for h in subgroups(g):
            desc = subfield_minpoly(n, h)
            assert desc.degree == euler_phi(n) // h.order
            assert len(desc.minpoly) == desc.degree + 1
            assert desc.minpoly[-1] == 1
            assert discriminant(list(desc.minpoly)) != 0


def test_degree2_counts_match_even_invariant_factors():
    for n in (5, 8, 12, 15, 16, 24, 46, 60, 100):
        g = unit_group(n)
        t = sum(1 for d in g.cyclic_orders if d % 2 == 0)
        deg2 = [d for d in subfields(n, 2) if d.degree == 2]
        assert len(deg2) == 2**t - 1, n


def test_degree2_minpolys_match_quadratic_discs():
    from noether.quadforms import fundamental_discriminant, quadratic_subfield_discs

    # 8836 = 4 * 47^2: all three quadratic subfields are imprimitive, so
    # conductor reduction is what keeps their periods nonzero at all
    for n in (12, 40, 46, 8836):
        found = set()
        for sd in subfields(n, 2):
            if sd.degree != 2:
                continue
            b, c = sd.minpoly[1], sd.minpoly[0]
            found.add(fundamental_discriminant(b * b - 4 * c))
        assert found == set(quadratic_subfield_discs(n)), n


def test_minpoly_irreducible_over_q():
    # exact factorisation over Q, for every subfield of every small modulus
    x = sympy.symbols("x")
    for n in range(3, 61):
        for h in subgroups(unit_group(n)):
            desc = subfield_minpoly(n, h)
            assert sympy.Poly(desc.minpoly[::-1], x, domain="QQ").is_irreducible, (n, h.hnf)


def test_performance_contract_large_modulus():
    import time

    # worst realistic shape: n just under 20000 with plenty of subgroups
    n = 19996  # = 4 * 4999
    g = unit_group(n)
    subs = [s for s in subgroups(g, max_index=8) if s.index in (4, 8)]
    assert subs
    start = time.monotonic()
    count = 0
    for h in subs[:3]:
        desc = subfield_minpoly(n, h)
        assert desc.degree in (4, 8)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0 * count, f"{elapsed:.2f}s for {count} fields"


# Fields whose conductor needs a multi-step Hensel lift: (n, max index, indices)
_LARGE_CONDUCTORS = {
    "19996-index-4-8-12": (19996, 12, {4, 8, 12}),
    "8836-index-le-46": (8836, 46, None),  # all three quadratics are imprimitive
    "19948-index-le-12": (19948, 12, None),
}


@pytest.mark.parametrize("case", sorted(_LARGE_CONDUCTORS))
def test_minpoly_matches_complex_oracle_large_conductors(case):
    n, max_index, indices = _LARGE_CONDUCTORS[case]
    checked = 0
    for h in subgroups(unit_group(n), max_index=max_index):
        if indices is not None and h.index not in indices:
            continue
        desc = subfield_minpoly(n, h)
        pm = desc.period_modulus
        residues = sorted({u % pm for u in h.elements()})
        assert desc.degree == h.index
        assert list(desc.minpoly) == period_charpoly_oracle(pm, residues, (1,)), (n, h.hnf)
        checked += 1
    assert checked >= 2


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=10**300))
@settings(max_examples=60, deadline=None)
def test_root_of_unity_modulus(f, bound):
    ell, _ = _prime_and_root(f)
    m, z = _root_of_unity_mod(f, bound)
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


def test_root_of_unity_modulus_stays_below_2_64():
    with pytest.raises(ArithmeticError, match="2\\^64"):
        _root_of_unity_mod(2**64 - 1, 10)


def test_subfield_minpoly_degree_checks_raise(monkeypatch):
    import noether.cyclotomic as cyc

    # {1, 4, 16} has conductor 21; a conductor too small for the field
    # loses degree: its residues mod 7 are {1, 2, 4}, not φ(7)/4 of them
    quartic = subgroup_with_elements(21, [1, 4, 16])
    monkeypatch.setattr(cyc, "_conductor", lambda h, kernels: 7)
    with pytest.raises(ArithmeticError, match="conductor 7 of an index-4 subgroup mod 21 loses degree"):
        subfield_minpoly(21, quartic)
    monkeypatch.undo()
    # 1 and 4 both lie in {1, 4}: two representatives of one coset
    monkeypatch.setattr(cyc, "_box_representatives", lambda h, f: [1, 4])
    with pytest.raises(ArithmeticError, match="1 and 4 .* share a coset"):
        subfield_minpoly(5, subgroup_with_elements(5, [1, 4]))
    monkeypatch.undo()
    # the ring map Z[ζ_13] → Z/53 is too small for the coefficient bound
    # 2 (|H| + 1)^d = 250 of the cubic field: its coefficients would wrap
    cubic = [s for s in subgroups(unit_group(13)) if s.index == 3][0]
    with pytest.raises(ValueError, match="ring modulus 53 does not exceed the coefficient bound 250"):
        subfield_minpoly(13, cubic, cyc._PeriodRing(13, 10))


def test_subfields_match_field_by_field_oracle():
    # index <= 12 everywhere: all 7820 subgroups of SUBGROUP_CASES agree
    # too, but the oracle's exact discriminants take ~35 s at high degree
    checked = 0
    for n, max_index in SUBGROUP_CASES:
        for sd in subfields(n, min(max_index or 12, 12)):
            degree, minpoly, shape, period_modulus = subfield_minpoly_oracle(n, sd.subgroup.elements())
            # the oracle walks its full shape schedule; the first primitive
            # shape is always the plain period
            assert shape == (1,), (n, sd.subgroup.hnf)
            assert (sd.degree, sd.minpoly, sd.period_modulus) == (degree, minpoly, period_modulus), (
                n, sd.subgroup.hnf)
            checked += 1
    assert checked > 5000


def test_box_representatives_are_a_coset_transversal():
    from noether.cyclotomic import _box_representatives

    for n, max_index in SUBGROUP_CASES:
        for h in subgroups(unit_group(n), max_index=max_index):
            f = n if h.index == 1 else conductor(h)
            residues = sorted({u % f for u in h.elements()})
            reps = _box_representatives(h, f)
            # each representative named by the least unit of its coset
            least = {min(r * u % f for u in residues) for r in reps}
            assert len(reps) == h.index, (n, h.hnf)
            assert least == set(coset_representatives_oracle(f, residues)), (n, h.hnf)


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
    table = cyc._PeriodRing._table

    def counting_table(self, f):
        built.append(f)
        return table(self, f)

    monkeypatch.setattr(cyc._PeriodRing, "_table", counting_table)
    for n, max_degree in ((60, 16), (8836, 12), (19948, 12)):
        built.clear()
        conductors = {sd.period_modulus for sd in subfields(n, max_degree)}
        assert sorted(built) == sorted(conductors) and len(conductors) > 2, n


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


def _field_key(sd):
    f = sd.period_modulus
    return f, frozenset(u % f for u in sd.subgroup.elements())


def test_field_store_gives_the_fresh_descriptors(monkeypatch):
    # one store, in scan order: every field of index 3..8 of p - 1 equals
    # its build without a store, and a field of conductor f < n is built
    # once, at its first modulus above f
    import noether.cyclotomic as cyc

    built = []
    minpoly = cyc.subfield_minpoly

    def counting_minpoly(n, h, *args):
        built.append(n)
        return minpoly(n, h, *args)

    moduli = [p - 1 for p in primes_below(3000)[2:]]
    store = {}
    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)
    got = [subfields(n, 8, 3, store) for n in moduli]
    monkeypatch.undo()
    assert got == [subfields(n, 8, 3) for n in moduli]
    descs = [sd for sds in got for sd in sds]
    recurring = {_field_key(sd) for sd in descs if sd.period_modulus < sd.n}
    own = sum(sd.period_modulus == sd.n for sd in descs)
    assert len(built) == len(recurring) + own < len(descs)
    assert len(store) == len(recurring)


def test_field_store_holds_no_conductor_n_field():
    store = {}
    skipped = 0
    for p in primes_below(400)[2:]:
        n = p - 1
        before = set(store)
        sds = subfields(n, 8, 3, store)
        added = set(store) - before
        assert all(f < n for f, _ in added), n
        assert {(f, frozenset(array("I", packed))) for f, packed in store} >= {
            _field_key(sd) for sd in sds if sd.period_modulus < n}
        skipped += sum(sd.period_modulus == n for sd in sds)
    assert skipped > 0


def test_subfields_without_a_store_build_every_field(monkeypatch):
    import noether.cyclotomic as cyc

    built = []
    minpoly = cyc.subfield_minpoly

    def counting_minpoly(n, h, *args):
        built.append(n)
        return minpoly(n, h, *args)

    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)
    first = subfields(72, 8, 3)
    assert subfields(72, 8, 3) == first
    assert len(built) == 2 * len(first)
    assert any(sd.period_modulus < 72 for sd in first)
