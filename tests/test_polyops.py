import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noether.polyops import (
    degree,
    derivative,
    discriminant,
    is_squarefree_poly,
    normalize,
    poly_divmod_monic,
    poly_eval,
    poly_mul,
    resultant,
)
from oracles import companion_det_norm, poly_add_oracle

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8)


def test_normalize_and_degree():
    assert normalize([0, 0, 0]) == []
    assert normalize([1, 2, 0]) == [1, 2]
    assert degree([]) == -1
    assert degree([5]) == 0
    assert degree([0, 0, 3]) == 2


@given(coeffs, coeffs)
@settings(max_examples=200)
def test_mul_matches_schoolbook_reference(a, b):
    expect = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            expect[i + j] += ai * bj
    assert poly_mul(a, b) == normalize(expect)


def test_mul_kronecker_path_large():
    rng = random.Random(7)
    for signed in (False, True):
        lo = -50 if signed else 0
        a = [rng.randint(lo, 50) for _ in range(300)]
        b = [rng.randint(lo, 50) for _ in range(211)]
        expect = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                expect[i + j] += ai * bj
        assert poly_mul(a, b) == normalize(expect)


@given(coeffs, coeffs, st.integers(min_value=-5, max_value=5))
@settings(max_examples=200)
def test_eval_is_ring_homomorphism(a, b, x):
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
    assert poly_eval(poly_add_oracle(a, b), x) == poly_eval(a, x) + poly_eval(b, x)


@given(coeffs)
@settings(max_examples=100)
def test_divmod_monic_round_trip(a):
    g = [-1, 3, 1]  # monic quadratic
    q, r = poly_divmod_monic(a, g)
    assert degree(r) < 2
    back = poly_add_oracle(poly_mul(q, g), r)
    assert back == normalize(a)


def test_resultant_closed_forms():
    # Res(x^2+x-1, x) = -1: product of the roots times lc stuff
    assert resultant([-1, 1, 1], [0, 1]) == -1
    # Res(x^2+x-1, x+2) = value relations: 4 - 2 - 1 = 1
    assert resultant([-1, 1, 1], [2, 1]) == 1
    # Res of two linear polys ax+b, cx+d = ad - bc
    assert resultant([3, 2], [5, 4]) == 2 * 5 - 3 * 4
    # swap antisymmetry for odd-degree pairs
    assert resultant([0, 1], [-1, 1, 1]) == -1
    # constant cases
    assert resultant([7], [1, 2, 3]) == 49
    assert resultant([1, 2, 3], [7]) == 49


def test_resultant_vs_companion_oracle_random():
    rng = random.Random(42)
    for _ in range(400):
        d = rng.randint(1, 6)
        g = [rng.randint(-9, 9) for _ in range(d)] + [1]
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, d))]
        assert resultant(g, a) == companion_det_norm(g, a), (g, a)


def test_resultant_multiplicative_in_second_arg():
    rng = random.Random(3)
    g = [2, 0, -1, 1, 1]  # monic quartic
    for _ in range(50):
        a = [rng.randint(-4, 4) for _ in range(4)]
        b = [rng.randint(-4, 4) for _ in range(4)]
        _, ab = poly_divmod_monic(poly_mul(a, b), g)
        assert resultant(g, ab) == resultant(g, a) * resultant(g, b)


def test_discriminant_quadratic_formula():
    for b in range(-6, 7):
        for c in range(-6, 7):
            assert discriminant([c, b, 1]) == b * b - 4 * c


def test_discriminant_known_values():
    assert discriminant([-1, 1, 1]) == 5  # x^2+x-1
    assert discriminant([2, 1, 1]) == -7  # x^2+x+2
    assert discriminant([1, 1, 1]) == -3  # x^2+x+1
    assert discriminant([1, 0, 1]) == -4  # x^2+1
    assert discriminant([-1, -3, 0, 1]) == 81  # x^3-3x-1, cyclic cubic


def test_squarefree_detection():
    assert is_squarefree_poly([-1, 0, 1])  # (x-1)(x+1)
    assert not is_squarefree_poly([1, 2, 1])  # (x+1)^2
    assert not is_squarefree_poly([0, 0, 1])  # x^2
    assert is_squarefree_poly([0, 1, 1])  # x(x+1): distinct roots


def test_derivative():
    assert derivative([5, 3, 2, 1]) == [3, 4, 3]
    assert derivative([7]) == []


# A pseudo-remainder sequence that breaks each exact division of the
# subresultant recurrence in turn: (f, g, remainders, message).
_BROKEN_PRS = {
    # second step: gg * hh^2 = 2 * 2^2 = 8 does not divide 1
    "remainder": ([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 2], [[0, 0, 3], [1]],
                  "subresultant remainder is not divisible by 8"),
    # second step: hh = 2 does not divide gg^2 = 3^2
    "scale": ([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 2], [[0, 0, 3], [8]],
              "subresultant scale 9 is not divisible by 2"),
    # last step: hh = 2 does not divide 1^2
    "final": ([0, 0, 0, 1], [0, 0, 2], [[1]],
              "resultant 1 is not divisible by 2"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_PRS))
def test_resultant_divisibility_checks_raise(case, monkeypatch):
    import noether.polyops as polyops
    from optimized import run_optimized

    f, g, rems, message = _BROKEN_PRS[case]
    script = iter(rems)
    monkeypatch.setattr(polyops, "_pseudo_rem", lambda a, b: next(script))
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        polyops.resultant(f, g)

    proc = run_optimized(
        "import noether.polyops as polyops\n"
        f"script = iter({rems!r})\n"
        "polyops._pseudo_rem = lambda a, b: next(script)\n"
        f"polyops.resultant({f!r}, {g!r})\n")
    assert proc.returncode == 1, proc
    assert f"ArithmeticError: {message}" in proc.stderr
