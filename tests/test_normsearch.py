import os
import random
import sys

import pytest

from noether.normsearch import (
    BackendClient,
    BackendProtocolError,
    BackendUnavailableError,
    BackendVerificationError,
    NormProblem,
    certificate_search,
    norm_of,
)
from noether.polyops import is_squarefree_poly, poly_divmod_monic, poly_mul
from noether.cyclotomic import subfields
from oracles import companion_det_norm, prime_family_first_hit
from optimized import run_optimized

FAKE = os.path.join(os.path.dirname(__file__), "fake_backend.py")


def fake_cmd(mode: str) -> list[str]:
    return [sys.executable, FAKE, mode]


def test_norm_of_examples():
    assert norm_of([-1, 1, 1], [0, 1]) == -1
    assert norm_of([-1, 1, 1], [2, 1]) == 1
    assert norm_of([1, 0, 1], [2, 1]) == 5


def test_norm_of_unit_and_zero():
    for g in ([-1, 1, 1], [1, 0, 1], [2, 0, 0, 1], [1, 1, 1, 1, 1]):
        assert norm_of(g, [1]) == 1
        assert norm_of(g, []) == 0
        assert norm_of(g, [0]) == 0


def test_norm_of_rejects_non_monic():
    with pytest.raises(ValueError):
        norm_of([1, 2], [1])
    with pytest.raises(ValueError):
        norm_of([5], [1])


def test_norm_of_companion_matrix_oracle():
    rng = random.Random(20260819)
    done = 0
    while done < 1000:
        d = rng.randint(1, 6)
        g = [rng.randint(-9, 9) for _ in range(d)] + [1]
        a = [rng.randint(-9, 9) for _ in range(d)]
        assert norm_of(g, a) == companion_det_norm(g, a)
        done += 1


def test_norm_of_multiplicative():
    rng = random.Random(77)
    done = 0
    while done < 300:
        d = rng.randint(2, 5)
        g = [rng.randint(-6, 6) for _ in range(d)] + [1]
        a = [rng.randint(-6, 6) for _ in range(d)]
        b = [rng.randint(-6, 6) for _ in range(d)]
        _, ab = poly_divmod_monic(poly_mul(a, b), g)
        assert norm_of(g, ab) == norm_of(g, a) * norm_of(g, b)
        done += 1


def test_norm_problem_validation():
    NormProblem((1, 0, 1), 5)
    with pytest.raises(ValueError):
        NormProblem((1, 2), 5)  # not monic
    with pytest.raises(ValueError):
        NormProblem((1, 2, 1), 5)  # (x+1)^2 not squarefree
    with pytest.raises(ValueError):
        NormProblem((1, 0, 1), 6)  # |target| not prime


def test_norm_problem_for_field_proves_no_squarefreeness(monkeypatch):
    import noether.normsearch as ns

    sd = next(sd for sd in subfields(5506, 8, 3) if sd.degree == 8)

    def reproved(g):
        raise AssertionError(f"{g} proven squarefree a second time")

    monkeypatch.setattr(ns, "is_squarefree_poly", reproved)
    prob = NormProblem.for_field(sd, -5507)
    with pytest.raises(ValueError, match="prime"):
        NormProblem.for_field(sd, 5506)
    monkeypatch.undo()
    assert prob == NormProblem(sd.minpoly, -5507) and prob.degree == 8


def test_bare_non_squarefree_minpoly_raises_under_optimize():
    with pytest.raises(ValueError, match="squarefree"):
        NormProblem((1, 2, 1), 5)
    proc = run_optimized("from noether.normsearch import NormProblem\nNormProblem((1, 2, 1), 5)\n")
    assert proc.returncode == 1, proc
    assert "ValueError: minpoly must be squarefree" in proc.stderr


def test_certificate_search_examples():
    for g, t, bound in [((1, 0, 1), 5, 2), ((1, -1, 1), 7, 2), ((1, -1, 1, -1, 1), 11, 1)]:
        got = certificate_search(NormProblem(g, t), bound)
        assert got is not None and len(got) == len(g) - 1
        assert norm_of(list(g), list(got)) == t
    assert certificate_search(NormProblem((6, 1, 1), 47), 10) is None


def test_certificate_search_degree_one():
    assert certificate_search(NormProblem((3, 1), 5), 5) == (5,)
    assert certificate_search(NormProblem((3, 1), -5), 5) == (-5,)
    assert certificate_search(NormProblem((3, 1), 7), 5) is None


def test_certificate_search_matches_unpruned_scan():
    # the discrete-log lookup may only skip candidates outside the prime
    # (q, x - r), so the search must return exactly the first hit of the
    # plain scan of the same family
    polys = [
        [1, 0, 1],
        [-1, 1, 1],
        [1, -1, 1],
        [6, 1, 1],
        [1, 1, 0, 1],
        [-2, 0, 1, 1],
        [1, 0, 0, 0, 1],
    ]
    hits = 0
    for g in polys:
        assert is_squarefree_poly(g)
        for t in (2, -2, 3, -3, 5, -5, 7, -7, 11, -11, 47):
            want = prime_family_first_hit(g, t, 2)
            assert certificate_search(NormProblem(tuple(g), t), 2) == want, (g, t)
            hits += want is not None
    assert hits == 9  # the comparison is not vacuous


def test_certificate_search_finds_verified_witnesses():
    for g, t, b in [
        ((1, 0, 1), 5, 3),
        ((1, 1, 1), 7, 3),  # cyclotomic field of the cube roots of unity
        ((-1, 1, 1), 11, 3),
        ((-1, 1, 1), -11, 3),
    ]:
        got = certificate_search(NormProblem(g, t), b)
        assert got is not None
        assert norm_of(list(g), list(got)) == t


DEG8 = (1, 0, 0, 0, 0, 0, 0, 0, 1)  # x^8 + 1, squarefree


def test_backend_scripted_unconditional():
    with BackendClient(fake_cmd("scripted")) as client:
        for t in (5507, -5507):
            dec = client.decide(NormProblem(DEG8, t), grh_allowed=False)
            assert dec.outcome == "unsolvable"
            assert dec.certified and not dec.grh


def test_backend_grh_downgrade():
    g46 = tuple([1] * 47)  # x^46 + ... + 1, the 47th cyclotomic polynomial
    with BackendClient(fake_cmd("scripted")) as client:
        dec = client.decide(NormProblem(g46, 8837), grh_allowed=True)
        assert dec.outcome == "unsolvable" and dec.grh
        dec = client.decide(NormProblem(g46, 8837), grh_allowed=False)
        assert dec.outcome == "unknown"


def test_backend_unknown_for_unscripted():
    with BackendClient(fake_cmd("scripted")) as client:
        dec = client.decide(NormProblem(DEG8, 7), grh_allowed=True)
        assert dec.outcome == "unknown"
        assert not dec.certified


def test_backend_solvable_witness_verified():
    with BackendClient(fake_cmd("canned-solvable")) as client:
        dec = client.decide(NormProblem((1, 0, 1), 5))
        assert dec.outcome == "solvable"
        assert dec.witness == (2, 1)


def test_backend_bogus_witness_rejected():
    with BackendClient(fake_cmd("bogus")) as client:
        with pytest.raises(BackendVerificationError):
            client.decide(NormProblem((1, 0, 1), 5))


def test_backend_protocol_errors():
    with BackendClient(fake_cmd("garbage")) as client:
        with pytest.raises(BackendProtocolError):
            client.decide(NormProblem((1, 0, 1), 5))
    with BackendClient(fake_cmd("wrong-id")) as client:
        with pytest.raises(BackendProtocolError):
            client.decide(NormProblem((1, 0, 1), 5))


def test_backend_unavailable():
    with BackendClient(fake_cmd("die")) as client:
        with pytest.raises(BackendUnavailableError):
            client.decide(NormProblem((1, 0, 1), 5))
    with pytest.raises(BackendUnavailableError):
        BackendClient("/nonexistent/solver-binary")


def test_backend_request_ids_advance():
    with BackendClient(fake_cmd("scripted")) as client:
        for _ in range(5):
            dec = client.decide(NormProblem(DEG8, 5507))
            assert dec.outcome == "unsolvable"
