import gc
import hashlib
import json
import os
import random
import signal
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noether.normsearch as ns
from noether.cyclotomic import cyclotomic_polynomial
from noether.arith import primes_below
from noether.normsearch import (
    BackendClient,
    BackendDecision,
    BackendProtocolError,
    BackendUnavailableError,
    BackendVerificationError,
    NormProblem,
    certificate_search,
    norm_of,
)
from noether.polyops import poly_divmod_monic, poly_mul
from noether.cyclotomic import subfields
from oracles import companion_det_norm, naive_is_prime, prime_family_first_hit
from optimized import run_optimized

FAKE = os.path.join(os.path.dirname(__file__), "fake_backend.py")


def fake_cmd(mode: str) -> list[str]:
    return [sys.executable, FAKE, mode]


def ask(client: BackendClient, prob: NormProblem, grh_allowed: bool = False):
    """The decision of prob, sent in a batch of its own."""
    [dec] = client.send([prob], grh_allowed)
    return dec


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
    with pytest.raises(ValueError, match="monic"):
        NormProblem((1, 2), 5)  # not monic
    with pytest.raises(ValueError, match="monic"):
        NormProblem((1,), 5)  # degree 0
    with pytest.raises(ValueError, match="monic"):
        NormProblem((1, 0, 1, 0), 5)  # a trailing zero: its last entry is not 1
    with pytest.raises(ValueError, match="prime"):
        NormProblem((1, 0, 1), 6)  # |target| not prime
    # the two producers of minimal polynomials: a subfield and Phi_(p-1)
    sd = next(sd for sd in subfields(5506, 8, 3) if sd.degree == 8)
    assert NormProblem(sd.minpoly, -5507).degree == 8
    assert NormProblem(tuple(cyclotomic_polynomial(70)), 71).degree == 24
    with pytest.raises(ValueError, match="prime"):
        NormProblem(sd.minpoly, 5506)


def test_non_monic_minpoly_raises_under_optimize():
    proc = run_optimized("from noether.normsearch import NormProblem\nNormProblem((1, 2), 5)\n")
    assert proc.returncode == 1, proc
    assert "ValueError: minpoly must be monic of degree >= 1" in proc.stderr


def test_certificate_search_examples():
    for g, t, bound in [((1, 0, 1), 5, 2), ((1, -1, 1), 7, 2), ((1, -1, 1, -1, 1), 11, 1)]:
        got = certificate_search(NormProblem(g, t), bound)
        assert got is not None and len(got) == len(g) - 1
        assert norm_of(list(g), list(got)) == t


# Phi_n at primes q = 1 (mod n), where the least root mod q has order n; up
# to 12n, so that at degree 2 q also exceeds (2*bound + 1)^2 for bound 2
SPLIT_CYCLOTOMIC = [
    (tuple(cyclotomic_polynomial(n)), q)
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 22, 24, 28, 30)
    for q in range(n + 1, 12 * n + 1, n)
    if naive_is_prime(q)
]


def test_certificate_search_matches_unpruned_scan():
    # the discrete-log lookup may only skip candidates outside the prime
    # (q, x - r), and the norm taken through the ring map must decide as
    # the exact one does, so the search returns exactly the first hit of
    # the plain scan of the same family
    hits = above = 0
    for g, q in SPLIT_CYCLOTOMIC:
        for t in (q, -q):
            for bound in (1, 2):
                want = prime_family_first_hit(list(g), t, bound)
                assert certificate_search(NormProblem(g, t), bound) == want, (g, t, bound)
                hits += want is not None
                # no norm reaches q here, so a hit could only be a wrong one
                above += q > (2 * bound + 1) ** (len(g) - 1)
    # the comparison is not vacuous, and covers targets above the bound on
    # the norms, the larger of the two sizes the ring modulus exceeds
    assert hits == 100 and above == 56, (hits, above)


def test_certificate_search_serves_only_cyclotomic_problems():
    # x^2 + 3 at 31, x^2 + x + 6 at 47, the real cubic subfield of
    # Q(zeta_7) at 13; Phi_4 at 7, which has no root mod 7; and Phi_6 at 3,
    # whose root 2 mod 3 has order 2
    cubic = subfields(7, 3, 3)[0].minpoly
    for g, t in [((3, 0, 1), 31), ((6, 1, 1), 47), (cubic, 13), ((1, 0, 1), 7), ((1, -1, 1), 3)]:
        with pytest.raises(ValueError, match="root mod"):
            certificate_search(NormProblem(g, t), 1)


def test_certificate_search_finds_verified_witnesses():
    for g, t, b in [
        ((1, 0, 1), 5, 3),
        ((1, 1, 1), 7, 3),  # cyclotomic field of the cube roots of unity
        ((1, -1, 1), 13, 3),
        ((1, 1, 1, 1, 1), 11, 3),
    ]:
        got = certificate_search(NormProblem(g, t), b)
        assert got is not None
        assert norm_of(list(g), list(got)) == t
        # Q(zeta_n) is totally imaginary for n > 2: no norm is negative
        assert certificate_search(NormProblem(g, -t), b) is None


RATIONAL_FROM_5 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 67, 71)


def test_certificate_search_computes_only_the_hit(monkeypatch):
    # no candidate's norm is a resultant, and only the hit is put into the
    # power basis
    def refused(g, a):
        raise AssertionError("the search took a resultant")

    divisions = []

    def counted(a, g):
        divisions.append(p)
        return poly_divmod_monic(a, g)

    monkeypatch.setattr(ns, "norm_of", refused)
    monkeypatch.setattr(ns, "poly_divmod_monic", counted)
    # the least prime = 1 (mod p - 1) is p itself at 53 and 73, so there
    # the ring modulus is a power of the target
    for p in RATIONAL_FROM_5 + (53, 73):
        g = tuple(cyclotomic_polynomial(p - 1))
        witness = certificate_search(NormProblem(g, p), 1)
        if p in (53, 73):
            assert witness is None, p
        else:
            assert witness is not None and norm_of(list(g), list(witness)) == p, p
    assert divisions == list(RATIONAL_FROM_5)


DEG8 = (1, 0, 0, 0, 0, 0, 0, 0, 1)  # x^8 + 1, squarefree


def test_backend_scripted_unconditional():
    with BackendClient(fake_cmd("scripted")) as client:
        for t in (5507, -5507):
            dec = ask(client, NormProblem(DEG8, t))
            assert dec.outcome == "unsolvable"
            assert dec.certified and not dec.grh


def test_backend_grh_downgrade():
    g46 = tuple([1] * 47)  # x^46 + ... + 1, the 47th cyclotomic polynomial
    with BackendClient(fake_cmd("scripted")) as client:
        dec = ask(client, NormProblem(g46, 8837), grh_allowed=True)
        assert dec.outcome == "unsolvable" and dec.grh
        dec = ask(client, NormProblem(g46, 8837), grh_allowed=False)
        assert dec.outcome == "unknown"


# an answer's (outcome, certified, grh) -> the decided outcome without and
# with grh_allowed: only a certified unsolvable answer is a proof, and a
# GRH-only one only when GRH is allowed
_PROOF_RULE = {
    ("unsolvable", True, False): ("unsolvable", "unsolvable"),
    ("unsolvable", True, True): ("unknown", "unsolvable"),
    ("unsolvable", False, False): ("unknown", "unknown"),
    ("unsolvable", False, True): ("unknown", "unknown"),
    ("unknown", True, False): ("unknown", "unknown"),
    ("unknown", True, True): ("unknown", "unknown"),
}


def test_backend_proof_rule():
    for (outcome, certified, grh), want in _PROOF_RULE.items():
        flags = ["true" if flag else "false" for flag in (certified, grh)]
        with BackendClient(fake_cmd("answer") + [outcome, *flags]) as client:
            got = []
            for grh_allowed in (False, True):
                dec = ask(client, NormProblem(DEG8, 5507), grh_allowed=grh_allowed)
                assert (dec.witness, dec.certified, dec.grh) == (None, certified, grh)
                got.append(dec.outcome)
        assert tuple(got) == want, (outcome, certified, grh)


def test_backend_unknown_for_unscripted():
    with BackendClient(fake_cmd("scripted")) as client:
        dec = ask(client, NormProblem(DEG8, 7), grh_allowed=True)
        assert dec.outcome == "unknown"
        assert not dec.certified


def test_backend_solvable_witness_verified():
    with BackendClient(fake_cmd("canned-solvable")) as client:
        dec = ask(client, NormProblem((1, 0, 1), 5))
        assert dec.outcome == "solvable"
        assert dec.witness == (2, 1)


def test_backend_bogus_witness_rejected():
    with BackendClient(fake_cmd("bogus")) as client:
        with pytest.raises(BackendVerificationError):
            ask(client, NormProblem((1, 0, 1), 5))


def test_backend_protocol_errors():
    with BackendClient(fake_cmd("garbage")) as client:
        with pytest.raises(BackendProtocolError):
            ask(client, NormProblem((1, 0, 1), 5))
    with BackendClient(fake_cmd("wrong-id")) as client:
        with pytest.raises(BackendProtocolError):
            ask(client, NormProblem((1, 0, 1), 5))


@pytest.mark.parametrize("rid", ["true", "1.0", '"1"'])
def test_an_answer_id_must_be_an_integer(rid):
    # true == 1 and 1.0 == 1 in Python, yet neither is the id of request 1
    with BackendClient(fake_cmd("id") + [rid]) as client:
        with pytest.raises(BackendProtocolError, match="expected 1"):
            ask(client, NormProblem((1, 0, 1), 5))


def test_backend_unavailable():
    with BackendClient(fake_cmd("die")) as client:
        with pytest.raises(BackendUnavailableError):
            ask(client, NormProblem((1, 0, 1), 5))
    with pytest.raises(BackendUnavailableError):
        BackendClient("/nonexistent/solver-binary")


def test_closed_client_leaks_no_pipe():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with BackendClient(fake_cmd("scripted")) as client:
            assert ask(client, NormProblem(DEG8, 5507)).outcome == "unsolvable"
        del client
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_benchmark_backend_is_pinned():
    # scanbench/run.py runs this helper's scripted mode as the solver of
    # deg8-low and deg12-top, so an edit to it moves those workloads; whoever
    # edits it re-pins this digest in the open, with a deg8-low before/after
    # pair of runs in CHANGES.md
    with open(FAKE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == "e66f6027efb02d0e2b30b2130d3c2978c3c6089ad6c2fc50719fcc778ddeaf5b"


def test_backend_request_ids_advance():
    with BackendClient(fake_cmd("scripted")) as client:
        for _ in range(5):
            dec = ask(client, NormProblem(DEG8, 5507))
            assert dec.outcome == "unsolvable"


def test_an_extra_answer_line_fails_its_own_batch():
    # the solver answers the one request twice: the batch that read the
    # extra line raises, not the request after it
    with BackendClient(fake_cmd("chatty")) as client:
        prob = NormProblem(DEG8, 7)
        with pytest.raises(BackendProtocolError):
            client.send([prob])


def test_large_batch_cannot_deadlock(alarm):
    # ~500 KB of requests and ~350 KB of answers: far more than both pipe
    # buffers, so a client that wrote the whole batch before reading would
    # block on a child blocked on its full output
    targets = [q for q in primes_below(60000) if q > 3 and q != 5507][:5000] + [5507]
    probs = [NormProblem(DEG8, t) for t in targets]
    alarm(30)
    with BackendClient(fake_cmd("scripted")) as client:
        outcomes = [dec.outcome for dec in client.send(probs)]
    assert outcomes == ["unknown"] * 5000 + ["unsolvable"]


def test_close_kills_a_child_that_ignores_eof(alarm):
    alarm(30)
    client = BackendClient([sys.executable, "-c", "import time; time.sleep(60)"])
    t0 = time.monotonic()
    client.close()
    assert time.monotonic() - t0 < BackendClient.CLOSE_TIMEOUT_S + 1
    assert client._proc.returncode == -signal.SIGKILL


def test_a_silent_backend_is_killed_at_the_answer_deadline(alarm, monkeypatch):
    monkeypatch.setattr(BackendClient, "ANSWER_TIMEOUT_S", 0.5)
    alarm(10)
    with BackendClient(fake_cmd("silent")) as client:
        t0 = time.monotonic()
        with pytest.raises(BackendUnavailableError, match="no byte for 0.5 s"):
            client.send([NormProblem((1, 0, 1), 5)])
        assert time.monotonic() - t0 < BackendClient.ANSWER_TIMEOUT_S + 1
        assert client._proc.returncode == -signal.SIGKILL
        t0 = time.monotonic()
        with pytest.raises(BackendUnavailableError, match="backend process has exited"):
            client.send([NormProblem((1, 0, 1), 5)])
        assert time.monotonic() - t0 < BackendClient.ANSWER_TIMEOUT_S


def test_the_answer_deadline_restarts_on_every_byte(alarm, monkeypatch):
    # eight answers 0.2 s apart take 1.6 s, past the 1 s deadline, but no
    # wait between two of them reaches it
    monkeypatch.setattr(BackendClient, "ANSWER_TIMEOUT_S", 1.0)
    alarm(10)
    probs = [NormProblem((1, 0, 1), 5)] * 8
    with BackendClient(fake_cmd("slow") + ["0.2"]) as client:
        t0 = time.monotonic()
        decisions = list(client.send(probs))
        elapsed = time.monotonic() - t0
        assert [d.outcome for d in decisions] == ["unknown"] * 8
        assert client._proc.poll() is None
    assert 8 * 0.2 <= elapsed < 8 * 0.2 + 2


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# answer-shaped objects: each field of the protocol, well formed or not
# (objects with fields missing come from _JSON_VALUES)
_ANSWERS = st.fixed_dictionaries({
    "id": st.just(1) | _JSON_VALUES,
    "outcome": st.sampled_from(["solvable", "unsolvable", "unknown"]) | _JSON_VALUES,
    "certified": st.booleans() | _JSON_VALUES,
    "grh": st.booleans() | _JSON_VALUES,
}, optional={"witness": st.lists(st.integers(-3, 3), min_size=2, max_size=2) | _JSON_VALUES})


@pytest.fixture(scope="module")
def scripted_client():
    with BackendClient(fake_cmd("scripted")) as client:
        yield client


@given(line=st.binary(max_size=200) | (_ANSWERS | _JSON_VALUES).map(lambda v: json.dumps(v).encode()),
       grh_allowed=st.booleans())
@example(line=b"[" * 100_000, grh_allowed=False)
@example(line=b'{"id": ' + b"1" * 5001 + b', "outcome": "unknown", "certified": false, "grh": false}',
         grh_allowed=False)
@settings(max_examples=300, deadline=None)
def test_any_answer_line_is_decided_or_a_backend_error(scripted_client, line, grh_allowed):
    prob = NormProblem((1, 0, 1), 5)
    try:
        dec = scripted_client.decide(prob, 1, line, grh_allowed)
    except BackendProtocolError as exc:
        assert len(str(exc)) < 200  # it quotes a bounded piece of the line
        return
    except BackendVerificationError:
        return
    assert isinstance(dec, BackendDecision)
    if dec.outcome == "solvable":
        assert norm_of([1, 0, 1], list(dec.witness)) == 5
