import gc
import os
import random
import signal
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noether.normsearch as ns
from noether.cyclotomic import cyclotomic_polynomial
from noether.arith import primes_below
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
from oracles import companion_det_norm, naive_is_prime, prime_family, prime_family_first_hit
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


def test_norm_problem_from_squarefree_proves_no_squarefreeness(monkeypatch):
    sd = next(sd for sd in subfields(5506, 8, 3) if sd.degree == 8)
    phi = cyclotomic_polynomial(70)

    def reproved(g):
        raise AssertionError(f"{g} proven squarefree a second time")

    monkeypatch.setattr(ns, "is_squarefree_poly", reproved)
    prob = NormProblem.from_squarefree(sd.minpoly, -5507)
    cert = NormProblem.from_squarefree(phi, 71)
    with pytest.raises(ValueError, match="prime"):
        NormProblem.from_squarefree(sd.minpoly, 5506)
    with pytest.raises(ValueError, match="monic"):
        NormProblem.from_squarefree((1, 2), 5)
    monkeypatch.undo()
    assert prob == NormProblem(sd.minpoly, -5507) and prob.degree == 8
    assert cert == NormProblem(tuple(phi), 71) and cert.degree == 24


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


def _root_order(g, q):
    """The multiplicative order m of the least nonzero root of g mod q."""
    r = next(x for x in range(1, q) if sum(c * x**k for k, c in enumerate(g)) % q == 0)
    return next(m for m in range(1, q) if pow(r, m, q) == 1)


# (g, q) whose least root mod q has an order m such that g splits mod the
# split prime of m into powers of z: cyclotomic polynomials Phi_n at
# q = n + 1 and 2n + 1, and non-cyclotomic polynomials that happen to split
SPLIT_CYCLOTOMIC = [
    (tuple(cyclotomic_polynomial(n)), q)
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 22, 24, 28, 30)
    for q in (n + 1, 2 * n + 1)
    if naive_is_prime(q)
]
SPLIT_OTHER = [
    ((2, 2, 1), 29),  # x^2 + 2x + 2
    ((2, 2, 1), 53),
    ((3, 0, 1), 31),  # x^2 + 3
    ((-3, -2, 1), 19),  # (x - 3)(x + 1)
    ((-2, 0, 0, 1), 43),  # x^3 - 2
    ((-2, 1, -2, 1), 37),
    ((1, 0, 0, 1), 31),  # x^3 + 1
]


@given(st.sampled_from(SPLIT_CYCLOTOMIC + SPLIT_OTHER), st.sampled_from((1, -1)), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_filter_skips_only_wrong_norms(case, sign, bound):
    # run the search past every member (norm_of never answers target) and
    # record which members reach the exact norm; every other member of the
    # prime was skipped and must have an exact norm other than target
    g, q = case
    t = sign * q
    _, _, ks = ns._split_prime(g, _root_order(list(g), q), q)
    assert len(ks) == len(g) - 1  # the filter is on
    reached = []

    def recorder(g_, alpha):
        reached.append(tuple(alpha))
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns, "norm_of", recorder)
        assert certificate_search(NormProblem(g, t), bound) is None
    family = list(prime_family(list(g), t, bound))
    assert set(reached) <= set(family)
    skipped = [alpha for alpha in family if alpha not in set(reached)]
    for alpha in skipped:
        assert companion_det_norm(list(g), list(alpha)) != t, (g, t, alpha)
    if bound == 2:
        assert skipped  # the comparison is not vacuous


def test_split_prime_data():
    cases = [(tuple(cyclotomic_polynomial(p - 1)), p) for p in (5, 7, 13, 41, 53, 61, 73)]
    for g, q in cases + SPLIT_OTHER:
        d = len(g) - 1
        m = _root_order(list(g), q)
        ell, zpow, ks = ns._split_prime(g, m, q)
        assert naive_is_prime(ell) and ell % m == 1 and ell != q
        # the least such prime
        assert not any(naive_is_prime(x) and x != q for x in range(m + 1, ell, m))
        z = zpow[1]
        assert len(zpow) == m and zpow == [pow(z, k, ell) for k in range(m)]
        assert pow(z, m, ell) == 1 and all(pow(z, k, ell) != 1 for k in range(1, m))
        assert ks == [k for k in range(m) if sum(c * zpow[k] ** e for e, c in enumerate(g)) % ell == 0]
        assert len(ks) == d and len({zpow[k] for k in ks}) == d, (g, q)
    # for 53 and 73 the least prime = 1 (mod p - 1) is p itself; the next
    # are 157 = 3*52 + 1 (105 = 3*5*7) and 433 = 6*72 + 1 (145, 217 = 7*31,
    # 289 = 17^2, 361 = 19^2)
    for p, ell in ((53, 157), (73, 433)):
        assert ns._split_prime(cyclotomic_polynomial(p - 1), p - 1, p)[0] == ell


def test_unsplit_polynomial_gets_no_filter(monkeypatch):
    # x^2 - 2 has the root 3 mod 7 of order 6, but 2 is not a square mod 13,
    # the split prime of 6: nothing is skipped
    g = (-2, 0, 1)
    assert ns._split_prime(g, 6, 7)[::2] == (13, [])
    calls = []
    monkeypatch.setattr(ns, "norm_of", lambda g_, a: calls.append(tuple(a)) or norm_of(g_, a))
    for bound in (1, 2, 3):
        calls.clear()
        want = prime_family_first_hit(list(g), 7, bound)
        assert certificate_search(NormProblem(g, 7), bound) == want
        family = list(prime_family(list(g), 7, bound))
        assert calls == family[: family.index(want) + 1 if want else len(family)]
    assert want is not None


RATIONAL_FROM_5 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 67, 71)


def test_certificate_search_computes_only_the_hit(monkeypatch):
    counts = {}

    def counted(g, a):
        counts[p] = counts.get(p, 0) + 1
        return norm_of(g, a)

    monkeypatch.setattr(ns, "norm_of", counted)
    for p in RATIONAL_FROM_5 + (53, 73):
        witness = certificate_search(NormProblem(tuple(cyclotomic_polynomial(p - 1)), p), 1)
        if p in (53, 73):
            assert witness is None and p not in counts, p
        else:
            assert witness is not None and counts[p] == 1, p


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
                dec = client.decide(NormProblem(DEG8, 5507), grh_allowed=grh_allowed)
                assert (dec.witness, dec.certified, dec.grh) == (None, certified, grh)
                got.append(dec.outcome)
        assert tuple(got) == want, (outcome, certified, grh)


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


@pytest.mark.parametrize("rid", ["true", "1.0", '"1"'])
def test_an_answer_id_must_be_an_integer(rid):
    # true == 1 and 1.0 == 1 in Python, yet neither is the id of request 1
    with BackendClient(fake_cmd("id") + [rid]) as client:
        with pytest.raises(BackendProtocolError, match="expected 1"):
            client.decide(NormProblem((1, 0, 1), 5))


def test_backend_unavailable():
    with BackendClient(fake_cmd("die")) as client:
        with pytest.raises(BackendUnavailableError):
            client.decide(NormProblem((1, 0, 1), 5))
    with pytest.raises(BackendUnavailableError):
        BackendClient("/nonexistent/solver-binary")


def test_closed_client_leaks_no_pipe():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with BackendClient(fake_cmd("scripted")) as client:
            assert client.decide(NormProblem(DEG8, 5507)).outcome == "unsolvable"
        del client
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_backend_request_ids_advance():
    with BackendClient(fake_cmd("scripted")) as client:
        for _ in range(5):
            dec = client.decide(NormProblem(DEG8, 5507))
            assert dec.outcome == "unsolvable"


def test_send_drops_answers_left_undecided():
    with BackendClient(fake_cmd("scripted")) as client:
        probs = [NormProblem(DEG8, t) for t in (5507, 7, -5507)]
        client.send(probs)
        with pytest.raises(ValueError):
            client.decide(probs[1])  # the oldest undecided answer is probs[0]'s
        assert client.decide(probs[0]).outcome == "unsolvable"
        # the next send drops the answers to 7 and -5507 this batch left
        # undecided, so none is read as this one's
        client.send([NormProblem(DEG8, 11)])
        assert client.decide(NormProblem(DEG8, 11)).outcome == "unknown"
        assert client.decide(NormProblem(DEG8, -5507)).outcome == "unsolvable"


def test_an_extra_answer_line_fails_its_own_batch():
    # the solver answers the one request twice: the batch that read the
    # extra line raises, not the request after it
    with BackendClient(fake_cmd("chatty")) as client:
        prob = NormProblem(DEG8, 7)
        with pytest.raises(BackendProtocolError):
            client.send([prob])
            client.decide(prob)


@pytest.fixture
def alarm():
    """Fail the test if it runs longer than the given seconds, instead of
    hanging."""
    def expired(signum, frame):
        raise AssertionError("the test ran out of time")  # not an OSError the client catches

    previous = signal.signal(signal.SIGALRM, expired)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_large_batch_cannot_deadlock(alarm):
    # ~500 KB of requests and ~350 KB of answers: far more than both pipe
    # buffers, so a client that wrote the whole batch before reading would
    # block on a child blocked on its full output
    targets = [q for q in primes_below(60000) if q > 3 and q != 5507][:5000] + [5507]
    probs = [NormProblem(DEG8, t) for t in targets]
    alarm(30)
    with BackendClient(fake_cmd("scripted")) as client:
        client.send(probs)
        outcomes = [client.decide(prob).outcome for prob in probs]
    assert outcomes == ["unknown"] * 5000 + ["unsolvable"]


def test_close_kills_a_child_that_ignores_eof(alarm):
    alarm(30)
    client = BackendClient([sys.executable, "-c", "import time; time.sleep(60)"])
    t0 = time.monotonic()
    client.close()
    assert time.monotonic() - t0 < BackendClient.CLOSE_TIMEOUT_S + 1
    assert client._proc.returncode == -signal.SIGKILL
