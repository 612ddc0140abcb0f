import hashlib
import json
import os
import re
import sys
import time
from itertools import groupby, product

import pytest

from noether.arith import primes_below
from noether.criteria import RATIONAL, load_fixtures
from noether.cyclotomic import FieldStore, subfields
from noether.normsearch import (
    BackendClient,
    BackendDecision,
    BackendUnavailableError,
    BackendVerificationError,
    norm_of,
)
from noether.quadforms import solve_norm
from noether.scanner import (
    STATUS_NOT_STABLY_RATIONAL,
    STATUS_RATIONAL,
    STATUS_UNDETERMINED,
    ScanConfig,
    ScanError,
    Verdict,
    classify_prime,
    cross_check,
    scan,
)
from oracles import quadratic_discs_oracle

FAKE = os.path.join(os.path.dirname(__file__), "fake_backend.py")


def fake_backend(mode: str) -> str:
    return f"{sys.executable} {FAKE} {mode}"


def record_clients(monkeypatch) -> list[BackendClient]:
    """Every BackendClient started from now on, in order."""
    clients = []
    init = BackendClient.__init__

    def recording_init(self, command):
        init(self, command)
        clients.append(self)

    monkeypatch.setattr(BackendClient, "__init__", recording_init)
    return clients


def test_classify_examples():
    v = classify_prime(47)
    assert v.status == STATUS_NOT_STABLY_RATIONAL
    assert (v.d_plus, v.d_minus, v.grh) == (2, 2, False)
    assert v.method == "EM_I"

    assert classify_prime(251).status == STATUS_UNDETERMINED

    v5 = classify_prime(5)
    assert v5.status == STATUS_RATIONAL and v5.method == "CERTIFICATE"
    w = v5.witnesses
    assert abs(w["target"]) == 5
    assert norm_of(w["minpoly"], w["coefficients"]) == w["target"]


def test_classify_degenerate_and_known_table():
    # 2 and 3 have the degree-1 witness p; 61, 67 and 71 were once decided
    # by the known-rational table alone
    for p in (2, 3, 61, 67, 71):
        v = classify_prime(p)
        assert v.status == STATUS_RATIONAL and v.method == "CERTIFICATE"
        w = v.witnesses
        assert w["target"] == p
        assert norm_of(w["minpoly"], w["coefficients"]) == p
        if p < 5:
            assert w["coefficients"] == [p]


def test_classify_reads_no_reference_data(monkeypatch):
    import noether.criteria
    import noether.scanner

    rational = tuple(p for p, row in load_fixtures().items() if row == RATIONAL)

    def refuse():
        raise RuntimeError("reference data read")

    monkeypatch.setattr(noether.criteria, "load_fixtures", refuse)
    monkeypatch.setattr(noether.scanner, "load_fixtures", refuse)
    recs = []
    scan(2, 100, sink=recs.append)
    assert all(isinstance(v, Verdict) for v in recs)
    assert tuple(v.p for v in recs if v.status == STATUS_RATIONAL) == rational
    assert {v.method for v in recs if v.status == STATUS_RATIONAL} == {"CERTIFICATE"}


def test_classify_rejects_composites():
    with pytest.raises(ValueError):
        classify_prime(10)


def test_classify_deterministic():
    assert classify_prime(47) == classify_prime(47)
    assert classify_prime(17) == classify_prime(17)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(max_degree=1)
    with pytest.raises(ValueError):
        ScanConfig(max_degree=4)  # degree > 2 needs a backend
    with pytest.raises(ValueError):
        ScanConfig(parallelism=0)
    ScanConfig(max_degree=4, backend="solver --flag")


def test_verdict_row_keys():
    row = classify_prime(47).to_row()
    assert set(row) == {"p", "status", "d_plus", "d_minus", "method", "grh"}


def test_scan_small_ranges():
    recs = []
    summary = scan(2, 43, sink=recs.append)
    assert summary["primes"] == 14
    assert all(isinstance(r, Verdict) and r.status == STATUS_RATIONAL for r in recs)

    recs = []
    scan(47, 47, sink=recs.append)
    assert len(recs) == 1 and recs[0].status == STATUS_NOT_STABLY_RATIONAL


def test_scan_ascending_and_parallel_independent():
    serial = []
    scan(2, 500, ScanConfig(parallelism=1), serial.append)
    assert [r.p for r in serial] == sorted(r.p for r in serial)
    parallel = []
    scan(2, 500, ScanConfig(parallelism=3), parallel.append)
    assert serial == parallel


def test_nsr_witnesses_replay():
    # stored obstruction data must re-verify, and certificates must
    # re-verify through the exact norm
    recs = []
    scan(2, 500, sink=recs.append)
    for v in recs:
        if v.status == STATUS_NOT_STABLY_RATIONAL:
            for key, sign in (("plus", 1), ("minus", -1)):
                wit = v.witnesses[key]
                assert wit["degree"] == 2
                assert not solve_norm(wit["disc"], v.p, sign).solvable
        elif v.method == "CERTIFICATE":
            w = v.witnesses
            assert norm_of(w["minpoly"], w["coefficients"]) == w["target"]


def test_quadratic_stage_keeps_the_first_failing_disc_of_each_sign():
    # each sign's witness against the discriminants of the divisor-scan
    # oracle: the first D at which sign*p is not a norm, None when there is
    # none (as at 2 and 3, where there is no D); the stage stops testing a
    # sign at its D, this test does not
    from noether.scanner import _scan_quadratic

    for p in primes_below(20001):
        discs = quadratic_discs_oracle(p - 1)
        want = {}
        for sign in (1, -1):
            first = next((D for D in discs if not solve_norm(D, p, sign).solvable), None)
            want[sign] = None if first is None else {"degree": 2, "disc": first}
        assert _scan_quadratic(p) == want, p


def test_backend_errors_propagate_from_classify():
    cfg = ScanConfig(max_degree=4, backend=fake_backend("die"))
    with pytest.raises(BackendUnavailableError):
        classify_prime(53, cfg)


def test_scan_records_backend_errors_and_continues():
    cfg = ScanConfig(max_degree=4, backend=fake_backend("die"))
    recs = []
    summary = scan(47, 59, cfg, recs.append)
    assert summary["primes"] == 3  # 47, 53, 59
    # 53 and 59 need the backend and fail; 47 is decided by the congruence
    # criterion before any backend use, so the scan still emits its verdict
    assert sum(isinstance(r, ScanError) for r in recs) == 2
    assert [r.p for r in recs if isinstance(r, Verdict)] == [47]


def test_backend_unconditional_row():
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))
    v = classify_prime(5507, cfg)
    assert v.status == STATUS_NOT_STABLY_RATIONAL
    assert (v.d_plus, v.d_minus, v.grh) == (8, 8, False)
    assert v.method == "BACKEND"


def test_backend_grh_row_and_downgrade():
    cfg = ScanConfig(max_degree=28, allow_grh=True, backend=fake_backend("scripted"))
    v = classify_prime(59, cfg)
    assert v.status == STATUS_NOT_STABLY_RATIONAL
    assert (v.d_plus, v.d_minus, v.grh) == (28, 4, True)

    assert classify_prime(59).status == STATUS_UNDETERMINED
    cfg_strict = ScanConfig(max_degree=28, allow_grh=False, backend=fake_backend("scripted"))
    assert classify_prime(59, cfg_strict).status == STATUS_UNDETERMINED


def test_backend_bogus_witness_rejected_in_pipeline():
    cfg = ScanConfig(max_degree=4, backend=fake_backend("bogus"))
    with pytest.raises(BackendVerificationError):
        classify_prime(53, cfg)


@pytest.fixture(scope="module")
def full_scan():
    recs = []
    scan(2, 20000, sink=recs.append)
    return recs


def test_cross_check_full_scan(full_scan):
    rep = cross_check(full_scan)
    assert rep.ok
    assert rep.failures == ()
    assert rep.checked == 2262


def test_cross_check_flags_injected_faults(full_scan):
    corrupted = []
    for v in full_scan:
        if v.p == 47:
            corrupted.append(Verdict(47, STATUS_RATIONAL, method="CERTIFICATE"))
        elif v.p == 5:
            corrupted.append(Verdict(5, STATUS_NOT_STABLY_RATIONAL, 2, 2, "QUADRATIC", False))
        elif v.p == 53:
            # reference row (6, 2, 0): only -53 is obstructed by a quadratic subfield
            corrupted.append(Verdict(53, STATUS_NOT_STABLY_RATIONAL, 2, 2, "QUADRATIC", False))
        else:
            corrupted.append(v)
    rep = cross_check(corrupted)
    assert not rep.ok
    # by prime, and each prime's failures in rule order
    assert rep.failures == (
        "(a) known-rational prime 5 classified NotStablyRational",
        "(b) unconditional NotStablyRational verdict for 5, which is in the known-rational set",
        "(c) prime 5: verdict d+ = 2, but sign +1 is not obstructed by a quadratic subfield",
        "(a) prime 47: reference row (2, 2, 0) but classified Rational",
        "(c) prime 47: reference row (2,2,0) but verdict ('Rational', None, None, False)",
        "(c) prime 53: verdict d+ = 2, but sign +1 is not obstructed by a quadratic subfield",
    )


def test_cross_check_rows_above_the_reference_table(full_scan):
    # the nine primes of 20000..20100 have no reference row, so only rule
    # (c), the scan's own degree-2 stage, judges them
    above = []
    scan(20000, 20100, sink=above.append)
    assert len(above) == 9 and above[0].p == 20011
    rep = cross_check(full_scan + above)
    assert rep.ok and rep.checked == 2271
    honest = next(v for v in above if v.d_plus == v.d_minus == 2)
    forged = Verdict(honest.p, STATUS_NOT_STABLY_RATIONAL, 4, 4, "BACKEND", False)
    assert cross_check(full_scan + [forged if v is honest else v for v in above]).failures == tuple(
        f"(c) prime {honest.p}: verdict d{s} = 4, but sign {s}1 is obstructed by a quadratic subfield"
        for s in "+-")


def test_cross_check_flags_a_rational_verdict_with_reference_degrees(full_scan):
    # 53's reference row is (6, 2, 0) and 5987's (2, 8, 0): neither may be Rational
    forged = [Verdict(v.p, STATUS_RATIONAL, method="CERTIFICATE") if v.p in (53, 5987) else v
              for v in full_scan]
    assert cross_check(forged).failures == (
        "(a) prime 53: reference row (6, 2, 0) but classified Rational",
        "(a) prime 5987: reference row (2, 8, 0) but classified Rational",
    )


def test_cross_check_rule_e_reads_every_degree_row(full_scan):
    # a reference d_s = 2 that no quadratic subfield bears out, and a
    # reference d_s > 2 where one does, are both flagged; 5987 as transcribed
    rows = {**load_fixtures(), 47: (2, 4, 0), 5939: (2, 8, 0), 5987: (8, 8, 0)}
    rep = cross_check(full_scan, rows)
    assert rep.failures == (
        "(e) prime 47: reference d- = 4, but sign -1 is obstructed by a quadratic subfield",
        "(e) prime 5939: reference d+ = 2, but sign +1 is not obstructed by a quadratic subfield",
        "(e) prime 5987: reference d+ = 8, but sign +1 is obstructed by a quadratic subfield",
    )


def test_cross_check_empty_stream():
    rep = cross_check([])
    assert not rep.ok
    assert "incomplete coverage" in rep.failures[0]


def test_cross_check_accepts_row_dicts(full_scan):
    rows = [v.to_row() for v in full_scan]
    rep = cross_check(rows)
    assert rep.ok
    assert rep.failures == ()
    assert rep == cross_check(full_scan)


def _without(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


@pytest.mark.parametrize("target, malform, p, why", [
    (47, lambda row: [row["p"], row["status"]], None, "not a JSON object"),
    (47, _without("p"), None, 'no integer "p"'),
    (47, _without("grh"), 47, 'no boolean "grh"'),
    (47, lambda row: {**row, "p": 4}, 4, '"p" = 4 is not prime'),
    (47, lambda row: {**row, "p": 2**64 + 13}, 2**64 + 13,
     "18446744073709551629 is not below 2^64, where primality is proven"),
    (47, lambda row: {**row, "status": "Bogus"}, 47, '"status" \'Bogus\' is none of the three'),
    (47, lambda row: {**row, "p": 43}, 43, "a second row for p = 43"),
    # rows of the right shape whose status, degrees, method and grh disagree
    (53, lambda row: {**row, "status": STATUS_NOT_STABLY_RATIONAL}, 53,
     "NotStablyRational with degrees (None, None)"),
    (53, _without("method"), 53, 'no "method"'),
    (53, lambda row: {**row, "d_plus": 6, "d_minus": 2}, 53,
     "Undetermined with degrees (6, 2), method None and grh False"),
    (47, lambda row: {**row, "method": "Bogus"}, 47, "method 'Bogus' for degrees (2, 2)"),
    (5507, lambda row: {**row, "status": STATUS_NOT_STABLY_RATIONAL, "d_plus": 8, "d_minus": 8,
                        "method": "QUADRATIC"}, 5507, "method 'QUADRATIC' for degrees (8, 8)"),
    (47, lambda row: {**row, "grh": True}, 47, '"grh" true with method \'EM_I\''),
    (5, lambda row: {**row, "method": None}, 5,
     "Rational with degrees (None, None), method None and grh False"),
], ids=["not-an-object", "no-p", "no-grh", "not-prime", "p-above-2-64", "bogus-status", "second-row",
        "nsr-without-degrees", "no-method", "undetermined-with-degrees", "bogus-method", "quadratic-above-2",
        "grh-without-backend", "rational-without-certificate"])
def test_cross_check_rejects_a_malformed_row(full_scan, target, malform, p, why):
    # a full set of rows, one of them malformed: invalid input raises
    # ValueError naming the row's position and p, never a KeyError
    rows = [v.to_row() for v in full_scan]
    i = next(i for i, row in enumerate(rows) if row["p"] == target)
    honest = {5: STATUS_RATIONAL, 47: STATUS_NOT_STABLY_RATIONAL,
              53: STATUS_UNDETERMINED, 5507: STATUS_UNDETERMINED}
    assert rows[i]["status"] == honest[target]
    rows[i] = malform(rows[i])
    with pytest.raises(ValueError, match=re.escape(f"row {i + 1} (p = {p!r}): {why}")):
        cross_check(rows)


# Each check that decides a verdict must fire with assert stripped, too.
_BROKEN_STAGES = {
    # 47 = 2*23 + 1 meets criterion i, so both signs must have been proven
    "em-without-obstruction": (
        "_scan_quadratic", "lambda p: {1: None, -1: None}", 47,
        "47 meets a congruence criterion but has no two-sided degree-2 obstruction"),
    # (1, 0) is 1 in Z[i], not an element of norm 5
    "wrong-certificate": (
        "certificate_search", "lambda prob, bound: (1, 0)", 5,
        "certificate [1, 0] does not have norm 5"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_STAGES))
def test_verdict_checks_survive_optimize(case, monkeypatch):
    import noether.scanner as scanner
    from optimized import run_optimized

    name, stub, p, message = _BROKEN_STAGES[case]
    monkeypatch.setattr(scanner, name, eval(stub))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        scanner.classify_prime(p)

    proc = run_optimized(
        f"import noether.scanner as scanner\nscanner.{name} = {stub}\nscanner.classify_prime({p})\n")
    assert proc.returncode == 1, proc
    assert f"RuntimeError: {message}" in proc.stderr


def test_backend_stage_builds_no_quadratic_fields(monkeypatch):
    import noether.cyclotomic as cyc
    import noether.scanner as scanner

    built = []
    minpoly = cyc.subfield_minpoly

    def counting_minpoly(h, *ring):
        sd = minpoly(h, *ring)
        built.append(sd.degree)
        return sd

    entered = []  # (p, signs proven before the backend stage)
    stage = scanner._scan_backend

    def recording_stage(p, cfg, sides, *args):
        entered.append((p, {sign for sign, witness in sides.items() if witness is not None}))
        stage(p, cfg, sides, *args)

    sent, answers = [], {}
    decide = BackendClient.decide

    def recording_decide(self, prob, *answer):
        dec = decide(self, prob, *answer)
        sent.append((tuple(prob.minpoly), prob.target))
        answers[sent[-1]] = dec.outcome
        return dec

    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)
    monkeypatch.setattr(scanner, "_scan_backend", recording_stage)
    monkeypatch.setattr(BackendClient, "decide", recording_decide)
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))
    scan(2, 100, cfg)
    assert classify_prime(5507, cfg).d_plus == 8
    monkeypatch.undo()
    assert len(entered) > 5 and built and min(built) >= 3

    # replay the stage: fields of degree 3..8 in subfields() order, one
    # degree at a time; each sign is asked through the degree at which the
    # backend proves it, and nothing once both are proven
    expected = []
    for p, proven in entered:
        fields = [desc for desc in subfields(p - 1, 8) if desc.degree >= 3]
        for _, same_degree in groupby(fields, key=lambda desc: desc.degree):
            open_signs = [sign for sign in (1, -1) if sign not in proven]
            for desc, sign in product(same_degree, open_signs):
                if proven == {1, -1}:
                    break
                expected.append((desc.minpoly, sign * p))
                if answers.get(expected[-1]) == "unsolvable":
                    proven = proven | {sign}
    assert sent == expected


class StubClient:
    """A backend client that answers from a set of unsolvable problems and
    records every problem sent and every problem decided."""

    def __init__(self, unsolvable):
        self.unsolvable = unsolvable
        self.sent, self.decided = [], []

    def send(self, probs, grh_allowed=False):
        self.sent.extend(probs)
        return map(self.decide, probs)

    def decide(self, prob):
        self.decided.append(prob)
        key = (prob.minpoly, prob.target)
        return BackendDecision("unsolvable" if key in self.unsolvable else "unknown", None, True, False)


def test_a_sign_proven_mid_degree_keeps_its_first_field():
    # at 131 both signs pass every degree-2 test, and Q(zeta_130) has
    # subfields of degree 3 (one), 4 (seven), 6 (three) and 8 (three)
    p = 131
    fields = subfields(p - 1, 8, 3)
    by_degree = {d: [desc.minpoly for desc in fields if desc.degree == d] for d in (3, 4, 6, 8)}
    assert [len(polys) for polys in by_degree.values()] == [1, 7, 3, 3]
    # +p fails in every field of degree 4, -p only in the last of degree 6
    stub = StubClient({(g, p) for g in by_degree[4]} | {(by_degree[6][-1], -p)})
    v = classify_prime(p, ScanConfig(max_degree=8, backend="unused"), None, stub)

    assert (v.status, v.method, v.d_plus, v.d_minus) == (STATUS_NOT_STABLY_RATIONAL, "BACKEND", 4, 6)
    assert v.witnesses["plus"]["minpoly"] == list(by_degree[4][0])
    assert v.witnesses["minus"]["minpoly"] == list(by_degree[6][-1])
    asked_plus = [prob.minpoly for prob in stub.decided if prob.target == p]
    assert asked_plus == by_degree[3] + by_degree[4], "+p asked past the degree that proved it"
    assert [prob.minpoly for prob in stub.decided if prob.target == -p] == by_degree[3] + by_degree[4] + by_degree[6]
    assert stub.decided == stub.sent


def test_each_scan_owns_a_fresh_field_store(monkeypatch):
    import noether.scanner as scanner

    seen = []  # (store, its size) as each prime is classified
    classify = scanner.classify_prime

    def recording_classify(p, cfg, store=None, *rest):
        seen.append((store, len(store)))
        return classify(p, cfg, store, *rest)

    monkeypatch.setattr(scanner, "classify_prime", recording_classify)
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))
    stores = []
    for _ in range(2):
        seen.clear()
        scan(2, 200, cfg)
        assert seen[0][1] == 0 and len({id(store) for store, _ in seen}) == 1
        stores.append(seen[0][0])
    assert stores[0] is not stores[1]
    assert stores[0] and stores[0] == stores[1], "the backend stage stored no field"


def test_lone_prime_classifies_without_a_store(monkeypatch):
    import noether.scanner as scanner

    stores = []
    build = scanner.subfields

    def recording_subfields(n, max_degree, min_degree=1, store=None):
        stores.append(store)
        return build(n, max_degree, min_degree, store)

    monkeypatch.setattr(scanner, "subfields", recording_subfields)
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))
    assert classify_prime(5507, cfg).d_plus == 8
    # one call per degree 3..8, each with the one store made for this prime
    assert len(stores) == 6 and all(store is stores[0] for store in stores)
    assert isinstance(stores[0], FieldStore) and stores[0].cap == 8 and stores[0]


@pytest.mark.parametrize("mode, builds, digest", [
    ("answer unsolvable true false", 137, "7af242073e3de2d86caf94a8da49d7a95165b2e00c8db64095b86816d3a7a4c1"),
    ("scripted", 757, "88c359be968d16c73a18128585cafc701a277ff26b540c31432602f6be37d740"),
], ids=["unsolvable", "scripted"])
def test_a_scan_builds_no_field_above_the_degree_that_proves_its_prime(mode, builds, digest, monkeypatch):
    # the sha256 of the rows is that of a scan that builds every field of
    # degree 3..8 of each prime that reaches the backend stage (757 fields
    # over 2..800); when every answer is unsolvable, each such prime has
    # both signs proven at the least degree >= 3 that Q(zeta_{p-1}) has,
    # and only the fields of that degree are built, each once
    import noether.cyclotomic as cyc

    built = []
    minpoly = cyc.subfield_minpoly

    def counting_minpoly(h, *args):
        built.append(h)
        return minpoly(h, *args)

    monkeypatch.setattr(cyc, "subfield_minpoly", counting_minpoly)
    rows = []
    scan(2, 800, ScanConfig(max_degree=8, backend=fake_backend(mode)), rows.append)
    monkeypatch.undo()
    text = "".join(json.dumps(rec.to_row()) + "\n" for rec in rows).encode()
    assert hashlib.sha256(text).hexdigest() == digest
    assert len(built) == len(set(built)) == builds
    if mode == "scripted":
        return
    lowest = set()
    for rec in rows:
        if max(rec.d_plus or 0, rec.d_minus or 0) > 2:
            fields = subfields(rec.p - 1, 8, 3)
            assert max(rec.d_plus, rec.d_minus) == fields[0].degree, rec
            lowest |= {sd.subgroup for sd in fields if sd.degree == fields[0].degree}
    assert set(built) == lowest


def test_parallel_backend_scan_is_byte_identical(tmp_path):
    from noether.cli import main

    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["scan", "--from", "2", "--to", "300", "--max-degree", "8",
                     "--backend", fake_backend("scripted"), "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_a_killed_child_fails_only_its_own_scan(monkeypatch):
    clients = record_clients(monkeypatch)
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))

    first = []

    def kill_child(rec):
        first.append(rec)
        if rec.p == 5501:  # the first backend prime: the child is running
            clients[-1]._proc.kill()

    scan(5500, 5508, cfg, kill_child)
    assert [r.p for r in first if isinstance(r, ScanError)] == [5507]
    assert clients[0]._proc.returncode is not None

    rows = []
    scan(5500, 5508, cfg, rows.append)
    assert all(isinstance(r, Verdict) for r in rows)
    assert [r.p for r in rows if r.method == "BACKEND"] == [5507]
    assert len(clients) == 2


@pytest.mark.parametrize("mode, error", [("bogus", "BackendVerificationError"),
                                         ("garbage", "BackendProtocolError")])
def test_a_failed_batch_leaves_no_answer_for_the_next_prime(mode, error):
    # 5501 fails at the first answer of a batch of its degree-4 fields; the
    # rest of that batch is skipped, so 5507 reads its own answers
    rows = []
    scan(5500, 5508, ScanConfig(max_degree=8, backend=fake_backend(mode)), rows.append)
    assert [(r.p, r.error.split(":")[0]) for r in rows if isinstance(r, ScanError)] == [(5501, error), (5507, error)]


def test_a_silent_backend_costs_a_scan_one_answer_deadline(alarm, monkeypatch):
    # 5501 waits out the deadline, which kills the child; 5507 then fails
    # at once instead of waiting a second time.  The deadline is long
    # against the child's start and the field builds, so a second wait
    # cannot hide in the margin of the time bound.
    monkeypatch.setattr(BackendClient, "ANSWER_TIMEOUT_S", 2.0)
    alarm(15)
    rows = []
    t0 = time.monotonic()
    scan(5500, 5508, ScanConfig(max_degree=8, backend=fake_backend("silent")), rows.append)
    assert time.monotonic() - t0 < 2 * BackendClient.ANSWER_TIMEOUT_S
    assert [(r.p, r.error) for r in rows if isinstance(r, ScanError)] == [
        (5501, "BackendUnavailableError: backend moved no byte for 2.0 s"),
        (5507, "BackendUnavailableError: backend process has exited"),
    ]


def test_parallel_scan_reaps_every_child(monkeypatch, tmp_path):
    import multiprocessing

    # the recording patch reaches the pool workers only when they are forked
    if multiprocessing.get_start_method() != "fork" or not os.path.isdir("/proc/self"):
        pytest.skip("needs forked pool workers and /proc")
    pids = tmp_path / "pids"
    init = BackendClient.__init__

    def recording_init(self, command):
        init(self, command)
        with open(pids, "a") as out:
            out.write(f"{self._proc.pid}\n")

    monkeypatch.setattr(BackendClient, "__init__", recording_init)
    scan(5400, 5600, ScanConfig(max_degree=8, backend=fake_backend("scripted"), parallelism=2))
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2, "one solver child per worker"
    assert [pid for pid in started if os.path.exists(f"/proc/{pid}")] == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_unstartable_backend_fails_the_scan(jobs, tmp_path, capsys):
    from noether.cli import main

    cfg = ScanConfig(max_degree=8, backend="/nonexistent/solver", parallelism=int(jobs))
    rows = []
    with pytest.raises(BackendUnavailableError, match="cannot start backend"):
        scan(2, 60, cfg, rows.append)
    assert rows == []

    # the results of an earlier scan survive one that fails before its first record
    out = tmp_path / "scan.jsonl"
    earlier = '{"p": 2, "error": "timeout"}\n'
    out.write_text(earlier)
    assert main(["scan", "--from", "2", "--to", "60", "--max-degree", "8", "--jobs", jobs,
                 "--backend", "/nonexistent/solver", "--out", str(out)]) == 2
    assert out.read_text() == earlier
    assert "cannot start backend" in capsys.readouterr().err


def test_lone_classify_reaps_its_child(monkeypatch):
    clients = record_clients(monkeypatch)
    cfg = ScanConfig(max_degree=8, backend=fake_backend("scripted"))
    assert classify_prime(47, cfg).method == "EM_I"
    assert clients == [], "a prime decided before the backend stage started a child"
    assert classify_prime(5507, cfg).method == "BACKEND"
    with pytest.raises(BackendVerificationError):
        classify_prime(53, ScanConfig(max_degree=4, backend=fake_backend("bogus")))
    assert len(clients) == 2
    assert all(c._proc.returncode is not None for c in clients)
