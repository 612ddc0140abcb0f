import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import noether
from noether.cli import main
from noether.normsearch import norm_of

FAKE = os.path.join(os.path.dirname(__file__), "fake_backend.py")


def test_classify_json(capsys):
    assert main(["classify", "47"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["p"] == 47
    assert row["status"] == "NotStablyRational"
    assert (row["d_plus"], row["d_minus"], row["grh"]) == (2, 2, False)
    assert row["witnesses"]["plus"]["disc"] == -23


def test_classify_rational_with_witness(capsys):
    assert main(["classify", "5"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["status"] == "Rational" and row["method"] == "CERTIFICATE"
    w = row["witnesses"]
    assert w["target"] == 5
    assert norm_of(w["minpoly"], w["coefficients"]) == 5


def test_classify_without_numpy():
    # the decision path needs no numpy: a Rational verdict of degree 24
    script = ("import sys\nsys.modules['numpy'] = None\n"
              "from noether.cli import main\nsys.exit(main(['classify', '71']))\n")
    src = str(Path(noether.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert row["status"] == "Rational" and row["method"] == "CERTIFICATE"
    w = row["witnesses"]
    assert len(w["minpoly"]) == 25 and norm_of(w["minpoly"], w["coefficients"]) == 71


# sha256 of the 17 lines `classify` prints for the Rational primes, in
# ascending order: it pins every certificate's coefficients
_RATIONAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 67, 71)
_WITNESS_DIGEST = "4bc9a79f1c737ab1d6c57c2330e1bb04e4d9685b6e629909748143cc4c5c69b0"


def test_rational_witnesses_are_pinned(capsys):
    lines = []
    for p in _RATIONAL:
        assert main(["classify", str(p)]) == 0
        lines.append(capsys.readouterr().out)
    assert all(json.loads(line)["status"] == "Rational" for line in lines)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _WITNESS_DIGEST


def test_classify_rejects_composite(capsys):
    assert main(["classify", "8"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_classify_rejects_a_number_above_2_64(capsys):
    # primality is proven only below 2^64, so 2^64 + 13 gets no verdict
    with pytest.raises(ValueError, match=re.escape("18446744073709551629 is not below 2^64")):
        noether.classify_prime(2**64 + 13)
    assert main(["classify", str(2**64 + 13)]) == 2
    assert "noether: 18446744073709551629 is not below 2^64" in capsys.readouterr().err


def test_classify_max_degree_needs_backend(capsys, monkeypatch):
    monkeypatch.delenv("NOETHER_BACKEND", raising=False)
    assert main(["classify", "59", "--max-degree", "4"]) == 2
    assert "backend" in capsys.readouterr().err


def test_classify_with_backend_flag(capsys):
    cmd = f"{sys.executable} {FAKE} scripted"
    assert main(["classify", "59", "--max-degree", "28", "--grh", "--backend", cmd]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["status"] == "NotStablyRational"
    assert (row["d_plus"], row["d_minus"], row["grh"]) == (28, 4, True)


def test_backend_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NOETHER_BACKEND", f"{sys.executable} {FAKE} scripted")
    assert main(["classify", "5507", "--max-degree", "8"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["d_plus"], row["d_minus"], row["grh"]) == (8, 8, False)


def test_scan_jsonl(capsys):
    assert main(["scan", "--from", "2", "--to", "100"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert len(rows) == 25
    assert [r["p"] for r in rows] == sorted(r["p"] for r in rows)
    assert all(
        set(r) == {"p", "status", "d_plus", "d_minus", "method", "grh"} for r in rows
    )
    summary = json.loads(captured.err)
    assert summary["primes"] == 25


# sha256 of the JSONL output of `noether scan` over reference ranges:
# (from, to, max degree) -> digest; degree > 2 runs with the scripted backend
_GOLDEN_SCANS = {
    (2, 20000, 2): "a39fb166ec9e072306d323e672c8ed975b7f5199ec97b5fd8f7da79bc8e530ae",
    (2, 800, 8): "88c359be968d16c73a18128585cafc701a277ff26b540c31432602f6be37d740",
    (5500, 5508, 8): "7c89c34c257774c909360c3a76b7372e874a6a289a58a3646405699cc21f93f6",
    (19800, 19960, 12): "00ba882cfebe643e9e4b12fa17542336a9cbdd4592cdd782a22d0d354b2f7b22",
    # every conductor up to 20000 at cap 8
    (2, 20000, 8): "8a501a2ef995d8da37c769ec82fcc31c13ff15461c0773ede47dec650b7c7412",
    # past the paper's range: 9592 primes, 17 Rational, 8366
    # NotStablyRational, 1209 Undetermined
    (2, 100000, 2): "c6d61112d63f8e3cf8c2b84ea8f4eecfc6bdd513069adef4a659b08d4941d974",
}


@pytest.mark.parametrize("frm,to,degree", sorted(_GOLDEN_SCANS))
def test_scan_output_is_pinned(frm, to, degree, tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    args = ["scan", "--from", str(frm), "--to", str(to), "--max-degree", str(degree), "--out", str(out)]
    if degree > 2:
        args += ["--backend", f"{sys.executable} {FAKE} scripted"]
    assert main(args) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_SCANS[frm, to, degree]


def test_scan_csv_to_file(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["scan", "--from", "2", "--to", "50", "--format", "csv",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,status,d_plus,d_minus,method,grh"
    assert len(lines) == 16  # header + the 15 primes up to 50
    assert lines[1].startswith("2,Rational")


def test_scan_without_primes_writes_a_csv_header(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["scan", "--from", "24", "--to", "28", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines() == ["p,status,d_plus,d_minus,method,grh"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_to_an_unopenable_out_fails_before_the_scan(jobs, tmp_path, monkeypatch, capsys):
    import noether.cli as cli

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli, "scan", no_scan)
    for out in (tmp_path / "missing" / "x.jsonl", tmp_path):
        assert main(["scan", "--from", "2", "--to", "20000", "--jobs", jobs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("noether: ") and str(out) in err, err
    assert [p.name for p in tmp_path.iterdir()] == []


def test_em_tables_output(capsys):
    assert main(["em-tables", "--limit", "250"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert [int(x) for x in blocks[0].split()] == [47, 79, 167, 191, 223, 239]
    assert [int(x) for x in blocks[1].split()] == [113, 137, 233]


def test_subfields_output(capsys):
    assert main(["subfields", "12", "--max-degree", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["degree"] for r in rows] == [1, 2, 2, 2]
    assert rows[0]["minpoly"] == [0, 1]  # the full-group period of n=12 is 0


@pytest.mark.parametrize("max_degree", ["0", "-3"])
def test_subfields_rejects_a_degree_cap_below_one(max_degree, capsys):
    assert main(["subfields", "12", "--max-degree", max_degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_degree >= 1" in captured.err


def test_cross_check_cli(tmp_path, capsys):
    out = tmp_path / "full.jsonl"
    assert main(["scan", "--from", "2", "--to", "20000", "--out", str(out)]) == 0
    capsys.readouterr()
    # an honest full scan agrees with every reference table
    assert main(["cross-check", "--results", str(out)]) == 0
    assert "cross-check: ok" in capsys.readouterr().out


def test_cross_check_incomplete(tmp_path, capsys):
    path = tmp_path / "partial.jsonl"
    path.write_text('{"p": 2, "status": "Rational", "d_plus": null, '
                    '"d_minus": null, "method": "CERTIFICATE", "grh": false}\n')
    assert main(["cross-check", "--results", str(path)]) == 1
    assert "incomplete coverage" in capsys.readouterr().out


_ROW = {"p": 47, "status": "NotStablyRational", "d_plus": 2, "d_minus": 2,
        "method": "QUADRATIC", "grh": False}


@pytest.mark.parametrize("row, why", [
    ([47, "NotStablyRational"], "not a JSON object"),
    ({k: v for k, v in _ROW.items() if k != "p"}, 'no integer "p"'),
    ({k: v for k, v in _ROW.items() if k != "grh"}, 'no boolean "grh"'),
    ({**_ROW, "p": 4}, '"p" = 4 is not prime'),
    ({**_ROW, "status": "Bogus"}, '"status" \'Bogus\' is none of the three'),
    ({**_ROW, "p": 2}, "a second row for p = 2"),
], ids=["not-an-object", "no-p", "no-grh", "not-prime", "bogus-status", "second-row"])
def test_cross_check_rejects_a_malformed_row(row, why, tmp_path, capsys):
    # a malformed file is invalid input (exit 2), not a failed check (exit 1)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"p": 2, "error": "timeout"}) + "\n\n" + json.dumps(row) + "\n")
    assert main(["cross-check", "--results", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"noether: results line 3: {why}" in captured.err


def test_cross_check_names_a_line_that_is_not_json(tmp_path, capsys):
    # a CSV scan output is not a results file: its header is line 1
    path = tmp_path / "results.csv"
    assert main(["scan", "--from", "2", "--to", "50", "--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["cross-check", "--results", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noether: results line 1: not JSON (Expecting value: line 1 column 1 (char 0))" in captured.err


def test_readme_library_example_runs_as_written(capsys):
    # the example imports every name of noether's top-level surface
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    names: dict = {}
    exec(block, names)
    assert names["v"].status == "NotStablyRational" and len(names["rows"]) == 46
    assert capsys.readouterr().out == "1 (-1, 1)\n2 (6, 1, 1)\n"
    assert sorted(noether.__all__) == sorted(
        ["classify_prime", "scan", "ScanConfig", "subfields", "solve_norm", "__version__"])


# a fresh interpreter without the site hook, so nothing is loaded before
# the program: it records the modules that noether.cli and three default
# runs add, then scans with a pool and records what that adds on top
_COLD_START = """
import json, sys
before = set(sys.modules)
from noether.cli import main
out, fake = sys.argv[1], sys.argv[2]
codes = [main(["scan", "--from", "2", "--to", "500", "--out", out + "/serial.jsonl"]),
         main(["scan", "--from", "2", "--to", "100", "--max-degree", "8",
               "--backend", sys.executable + " " + fake + " scripted", "--out", out + "/deg8.jsonl"]),
         main(["classify", "47"])]
default = set(sys.modules) - before
codes.append(main(["scan", "--from", "2", "--to", "500", "--jobs", "2", "--out", out + "/jobs2.jsonl"]))
print(json.dumps([codes, sorted(default), sorted(set(sys.modules) - before - default)]))
"""

# modules that only --jobs N > 1, --format csv and cross-check use
_NOT_ON_THE_DEFAULT_PATH = {"concurrent", "multiprocessing", "csv", "importlib.resources"}


def test_default_runs_import_no_pool_csv_writer_or_resource_loader(tmp_path):
    src = str(Path(noether.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _COLD_START, str(tmp_path), FAKE],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, default, pool = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    default, pool = set(default), set(pool)
    assert "noether.scanner" in default
    assert sorted(default & _NOT_ON_THE_DEFAULT_PATH) == []
    assert {"concurrent", "multiprocessing"} <= pool
    assert (tmp_path / "jobs2.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
    assert json.loads((tmp_path / "deg8.jsonl").read_text().splitlines()[-1])["p"] == 97
