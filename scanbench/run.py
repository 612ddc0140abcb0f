"""Scan benchmark for noether.

    python3 scanbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 scanbench/run.py [--seconds S]      # every workload, both modes

With --trace 0 a run launches fresh serial passes of `noether scan` for
about S seconds (at least one) and reports the end-to-end metrics.  With
--trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics, with the tracing overhead.  Either way the outputs are
checked by `check.py`, which does not use the program, and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every figure and the facts of the machine are also written to
scanbench/out/<workload>-trace<0|1>.json.  The seed only picks the rows
that a reused proof re-proves from scratch; the scanned ranges are fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASS = HERE / "scan_pass.py"
BACKEND = ROOT / "tests" / "fake_backend.py"
SETUP_SAMPLES = 7  # launches per run from which setup_s is the median
# The time of scan_pass.SpeedProbe's work that all timings are scaled to:
# about its time on a quiet core of a 2-core machine with Python 3.11.
PROBE_REF_S = 0.001
PASS_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    # (from, to) of each scan in a pass, each in its own process; no `to`
    # is prime, so [from, to] and [from, to) hold the same primes
    scans: tuple[tuple[int, int], ...]
    max_degree: int


# Why each workload was chosen: scanbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "deg2-paper": Workload(((2, 20000),), 2),
    "deg8-low": Workload(((2, 800), (5500, 5508)), 8),
    "deg12-top": Workload(((19800, 19960),), 12),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# percentiles tried for scanner.prime_ms.tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


class BenchError(Exception):
    pass


def facts() -> dict:
    def version(mod: str) -> str | None:
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "noether").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def launch(wl: Workload, scan: tuple[int, int], out: Path, probe: bool = False,
           trace: Path | None = None) -> dict:
    """Run one pass process over one scan; returns its figures with
    setup_s added."""
    own = ["--probe"] if probe else []
    if trace is not None:
        own += ["--trace", str(trace)]
    args = ["--from", str(scan[0]), "--to", str(scan[1]), "--max-degree", str(wl.max_degree), "--out", str(out)]
    if wl.max_degree > 2:
        args += ["--backend", shlex.join([sys.executable, str(BACKEND), "scripted"])]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(PASS), *own, "--", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    fig = json.loads(proc.stdout.splitlines()[-1])
    fig["setup_wall_s"] = fig["ready"] - t0
    fig["setup_s"] = _at_reference_speed(fig["setup_wall_s"], fig["setup_probes"])
    if "scan_s" in fig:
        fig["scan_wall_s"] = fig["scan_s"]
        fig["scan_s"] = _at_reference_speed(fig["scan_s"], fig["scan_probes"])
    return fig


def _at_reference_speed(wall_s: float, probes: list[float]) -> float:
    """wall_s less the probes' own time, scaled by the core's mean speed
    within it relative to the reference: the probes sample that speed at
    even steps of wall time, each as PROBE_REF_S over its loop time."""
    if not probes:
        return wall_s
    return (wall_s - sum(probes)) * statistics.mean(PROBE_REF_S / t for t in probes)


def run_pass(wl: Workload, work: Path, tag: str, trace: bool = False) -> list[dict]:
    """Every scan of the workload once; output i goes to <tag>-<i>.jsonl."""
    figs = []
    for i, scan in enumerate(wl.scans):
        fig = launch(wl, scan, work / f"{tag}-{i}.jsonl",
                     trace=work / f"{tag}-{i}.trace.json" if trace else None)
        fig["out"] = work / f"{tag}-{i}.jsonl"
        figs.append(fig)
    return figs


def check_outputs(name: str, wl: Workload, passes: list[list[dict]], seed: int) -> list:
    """Check each scan's first output fully and its other outputs for byte
    equality; returns one checker report per scan."""
    reports = []
    for i, scan in enumerate(wl.scans):
        first = passes[0][i]["out"].read_bytes()
        for figs in passes[1:]:
            if figs[i]["out"].read_bytes() != first:
                raise check.CheckError(f"{figs[i]['out'].name} differs from {passes[0][i]['out'].name}")
        reports.append(check.check_scan(first.decode(), scan[0], scan[1], wl.max_degree,
                                        proof_dir=OUT / "proofs", seed=seed))
    if name == "deg2-paper":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "noether.cli", "cross-check", "--results", str(passes[0][0]["out"])],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0 or "cross-check: ok" not in proc.stdout:
            raise check.CheckError(f"noether cross-check failed: {proc.stdout[-1000:]}{proc.stderr[-1000:]}")
    return reports


def _workdir(name: str) -> Path:
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    for old in work.glob("*.json*"):
        old.unlink()
    return work


def timed_run(name: str, wl: Workload, seed: int, seconds: float) -> dict:
    work = _workdir(name)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, work, f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    launches = [fig for figs in passes for fig in figs]
    while len(launches) < SETUP_SAMPLES:
        launches.append(launch(wl, wl.scans[0], work / "probe.jsonl", probe=True))
    reports = check_outputs(name, wl, passes, seed)
    primes = sum(r.rows for r in reports)
    rates = [primes / sum(fig["scan_s"] for fig in figs) for figs in passes]
    metrics = {
        "primes_per_s": primes * len(passes) / sum(fig["scan_s"] for figs in passes for fig in figs),
        "setup_s": statistics.median(fig["setup_s"] for fig in launches),
        "peak_rss_mb": statistics.median(max(fig["maxrss_kb"] for fig in figs) for figs in passes) / 1024.0,
    }
    return {
        "reports": reports,
        "passes": len(passes),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in E2E_UNITS.items()},
        "detail": {"pass_primes_per_s": rates, "setup_s": [fig["setup_s"] for fig in launches],
                   "scan_wall_s": [fig["scan_wall_s"] for figs in passes for fig in figs],
                   "setup_wall_s": [fig["setup_wall_s"] for fig in launches],
                   "probe_mean_s": [statistics.mean(fig["scan_probes"]) for figs in passes for fig in figs
                                    if fig["scan_probes"]]},
    }


def _tail(ms: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the
    median."""
    ms = sorted(ms)
    for q in TAIL_PERCENTILES:
        if len(ms) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", ms[int(len(ms) * q / 100.0)]
    return "p50", statistics.median(ms)


def traced_run(name: str, wl: Workload, seed: int) -> dict:
    work = _workdir(name)
    plain = run_pass(wl, work, "untraced")
    traced = run_pass(wl, work, "traced", trace=True)
    reports = check_outputs(name, wl, [traced, plain], seed)
    metrics: dict = {}
    prime_ms: list[float] = []
    fields = {}
    for i, fig in enumerate(traced):
        trace = json.loads((work / f"traced-{i}.trace.json").read_text())
        for key, value in trace["metrics"].items():
            metrics[key] = metrics.get(key, 0) + value
        prime_ms += trace["prime_ms"]
        rows = check.parse_rows(fig["out"].read_text())
        for key, value in check.check_backend_fields(rows, trace, wl.max_degree).items():
            fields[key] = fields.get(key, 0) + value
    primes = sum(r.rows for r in reports)
    pps_plain = primes / sum(fig["scan_s"] for fig in plain)
    pps_traced = primes / sum(fig["scan_s"] for fig in traced)
    tail_name, tail = _tail(prime_ms)
    metrics["scanner.prime_ms.p50"] = statistics.median(prime_ms)
    metrics["scanner.prime_ms.tail"] = tail
    metrics["trace.primes_per_s"] = pps_traced
    metrics["trace.overhead_pct"] = (pps_plain / pps_traced - 1.0) * 100.0
    return {
        "reports": reports,
        "passes": 1,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in LAYER_UNITS.items()},
        "detail": {"tail_percentile": tail_name, "prime_samples": len(prime_ms),
                   "untraced_primes_per_s": pps_plain, "backend_fields": fields},
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, bool]:
    wl = WORKLOADS[name]
    try:
        res = traced_run(name, wl, seed) if traced else timed_run(name, wl, seed, seconds)
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}, False
    reports = res["reports"]
    faults = {p: why for r in reports for p, why in r.faults.items()}
    result = {
        "correct": True,
        "attempted": sum(r.rows for r in reports) * res["passes"],
        "failed": len(faults) * res["passes"],
        "metrics": res["metrics"],
    }
    for p, why in list(faults.items())[:10]:
        print(f"fault: {p}: {why}")
    record = {"workload": name, "seed": seed, "trace": int(traced), "facts": facts(), "passes": res["passes"],
              "outputs": [{"sha256": r.sha256, "rows": r.rows, "proof": r.proof, "proof_stats": r.stats,
                           "resampled": r.sampled} for r in reports],
              "detail": res["detail"], **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("facts " + json.dumps(record["facts"]))
    print(f"{name}: {res['passes']} pass(es) of {[r.rows for r in reports]} primes, "
          f"proof {[r.proof for r in reports]}")
    if traced:
        print(f"scanner.prime_ms.tail is {res['detail']['tail_percentile']} "
              f"of {res['detail']['prime_samples']} primes")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return result, True


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "noether" / "cli.py", BACKEND) if not p.is_file()]
    if missing:
        print(f"scanbench: program not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # One core for this process and every pass and backend it starts: the
    # scan and the backend then hand each request over on a core that is
    # already running, with no wake-up of an idle second core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload is not None:
        result, ok = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if ok else 1
    summary = {}
    for name in WORKLOADS:
        for traced in (False, True):
            result, ok = run_one(name, args.seed, args.seconds, traced)
            summary[f"{name}-trace{int(traced)}"] = result
            if not ok:
                return 1
    (OUT / "results.json").write_text(json.dumps({"facts": facts(), "runs": summary}, indent=1) + "\n")
    print(f"wrote {OUT / 'results.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
