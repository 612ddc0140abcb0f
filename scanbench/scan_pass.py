"""One benchmark pass: a fresh interpreter that runs `noether scan` the way
the command line does, then prints one JSON line of its own figures.

    python3 scanbench/scan_pass.py [--probe] [--trace PATH] -- SCAN-ARGS...

`ready` is read from CLOCK_MONOTONIC, which every process on the machine
shares, just before the scan is called: the launching process subtracts
its own reading taken before the launch to get the set-up time.  With
--probe the pass stops there.  With --trace the layer wrappers of
`layers.py` are installed before the scan and their figures are written
to PATH.

The speed of the host's cores drifts by up to a factor of two within
seconds, with the load of other machines that share them.  So a timer
interrupts the pass every PROBE_EVERY_S seconds to time a fixed piece of
integer work, a big-integer product like those of the Kronecker
multiplication and a loop of small-integer arithmetic; the launching
process scales each interval by the probe times measured inside it.
"""

import json
import resource
import signal
import sys
import time
from math import isqrt
from pathlib import Path

PROBE_EVERY_S = 0.1
_FACTOR = (1 << 32768) // 7919  # a fixed 4 KiB integer


class SpeedProbe:
    """Times a fixed piece of work on a timer signal; the samples of an
    interval are collected with take()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = (_FACTOR * (_FACTOR + 1)) & 0xFFFF
        table = {}
        for i in range(1, 600):
            table[(i % 97, i)] = [isqrt(i * 7919) % 13, i]
        acc += sum(v[0] for v in table.values())
        self.samples.append(time.perf_counter() - t0)

    def take(self) -> list[float]:
        out, self.samples = self.samples, []
        return out

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main(argv: list[str]) -> int:
    probe = SpeedProbe()  # first, so that it samples the imports too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from noether import cli

    split = argv.index("--")
    own, scan_args = argv[:split], argv[split + 1:]
    tracer = None
    if "--trace" in own:
        import layers

        tracer = layers.install()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_probes = probe.take()
    if "--probe" in own:
        probe.stop()
        print(json.dumps({"ready": ready, "setup_probes": setup_probes}))
        return 0
    t0 = time.perf_counter()
    code = cli.main(["scan", *scan_args])
    scan_s = time.perf_counter() - t0
    probe.stop()
    scan_probes = probe.take()
    if code != 0:
        return code
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        Path(own[own.index("--trace") + 1]).write_text(json.dumps(tracer.report(scan_s)))
    print(json.dumps({"ready": ready, "setup_probes": setup_probes, "scan_s": scan_s,
                      "scan_probes": scan_probes, "maxrss_kb": maxrss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
