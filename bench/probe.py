"""Reference probe and the conversion of measured times to nominal host speed.

The host's effective CPU speed drifts by tens of percent over tens of
seconds, and the drift shows in CPU time as much as in wall time.  So the
benchmark times a fixed piece of pure-Python work (the probe) between
operations, never inside one, and reports every time as:

    nominal = cpu * NOMINAL_PROBE_S / median(probe) + (wall - cpu)

where ``cpu`` is the process CPU time of the measured section, capped at
its wall time, and the median is over the probes of the same phase: the
set-up repetitions, or the timed ops.  The off-CPU part (sleeps, the fake
device's latency) is added as measured.  The probe imports nothing from
the program, and NOMINAL_PROBE_S never changes once committed, so that
runs of different commits stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

#: Median probe time on the reference machine (2 vCPU Xeon, Python 3.11.7).
NOMINAL_PROBE_S = 0.0030


def probe() -> int:
    """Fixed mixed work: allocation, dicts, strings, JSON and hashing."""
    table: dict[str, list[int]] = {}
    words = []
    for i in range(1200):
        key = f"k{i % 97}-{i % 13}"
        table.setdefault(key, []).append(i)
        words.append(key.upper().replace("-", "_"))
    blob = json.dumps({"table": table, "words": words[:400]}, sort_keys=True)
    decoded = json.loads(blob)
    digest = hashlib.sha256(" ".join(words).encode("utf-8")).hexdigest()
    records = sorted(({"id": w, "n": len(w)} for w in decoded["words"]), key=lambda r: (r["n"], r["id"]))
    return len(digest) + len(records) + len(blob)


class Clock:
    """Measures sections in wall and CPU time and collects probe samples."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def run_probe(self, times: int = 2) -> None:
        for _ in range(times):
            start = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - start)

    def scale(self, since: int = 0) -> float:
        """Nominal over measured probe time, from the probes taken since ``since``."""
        return NOMINAL_PROBE_S / statistics.median(self.probes[since:])

    @staticmethod
    def nominal(section: "Section", scale: float) -> float:
        return section.cpu * scale + (section.wall - section.cpu)


class Section:
    """Context manager: wall and CPU seconds of a block, CPU capped at wall."""

    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "Section":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = min(time.process_time() - self._cpu, self.wall)
