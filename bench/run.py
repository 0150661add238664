"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload extract --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  Lines before it give the raw (wall-clock) figures, the
median probe time and, for a traced run, the per-layer self-time shares.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
HEAP_OP = -3


def _import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC_DIR / "crashreplay" / "__init__.py").is_file():
        sys.exit(f"error: {SRC_DIR / 'crashreplay'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import crashreplay

    if Path(crashreplay.__file__).resolve().parent != (SRC_DIR / "crashreplay").resolve():
        sys.exit(f"error: imported crashreplay from {crashreplay.__file__}, not from {SRC_DIR}")


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    import workloads
    from probe import NOMINAL_PROBE_S, Clock, Section

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / workload_name
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
        tracer.patch_fn(workloads, "artifacts", "replay.artifacts")
        classes = tracing.traced_classes(tracer)
    else:
        from crashreplay.adb_bridge import AdbDevice
        from crashreplay.simulator import SimulatorDevice
        from standin import StandInModel

        classes = (SimulatorDevice, AdbDevice, StandInModel)

    workload = workloads.WORKLOADS[workload_name](seed, workdir, classes)
    if traced:
        workload.tracer = tracer
    clock = Clock()
    clock.run_probe(5)

    setup = []
    for _ in range(workload.setup_reps):
        workload.teardown()
        gc.collect()
        clock.run_probe()
        with Section() as section:
            workload.setup()
        setup.append(section)
    clock.run_probe()
    setup_scale = clock.scale()
    setup_problems = workload.setup_problems()

    failures: list[str] = []

    def one_op(item, op_id: int):
        model = workload.prepare(item)
        gc.collect()  # every op starts from the same collector state
        tracer.op = op_id
        try:
            with Section() as section:
                output = workload.op(item, model)
        except Exception:  # one failed op is counted; the run goes on
            tracer.op = tracing.WARMUP_OP
            failures.append(traceback.format_exc(limit=3))
            return section, model, False
        result = workload.replay_result(output)
        if result is not None:
            tracer.count("replay.iterations", result.iterations)
            tracer.count("replay.steps", result.steps_executed)
        tracer.op = tracing.WARMUP_OP
        problems = workload.check(item, model, output)
        failures.extend(problems)
        return section, model, not problems

    tracer.op = tracing.WARMUP_OP
    for index in range(workload.warmup_ops):
        clock.run_probe()
        one_op(workload.round[index % len(workload.round)], tracing.WARMUP_OP)
    failures.clear()

    sections: list[Section] = []
    calls: list[int] = []
    prompt_bytes: list[int] = []
    failed = 0
    first_probe = len(clock.probes)
    started = time.perf_counter()
    while not sections or time.perf_counter() - started < seconds:
        for item in workload.round:  # whole rounds only
            clock.run_probe()
            section, model, ok = one_op(item, len(sections))
            sections.append(section)
            failed += not ok
            calls.append(len(model.exchanges))
            prompt_bytes.append(sum(len(ex.prompt.encode("utf-8")) for ex in model.exchanges))
    clock.run_probe()
    attempted = ops = len(sections)
    heap = 0.0
    if traced and tracer.counters["replay.iterations"]:
        heap, heap_failed = heap_peak_kib(workload, tracer, one_op)
        attempted += len(workload.round)
        failed += heap_failed

    correct = not setup_problems
    failures = setup_problems + failures
    for problem in failures[:5]:
        print(f"check failed: {problem}", file=sys.stderr)

    scale = clock.scale(first_probe)
    nominal = [clock.nominal(s, scale) for s in sections]
    setup_nominal = statistics.median(clock.nominal(s, setup_scale) for s in setup)
    raw = [s.wall for s in sections]
    print(
        f"{workload_name} seed={seed} ops={ops} attempted={attempted} failed={failed} "
        f"probe_median_ms={1e3 * NOMINAL_PROBE_S / scale:.4f} scale={scale:.4f} setup_scale={setup_scale:.4f} "
        f"raw_op_p50_s={statistics.median(raw):.6f} raw_op_p90_s={_quantile(raw, 0.9):.6f} "
        f"op_p90_s={_quantile(nominal, 0.9):.6f} (n={ops}) "
        f"raw_setup_s={statistics.median(s.wall for s in setup):.6f}"
    )
    if traced:
        metrics = per_layer(workload, tracer, ops, heap)
        tracer.write(OUT_DIR / f"spans-{workload_name}.jsonl")
    else:
        metrics = {
            "setup_s": setup_nominal,
            "op_p50_s": statistics.median(nominal),
            "ops_per_s": ops / sum(nominal),
            "model_calls_per_op": sum(calls) / ops,
            "prompt_kb_per_op": sum(prompt_bytes) / ops / 1024,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = declared("end_to_end", metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def declared(section: str, values: dict[str, float]) -> dict:
    """The metrics of ``section`` in BENCHMARK.json, each with its declared unit."""
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))[section]}
    if set(units) != set(values):
        raise RuntimeError(f"computed and declared metrics differ: {sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(workload, tracer, ops: int, heap: float) -> dict:
    """Every per-layer metric, from the traced ops' spans and counters."""
    import tracing

    profile = tracing.Profile(tracer)
    counters = tracer.counters
    total = profile.total
    n = profile.calls

    def per_op(value: float) -> float:
        return value / ops

    def setup_median(name: str) -> float:
        return statistics.median(profile.setup[name]) if profile.setup[name] else 0.0

    iterations = counters["replay.iterations"]
    explores = n["explorer.explore"]
    index_path = getattr(workload, "index_path", None)
    values = {
        "rag.retrieve_ms_per_query": profile.per_call_ms("rag.retrieve", self_only=True),
        "rag.retrieve_calls_per_op": per_op(n["rag.retrieve"]),
        "rag.embed_ms_per_call": profile.per_call_ms("rag.embed"),
        "rag.segment_ms_per_op": per_op(1e3 * total["rag.segment"]),
        "rag.build_index_s": setup_median("rag.build_index"),
        "rag.save_index_s": setup_median("rag.save_index"),
        "rag.load_index_s": setup_median("rag.load_index"),
        "rag.index_file_mib": index_path.stat().st_size / 2**20 if index_path else 0.0,
        "grammar.prompt_ms_per_op": per_op(1e3 * total["grammar.prompt"]),
        "grammar.parse_ms_per_op": per_op(1e3 * total["grammar.parse"]),
        "gateway.complete_ms_per_call": profile.per_call_ms("gateway.complete", self_only=True),
        "gateway.filter_ms_per_reply": profile.per_call_ms("gateway.filter"),
        "gateway.parse_ms_per_reply": profile.per_call_ms("gateway.parse"),
        "gateway.reply_kib_per_call": counters["gateway.reply_bytes"] / 1024 / max(1, n["gateway.complete"]),
        "gateway.repairs_per_op": per_op(counters["gateway.repairs"]),
        "device.encode_ms_per_call": profile.per_call_ms("device.encode"),
        "device.fingerprint_ms_per_call": profile.per_call_ms("device.fingerprint"),
        "device.resolve_ms_per_call": profile.per_call_ms("device.resolve"),
        "simulator.load_spec_s": setup_median("simulator.load_spec"),
        "simulator.step_ms_per_cmd": profile.per_call_ms("simulator.step", self_only=True),
        "simulator.cmds_per_op": per_op(n["simulator.step"] + n["simulator.restart"]),
        "simulator.screen_builds_per_cmd": profile.inside[("simulator.build_state", "simulator.step")]
        / max(1, n["simulator.step"]),
        "adb_bridge.invocations_per_cmd": profile.inside[("adb.invoke", "adb.execute")] / max(1, n["adb.execute"]),
        "adb_bridge.invocations_per_op": per_op(n["adb.invoke"]),
        "adb_bridge.execute_ms_per_cmd": profile.per_call_ms("adb.execute", self_only=True),
        "adb_bridge.settle_s_per_op": per_op(total["adb.settle"]),
        "adb_bridge.capture_ms_per_call": profile.per_call_ms("adb.capture"),
        "adb_bridge.xml_parse_ms_per_call": profile.per_call_ms("adb.xml_parse"),
        "adb_bridge.crash_scan_ms_per_call": profile.per_call_ms("adb.crash_scan"),
        "explorer.explore_ms_per_op": per_op(1e3 * total["explorer.explore"]),
        "explorer.device_cmds_per_explore": (
            profile.inside[("simulator.step", "explorer.explore")]
            + profile.inside[("simulator.restart", "explorer.explore")]
        )
        / max(1, explores),
        "explorer.edges_per_probe": counters["explorer.edges"] / max(1, counters["explorer.probes"]),
        "explorer.probes_per_explore": counters["explorer.probes"] / max(1, explores),
        "explorer.synth_functionality_ms_per_op": per_op(1e3 * total["explorer.synth_functionality"]),
        "explorer.synth_ui_ms_per_op": per_op(1e3 * total["explorer.synth_ui"]),
        "explorer.out_edges_ms_per_op": per_op(1e3 * total["explorer.out_edges"]),
        "explorer.summary_calls_per_op": per_op(
            profile.inside[("gateway.complete", "explorer.synth_functionality")]
            + profile.inside[("gateway.complete", "explorer.synth_ui")]
        ),
        "explorer.summary_prompt_kib_per_op": per_op(counters["explorer.summary_prompt_bytes"] / 1024),
        "replay.iterations_per_op": per_op(iterations),
        "replay.prompt_ms_per_iter": 1e3 * total["replay.prompt"] / max(1, iterations),
        "replay.template_ms_per_iter": 1e3 * total["replay.template"] / max(1, iterations),
        "replay.stuck_ms_per_iter": 1e3 * total["replay.stuck"] / max(1, iterations),
        "replay.loop_self_ms_per_iter": 1e3 * profile.self_time["replay.run"] / max(1, iterations),
        "replay.artifacts_ms_per_op": per_op(1e3 * total["replay.artifacts"]),
        "replay.steps_per_op": per_op(counters["replay.steps"]),
        "replay.heap_peak_kib_per_op": heap,
        "evaluator.score_ms_per_op": per_op(1e3 * total["evaluator.score"]),
        "cli.extract_self_ms_per_op": per_op(1e3 * profile.self_time["cli.run_extraction"]),
    }
    op_total = sum(profile.self_time.values())
    shares = sorted(profile.self_time.items(), key=lambda kv: -kv[1])
    print("self-time shares: " + ", ".join(f"{name} {100 * t / op_total:.1f}%" for name, t in shares[:12]))
    return declared("per_layer", values)


def heap_peak_kib(workload, tracer, one_op) -> tuple[float, int]:
    """Largest peak Python heap growth per op over one more whole round, under
    ``tracemalloc`` with spans paused, and the number of its ops that failed."""
    peaks = []
    failed = 0
    tracer.paused += 1
    tracemalloc.start()
    try:
        for item in workload.round:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, _, ok = one_op(item, HEAP_OP)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
            failed += not ok
    finally:
        tracemalloc.stop()
        tracer.paused -= 1
    return max(peaks), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["extract", "replay_long", "explore", "adb_replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
