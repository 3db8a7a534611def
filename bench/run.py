"""End-to-end benchmark of the gencong CLI, with a traced per-layer split.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A run generates the workload from ``--seed``, then repeats closed-loop
passes for ``--seconds``: each pass is a fresh interpreter that imports
``gencong.cli`` and calls ``cli.main`` once on the workload's argv and
stdin, single client, no threads.  Every pass's output is checked against
results computed without gencong.

Plain passes give the end-to-end metrics of BENCHMARK.json; every
``LAT_EVERY``-th round adds a latency pass with clocked stdin/stdout for
the per-record figures.  ``--trace 1`` also follows each plain pass with a
traced one and reports the per-layer metrics; its summary lines also show
the end-to-end ones, so one command prints every metric.  The last line of stdout is the
JSON result; exit status is 0 only when every record was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: A latency pass follows every LAT_EVERY-th plain pass.
LAT_EVERY = 3
#: Plain passes a run makes even when they outlast --seconds.
MIN_PASSES = 3
#: ``setup_s`` is set-up time at the speed where ``probe.reference_s()`` takes
#: this long.  On a 2-vCPU VM under CPython 3.11 it took 24-41 ms as the
#: machine's speed drifted.
REF_NOMINAL_S = 0.030
PASS_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to the program being wrong)."""


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_ref", "ref"),
                         ("_mb", "MiB"), ("ratio", "ratio"), ("digits", "digits"),
                         ("bits", "bits"), ("bits_max", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def _spawn(tmp: str, mode: str, workload: workloads.Workload, index: int) -> dict:
    """Run child.py once; return its report plus set-up time and stdout text."""
    report_path = os.path.join(tmp, f"report{index}.json")
    out_path = os.path.join(tmp, f"out{index}.txt")
    in_path = os.path.join(tmp, "stdin.txt")
    argv = list(workload.argv)
    with open(in_path, "rb") as fin, open(out_path, "wb") as fout:
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, CHILD, report_path, mode, *argv],
                              stdin=fin, stdout=fout, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass interpreter exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace"))
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    if os.path.dirname(os.path.dirname(os.path.abspath(report["cli_file"]))) != SRC:
        raise BenchError(f"imported gencong from {report['cli_file']}, not from {SRC}")
    report["setup_wall_s"] = report["ready"] - spawned
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        report["output"] = handle.read()
    return report


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(plain: list[dict], latency: list[dict], setup: list[dict],
               workload) -> tuple[dict, dict]:
    """End-to-end metrics, and the note on each sample count.

    ``wall_ref`` and ``peak_rss_mb`` come from the plain passes, the
    per-record figures from the latency passes, and ``setup_s`` from every
    pass in ``setup``.  Times in reference units divide by the pass's own
    ``reference_s``; ``setup_s`` divides the set-up time by the reference
    timed right after it and scales it to ``REF_NOMINAL_S``.
    """
    # A pass that wrote no line at all kept its records waiting for all of it.
    latencies = [(x, p["reference_s"]) for p in latency for x in p["latency_s"] or [p["wall_s"]]]
    seconds = sorted(x for x, _ in latencies)
    refs = sorted(x / ref for x, ref in latencies)
    n, k = len(plain), len(latencies)
    metrics = {
        "setup_s": statistics.median(
            REF_NOMINAL_S * p["setup_wall_s"] / p["reference_before_s"] for p in setup),
        "wall_ref": statistics.median(p["wall_s"] / p["reference_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in setup),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "records_per_s": statistics.median(workload.records / p["wall_s"] for p in plain),
        "reference_s": statistics.median(p["reference_s"] for p in plain),
        "record_p50_ref": _percentile(refs, 50),
        "record_p50_ms": 1000 * _percentile(seconds, 50),
    }
    notes = {
        "setup_s": f"median of {len(setup)} passes, at reference speed",
        "wall_ref": f"median of {n} passes",
        "peak_rss_mb": f"median of {n} passes",
        "setup_wall_s": f"median of {len(setup)} passes, as timed",
        "wall_s": f"median of {n} passes",
        "records_per_s": f"{workload.records} records per pass, median of {n} passes",
        "reference_s": f"median of {n} passes; the unit of *_ref",
        "record_p50_ref": f"over {k} output lines of {len(latency)} latency passes",
        "record_p50_ms": f"over {k} output lines of {len(latency)} latency passes",
    }
    beyond = k // 100
    if beyond >= 10:
        metrics["record_p99_ms"] = 1000 * _percentile(seconds, 99)
        notes["record_p99_ms"] = f"over {k} output lines, {beyond} beyond"
    return metrics, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Median over traced passes of every seam statistic, plus tracing overhead.

    ``median_low`` keeps each value one that a pass measured, so counts stay whole.
    """
    names = traced[0]["trace"].keys()
    metrics = {name: statistics.median_low(p["trace"][name] for p in traced) for name in names}
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def check_layers(workload, layers: dict) -> None:
    """Refuse a traced run in which a seam the workload must load recorded no calls."""
    silent = sorted(name for name in workload.layers if layers[f"{name}.calls"] == 0)
    if silent:
        raise BenchError(f"seams expected on {workload.name} recorded no calls: {silent}")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload, seconds: float, trace: bool, tmp: str) -> dict[str, list[dict]]:
    """Run the passes of one benchmark run; return them by mode."""
    with open(os.path.join(tmp, "stdin.txt"), "wb") as handle:
        handle.write(workload.stdin)
    passes = {"warm-up": [], "off": [], "lat": [], "on": []}
    # The first pass writes the bytecode cache, which users pay once; it is
    # checked but not measured.
    schedule = ["off"]
    deadline = time.monotonic() + seconds
    rounds = 0
    while True:
        for mode in schedule:
            report = _spawn(tmp, mode, workload, sum(map(len, passes.values())))
            report["failed"] = check.failed_records(workload, report["exit"], report.pop("output"))
            passes[mode if rounds else "warm-up"].append(report)
        rounds += 1
        late = time.monotonic() >= deadline
        if late and len(passes["off"]) >= MIN_PASSES and passes["lat"]:
            return passes
        latency = rounds % LAT_EVERY == 0 or (late and not passes["lat"])
        schedule = ["off"] + ["on"] * trace + ["lat"] * latency


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gencong", "cli.py")):
        print(f"bench: no gencong sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = _load_spec()
    context = {"python": sys.version, "implementation": platform.python_implementation(),
               "nproc": os.cpu_count(), "loadavg_before": os.getloadavg(), "seed": args.seed}
    workload = workloads.generate(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        by_mode = measure(workload, args.seconds, bool(args.trace), tmp)
        untraced, traced = by_mode["off"], by_mode["on"]
        passes = [p for mode_passes in by_mode.values() for p in mode_passes]
        failed = sum(p["failed"] for p in passes)
        attempted = workload.records * len(passes)
        metrics, notes = end_to_end(untraced, by_mode["lat"], untraced + by_mode["lat"] + traced,
                                    workload)
        layers = {}
        if args.trace:
            layers = per_layer(traced, untraced)
            check_layers(workload, layers)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()

    print(f"bench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} plain, {len(by_mode['lat'])} latency, {len(traced)} traced, "
          f"1 warm-up")
    print("context: " + json.dumps(context))
    errors = [p["error"] for p in passes if p["error"]]
    if errors:
        print(f"gencong raised in {len(errors)} passes; the first:\n{errors[0]}")
    print(f"check: {attempted} records attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:g}")
    print("end-to-end (tracing off):")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit_of(name):<7} {notes[name]}")
    if args.trace:
        print(f"per-layer (traced, median of {len(traced)} passes):")
        for name, value in sorted(layers.items()):
            print(f"  {name:<36} {value:>14.6g} {unit_of(name)}")

    reported = layers if args.trace else metrics
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
