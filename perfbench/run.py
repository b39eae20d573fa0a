#!/usr/bin/env python3
"""End-to-end benchmark of what users of this repository wait on.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``campaign-cold``,
``campaign-warm``, ``serve-mixed`` and ``des-run``.  Each runs in this
one process; its load comes from this process alone.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` repeats that untraced measurement, then runs the same
number of operations again in a child process with every layer's public
functions wrapped (``tracer.py``), and reports the per-layer metrics
(``layers.py``), the tracing overhead, and whether the traced outputs
are byte-identical to the untraced ones.  The traced child leaves its
spans and its ledger under ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; units come from
``BENCHMARK.json``.  Diagnostics (environment, sample counts, digests)
go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Set-ups per run; setup_s reports their median (plus the import time).
SETUPS = 3
# Latency samples the timings rest on at least, so that ten lie beyond p90.
# A sample is one run's latency, or a campaign's mean over ``interval`` runs.
MIN_SAMPLES = 110
# The timed loop is cut into blocks of consecutive runs at least this
# long; each block's latencies are scaled by the probes taken around it.
BLOCK_S = 1.0
# Timings are reported as on a host where the probe takes this long.
PROBE_REF_S = 0.0065
# The traced child may take this many times the untraced run's wall
# time (set-ups, loop and checks), and at least CHILD_TIMEOUT_MIN_S.
CHILD_TIMEOUT_FACTOR = 5
CHILD_TIMEOUT_MIN_S = 60


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-tests")
    # Internal: the traced child of a --trace 1 run.
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fstype(path: Path) -> str:
    """The file system type of the mount holding ``path`` (fsync cost depends on it)."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1].replace("\\040", " ")
        inside = real == mount or real.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def environment(scratch: Path) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scratch_fs": _fstype(scratch),
    }


def measure(
    workload: Any, seed: int, seconds: float, ops: int | None = None, tracer: Any = None, probe: Any = None
) -> dict[str, Any]:
    """Set up ``SETUPS`` times, then run the timed loop and the checks.

    The loop runs for ``seconds`` (and until ``MIN_SAMPLES`` latency
    samples exist), or exactly ``ops`` operations when given.  With a
    ``tracer``, spans are tagged ``setup<k>``, ``teardown<k>``,
    ``op<i>``, ``settle<i>`` and ``check``.  With a ``probe`` (the
    untraced run), the host speed is probed around every set-up and
    throughout the loop.
    """

    def tag(run_id: str) -> None:
        if tracer is not None:
            tracer.run_id = run_id

    began = time.perf_counter()
    setups, setup_windows, setup_probes = [], [], []
    for k in range(SETUPS):
        # Earlier set-ups use derived seeds, so every set-up compiles
        # and builds engine contexts from scratch; the last uses the
        # run's seed and is the one the loop runs on.
        seed_k = seed if k == SETUPS - 1 else seed + 7919 * (SETUPS - k)
        if k:
            tag(f"teardown{k}")
            workload.close()  # the previous set-up's server, untimed
        tag(f"setup{k}")
        before = probe() if probe else 0.0
        t0 = time.perf_counter()
        workload.setup(k, seed_k)
        t1 = time.perf_counter()
        setups.append(t1 - t0)
        setup_windows.append((t0, t1))
        if probe:
            setup_probes.append((before + probe()) / 2)

    before = workload.counters()
    workload.probing = probe is not None
    workload.probe_if_due(force=True)
    windows, loop_ids, op_runs, i = [], [], [], 0
    start = time.perf_counter()
    while True:
        if ops is not None:
            if i >= ops:
                break
        elif time.perf_counter() - start >= seconds and len(workload.latencies) >= MIN_SAMPLES * workload.interval:
            break
        tag(f"op{i}")
        t0 = time.perf_counter()
        op_runs.append(workload.op(i))
        t1 = time.perf_counter()
        windows.append((t0, t1))
        loop_ids.append(f"op{i}")
        tag(f"settle{i}")
        workload.settle(i)
        workload.probe_if_due()
        i += 1
    workload.probe_if_due(force=True)
    after = workload.counters()

    tag("check")
    problems = workload.check()
    return {
        "ops": i,
        "wall_s": time.perf_counter() - began,
        "runs": sum(op_runs),
        "op_runs": op_runs,
        "windows": windows,
        "loop_ids": loop_ids,
        # The runs' own time: probes inside an operation are left out.
        "loop_s": sum(workload.latencies),
        "setup_times": setups,
        "setup_windows": setup_windows,
        "setup_probes": setup_probes,
        "latencies": list(workload.latencies),
        "epochs": list(workload.epochs),
        "probes": list(workload.probes),
        "cycle": workload.cycle,
        "interval": workload.interval,
        "problems": problems,
        "digest": workload.digest(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "jsonl_bytes": workload.jsonl_bytes,
        "cache_delta": {key: after["cache"][key] - before["cache"].get(key, 0) for key in after["cache"]},
        "tier_delta": {key: after["tiers"][key] - before["tiers"].get(key, 0) for key in after["tiers"]},
        **{key: after[key] - before[key] for key in ("shed", "retries", "fallbacks") if key in after},
    }


def blocks(latencies: list[float], cycle: int = 1) -> list[list[float]]:
    """Consecutive runs grouped into blocks of whole ``cycle``-run
    stretches lasting at least ``BLOCK_S`` (a short tail joins the last
    block).

    Every workload's latency samples tile its operations' timed windows
    (one sample per run), so a block can end inside an operation that
    completes many runs, such as a whole campaign.  A workload's cycle is
    the stretch of runs over which its mix repeats, so every block holds
    the same mix and blocks differ in speed only through the host.
    """
    out: list[list[float]] = []
    for start in range(0, len(latencies), cycle):
        if not out or sum(out[-1]) >= BLOCK_S:
            out.append([])
        out[-1] += latencies[start:start + cycle]
    if len(out) > 1 and sum(out[-1]) < BLOCK_S:
        tail = out.pop()
        out[-1] += tail
    return out


def normalized(result: dict[str, Any]) -> list[list[float]]:
    """The loop's blocks of per-run latencies as on a host where the
    probe takes ``PROBE_REF_S``: each block's latencies scaled by the
    median of the probes taken within and right around it.

    A shared host's speed drifts and flips between states for seconds
    at a time, and raw wall time reads that as much as the program.  The
    probe, a fixed kernel of the benchmark's own, slows with the host,
    and a block of at least ``BLOCK_S`` holds about ten probes.
    """
    latencies, epochs, probes = result["latencies"], result["epochs"], result["probes"]
    out: list[list[float]] = []
    done = 0
    for block in blocks(latencies, result["cycle"]):
        first, last = epochs[done], epochs[done + len(block) - 1]
        scale = PROBE_REF_S / statistics.median(probes[max(first - 1, 0):last + 1])
        out.append([seconds * scale for seconds in block])
        done += len(block)
    return out


def end_to_end(result: dict[str, Any], import_s: float) -> dict[str, float]:
    scaled = normalized(result)
    runs = [seconds for block in scaled for seconds in block]
    n = result["interval"]
    samples_ms = [sum(runs[k:k + n]) / len(runs[k:k + n]) * 1e3 for k in range(0, len(runs), n)]
    scales = [PROBE_REF_S / p for p in result["setup_probes"]]
    return {
        "setup_s": import_s * scales[0] + statistics.median(t * s for t, s in zip(result["setup_times"], scales)),
        # The median block: a block the probes misjudged moves it little.
        "runs_per_s": statistics.median(len(block) / sum(block) for block in scaled),
        "latency_ms_p50": statistics.median(samples_ms),
        "latency_ms_p90": statistics.quantiles(samples_ms, n=10)[-1],
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced_child(args: argparse.Namespace, workloads: Any, scratch: Path) -> int:
    """Run ``args.ops`` operations with every layer wrapped; write the results."""
    from layers import per_layer
    from tracer import Tracer

    tracer = Tracer().install()
    workload = workloads.WORKLOADS[args.workload](scratch, args.tiny)
    try:
        result = measure(workload, args.seed, args.seconds, ops=args.ops, tracer=tracer)
    finally:
        workload.close()
        tracer.uninstall()
    metrics, document = per_layer(tracer, {**result, "setups": SETUPS})
    stem = f"{args.workload}-s{args.seed}"
    tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    document.update(
        workload=args.workload,
        seed=args.seed,
        ops=result["ops"],
        environment=environment(scratch),
        metrics=metrics,
    )
    (OUT / f"ledger-{stem}.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    args.child_out.write_text(
        json.dumps(
            {
                "metrics": metrics,
                "digest": result["digest"],
                "problems": result["problems"],
                "loop_s": result["loop_s"],
            }
        )
    )
    return 0


def _run_traced_child(args: argparse.Namespace, ops: int, untraced_s: float, scratch: Path) -> dict[str, Any]:
    out = scratch / "traced.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
        "--ops", str(ops),
        "--child-out", str(out),
    ] + (["--tiny"] if args.tiny else [])
    timeout = max(CHILD_TIMEOUT_MIN_S, CHILD_TIMEOUT_FACTOR * untraced_s)
    subprocess.run(command, cwd=ROOT, stdout=sys.stderr, check=True, timeout=timeout)
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.is_file():
        print("error: run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # Nothing may fall back to the user's cache directory.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        t0 = time.perf_counter()
        import workloads

        import_s = time.perf_counter() - t0
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        if args.child_out is not None:
            return _traced_child(args, workloads, scratch)

        workload = workloads.WORKLOADS[args.workload](scratch, args.tiny)
        try:
            result = measure(workload, args.seed, args.seconds, probe=workloads.probe)
        finally:
            workload.close()
        correct = not result["problems"]
        for problem in result["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "ops": result["ops"],
                    "runs": result["runs"],
                    "blocks": len(blocks(result["latencies"], result["cycle"])),
                    "import_s": import_s,
                    "setup_times": result["setup_times"],
                    "probes": len(result["probes"]),
                    "probe_ms_median": statistics.median(result["probes"]) * 1e3,
                    "unscaled_runs_per_s": len(result["latencies"]) / result["loop_s"],
                    "runs_per_latency_sample": result["interval"],
                    "latency_samples": -(-len(result["latencies"]) // result["interval"]),
                    "digest": result["digest"],
                    "environment": environment(scratch),
                }
            ),
            file=sys.stderr,
        )
        if args.trace:
            traced = _run_traced_child(args, result["ops"], result["wall_s"], scratch)
            metrics = traced["metrics"]
            metrics["trace_overhead_frac"] = traced["loop_s"] / result["loop_s"] - 1.0
            for problem in traced["problems"]:
                print(f"traced check failed: {problem}", file=sys.stderr)
            identical = traced["digest"] == result["digest"]
            if not identical:
                print("check failed: traced outputs differ from untraced outputs", file=sys.stderr)
            correct = correct and identical and not traced["problems"]
            section = bench["per_layer"]
        else:
            metrics = end_to_end(result, import_s)
            section = bench["end_to_end"]
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
