"""Self-tests of the benchmark: span arithmetic, wrappers, metric coverage.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import UNATTRIBUTED, Span, Tracer, ledger, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
MAIN, WORKER = 1, 2


def _span(id, parent, layer, start, end, thread=MAIN, blocking=False):
    return Span(id, parent, f"{layer}.call", layer, blocking, thread, "op0", start, end)


def _tree(blocking_b: bool = False) -> list[Span]:
    """main: a[0,10] > (b[1,4] > c[2,3]), b[5,6];  worker: e[3.5,8]."""
    return [
        _span(1, None, "a", 0.0, 10.0),
        _span(2, 1, "b", 1.0, 4.0, blocking=blocking_b),
        _span(3, 2, "c", 2.0, 3.0),
        _span(4, 1, "b", 5.0, 6.0),
        _span(5, None, "e", 3.5, 8.0, thread=WORKER),
    ]


def test_self_time_subtracts_children():
    assert self_times(_tree()) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 4.5})


def test_ledger_splits_busy_threads_and_sums_to_wall():
    totals = ledger(_tree(), [(0.0, 12.0)], MAIN)
    assert totals == pytest.approx({"a": 4.5, "b": 2.25, "c": 1.0, "e": 2.25, UNATTRIBUTED: 2.0})
    assert sum(totals.values()) == pytest.approx(12.0)


def test_blocking_span_yields_to_a_busy_thread():
    totals = ledger(_tree(blocking_b=True), [(0.0, 12.0)], MAIN)
    # During [3.5, 4] the main thread waits in b while the worker runs e.
    assert totals == pytest.approx({"a": 4.5, "b": 2.0, "c": 1.0, "e": 2.5, UNATTRIBUTED: 2.0})
    assert sum(totals.values()) == pytest.approx(12.0)


def test_ledger_counts_only_the_windows():
    totals = ledger(_tree(), [(0.0, 2.0), (9.0, 11.0)], MAIN)
    assert totals == pytest.approx({"a": 2.0, "b": 1.0, UNATTRIBUTED: 1.0})


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()

    def nest(depth: int) -> None:
        span = tracer.begin(f"d{depth}", "x")
        if depth:
            nest(depth - 1)
        tracer.end(span)

    worker = threading.Thread(target=nest, args=(2,))
    worker.start()
    nest(1)
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == 5
    for span in tracer.spans:
        if span.parent is not None:
            assert by_id[span.parent].thread == span.thread
    own = self_times(tracer.spans)
    windows = [(min(s.start for s in tracer.spans), max(s.end for s in tracer.spans))]
    totals = ledger(tracer.spans, windows, tracer.main_thread)
    assert sum(totals.values()) == pytest.approx(windows[0][1] - windows[0][0])
    assert all(value >= -1e-9 for value in own.values())


def test_install_wraps_everywhere_and_uninstall_restores():
    import repro.engine.des_runner as des_runner
    import repro.netsim.maxmin as maxmin
    import repro.service as service

    original = maxmin.max_min_rates
    registered = dict(service._BUILDERS)
    fsync = os.fsync
    tracer = Tracer().install()
    try:
        assert maxmin.max_min_rates is not original
        assert des_runner.max_min_rates is maxmin.max_min_rates
        rates = maxmin.max_min_rates([[0], [0, 1]], [10.0, 4.0])
    finally:
        tracer.uninstall()
    assert maxmin.max_min_rates is original and des_runner.max_min_rates is original
    assert os.fsync is fsync and "sendall" not in vars(socket.socket)
    assert dict(service._BUILDERS) == registered
    # The one-shot solver's inner persistent solve is not a span of its own.
    assert [s.name for s in tracer.spans] == ["maxmin.max_min_rates"]
    assert list(rates) == pytest.approx(list(original([[0], [0, 1]], [10.0, 4.0])))


def test_blocks_tile_the_loop_in_whole_cycles():
    import run

    # A short tail joins the last block.
    assert [len(b) for b in run.blocks([0.6, 0.6, 1.0, 0.3])] == [2, 2]
    # Blocks hold whole cycles: two 0.75 s cycles of three runs each.
    assert [len(b) for b in run.blocks([0.25] * 12, cycle=3)] == [6, 6]


def test_timings_are_scaled_by_the_probes_around_each_block():
    import run

    ref = run.PROBE_REF_S
    # Two one-second blocks of 0.25 s runs; a probe before, between and
    # after them: the host ran at half speed during the second block.
    result = {
        "latencies": [0.25] * 8,
        "epochs": [1] * 4 + [2] * 4,
        "probes": [ref, ref, 2 * ref],
        "cycle": 1,
    }
    scaled = run.normalized(result)
    assert [len(block) for block in scaled] == [4, 4]
    assert scaled[0] == pytest.approx([0.25] * 4) and scaled[1] == pytest.approx([0.25 / 1.5] * 4)
    # Probe counts are medians, so one disturbed probe among many is ignored.
    result = {"latencies": [0.1] * 10, "epochs": list(range(1, 11)), "probes": [ref] * 10 + [9 * ref], "cycle": 1}
    assert run.normalized(result) == [pytest.approx([0.1] * 10)]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload: str, trace: int):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr[-3000:]
    assert out["attempted"] >= 1 and out["failed"] == 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in section}
    for metric in section:
        assert metric["better"] in ("lower", "higher")
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        document = json.loads((ROOT / ".perfbench" / f"ledger-{workload}-s5.json").read_text())
        assert document["loop"]["layers_sum_s"] == pytest.approx(document["loop"]["wall_s"], rel=1e-9)
        metrics = {name: m["value"] for name, m in out["metrics"].items()}
        shares = sum(v for name, v in metrics.items() if name.startswith("ledger.")) + metrics["unattributed_frac"]
        assert shares == pytest.approx(1.0, rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
