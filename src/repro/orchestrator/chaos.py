"""Chaos harness: inject real faults, prove the orchestrator absorbs them.

``repro chaos`` runs a small but real campaign (two scenarios through
the simulation service, four repetitions each) and attacks it with one
fault class at a time:

``worker-kill``         SIGKILL a worker process mid-run;
``worker-hang``         a worker falls asleep forever mid-run;
``process-kill``        SIGKILL the *campaign driver* mid-lease, then
                        resume from its checkpoint + journal;
``checkpoint-truncate`` tear the checkpoint file in half, then resume;
``cache-truncate``      corrupt result-cache entries under a warm run;
``cache-deny``          make the cache directory unusable (every open
                        fails with ``NotADirectoryError``);
``server-kill``         SIGKILL the orchestrator *server* subprocess
                        mid-campaign with a job journaled, restart it,
                        and let client retries bridge the gap;
``conn-reset``          hard-reset (RST) the client's TCP connection
                        mid-result-stream through a byte-level proxy;
``half-frame``          truncate a server->client frame mid-body, then
                        reset — the client holds a torn frame;
``slow-client``         a slow-loris client dribbles a request one byte
                        at a time; the server must evict it, not stall.

The verdict for every injection is the same two-part contract the rest
of the repo is built on: the campaign must still *complete*, and the
surviving record store must be **byte-identical** to an undisturbed
serial baseline.  Each injection also re-runs one (scenario, rep) pair
and compares its replay fingerprint against the pre-chaos value, so a
fault can't silently poison engine determinism either.

Faults are real — actual ``SIGKILL``, actual ``sleep``, actual torn
bytes on disk — not mocks.  One-shot injection across worker respawns
is coordinated through ``O_CREAT | O_EXCL`` sentinel files.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ChaosError
from repro.methodology.parallel import ParallelProtocolRunner
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.records import RecordStore
from repro.methodology.runner import ProtocolRunner
from repro.orchestrator.supervise import CircuitBreaker, SupervisionPolicy
from repro.scenario.compile import compile_scenario
from repro.service import ServiceExecutor, cache_stats, get_service
from repro.telemetry.bus import session
from repro.telemetry.events import validate_event
from repro.verify.replay import result_fingerprint

__all__ = ["INJECTIONS", "ChaosReport", "InjectionResult", "run_chaos"]

INJECTIONS = (
    "worker-kill",
    "worker-hang",
    "process-kill",
    "checkpoint-truncate",
    "cache-truncate",
    "cache-deny",
    "server-kill",
    "conn-reset",
    "half-frame",
    "slow-client",
)

# Tight supervision so injected hangs/crashes resolve in seconds: a
# real chaos run should finish in well under a minute.
_POLICY = SupervisionPolicy(
    run_timeout_s=5.0,
    heartbeat_s=0.1,
    max_retries=3,
    backoff_base_s=0.05,
    backoff_cap_s=0.2,
)


# -- the campaign under attack -----------------------------------------------------


def _campaign(seed: int) -> tuple[ExperimentPlan, dict]:
    """A small real campaign: 2 scenarios x 4 reps through the service."""
    specs = [
        ExperimentSpec("chaos", "scenario1", {"num_nodes": n, "stripe_count": 4})
        for n in (2, 4)
    ]
    scenarios = {s.key: compile_scenario(s, seed=seed, max_nodes=4) for s in specs}
    plan = ExperimentPlan.build(
        specs,
        ProtocolConfig(repetitions=4, block_size=2, min_wait_s=0, max_wait_s=0),
        seed=seed,
    )
    return plan, scenarios


def _executor(
    scenarios: dict, seed: int, cache: bool = False, cache_dir: str | None = None
) -> ServiceExecutor:
    return ServiceExecutor(
        scenarios=scenarios, cache=cache, cache_dir=cache_dir, seed=seed
    )


def _store_text(store: RecordStore, tmp: Path, name: str) -> str:
    path = Path(tmp) / f"{name}.json"
    store.write_json(path)
    return path.read_text()


def _probe_fingerprint(scenarios: dict) -> str:
    """Replay fingerprint of one (scenario, rep) pair, cache off."""
    scenario = scenarios[sorted(scenarios)[0]]
    return result_fingerprint(get_service().run(scenario, 0, cache=False))


def _reset_breaker() -> None:
    # Injections that abuse the cache leave the process-wide service
    # breaker open; give the next injection a closed one.  Remote tier
    # state (connections, the remote breaker) is dropped too.
    get_service().breaker = CircuitBreaker()
    get_service().reset_tiers()


# -- fault-injecting executors -----------------------------------------------------


class FaultingExecutor:
    """Wraps a real executor; the first run matching ``victim_rep`` faults.

    The sentinel file is claimed with ``O_CREAT | O_EXCL`` so exactly
    one process — across worker respawns and retries — takes the fault;
    every later attempt of the same (spec, rep) executes normally.
    """

    def __init__(
        self,
        inner: ServiceExecutor,
        mode: str,
        sentinel: str,
        victim_rep: int = 1,
        hang_s: float = 3600.0,
    ):
        self.inner = inner
        self.mode = mode
        self.sentinel = sentinel
        self.victim_rep = victim_rep
        self.hang_s = hang_s

    def _claim(self) -> bool:
        try:
            fd = os.open(self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def __call__(self, spec, rep):
        if rep == self.victim_rep and self._claim():
            if self.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(self.hang_s)
        return self.inner(spec, rep)


class _KillDriverExecutor:
    """Kills its *own process* on the Nth call — used by the subprocess
    driver so the whole campaign dies mid-lease, deterministically."""

    def __init__(self, inner: ServiceExecutor, kill_on_call: int):
        self.inner = inner
        self.kill_on_call = kill_on_call
        self.calls = 0

    def __call__(self, spec, rep):
        self.calls += 1
        if self.calls == self.kill_on_call:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner(spec, rep)


def _driver_main(checkpoint: str, seed: str | int = 0) -> None:
    """Entry point for the process-kill subprocess driver.

    Runs the chaos campaign *serially* with per-run checkpoints and an
    executor that SIGKILLs the process on its third call — so the
    campaign dies with exactly two records checkpointed and the third
    job leased in the journal.
    """
    plan, scenarios = _campaign(int(seed))
    runner = ProtocolRunner(
        _KillDriverExecutor(_executor(scenarios, int(seed)), kill_on_call=3),
        checkpoint_path=checkpoint,
        checkpoint_every=1,
    )
    runner.run(plan)


# -- injections --------------------------------------------------------------------


class _Checks:
    """Accumulates named pass/fail checks for one injection."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, label: str) -> None:
        (self.notes if ok else self.problems).append(
            label if ok else f"FAILED: {label}"
        )

    @property
    def ok(self) -> bool:
        return not self.problems

    def detail(self) -> str:
        return "; ".join(self.problems if self.problems else self.notes)


def _inject_worker_fault(
    mode: str, plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    checks = _Checks()
    executor = FaultingExecutor(
        _executor(scenarios, seed), mode=mode, sentinel=str(tmp / "fault.sentinel")
    )
    runner = ParallelProtocolRunner(
        executor, n_workers=workers, seed=seed, policy=_POLICY
    )
    store = runner.run(plan)
    checks.expect(len(store) == plan.num_runs, f"all {plan.num_runs} runs recorded")
    checks.expect(
        _store_text(store, tmp, mode) == baseline, "store byte-identical to baseline"
    )
    requeues = runner.supervision_stats["requeues"]
    checks.expect(requeues >= 1, f"fault requeued (requeues={requeues})")
    return checks


def _inject_process_kill(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    checks = _Checks()
    ckpt = tmp / "campaign.json"
    code = (
        "import sys\n"
        "from repro.orchestrator.chaos import _driver_main\n"
        "_driver_main(sys.argv[1], sys.argv[2])\n"
    )
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ckpt), str(seed)],
        env=env,
        capture_output=True,
        timeout=180,
    )
    checks.expect(
        proc.returncode == -signal.SIGKILL,
        f"driver died by SIGKILL (rc={proc.returncode})",
    )
    partial = RecordStore.read_json(ckpt)
    checks.expect(
        len(partial) == 2, f"checkpoint holds 2 pre-kill records ({len(partial)})"
    )
    checks.expect(
        Path(str(ckpt) + ".journal").exists(), "journal survives the dead driver"
    )
    runner = ParallelProtocolRunner(
        _executor(scenarios, seed),
        n_workers=workers,
        seed=seed,
        policy=_POLICY,
        checkpoint_path=ckpt,
        checkpoint_every=1,
    )
    store = runner.resume(plan)
    reclaimed = runner.supervision_stats["reclaimed"]
    checks.expect(reclaimed >= 1, f"dead owner's lease reclaimed ({reclaimed})")
    checks.expect(len(store) == plan.num_runs, f"all {plan.num_runs} runs recorded")
    checks.expect(
        _store_text(store, tmp, "pk") == baseline, "store byte-identical to baseline"
    )
    checks.expect(
        not Path(str(ckpt) + ".journal").exists(),
        "journal removed after clean completion",
    )
    return checks


def _inject_checkpoint_truncate(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    checks = _Checks()
    ckpt = tmp / "campaign.json"
    ProtocolRunner(
        _executor(scenarios, seed), checkpoint_path=ckpt, checkpoint_every=1
    ).run(plan)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    checks.expect(len(ckpt.read_bytes()) < len(blob), "checkpoint torn in half")
    runner = ParallelProtocolRunner(
        _executor(scenarios, seed),
        n_workers=workers,
        seed=seed,
        policy=_POLICY,
        checkpoint_path=ckpt,
    )
    store = runner.resume(plan)
    checks.expect(
        len(store) == plan.num_runs, "resume degraded to a fresh store and re-ran"
    )
    checks.expect(
        _store_text(store, tmp, "ct") == baseline, "store byte-identical to baseline"
    )
    return checks


def _inject_cache_truncate(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    checks = _Checks()
    cache_dir = tmp / "cache"
    cold = ProtocolRunner(
        _executor(scenarios, seed, cache=True, cache_dir=str(cache_dir))
    ).run(plan)
    checks.expect(
        _store_text(cold, tmp, "cold") == baseline,
        "cold cached run byte-identical to baseline",
    )
    entries = sorted(cache_dir.glob("*/*/*.json"))
    checks.expect(len(entries) >= 2, f"cache populated ({len(entries)} entries)")
    if len(entries) >= 2:
        blob = entries[0].read_bytes()
        entries[0].write_bytes(blob[: len(blob) // 2])
        entries[1].write_text('{"torn":')
    before = cache_stats()
    warm = ParallelProtocolRunner(
        _executor(scenarios, seed, cache=True, cache_dir=str(cache_dir)),
        n_workers=workers,
        seed=seed,
        policy=_POLICY,
    ).run(plan)
    delta = {k: v - before.get(k, 0) for k, v in cache_stats().items()}
    checks.expect(
        _store_text(warm, tmp, "warm") == baseline,
        "warm run over torn cache byte-identical to baseline",
    )
    checks.expect(
        delta.get("miss", 0) >= 2,
        f"torn entries re-executed as misses (misses={delta.get('miss', 0)})",
    )
    return checks


def _inject_cache_deny(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    checks = _Checks()
    # A cache root *under a regular file*: every open in it raises
    # NotADirectoryError (an OSError), even when running as root —
    # chmod-based denial is a no-op for uid 0.
    denyfile = tmp / "denyfile"
    denyfile.write_text("not a directory\n")
    cache_dir = str(denyfile / "cache")
    before = cache_stats()
    serial = ProtocolRunner(
        _executor(scenarios, seed, cache=True, cache_dir=cache_dir)
    ).run(plan)
    delta = {k: v - before.get(k, 0) for k, v in cache_stats().items()}
    checks.expect(
        _store_text(serial, tmp, "deny-serial") == baseline,
        "serial campaign completed byte-identical under cache denial",
    )
    checks.expect(
        delta.get("error", 0) >= 1, f"cache faults counted ({delta.get('error', 0)})"
    )
    checks.expect(
        delta.get("degraded", 0) >= 1,
        f"breaker opened, runs degraded to cache-off ({delta.get('degraded', 0)})",
    )
    _reset_breaker()
    before = cache_stats()
    parallel = ParallelProtocolRunner(
        _executor(scenarios, seed, cache=True, cache_dir=cache_dir),
        n_workers=workers,
        seed=seed,
        policy=_POLICY,
    ).run(plan)
    delta = {k: v - before.get(k, 0) for k, v in cache_stats().items()}
    checks.expect(
        _store_text(parallel, tmp, "deny-par") == baseline,
        f"parallel ({workers}w) campaign completed byte-identical under denial",
    )
    checks.expect(
        delta.get("error", 0) >= 1,
        f"worker cache faults shipped back ({delta.get('error', 0)})",
    )
    return checks


# -- network injections (the orchestrator server under attack) ---------------------


def _remote_campaign(plan, scenarios, port: int, seed: int, **client_kw):
    """Run the chaos campaign against a server; returns (store, client stats)."""
    from repro.client import RemoteExecutor

    executor = RemoteExecutor(
        scenarios=scenarios,
        host="127.0.0.1",
        port=port,
        seed=seed,
        fallback=False,  # a masked fault must fail loudly, not run locally
        **client_kw,
    )
    try:
        store = ProtocolRunner(executor).run(plan)
        stats = dict(executor.client().stats)
    finally:
        executor.close()
    return store, stats


def _count_admits(events) -> int:
    return sum(1 for e in events if e.get("event") == "server.admit")


def _free_port() -> int:
    import socket as socketlib

    with socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM) as s:
        s.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


def _start_serve(port: int, state: Path, telemetry: Path) -> subprocess.Popen:
    """A ``repro serve`` subprocess; blocks until it prints its banner."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state),
            "--port",
            str(port),
            "--telemetry",
            str(telemetry),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    banner = proc.stdout.readline() if proc.stdout else ""
    if "serving on" not in banner:
        proc.kill()
        raise ChaosError(f"serve subprocess failed to start: {banner!r}")
    return proc


class _KillServerExecutor:
    """Wraps a RemoteExecutor; on the Nth run it journals a submit on the
    server, SIGKILLs the server subprocess, and restarts it — so the WAL
    holds an unfinished job and client retries must bridge the outage."""

    def __init__(self, inner, holder: dict, kill_on_call: int = 3):
        self.inner = inner
        self.holder = holder
        self.kill_on_call = kill_on_call
        self.calls = 0

    def __call__(self, spec, rep):
        self.calls += 1
        if self.calls == self.kill_on_call and not self.holder.get("killed"):
            scenario = self.inner.scenarios[spec.key]
            self.inner.client().submit(scenario, rep)  # journaled server-side
            self.holder["killed"] = True
            proc = self.holder["proc"]
            proc.kill()
            self.holder["first_rc"] = proc.wait(timeout=30)
            self.holder["proc"] = self.holder["restart"]()
        return self.inner(spec, rep)


def _inject_server_kill(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    from repro.client import RemoteExecutor

    checks = _Checks()
    state = tmp / "server-state"
    telemetry = tmp / "server.jsonl"
    port = _free_port()
    holder: dict = {"restart": lambda: _start_serve(port, state, telemetry)}
    holder["proc"] = holder["restart"]()
    inner = RemoteExecutor(
        scenarios=scenarios,
        host="127.0.0.1",
        port=port,
        seed=seed,
        fallback=False,
        max_attempts=30,  # generous: must outlast the ~1s restart window
    )
    try:
        store = ProtocolRunner(_KillServerExecutor(inner, holder)).run(plan)
        stats = dict(inner.client().stats)
    finally:
        inner.close()
        proc = holder.get("proc")
    checks.expect(
        holder.get("first_rc") == -signal.SIGKILL,
        f"server died by SIGKILL mid-campaign (rc={holder.get('first_rc')})",
    )
    checks.expect(len(store) == plan.num_runs, f"all {plan.num_runs} runs recorded")
    checks.expect(
        _store_text(store, tmp, "server-kill") == baseline,
        "store byte-identical to baseline across the restart",
    )
    checks.expect(
        stats.get("retries", 0) >= 1,
        f"client retries bridged the outage (retries={stats.get('retries', 0)})",
    )
    # Graceful drain: SIGTERM must finish the tail and exit 0.
    if proc is not None and proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait(timeout=10)
        checks.expect(rc == 0, f"SIGTERM drained and exited 0 (rc={rc})")
    # Idempotency across both server generations: the telemetry file is
    # appended by both processes; each unique (fingerprint, rep) may be
    # admitted exactly once, resubmissions and recovery notwithstanding.
    admits = 0
    try:
        import json as jsonlib

        for line in telemetry.read_text().splitlines():
            if line.strip() and jsonlib.loads(line).get("event") == "server.admit":
                admits += 1
    except OSError:
        pass
    checks.expect(
        admits == plan.num_runs,
        f"each job admitted exactly once across restart (admits={admits})",
    )
    return checks


def _inject_proxy_fault(
    mode: str, plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    from repro.server import ServerConfig
    from repro.server.netchaos import ChaosProxy, serve_in_thread
    from repro.telemetry.bus import RingBufferSink, get_bus

    checks = _Checks()
    config = ServerConfig(
        state_dir=tmp / "state", workers=2, io_timeout_s=5.0, wait_cap_s=5.0
    )
    ring = RingBufferSink(65536)
    bus = get_bus()
    bus.attach(ring)
    try:
        with serve_in_thread(config) as server:
            # Fault after ~300 forwarded server->client bytes: past the
            # welcome and accepted frames, inside the first result frame.
            with ChaosProxy(server.port, mode=mode, fault_after_bytes=300) as proxy:
                store, stats = _remote_campaign(
                    plan, scenarios, proxy.port, seed, max_attempts=10
                )
                faulted = proxy.faulted
    finally:
        bus.detach(ring)
    checks.expect(faulted, f"proxy injected the {mode} fault")
    checks.expect(len(store) == plan.num_runs, f"all {plan.num_runs} runs recorded")
    checks.expect(
        _store_text(store, tmp, mode) == baseline,
        "store byte-identical to baseline through the fault",
    )
    checks.expect(
        stats.get("retries", 0) >= 1,
        f"client retried through the fault (retries={stats.get('retries', 0)})",
    )
    admits = _count_admits(ring.events)
    checks.expect(
        admits == plan.num_runs,
        f"resubmissions were idempotent (admits={admits})",
    )
    return checks


def _inject_slow_client(
    plan, scenarios, baseline: str, workers: int, seed: int, tmp: Path
) -> _Checks:
    import threading

    from repro.server import ServerConfig
    from repro.server.netchaos import serve_in_thread, slow_loris

    checks = _Checks()
    # A read deadline far below the loris's dribble rate: the server must
    # cut the connection instead of pinning a handler thread on it.
    config = ServerConfig(
        state_dir=tmp / "state", workers=2, io_timeout_s=0.3, wait_cap_s=5.0
    )
    outcome: dict = {}

    with serve_in_thread(config) as server:

        def _loris() -> None:
            sent, evicted = slow_loris(server.port, dribble_s=0.8)
            outcome.update(sent=sent, evicted=evicted)

        attacker = threading.Thread(target=_loris, daemon=True)
        attacker.start()
        store, _stats = _remote_campaign(
            plan, scenarios, server.port, seed, max_attempts=10
        )
        attacker.join(timeout=60)
    checks.expect(
        outcome.get("evicted") is True,
        f"slow-loris evicted by the read deadline (sent {outcome.get('sent')} bytes)",
    )
    checks.expect(
        len(store) == plan.num_runs,
        f"campaign unaffected by the loris ({len(store)} runs)",
    )
    checks.expect(
        _store_text(store, tmp, "slow") == baseline,
        "store byte-identical to baseline",
    )
    return checks


_RUNNERS: dict[str, Callable] = {
    "worker-kill": lambda *a: _inject_worker_fault("kill", *a),
    "worker-hang": lambda *a: _inject_worker_fault("hang", *a),
    "process-kill": _inject_process_kill,
    "checkpoint-truncate": _inject_checkpoint_truncate,
    "cache-truncate": _inject_cache_truncate,
    "cache-deny": _inject_cache_deny,
    "server-kill": _inject_server_kill,
    "conn-reset": lambda *a: _inject_proxy_fault("reset", *a),
    "half-frame": lambda *a: _inject_proxy_fault("truncate", *a),
    "slow-client": _inject_slow_client,
}


# -- report ------------------------------------------------------------------------


@dataclass
class InjectionResult:
    kind: str
    ok: bool
    detail: str


@dataclass
class ChaosReport:
    results: list[InjectionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def render(self) -> str:
        lines = ["chaos harness:"]
        for r in self.results:
            mark = "ok" if r.ok else "FAIL"
            lines.append(f"  [{mark:>4}] {r.kind}: {r.detail}")
        survived = sum(1 for r in self.results if r.ok)
        lines.append(f"{survived}/{len(self.results)} injections survived")
        return "\n".join(lines)


def run_chaos(
    workers: int = 4,
    seed: int = 0,
    only: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run every (or the selected) fault injection; see module docstring."""
    kinds = tuple(only) if only else INJECTIONS
    unknown = [k for k in kinds if k not in INJECTIONS]
    if unknown:
        raise ChaosError(
            f"unknown injection(s) {unknown}; choose from {list(INJECTIONS)}"
        )
    if workers < 1:
        raise ChaosError(f"workers must be >= 1, got {workers}")

    report = ChaosReport()
    note = progress if progress is not None else (lambda msg: None)
    plan, scenarios = _campaign(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        tmp = Path(tmpdir)
        note("building undisturbed serial baseline")
        baseline = _store_text(
            ProtocolRunner(_executor(scenarios, seed)).run(plan), tmp, "baseline"
        )
        baseline_fp = _probe_fingerprint(scenarios)
        for kind in kinds:
            note(f"injecting {kind}")
            with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{kind}-") as sub:
                with session(ring=65536) as bus:
                    bus.emit("chaos.inject", kind=kind, target=str(sub))
                    try:
                        checks = _RUNNERS[kind](
                            plan, scenarios, baseline, workers, seed, Path(sub)
                        )
                    except Exception as exc:  # a fault escaped containment
                        checks = _Checks()
                        checks.expect(
                            False, f"campaign survived ({type(exc).__name__}: {exc})"
                        )
                    checks.expect(
                        _probe_fingerprint(scenarios) == baseline_fp,
                        "replay fingerprint unchanged",
                    )
                    bad_events = [
                        p for e in bus.ring.events for p in validate_event(e)
                    ]
                    checks.expect(
                        not bad_events,
                        f"telemetry schema-clean ({len(bad_events)} problems)",
                    )
                    bus.emit(
                        "chaos.verdict",
                        kind=kind,
                        ok=checks.ok,
                        detail=checks.detail()[:500],
                    )
            _reset_breaker()
            report.results.append(InjectionResult(kind, checks.ok, checks.detail()))
            note(f"{kind}: {'survived' if checks.ok else 'FAILED'}")
    return report
