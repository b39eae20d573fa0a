"""The remote-execution client: retries, deadlines, graceful degradation.

:class:`RemoteClient` speaks the :mod:`repro.server.protocol` wire
format to an :class:`~repro.server.app.OrchestratorServer` and makes
the unreliable network look like the local service:

* **bounded retries with deterministic backoff** — transport faults
  (reset, timeout, torn frame) reconnect and retry up to
  ``max_attempts`` times, with the delay computed by the same seeded
  :meth:`~repro.orchestrator.supervise.SupervisionPolicy.backoff_s` the
  local supervisor uses (no ``random``, so campaigns stay replayable);
* **deadline awareness** — every operation carries an optional overall
  deadline; a retry that cannot finish before it is not attempted;
* **idempotent resubmission** — a retried submit of the same
  ``(fingerprint, rep)`` attaches to the server's existing job, so
  "did my submit land before the reset?" never needs an answer;
* **graceful degradation** — when the server stays unreachable past the
  retry budget and ``fallback`` is enabled, the run executes locally
  through :func:`repro.service.get_service` (one ``client.fallback``
  event), so a campaign outlives its server.

:class:`RemoteExecutor` adapts the client to the
:class:`~repro.methodology.runner.ProtocolRunner` executor contract —
the same merge logic then produces record stores byte-identical to a
local campaign's — and :func:`remote_run_specs` runs a sweep through
it, planned and compiled by the same
:func:`~repro.scenario.compile.compile_campaign` as a local
:func:`repro.experiments.common.run_specs` campaign.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .engine.base import EngineOptions
from .engine.result import RunResult, result_from_jsonable
from .errors import ExperimentError, ProtocolError, RemoteError
from .methodology.plan import ExperimentSpec
from .methodology.records import RecordStore
from .methodology.runner import ProtocolRunner
from .orchestrator.supervise import SupervisionPolicy
from .scenario import ScenarioSpec
from .scenario.compile import compile_campaign
from .server.protocol import check_version, message, recv_frame, send_frame
from .service import get_service
from .telemetry.bus import get_bus
from .telemetry.trace import root_context, trace_id_for, trace_scope

__all__ = ["RemoteClient", "RemoteExecutor", "remote_run_specs"]

# Default retry budget: generous enough to bridge a server SIGKILL +
# restart (seconds), small enough that a truly dead server fails over
# to local fallback promptly.
_DEFAULT_ATTEMPTS = 8


def _emit(event: str, **fields: Any) -> None:
    bus = get_bus()
    if bus.enabled:
        bus.emit(event, **fields)


class RemoteClient:
    """One connection-with-retries to an orchestrator server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: SupervisionPolicy | None = None,
        max_attempts: int = _DEFAULT_ATTEMPTS,
        deadline_s: float | None = None,
        fallback: bool = True,
        priority: str = "batch",
        io_timeout_s: float = 10.0,
        seed: int = 0,
    ):
        self.host = host
        self.port = int(port)
        self.policy = policy if policy is not None else SupervisionPolicy(
            backoff_base_s=0.1, backoff_cap_s=2.0
        )
        self.max_attempts = max(1, int(max_attempts))
        self.deadline_s = deadline_s
        self.fallback = bool(fallback)
        self.priority = priority
        self.io_timeout_s = float(io_timeout_s)
        self.seed = int(seed)
        self.session_id: str | None = None
        self._sock: socket.socket | None = None
        self.stats = {"retries": 0, "fallbacks": 0}

    # -- connection management ---------------------------------------------

    def connect(self) -> str:
        """Ensure a live session; returns its id (resumes across drops)."""
        if self._sock is not None:
            return self.session_id or ""
        sock = socket.create_connection((self.host, self.port), timeout=5.0)
        sock.settimeout(self.io_timeout_s)
        self._sock = sock
        hello = (
            message("hello", session=self.session_id)
            if self.session_id
            else message("hello")
        )
        reply = self._roundtrip(hello)
        if reply.get("type") != "welcome":
            self._drop()
            raise RemoteError(f"expected welcome, got {reply.get('type')!r}")
        self.session_id = str(reply.get("session"))
        return self.session_id

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._roundtrip(message("bye", session=self.session_id))
        except (RemoteError, OSError):
            pass
        self._drop()

    def __enter__(self) -> "RemoteClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, msg: dict[str, Any]) -> dict[str, Any]:
        """One send/recv on the live connection; drops it on any defect."""
        assert self._sock is not None
        try:
            send_frame(self._sock, msg)
            reply = recv_frame(self._sock)
        except (ProtocolError, OSError) as exc:
            self._drop()
            raise RemoteError(f"connection failed: {exc}") from exc
        if reply is None:
            self._drop()
            raise RemoteError("server closed the connection")
        check_version(reply)
        return reply

    # -- the retry engine --------------------------------------------------

    def _call(
        self,
        op: str,
        msg_fields: dict[str, Any],
        *,
        key: str,
        rep: int,
        deadline: float | None,
    ) -> dict[str, Any]:
        """Send one request with reconnect/backoff/busy handling."""
        last = "unreachable"
        for attempt in range(self.max_attempts):
            if deadline is not None and time.monotonic() >= deadline:
                raise RemoteError(f"{op} deadline exceeded after {attempt} attempts")
            try:
                self.connect()
                reply = self._roundtrip(
                    message(op, session=self.session_id, **msg_fields)
                )
            except (RemoteError, OSError) as exc:
                last = str(exc)
                self._retry_sleep(op, key, rep, attempt, "connection", deadline)
                continue
            if reply.get("type") == "busy":
                hint = float(reply.get("retry_after_s") or 0.0)
                last = f"busy ({reply.get('reason')})"
                self._retry_sleep(
                    op, key, rep, attempt, str(reply.get("reason") or "busy"),
                    deadline, floor=hint,
                )
                continue
            if reply.get("type") == "error":
                raise RemoteError(
                    f"{op} rejected: {reply.get('error')}: {reply.get('message')}"
                )
            return reply
        raise RemoteError(
            f"{op} failed after {self.max_attempts} attempts: {last}",
            retry_after_s=self.policy.backoff_cap_s,
        )

    def _retry_sleep(
        self,
        op: str,
        key: str,
        rep: int,
        attempt: int,
        reason: str,
        deadline: float | None,
        floor: float = 0.0,
    ) -> None:
        delay = max(
            floor, self.policy.backoff_s(f"client.{op}:{key}", rep, attempt, self.seed)
        )
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        self.stats["retries"] += 1
        _emit("client.retry", op=op, attempt=attempt + 1, delay_s=delay, reason=reason)
        if delay > 0:
            time.sleep(delay)

    # -- the public API ----------------------------------------------------

    def submit(
        self, scenario: ScenarioSpec, rep: int, deadline: float | None = None
    ) -> str:
        """Admit (or re-attach to) one job; returns its server-side state."""
        reply = self._call(
            "submit",
            {
                "spec": scenario.to_jsonable(),
                "rep": int(rep),
                "priority": self.priority,
                # Deterministic trace correlation (the server would mint
                # the identical id anyway; carrying it costs nothing).
                "trace": trace_id_for(scenario.fingerprint, rep),
            },
            key=scenario.fingerprint,
            rep=int(rep),
            deadline=deadline,
        )
        if reply.get("type") != "accepted":
            raise RemoteError(f"expected accepted, got {reply.get('type')!r}")
        return str(reply.get("state"))

    def wait(
        self,
        scenario: ScenarioSpec,
        rep: int,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Block until the job finishes; returns the ``result`` frame.

        Re-polls on ``pending``; a connection drop resubmits (idempotent)
        and keeps waiting.
        """
        fp = scenario.fingerprint
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise RemoteError(f"wait deadline exceeded for ({fp[:12]}, {rep})")
            try:
                reply = self._call(
                    "wait",
                    {
                        "job": fp,
                        "rep": int(rep),
                        "timeout_s": 5.0,
                        "trace": trace_id_for(fp, rep),
                    },
                    key=fp,
                    rep=int(rep),
                    deadline=deadline,
                )
            except RemoteError:
                # The server may have restarted and lost this job id from
                # memory ("unknown-job") or the transport gave out —
                # resubmission is free and re-anchors the job either way.
                self.submit(scenario, rep, deadline=deadline)
                continue
            if reply.get("type") == "result":
                return reply
            # "pending": loop and wait again.

    def run(self, scenario: ScenarioSpec, rep: int) -> RunResult:
        """Execute (or replay) one repetition remotely; fall back locally.

        The remote path is byte-identical to the local one: the server
        executes through the same service + cache, the result crosses
        the wire codec-normalized, and the returned engine events are
        replayed on the local bus exactly like a cache hit.
        """
        deadline = (
            time.monotonic() + self.deadline_s if self.deadline_s is not None else None
        )
        bus = get_bus()
        # The root "job" span covers the whole remote round-trip; the
        # "submit" child marks the client-side RPC leg.  Both contexts
        # derive purely from the job identity, so local and remote
        # executions of the same job share one trace.
        ctx = (
            root_context(scenario.fingerprint, rep)
            if bus.tracing
            else None
        )
        with trace_scope(ctx):
            if ctx is not None:
                with trace_scope(ctx.child("submit")):
                    _emit(
                        "job.submit",
                        job=scenario.fingerprint,
                        rep=int(rep),
                        attempt=0,
                    )
            try:
                self.submit(scenario, rep, deadline=deadline)
                frame = self.wait(scenario, rep, deadline=deadline)
            except RemoteError as exc:
                if not self.fallback:
                    raise
                self.stats["fallbacks"] += 1
                _emit(
                    "client.fallback",
                    job=scenario.fingerprint,
                    rep=int(rep),
                    reason=str(exc)[:200],
                )
                return get_service().run(scenario, rep)
            if frame.get("status") != "ok":
                raise ExperimentError(
                    f"remote run ({scenario.fingerprint[:12]}, rep {rep}) failed: "
                    f"{frame.get('error')}"
                )
            bus.replay(frame.get("events") or ())
            return result_from_jsonable(frame["result"])

    def ping(self) -> dict[str, Any]:
        """Heartbeat: renews the session lease, returns server stats."""
        return self._call("ping", {}, key="ping", rep=0, deadline=None)


@dataclass
class RemoteExecutor:
    """A :class:`~repro.methodology.runner.Executor` over a remote server.

    The mirror of :class:`~repro.service.ServiceExecutor`: planned specs
    map (by key) to compiled scenarios, execution goes through one
    :class:`RemoteClient`.  The unchanged ProtocolRunner merge logic on
    top produces record stores byte-identical to local campaigns.
    """

    scenarios: dict[str, ScenarioSpec] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 0
    max_attempts: int = _DEFAULT_ATTEMPTS
    deadline_s: float | None = None
    fallback: bool = True
    priority: str = "batch"
    seed: int = 0
    _client: RemoteClient | None = field(default=None, repr=False)

    def client(self) -> RemoteClient:
        if self._client is None:
            self._client = RemoteClient(
                self.host,
                self.port,
                max_attempts=self.max_attempts,
                deadline_s=self.deadline_s,
                fallback=self.fallback,
                priority=self.priority,
                seed=self.seed,
            )
        return self._client

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def __call__(self, spec: ExperimentSpec, rep: int) -> RunResult:
        scenario = self.scenarios.get(spec.key)
        if scenario is None:
            raise ExperimentError(f"no compiled scenario for planned spec {spec.key!r}")
        return self.client().run(scenario, rep)


def remote_run_specs(
    specs: Sequence[ExperimentSpec],
    host: str,
    port: int,
    repetitions: int = 100,
    seed: int = 0,
    options: EngineOptions = EngineOptions(),
    max_nodes: int = 32,
    builder: str = "standard",
    progress: Callable[[str], None] | None = None,
    on_error: str = "fail",
    checkpoint: Any = None,
    resume: bool = False,
    checkpoint_every: int = 10,
    max_attempts: int = _DEFAULT_ATTEMPTS,
    deadline_s: float | None = None,
    fallback: bool = True,
    priority: str = "batch",
) -> RecordStore:
    """Run a sweep remotely under the paper's exact protocol.

    The plan and the scenarios come from
    :func:`~repro.scenario.compile.compile_campaign`, as in
    :func:`repro.experiments.common.run_specs`; only the executor
    differs (a :class:`RemoteExecutor`), so the record store is
    byte-identical to a local campaign over the same specs and campaign
    knobs.
    """
    plan, scenarios = compile_campaign(
        specs, repetitions, seed=seed, options=options, max_nodes=max_nodes, builder=builder
    )
    executor = RemoteExecutor(
        scenarios=scenarios,
        host=host,
        port=int(port),
        max_attempts=max_attempts,
        deadline_s=deadline_s,
        fallback=fallback,
        priority=priority,
        seed=seed,
    )
    runner = ProtocolRunner(
        executor,
        on_error=on_error,
        checkpoint_path=checkpoint,
        checkpoint_every=checkpoint_every,
    )
    try:
        if resume and checkpoint is not None:
            return runner.resume(plan, progress=progress)
        return runner.run(plan, progress=progress)
    finally:
        executor.close()
