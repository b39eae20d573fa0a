"""The four workloads: what users of this repository wait on.

Every workload has one shape, driven by ``run.py``:

* ``setup(k, seed)`` builds everything the first timed operation needs
  (scenario compilation, plan, engine contexts, and what the workload
  adds).  It runs several times per benchmark run, each time from
  scratch; the last set-up is the one the loop uses;
* ``op(i)`` is one timed operation; it returns the runs it completed
  and records one latency (seconds) per run; ``cycle`` is the number of
  runs over which the workload's mix repeats, and ``interval`` the
  number of runs one latency sample averages over;
* ``probe_if_due()`` times the host-speed probe (``probe``) when one is
  due; ``run.py`` calls it between operations, and a campaign also
  between checkpoint intervals, outside the latencies it records;
* ``settle(i)`` does the operation's bookkeeping outside the timed
  window (digests, clean-up);
* ``check()`` verifies the outputs and returns the problems found, and
  ``digest()`` summarises them, so that a traced and an untraced run of
  the same operations can be compared byte for byte;
* ``close()`` stops everything the workload started.

Inputs derive from the seed alone, and everything is written under the
``scratch`` directory ``run.py`` hands in.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any

import numpy as np

from repro import cache as cache_pkg
from repro import service as service_mod
from repro.client import RemoteClient
from repro.engine.result import result_to_jsonable
from repro.experiments import common, exp_stripecount
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.scenario import compile as compile_mod
from repro.server.app import ServerConfig
from repro.server.netchaos import serve_in_thread
from repro.telemetry.bus import session
from repro.verify.replay import result_fingerprint

# Repetitions of each of the 16 fig6 configurations in one campaign:
# 320 runs.  From 20 repetitions on, ``run_specs`` takes the paper
# protocol's branch (block waits on the simulated clock), and the
# checkpoint, rewritten whole every 10 runs, grows to 320 records.
CAMPAIGN_REPS = 20
# The runner's default checkpoint interval.  A campaign's latency sample
# is the mean run spacing over one interval, which holds one checkpoint
# rewrite: per-run samples would give a tenth of the runs the rewrite, so
# p90 would sit on the edge between the two groups.
CHECKPOINT_EVERY = 10
# Server worker threads of serve-mixed (at most nproc).
SERVE_WORKERS = 2
# serve-mixed resubmits an already finished (spec, rep) at REPEATS of
# every GROUP jobs (seeded positions), and sends new jobs in seeded
# rounds over all fig6 configurations, so every seed offers the same
# mix.  40% stays off 50% so the latency median sits inside the miss
# population instead of on the edge between the hit and miss modes.
GROUP = 5
REPEATS = 2
# Distinct serve-mixed jobs re-executed locally by check().
SERVE_CHECKED = 24
# serve-mixed restarts its server (outside the timed window) after this
# many jobs, so the server's job table and result-cache memory tier stay
# bounded: peak memory then depends on this size, not on how many jobs a
# run completes.
SERVE_GENERATION = 600
# DES conformance-scale grid: scenario x (nodes, stripe count).  Two
# thirds of the runs use 2 nodes (30-50 ms each on a 2-CPU host), one
# third 4 nodes (45-85 ms), so the latency median lies inside the 2-node
# group and p90 inside the 4-node group, never on the gap between them.
DES_GRID = tuple(
    (scenario, nodes, stripe)
    for scenario in ("scenario1", "scenario2")
    for nodes, stripe in ((2, 1), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8))
)
DES_PPN = 4
DES_GIB = 0.0625  # 64 MiB per run
DES_REPS = 4
# The host-speed probe runs at most this often during the timed loop.
PROBE_EVERY_S = 0.1
# The probe's random reads: 2^17 of them from 8 MiB, twice a core's L2.
_GATHER_FROM = np.random.default_rng(0).random(1 << 20)
_GATHER_AT = np.random.default_rng(1).integers(0, 1 << 20, 1 << 17)


def probe() -> float:
    """CPU seconds a fixed calibration kernel takes now (about 6.5 ms).

    It mixes interpreter work (dict, sort, JSON) and small-array numpy
    calls, the two kinds every workload spends its time on, with random
    reads from an array larger than a core's cache, which slow when
    other tenants of the host contend for cache and memory.  It belongs
    to the benchmark, the garbage collector is off while it runs, and
    it counts its own thread's CPU time, not the time it waits for the
    interpreter lock while the program's threads run, so no change to
    the program can move it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        table = {f"k{i}": (i * 7919) % 1009 for i in range(4000)}
        ranked = sorted(table.items(), key=lambda kv: kv[1])
        json.dumps(ranked[:700])
        base = np.arange(64, dtype=float)
        for i in range(400):
            capped = np.minimum(base, i % 17 + 1.0)
            capped.sum()
            np.argsort(capped)
        for _ in range(4):
            _GATHER_FROM.take(_GATHER_AT).sum()
        return time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(result: Any) -> str:
    return _sha(json.dumps(result_to_jsonable(result), sort_keys=True).encode())


def _protocol(reps: int) -> ProtocolConfig:
    """The protocol ``run_specs`` builds for ``reps`` repetitions."""
    return ProtocolConfig(
        repetitions=reps,
        block_size=min(10, max(1, reps)),
        min_wait_s=60.0 if reps >= 20 else 0.0,
        max_wait_s=1800.0 if reps >= 20 else 0.0,
    )


class _RunEndClock:
    """A telemetry sink that timestamps every ``run.end`` event, with the
    number of probes taken before it, and lets ``workload`` probe the host
    after every ``every``-th.  Its clock stops while a probe runs."""

    def __init__(self, workload: Workload, every: int) -> None:
        self.workload = workload
        self.every = every
        self.paused = 0.0
        self.stamps: list[tuple[float, int]] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def emit(self, event: dict[str, Any]) -> None:
        if event.get("event") == "run.end":
            self.stamps.append((self.now(), len(self.workload.probes)))
            if len(self.stamps) % self.every == 0:
                self.paused += self.workload.probe_if_due()

    def close(self) -> None:
        pass


class Workload:
    """The shared plumbing (see the module doc for the protocol)."""

    cycle = 1
    interval = 1

    def __init__(self, scratch: Path, tiny: bool = False):
        self.scratch = scratch
        self.tiny = tiny
        self.latencies: list[float] = []
        # Per latency: how many probes preceded it.
        self.epochs: list[int] = []
        self.probes: list[float] = []
        self.probing = False
        self._probed_at = float("-inf")
        self.attempted = 0
        self.failed = 0
        self.jsonl_bytes = 0
        self._stack = ExitStack()

    def record(self, seconds: float, epoch: int | None = None) -> None:
        self.latencies.append(seconds)
        self.epochs.append(len(self.probes) if epoch is None else epoch)

    def probe_if_due(self, force: bool = False) -> float:
        """Probe the host if probing is on and ``PROBE_EVERY_S`` has passed
        since the last probe (or ``force``); return the seconds spent."""
        now = time.perf_counter()
        if not self.probing or (not force and now - self._probed_at < PROBE_EVERY_S):
            return 0.0
        self.probes.append(probe())
        self._probed_at = time.perf_counter()
        return self._probed_at - now

    def fresh_dir(self, tag: str) -> Path:
        path = self.scratch / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def counters(self) -> dict[str, Any]:
        """Process-wide tallies; ``run.py`` differences them over the loop."""
        return {
            "cache": service_mod.cache_stats(),
            "tiers": {tier: counts["hit"] for tier, counts in cache_pkg.tier_stats().items()},
        }

    def settle(self, i: int) -> None:
        pass

    def close(self) -> None:
        self._stack.close()


class Campaign(Workload):
    """The fig6 sweep through ``run_specs``, as ``repro run fig6
    --checkpoint … --telemetry …`` runs it: checkpoint (and so the
    durable journal), disk cache and JSONL telemetry on, serial.

    Cold: every operation is a whole campaign against a fresh cache
    directory.  Warm: set-up fills one cache with the same sweep and
    seed; every operation replays the campaign from it with the memory
    tier emptied first (what a fresh process sees), so the disk tier of
    record serves every hit.
    """

    cycle = interval = CHECKPOINT_EVERY

    def __init__(self, scratch: Path, tiny: bool = False, warm: bool = False):
        super().__init__(scratch, tiny)
        self.warm = warm
        self.reps = 1 if tiny else CAMPAIGN_REPS
        self.specs = exp_stripecount.specs()
        self.digests: list[str] = []
        self.reference: str | None = None

    def _campaign(self, seed: int, cache_dir: Path, tag: str, clock: _RunEndClock) -> Any:
        with session(jsonl=self.scratch / f"{tag}.jsonl") as bus:
            bus.attach(clock)
            store = common.run_specs(
                self.specs,
                repetitions=self.reps,
                seed=seed,
                checkpoint=self.scratch / f"{tag}.json",
                cache_dir=cache_dir,
            )
        return store

    def _outputs(self, tag: str) -> str:
        """Digest the campaign's record store, then remove its files."""
        checkpoint = self.scratch / f"{tag}.json"
        jsonl = self.scratch / f"{tag}.jsonl"
        digest = _sha(checkpoint.read_bytes())
        self.jsonl_bytes += jsonl.stat().st_size
        checkpoint.unlink()
        jsonl.unlink()
        return digest

    def setup(self, k: int, seed: int) -> None:
        self.seed = seed
        scenarios = [compile_mod.compile_scenario(spec, seed=seed) for spec in self.specs]
        ExperimentPlan.build(self.specs, _protocol(self.reps), seed=seed)
        svc = service_mod.get_service()
        for scenario in scenarios:
            svc.context(scenario)
        if self.warm:
            self.cache_dir = self.fresh_dir(f"cache-setup{k}")
            self._campaign(seed, self.cache_dir, f"fill{k}", _RunEndClock(self, CHECKPOINT_EVERY))
            self.reference = self._outputs(f"fill{k}")
            self.jsonl_bytes = 0
            svc.drop_memory_tiers()
            self.misses_before = service_mod.cache_stats()["miss"]

    def op(self, i: int) -> int:
        cache_dir = self.cache_dir if self.warm else self.scratch / f"cache-op{i}"
        clock = _RunEndClock(self, CHECKPOINT_EVERY)
        start = clock.now()
        store = self._campaign(self.seed, cache_dir, f"op{i}", clock)
        # The last run's latency ends with the campaign, final checkpoint
        # included: that wait is the user's too.
        clock.stamps[-1:] = [(clock.now(), len(self.probes))]
        for stamp, epoch in clock.stamps:
            self.record(stamp - start, epoch)
            start = stamp
        self.attempted += len(store) + len(store.failures)
        self.failed += len(store.failures)
        return len(store)

    def settle(self, i: int) -> None:
        self.digests.append(self._outputs(f"op{i}"))
        svc = service_mod.get_service()
        if self.warm:
            svc.drop_memory_tiers(self.cache_dir)
        else:
            cache_dir = self.scratch / f"cache-op{i}"
            svc.drop_memory_tiers(cache_dir)
            shutil.rmtree(cache_dir)

    def check(self) -> list[str]:
        problems = []
        if self.failed:
            problems.append(f"{self.failed} run(s) quarantined")
        reference = self.reference if self.warm else self.digests[0]
        differing = sum(d != reference for d in self.digests)
        if differing:
            against = "the cold campaign that filled the cache" if self.warm else "the first campaign"
            problems.append(f"{differing} campaign(s) left a record store differing from {against}")
        if self.warm and service_mod.cache_stats()["miss"] != self.misses_before:
            problems.append("the warm replay executed runs instead of hitting the cache")
        return problems

    def digest(self) -> str:
        return _sha("".join(self.digests).encode())


class ServeMixed(Workload):
    """An in-thread ``OrchestratorServer`` driven by one ``RemoteClient``
    over one loopback connection, closed loop: the next job is sent when
    the previous result is back.

    The seeded job mix resubmits an already finished ``(spec, rep)``
    ``REPEATS`` times in every ``GROUP`` jobs (the server attaches it to
    the finished job and answers from memory); every other job is a new
    repetition of a fig6 configuration, which the server admits,
    journals, executes and re-reads from its result cache.  Every
    ``SERVE_GENERATION`` jobs, ``settle`` replaces the server and client
    with fresh ones on a new state directory.
    """

    def __init__(self, scratch: Path, tiny: bool = False):
        super().__init__(scratch, tiny)
        self.specs = exp_stripecount.specs()
        # Every GROUP x 16 jobs hold whole rounds of new jobs over the 16
        # configurations.
        self.cycle = GROUP * len(self.specs)
        # First result digest of every distinct job, and a running
        # digest over all results in job order.
        self.first: dict[tuple[int, int], str] = {}
        self.mismatches = 0
        self._all = hashlib.sha256()
        self._pending: tuple[tuple[int, int], Any] | None = None
        # Tallies of the servers and clients already replaced.
        self._retired = {"shed": 0, "retries": 0, "fallbacks": 0}
        # Tiny runs restart too, so the self-tests cover the hand-over.
        self.generation = 40 if tiny else SERVE_GENERATION

    def _start(self, tag: str) -> None:
        # A short session lease keeps the reaper's sleep (lease / 4),
        # which close() joins, well under a second.
        config = ServerConfig(
            state_dir=self.fresh_dir(f"server-{tag}"),
            workers=SERVE_WORKERS,
            session_lease_s=2.0,
        )
        self.state_dir = config.state_dir
        self.server = self._stack.enter_context(serve_in_thread(config))
        self.client = RemoteClient(config.host, self.server.port, seed=self.seed)
        self._stack.callback(self.client.close)
        self.client.connect()
        self.finished: list[tuple[int, int]] = []

    def setup(self, k: int, seed: int) -> None:
        self.seed = seed
        self.scenarios = [compile_mod.compile_scenario(spec, seed=seed) for spec in self.specs]
        svc = service_mod.get_service()
        for scenario in self.scenarios:
            svc.context(scenario)
        self._start(f"setup{k}")
        self.rng = random.Random(seed)
        self.next_rep = [self.rng.randrange(1 << 16) for _ in self.scenarios]
        self._pattern: list[bool] = []
        self._round: list[int] = []

    def _next_job(self) -> tuple[int, int]:
        if not self._pattern:
            self._pattern = [True] * REPEATS + [False] * (GROUP - REPEATS)
            self.rng.shuffle(self._pattern)
        if self._pattern.pop() and self.finished:
            return self.rng.choice(self.finished)
        if not self._round:
            self._round = list(range(len(self.scenarios)))
            self.rng.shuffle(self._round)
        index = self._round.pop()
        rep = self.next_rep[index]
        self.next_rep[index] += 1
        self.finished.append((index, rep))
        return index, rep

    def _tallies(self) -> dict[str, int]:
        return {
            "shed": self.server.admission.counters["shed"],
            "retries": self.client.stats["retries"],
            "fallbacks": self.client.stats["fallbacks"],
        }

    def counters(self) -> dict[str, Any]:
        live = self._tallies()
        return {**super().counters(), **{key: self._retired[key] + live[key] for key in live}}

    def op(self, i: int) -> int:
        job = self._next_job()
        start = time.perf_counter()
        result = self.client.run(self.scenarios[job[0]], job[1])
        self.record(time.perf_counter() - start)
        self.attempted += 1
        self._pending = (job, result)
        return 1

    def settle(self, i: int) -> None:
        job, result = self._pending
        self._pending = None
        digest = _result_digest(result)
        self._all.update(digest.encode())
        if self.first.setdefault(job, digest) != digest:
            self.mismatches += 1
        if (i + 1) % self.generation == 0:
            for key, value in self._tallies().items():
                self._retired[key] += value
            self._stack.close()
            service_mod.get_service().drop_memory_tiers()
            shutil.rmtree(self.state_dir)
            self._start(f"gen{(i + 1) // self.generation}")

    def check(self) -> list[str]:
        problems = []
        if self.mismatches:
            problems.append(f"{self.mismatches} resubmitted job(s) returned a different result")
        svc = service_mod.get_service()
        sample = random.Random(self.seed).sample(sorted(self.first), min(SERVE_CHECKED, len(self.first)))
        for index, rep in sample:
            local = svc.run(self.scenarios[index], rep, cache=False)
            if _result_digest(local) != self.first[(index, rep)]:
                problems.append(f"remote result of ({self.specs[index].key}, rep {rep}) differs from the local run")
        counters = self.counters()
        self.failed = counters["shed"] + counters["fallbacks"]
        return problems

    def digest(self) -> str:
        return self._all.hexdigest()


class DesRun(Workload):
    """DES-engine runs through ``SimulationService.run(cache=False)``.

    The seeded job list holds every spec of a conformance-scale grid at
    ``DES_REPS`` seeded repetitions; operation ``i`` is one run of job
    ``i`` modulo the list's length.  Every run must replay the result
    fingerprint of that job's first run exactly.
    """

    def __init__(self, scratch: Path, tiny: bool = False):
        super().__init__(scratch, tiny)
        self.first: dict[int, str] = {}
        self.diverged = 0
        self._all = hashlib.sha256()
        self._pending: Any = None

    def setup(self, k: int, seed: int) -> None:
        rng = random.Random(seed)
        grid = DES_GRID[:2] if self.tiny else DES_GRID
        specs = [
            ExperimentSpec(
                exp_id="perfbench-des",
                scenario=scenario,
                factors={"num_nodes": nodes, "ppn": DES_PPN, "stripe_count": stripe, "total_gib": DES_GIB},
            )
            for scenario, nodes, stripe in grid
        ]
        scenarios = [compile_mod.compile_scenario(spec, seed=seed, engine="des") for spec in specs]
        svc = service_mod.get_service()
        for scenario in scenarios:
            svc.context(scenario)
        # Repetition-major, so that every stretch of len(grid) runs holds
        # the whole grid once.
        reps = [[rng.randrange(1 << 16) for _ in range(DES_REPS)] for _ in scenarios]
        self.jobs = [(scenario, reps[j][r]) for r in range(DES_REPS) for j, scenario in enumerate(scenarios)]
        self.cycle = len(grid)

    def op(self, i: int) -> int:
        scenario, rep = self.jobs[i % len(self.jobs)]
        start = time.perf_counter()
        self._pending = service_mod.get_service().run(scenario, rep, cache=False)
        self.record(time.perf_counter() - start)
        self.attempted += 1
        return 1

    def settle(self, i: int) -> None:
        fingerprint = result_fingerprint(self._pending)
        self._pending = None
        self._all.update(fingerprint.encode())
        if self.first.setdefault(i % len(self.jobs), fingerprint) != fingerprint:
            self.diverged += 1

    def check(self) -> list[str]:
        return [f"{self.diverged} run(s) did not replay their job's first fingerprint"] if self.diverged else []

    def digest(self) -> str:
        return self._all.hexdigest()


WORKLOADS = {
    "campaign-cold": lambda scratch, tiny: Campaign(scratch, tiny, warm=False),
    "campaign-warm": lambda scratch, tiny: Campaign(scratch, tiny, warm=True),
    "serve-mixed": ServeMixed,
    "des-run": DesRun,
}
