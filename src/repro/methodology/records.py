"""Run records: flat, CSV-friendly result rows.

Each executed run yields one :class:`RunRecord` holding the run's
context (experiment, scenario, factors, repetition, simulated wall
clock) plus per-application outcomes and the Equation-1 aggregate.
:class:`RecordStore` is the query surface every figure and analysis
uses, with CSV round-tripping so experiment outputs can be archived the
way the paper publishes its raw results.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..engine.result import RunResult
from ..errors import CheckpointError, ExperimentError
from ..orchestrator.journal import fsync_dir

__all__ = ["RunRecord", "FailedRunRecord", "RecordStore"]


def _spec_key(exp_id: str, scenario: str, factors: Mapping[str, Any]) -> str:
    # Must match ExperimentSpec.key exactly: resume matching is by key.
    parts = [f"{k}={factors[k]}" for k in sorted(factors)]
    return f"{exp_id}[{scenario}]({','.join(parts)})"


@dataclass(frozen=True)
class RunRecord:
    """One run's flattened outcome."""

    exp_id: str
    scenario: str
    rep: int
    factors: Mapping[str, Any]
    aggregate_bw_mib_s: float
    apps: tuple[Mapping[str, Any], ...]  # per-app dicts (see from_run_result)
    wall_clock_s: float = 0.0
    block: int = -1
    # Fault-injection trace: chunk-request timeouts suffered, whether
    # every flow delivered its full volume, and the engine's
    # timeout/retry/abandon events.  Defaults describe a fault-free run
    # (and let pre-fault-tracking CSV files load unchanged).
    retries: int = 0
    complete: bool = True
    fault_events: tuple[Mapping[str, Any], ...] = ()

    @property
    def spec_key(self) -> str:
        """The owning ExperimentSpec's key (resume matching)."""
        return _spec_key(self.exp_id, self.scenario, self.factors)

    @classmethod
    def from_run_result(
        cls,
        result: RunResult,
        exp_id: str,
        scenario: str,
        rep: int,
        factors: Mapping[str, Any],
        wall_clock_s: float = 0.0,
        block: int = -1,
    ) -> "RunRecord":
        apps = tuple(
            {
                # float()/int() casts keep numpy scalars out of the rows
                # (their repr does not round-trip through CSV/JSON).
                "app_id": a.app_id,
                "bw_mib_s": float(a.bandwidth_mib_s),
                "start_s": float(a.start_time),
                "end_s": float(a.end_time),
                "volume_bytes": float(a.volume_bytes),
                "num_nodes": int(a.num_nodes),
                "ppn": int(a.ppn),
                "stripe_count": int(a.stripe_count),
                "targets": tuple(int(t) for t in a.targets),
                "placement": tuple(int(p) for p in a.placement),
            }
            for a in result.apps
        )
        return cls(
            exp_id=exp_id,
            scenario=scenario,
            rep=rep,
            factors=dict(factors),
            aggregate_bw_mib_s=float(result.aggregate_bandwidth_mib_s),
            apps=apps,
            wall_clock_s=float(wall_clock_s),
            block=block,
            retries=result.retries,
            complete=result.complete,
            fault_events=result.fault_events,
        )

    # -- convenience ------------------------------------------------------------

    @property
    def num_apps(self) -> int:
        return len(self.apps)

    @property
    def end_wall_clock_s(self) -> float:
        """Simulated protocol clock when this run *finished*.

        ``wall_clock_s`` stamps the run's start; the run then advanced
        the clock by its makespan (the latest per-app end time, which
        is relative to the run's own t=0).  Resume uses this to restart
        the clock exactly where an interrupted campaign left it.
        """
        return self.wall_clock_s + max((a["end_s"] for a in self.apps), default=0.0)

    @property
    def bw_mib_s(self) -> float:
        """Bandwidth of a single-app run (raises on concurrent runs)."""
        if len(self.apps) != 1:
            raise ExperimentError(f"record has {len(self.apps)} apps; use aggregate_bw_mib_s")
        return float(self.apps[0]["bw_mib_s"])

    @property
    def placement(self) -> tuple[int, ...]:
        """Placement of a single-app run."""
        if len(self.apps) != 1:
            raise ExperimentError("placement of a concurrent run is per-app")
        return tuple(self.apps[0]["placement"])

    def shared_target_count(self) -> int:
        """How many targets are used by more than one application."""
        seen: dict[int, int] = {}
        for app in self.apps:
            for t in app["targets"]:
                seen[t] = seen.get(t, 0) + 1
        return sum(1 for n in seen.values() if n > 1)

    def to_row(self) -> dict[str, str]:
        """Flatten to a CSV row (factors and apps JSON-encoded)."""
        return {
            "exp_id": self.exp_id,
            "scenario": self.scenario,
            "rep": str(self.rep),
            "factors": json.dumps(dict(self.factors), sort_keys=True),
            "aggregate_bw_mib_s": repr(self.aggregate_bw_mib_s),
            "apps": json.dumps([dict(a) for a in self.apps]),
            "wall_clock_s": repr(self.wall_clock_s),
            "block": str(self.block),
            "retries": str(self.retries),
            "complete": str(int(self.complete)),
            "fault_events": json.dumps([dict(e) for e in self.fault_events]),
        }

    @classmethod
    def from_row(cls, row: Mapping[str, str]) -> "RunRecord":
        apps = tuple(
            {**a, "targets": tuple(a["targets"]), "placement": tuple(a["placement"])}
            for a in json.loads(row["apps"])
        )
        return cls(
            exp_id=row["exp_id"],
            scenario=row["scenario"],
            rep=int(row["rep"]),
            factors=json.loads(row["factors"]),
            aggregate_bw_mib_s=float(row["aggregate_bw_mib_s"]),
            apps=apps,
            wall_clock_s=float(row["wall_clock_s"]),
            block=int(row["block"]),
            # ``get`` defaults keep files written before fault tracking loadable.
            retries=int(row.get("retries") or 0),
            complete=bool(int(row.get("complete") or 1)),
            fault_events=tuple(json.loads(row.get("fault_events") or "[]")),
        )


@dataclass(frozen=True)
class FailedRunRecord:
    """A quarantined run: the executor raised instead of returning.

    Keeps the campaign's failure context (what, when, why) next to the
    successful records, so a long protocol survives partial failures
    and the analysis can see exactly what is missing.
    """

    exp_id: str
    scenario: str
    rep: int
    factors: Mapping[str, Any]
    error_type: str
    message: str
    wall_clock_s: float = 0.0
    block: int = -1
    # Client-robustness history of the failed run: how many chunk-request
    # timeouts it retried through and the full retry/abandon trace the
    # engine attached to the exception.  Round-tripped through the JSON
    # checkpoint so resume() reports are complete (a failed run used to
    # silently drop its RetryPolicy trace).
    retries: int = 0
    flow_trace: tuple[Mapping[str, Any], ...] = ()
    # The flight recorder's dump: the last telemetry events stamped with
    # this run's trace id at the moment of quarantine (see
    # repro.telemetry.trace.FlightRecorder), so a post-mortem needs no
    # event stream.
    last_events: tuple[Mapping[str, Any], ...] = ()

    @property
    def spec_key(self) -> str:
        return _spec_key(self.exp_id, self.scenario, self.factors)

    def to_dict(self) -> dict[str, Any]:
        return {
            "exp_id": self.exp_id,
            "scenario": self.scenario,
            "rep": self.rep,
            "factors": dict(self.factors),
            "error_type": self.error_type,
            "message": self.message,
            "wall_clock_s": self.wall_clock_s,
            "block": self.block,
            "retries": self.retries,
            "flow_trace": [dict(e) for e in self.flow_trace],
            "last_events": [dict(e) for e in self.last_events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailedRunRecord":
        return cls(
            exp_id=data["exp_id"],
            scenario=data["scenario"],
            rep=int(data["rep"]),
            factors=dict(data["factors"]),
            error_type=data["error_type"],
            message=data["message"],
            wall_clock_s=float(data.get("wall_clock_s", 0.0)),
            block=int(data.get("block", -1)),
            # ``get`` defaults keep checkpoints written before the trace
            # was preserved loadable.
            retries=int(data.get("retries", 0)),
            flow_trace=tuple(dict(e) for e in data.get("flow_trace", ())),
            last_events=tuple(dict(e) for e in data.get("last_events", ())),
        )


_CSV_FIELDS = [
    "exp_id",
    "scenario",
    "rep",
    "factors",
    "aggregate_bw_mib_s",
    "apps",
    "wall_clock_s",
    "block",
    "retries",
    "complete",
    "fault_events",
]


def _atomic_write(path: Path, write_body: Callable[[Any], None]) -> None:
    """Write a file via a same-directory temp file + ``os.replace``.

    An interrupted run can therefore never leave a truncated results
    file: readers see either the previous complete version or the new
    complete version, nothing in between.  The temp file is fsynced
    before the replace and the parent directory after it, so the rename
    itself survives a power cut — without the directory fsync the data
    would be durable but the directory entry could still point at the
    old (or no) version.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_body(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class RecordStore:
    """An in-memory collection of run records with query helpers.

    Besides the successful :class:`RunRecord` rows it carries the
    campaign's quarantined failures (:class:`FailedRunRecord`), so a
    checkpoint holds the full execution state of an interrupted
    protocol.
    """

    def __init__(
        self,
        records: list[RunRecord] | None = None,
        failures: list[FailedRunRecord] | None = None,
        retried_failures: list[FailedRunRecord] | None = None,
    ):
        self._records: list[RunRecord] = list(records or [])
        # Checkpoint JSON text of ``_records[:len(_rows)]``, each row
        # encoded once by the first write_json after its append.  Sound
        # because records are frozen and the store only grows.
        self._rows: list[str] = []
        self.failures: list[FailedRunRecord] = list(failures or [])
        # Failures from earlier attempts that a resume re-executed: the
        # campaign's full failure history, kept out of ``failures`` so
        # policy decisions only see the current attempt.
        self.retried_failures: list[FailedRunRecord] = list(retried_failures or [])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def append(self, record: RunRecord) -> None:
        self._records.append(record)

    def extend(self, records: "RecordStore | list[RunRecord]") -> None:
        if isinstance(records, RecordStore):
            self.failures.extend(records.failures)
            self.retried_failures.extend(records.retried_failures)
        self._records.extend(records)

    def archive_failures(self) -> int:
        """Move current failures to ``retried_failures``; returns the count.

        Called by resume() before re-executing quarantined runs, so the
        retry gets a clean slate without discarding the history of what
        failed on the previous attempt.
        """
        count = len(self.failures)
        self.retried_failures.extend(self.failures)
        self.failures.clear()
        return count

    def completed_keys(self) -> set[tuple[str, int]]:
        """The (spec key, rep) pairs already recorded (resume skips them)."""
        return {(r.spec_key, r.rep) for r in self._records}

    def max_wall_clock_s(self) -> float:
        """Latest simulated wall clock of any record (0 when empty)."""
        clocks = [r.wall_clock_s for r in self._records] + [f.wall_clock_s for f in self.failures]
        return max(clocks, default=0.0)

    def end_clocks(self) -> dict[tuple[str, int], float]:
        """Per-(spec key, rep) end-of-run clocks for resume reconstruction.

        Walking the plan and advancing the clock through these values
        (plus the plan's block waits) reproduces the exact clock a
        fresh, uninterrupted campaign would have shown at each pending
        run — the byte-identical-resume contract the chaos harness
        enforces.
        """
        return {(r.spec_key, r.rep): r.end_wall_clock_s for r in self._records}

    # -- queries --------------------------------------------------------------

    def filter(
        self,
        exp_id: str | None = None,
        scenario: str | None = None,
        predicate: Callable[[RunRecord], bool] | None = None,
        **factors: Any,
    ) -> "RecordStore":
        out = []
        for r in self._records:
            if exp_id is not None and r.exp_id != exp_id:
                continue
            if scenario is not None and r.scenario != scenario:
                continue
            if any(r.factors.get(k) != v for k, v in factors.items()):
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return RecordStore(out)

    def bandwidths(self) -> np.ndarray:
        """Single-app bandwidths of every record, in order."""
        return np.array([r.bw_mib_s for r in self._records])

    def aggregates(self) -> np.ndarray:
        return np.array([r.aggregate_bw_mib_s for r in self._records])

    def factor_values(self, name: str) -> list[Any]:
        """Distinct values of one factor, in sorted order."""
        values = {r.factors.get(name) for r in self._records}
        return sorted(values, key=lambda v: (v is None, v))

    def group_by_factor(self, name: str) -> dict[Any, "RecordStore"]:
        out: dict[Any, RecordStore] = {}
        for r in self._records:
            out.setdefault(r.factors.get(name), RecordStore()).append(r)
        return out

    def group_by_placement(self) -> dict[tuple[int, ...], "RecordStore"]:
        """Group single-app records by their (min, max) placement."""
        out: dict[tuple[int, ...], RecordStore] = {}
        for r in self._records:
            out.setdefault(r.placement, RecordStore()).append(r)
        return out

    # -- persistence -----------------------------------------------------------

    def write_csv(self, path: str | Path) -> None:
        """Archive the successful records as CSV, crash-safely."""

        def body(fh: Any) -> None:
            writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
            writer.writeheader()
            for record in self._records:
                writer.writerow(record.to_row())

        _atomic_write(Path(path), body)

    @classmethod
    def read_csv(cls, path: str | Path) -> "RecordStore":
        store = cls()
        with Path(path).open(newline="") as fh:
            for row in csv.DictReader(fh):
                store.append(RunRecord.from_row(row))
        return store

    def write_json(self, path: str | Path) -> None:
        """Checkpoint the full store (records AND failures), crash-safely.

        The bytes are ``json.dumps`` of ``{"records": [rows], "failures":
        [...], "retried_failures": [...]}``, assembled from the cached
        row texts so a checkpoint only encodes the records appended
        since the last one.  The failure lists are public and mutable,
        so they are encoded afresh every time.
        """
        rows = self._rows
        for record in self._records[len(rows):]:
            rows.append(json.dumps(record.to_row()))
        body = (
            '{"records": ['
            + ", ".join(rows)
            + '], "failures": '
            + json.dumps([f.to_dict() for f in self.failures])
            + ', "retried_failures": '
            + json.dumps([f.to_dict() for f in self.retried_failures])
            + "}"
        )
        _atomic_write(Path(path), lambda fh: fh.write(body))

    @classmethod
    def read_json(cls, path: str | Path) -> "RecordStore":
        try:
            with Path(path).open() as fh:
                payload = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            return cls(
                records=[RunRecord.from_row(row) for row in payload["records"]],
                failures=[FailedRunRecord.from_dict(f) for f in payload["failures"]],
                # ``get`` default keeps checkpoints written before the
                # retry archive loadable.
                retried_failures=[
                    FailedRunRecord.from_dict(f) for f in payload.get("retried_failures", [])
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
