"""The Management Service (MS).

Per the paper's Section II, the MS "maintains a list of all system
components, including their status, capacity, and localization" — it is
how the PFS parts find each other.  Here it is the registry of storage
servers and their targets, with target state tracking (online/offline,
consumed capacity) and the queries choosers and metadata servers need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import EntityExistsError, NoSuchEntityError, StorageError

__all__ = ["TargetState", "TargetInfo", "ManagementService"]


class TargetState(enum.Enum):
    """Reachability/consistency state of a target (simplified).

    Mirrors BeeGFS's reachability (Online/Offline) and consistency
    (Good/Needs-resync) states: DEGRADED is a reachable target running
    below its rated capacity (a limping disk or saturated server) —
    still eligible for allocation, but a fault-aware chooser may
    deprioritise it.
    """

    ONLINE = "online"
    DEGRADED = "degraded"
    OFFLINE = "offline"
    NEEDS_RESYNC = "needs-resync"


@dataclass
class TargetInfo:
    """Registry record of one OST."""

    target_id: int
    server: str
    capacity_bytes: int
    used_bytes: int = 0
    state: TargetState = TargetState.ONLINE

    def __post_init__(self) -> None:
        if self.target_id < 0:
            raise StorageError(f"negative target id {self.target_id}")
        if self.capacity_bytes <= 0:
            raise StorageError(f"target {self.target_id}: capacity must be positive")
        if self.used_bytes < 0:
            raise StorageError(f"target {self.target_id}: negative used bytes")

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def available(self) -> bool:
        """Eligible for new allocations (reachable, even if slow)."""
        return self.state in (TargetState.ONLINE, TargetState.DEGRADED)


class ManagementService:
    """Registry of servers, targets and their live state."""

    def __init__(self) -> None:
        self._targets: dict[int, TargetInfo] = {}
        self._servers: dict[str, list[int]] = {}

    # -- registration ---------------------------------------------------------

    def register_server(self, server: str) -> None:
        if server in self._servers:
            raise EntityExistsError(f"server {server!r} already registered")
        self._servers[server] = []

    def register_target(self, target_id: int, server: str, capacity_bytes: int) -> TargetInfo:
        if server not in self._servers:
            raise NoSuchEntityError(f"unknown server {server!r}")
        if target_id in self._targets:
            raise EntityExistsError(f"target {target_id} already registered")
        info = TargetInfo(target_id, server, capacity_bytes)
        self._targets[target_id] = info
        self._servers[server].append(target_id)
        return info

    # -- queries ----------------------------------------------------------------

    def servers(self) -> list[str]:
        return list(self._servers)

    def targets(self, server: str | None = None, online_only: bool = False) -> list[TargetInfo]:
        """Registered targets, in registration order."""
        if server is not None and server not in self._servers:
            raise NoSuchEntityError(f"unknown server {server!r}")
        infos = [
            self._targets[tid]
            for s, tids in self._servers.items()
            if server is None or s == server
            for tid in tids
        ]
        if online_only:
            infos = [t for t in infos if t.available]
        return infos

    def target(self, target_id: int) -> TargetInfo:
        try:
            return self._targets[target_id]
        except KeyError:
            raise NoSuchEntityError(f"unknown target {target_id}") from None

    def server_of(self, target_id: int) -> str:
        return self.target(target_id).server

    def target_ids(self, online_only: bool = False) -> list[int]:
        return [t.target_id for t in self.targets(online_only=online_only)]

    # -- state transitions --------------------------------------------------------

    def set_state(self, target_id: int, state: TargetState) -> None:
        self.target(target_id).state = state

    def consume(self, target_id: int, nbytes: int) -> None:
        """Account ``nbytes`` written to a target (negative frees space)."""
        info = self.target(target_id)
        new_used = info.used_bytes + nbytes
        if new_used < 0:
            raise StorageError(f"target {target_id}: freeing more than used")
        if new_used > info.capacity_bytes:
            raise StorageError(f"target {target_id}: out of space")
        info.used_bytes = new_used

    # -- convenience ----------------------------------------------------------------

    def total_capacity_bytes(self) -> int:
        return sum(t.capacity_bytes for t in self._targets.values())

    def placement_of(self, target_ids: tuple[int, ...]) -> dict[str, int]:
        """Per-server target counts of an allocation (feeds (min,max))."""
        counts: dict[str, int] = {s: 0 for s in self._servers}
        for tid in target_ids:
            counts[self.server_of(tid)] += 1
        return counts
