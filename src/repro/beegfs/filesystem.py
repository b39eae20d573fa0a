"""The assembled file system: deployment spec plus the service wiring.

:class:`BeeGFS` glues the management service, the metadata namespace,
the storage servers and the target choosers into one object offering
both the admin surface (``beegfs-ctl``-style: set patterns, inspect
targets, df) and the internal entry points the client uses.

:func:`plafrim_deployment` builds the deployment the paper measured:
two storage hosts, four OSTs each (ids 101-104 and 201-204), 512 KiB
chunks, stripe count 4, round-robin chooser with the interleaved target
ordering that produces the allocations reported in Section IV-C1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NoSuchEntityError
from ..rng import SeedTree
from ..units import TiB
from .choosers import FixedChooser, RoundRobinChooser, TargetChooser, chooser_from_name
from .management import ManagementService, TargetInfo
from .meta import DirectoryConfig, FileInode, MetadataServer, Namespace, split_path
from .storage_service import ObjectStorageServer
from .striping import DEFAULT_CHUNK_SIZE, StripePattern

__all__ = [
    "BeeGFSDeploymentSpec",
    "BeeGFS",
    "plafrim_deployment",
    "PLAFRIM_TARGET_ORDERING",
]

# The target ordering of PlaFRIM's round-robin configuration, inferred
# from the allocations the paper reports: stripe count 4 always yields
# (101, 201, 202, 203) or (204, 102, 103, 104) — consecutive windows of
# this sequence at the two reachable cursor phases.
PLAFRIM_TARGET_ORDERING: tuple[int, ...] = (101, 201, 202, 203, 204, 102, 103, 104)


@dataclass(frozen=True)
class BeeGFSDeploymentSpec:
    """Static description of a BeeGFS deployment."""

    servers: tuple[tuple[str, tuple[int, ...]], ...]
    target_capacity_bytes: int = 16 * TiB
    default_config: DirectoryConfig = field(default_factory=DirectoryConfig)
    default_chooser: str = "roundrobin"
    target_ordering: tuple[int, ...] | None = None
    mdt_capacity_bytes: int = int(1.6 * TiB)
    keep_data: bool = True

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigError("deployment needs at least one storage server")
        all_targets = [t for _, tids in self.servers for t in tids]
        if len(set(all_targets)) != len(all_targets):
            raise ConfigError("duplicate target ids across servers")
        if not all_targets:
            raise ConfigError("deployment has no storage targets")
        if self.target_ordering is not None and set(self.target_ordering) != set(all_targets):
            raise ConfigError("target_ordering must list exactly the deployed targets")
        if self.target_capacity_bytes <= 0:
            raise ConfigError("target capacity must be positive")

    @property
    def all_target_ids(self) -> tuple[int, ...]:
        return tuple(t for _, tids in self.servers for t in tids)

    @property
    def num_targets(self) -> int:
        return len(self.all_target_ids)

    def server_of(self, target_id: int) -> str:
        for host, tids in self.servers:
            if target_id in tids:
                return host
        raise NoSuchEntityError(f"unknown target {target_id}")


class BeeGFS:
    """One mounted BeeGFS instance (functional data/metadata plane)."""

    def __init__(self, spec: BeeGFSDeploymentSpec, seed: int | None = 0):
        self.spec = spec
        self.management = ManagementService()
        self._seeds = SeedTree(seed).child("beegfs")
        self._chooser_rng = self._seeds.rng("chooser")
        self.oss: dict[str, ObjectStorageServer] = {}
        for host, target_ids in spec.servers:
            self.management.register_server(host)
            server = ObjectStorageServer(host, self.management, keep_data=spec.keep_data)
            for tid in target_ids:
                server.add_target(tid, spec.target_capacity_bytes)
            self.oss[host] = server
        # One MDS per storage host, as deployed on PlaFRIM.
        self.mdses = [MetadataServer(f"mds-{host}", spec.mdt_capacity_bytes) for host, _ in spec.servers]
        self.namespace = Namespace(self.mdses, spec.default_config)
        self._choosers: dict[str, TargetChooser] = {}
        self.clock = 0.0  # advanced by engines; used for ctime/mtime

    # -- chooser management ------------------------------------------------------

    def chooser(self, name: str) -> TargetChooser:
        """Chooser instances are cached so stateful cursors persist.

        The special form ``"fixed:101,202"`` yields a
        :class:`~repro.beegfs.choosers.FixedChooser` pinning exactly
        those targets (experiment control, e.g. Figure 9).
        """
        if name not in self._choosers:
            if name == "roundrobin":
                self._choosers[name] = RoundRobinChooser(ordering=self.spec.target_ordering)
            elif name.startswith("fixed:"):
                ids = [int(part) for part in name[len("fixed:") :].split(",") if part]
                self._choosers[name] = FixedChooser(ids)
            else:
                self._choosers[name] = chooser_from_name(name)
        return self._choosers[name]

    # -- namespace / admin surface ----------------------------------------------

    def mkdir(self, path: str, config: DirectoryConfig | None = None) -> DirectoryConfig:
        return self.namespace.mkdir(path, config)

    def set_pattern(
        self,
        path: str,
        stripe_count: int | None = None,
        chunk_size: int | None = None,
        chooser: str | None = None,
    ) -> DirectoryConfig:
        """``beegfs-ctl --setpattern`` equivalent (per-directory, admin-only)."""
        current = self.namespace.get_config(path)
        new = DirectoryConfig(
            stripe_count=stripe_count if stripe_count is not None else current.stripe_count,
            chunk_size=chunk_size if chunk_size is not None else current.chunk_size,
            chooser=chooser if chooser is not None else current.chooser,
        )
        self.namespace.set_config(path, new)
        return new

    def create_file(
        self, path: str, rng: np.random.Generator | None = None, strict: bool = False
    ) -> FileInode:
        """Create a file, choosing its stripe targets per directory config.

        With ``strict=True`` the configured stripe count is not clamped
        to the reachable pool, so a degraded deployment raises
        :class:`~repro.errors.InsufficientTargetsError` instead of
        silently narrowing the stripe — callers that must preserve the
        experiment's striping factor (or fail loudly) use this.
        """
        parent, _ = split_path(path)
        config = self.namespace.get_config(parent)
        pool = self.management.targets(online_only=True)
        if not pool:
            raise NoSuchEntityError("no online storage targets")
        # BeeGFS clamps the desired stripe count to the reachable pool.
        count = config.stripe_count if strict else min(config.stripe_count, len(pool))
        chooser = self.chooser(config.chooser or self.spec.default_chooser)
        targets = chooser.choose(pool, count, rng if rng is not None else self._chooser_rng)
        pattern = StripePattern(targets=targets, chunk_size=config.chunk_size)
        return self.namespace.create_file(path, pattern, ctime=self.clock)

    def unlink(self, path: str) -> None:
        inode = self.namespace.unlink(path)
        for server in self.oss.values():
            server.remove_file(inode.inode_id)

    # -- data path (used by the client) --------------------------------------------

    def write_extents(self, inode: FileInode, offset: int, data: bytes | None, length: int) -> None:
        """Apply a logical write: split into extents, store per target."""
        for extent in inode.pattern.extents(offset, length):
            host = self.management.server_of(extent.target_id)
            round_index = extent.chunk_index // inode.pattern.stripe_count
            chunk_file_offset = round_index * inode.pattern.chunk_size + extent.chunk_offset
            piece = None
            if data is not None:
                lo = extent.file_offset - offset
                piece = data[lo : lo + extent.length]
            self.oss[host].write_chunk(
                extent.target_id, inode.inode_id, chunk_file_offset, piece, extent.length
            )
        inode.grow_to(offset + length)
        inode.mtime = self.clock

    def read_extents(self, inode: FileInode, offset: int, length: int) -> bytes:
        """Read a logical range back through the stripes."""
        out = bytearray()
        for extent in inode.pattern.extents(offset, length):
            host = self.management.server_of(extent.target_id)
            round_index = extent.chunk_index // inode.pattern.stripe_count
            chunk_file_offset = round_index * inode.pattern.chunk_size + extent.chunk_offset
            out += self.oss[host].read_chunk(
                extent.target_id, inode.inode_id, chunk_file_offset, extent.length
            )
        return bytes(out)

    # -- introspection ---------------------------------------------------------------

    def df(self) -> list[TargetInfo]:
        """Per-target capacity usage (``beegfs-df`` equivalent)."""
        return self.management.targets()

    def placement_of(self, inode: FileInode) -> dict[str, int]:
        """Per-server target counts of a file's allocation."""
        return self.management.placement_of(inode.pattern.targets)


def plafrim_deployment(
    keep_data: bool = True,
    stripe_count: int = 4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chooser: str = "roundrobin",
    target_capacity_bytes: int = 16 * TiB,
) -> BeeGFSDeploymentSpec:
    """The PlaFRIM BeeGFS deployment of the paper (Section III-A).

    Defaults mirror the production configuration under study: stripe
    count 4, 512 KiB chunks, round-robin target selection.  The total
    usable capacity reported in the paper is 131 TB over 8 targets; we
    default to 16 TiB per target.
    """
    return BeeGFSDeploymentSpec(
        servers=(
            ("storage1", (101, 102, 103, 104)),
            ("storage2", (201, 202, 203, 204)),
        ),
        target_capacity_bytes=target_capacity_bytes,
        default_config=DirectoryConfig(stripe_count=stripe_count, chunk_size=chunk_size),
        default_chooser=chooser,
        target_ordering=PLAFRIM_TARGET_ORDERING,
        keep_data=keep_data,
    )
