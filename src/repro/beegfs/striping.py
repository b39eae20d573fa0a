"""Striping: mapping file byte ranges to chunks on storage targets.

BeeGFS splits a file into fixed-size *chunks* distributed round-robin
over the file's stripe targets: chunk ``i`` lives on target
``targets[i % len(targets)]``.  The pair (stripe count, chunk size) is
what the paper studies; PlaFRIM uses 512 KiB chunks and (originally) a
stripe count of 4.

The arithmetic here is exact and heavily property-tested: extents
partition the byte range, per-target byte counts differ by at most one
chunk, and the mapping round-trips offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from ..errors import StripingError
from ..units import KiB

__all__ = ["StripePattern", "ChunkExtent", "DEFAULT_CHUNK_SIZE"]

DEFAULT_CHUNK_SIZE = 512 * KiB


@lru_cache(maxsize=4096)
def _bytes_per_position(
    stripe_count: int, chunk_size: int, length: int, offset: int
) -> tuple[int, ...]:
    """Bytes of ``[offset, offset + length)`` landing on each stripe *position*.

    Chunk ``i`` lives at position ``i % stripe_count`` regardless of
    which targets the file was placed on, so this depends only on the
    layout geometry — engines re-deriving per-target volumes for every
    repetition (placements change, geometry does not) hit the cache.
    All-integer arithmetic, so cached results are exact.
    """
    counts = [0] * stripe_count
    if length == 0:
        return tuple(counts)
    end = offset + length
    first_chunk = offset // chunk_size
    last_chunk = (end - 1) // chunk_size

    for chunk in range(first_chunk, min(last_chunk, first_chunk + stripe_count - 1) + 1):
        lo = max(offset, chunk * chunk_size)
        hi = min(end, (chunk + 1) * chunk_size)
        if hi > lo:
            counts[chunk % stripe_count] += hi - lo
    walked_until = min(last_chunk, first_chunk + stripe_count - 1)
    remaining_chunks = last_chunk - walked_until
    if remaining_chunks > 0:
        # Chunks (walked_until, last_chunk] start aligned; all but the
        # last are full.
        full = remaining_chunks - 1
        rounds, extra = divmod(full, stripe_count)
        if rounds:
            for p in range(stripe_count):
                counts[p] += rounds * chunk_size
        base = walked_until + 1
        for i in range(extra):
            counts[(base + i) % stripe_count] += chunk_size
        tail = end - last_chunk * chunk_size
        counts[last_chunk % stripe_count] += tail
    return tuple(counts)


@dataclass(frozen=True)
class ChunkExtent:
    """A contiguous piece of a file living inside one chunk on one target."""

    target_id: int
    chunk_index: int  # global chunk index within the file
    chunk_offset: int  # byte offset inside the chunk
    file_offset: int  # byte offset inside the file
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise StripingError("extent length must be positive")
        if self.chunk_offset < 0 or self.file_offset < 0 or self.chunk_index < 0:
            raise StripingError("negative extent coordinates")


@dataclass(frozen=True)
class StripePattern:
    """The stripe layout of one file: its targets and chunk size.

    ``targets`` is an ordered tuple of target ids; order matters because
    chunk ``i`` goes to ``targets[i % count]``.
    """

    targets: tuple[int, ...]
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if not self.targets:
            raise StripingError("stripe pattern needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise StripingError(f"duplicate targets in stripe pattern: {self.targets}")
        if self.chunk_size <= 0:
            raise StripingError(f"chunk size must be positive, got {self.chunk_size}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))

    @property
    def stripe_count(self) -> int:
        return len(self.targets)

    # -- chunk arithmetic ------------------------------------------------------

    def chunk_of_offset(self, offset: int) -> int:
        """Global chunk index containing the byte at ``offset``."""
        if offset < 0:
            raise StripingError(f"negative offset {offset}")
        return offset // self.chunk_size

    def target_of_chunk(self, chunk_index: int) -> int:
        """Target holding the given chunk."""
        if chunk_index < 0:
            raise StripingError(f"negative chunk index {chunk_index}")
        return self.targets[chunk_index % self.stripe_count]

    def target_of_offset(self, offset: int) -> int:
        """Target holding the byte at ``offset``."""
        return self.target_of_chunk(self.chunk_of_offset(offset))

    def extents(self, offset: int, length: int) -> Iterator[ChunkExtent]:
        """Split ``[offset, offset + length)`` into per-chunk extents.

        Extents come back in file order; consecutive extents are
        contiguous in the file, so they partition the range exactly.
        """
        if offset < 0:
            raise StripingError(f"negative offset {offset}")
        if length < 0:
            raise StripingError(f"negative length {length}")
        pos = offset
        end = offset + length
        while pos < end:
            chunk = pos // self.chunk_size
            chunk_start = chunk * self.chunk_size
            chunk_off = pos - chunk_start
            piece = min(end - pos, self.chunk_size - chunk_off)
            yield ChunkExtent(
                target_id=self.target_of_chunk(chunk),
                chunk_index=chunk,
                chunk_offset=chunk_off,
                file_offset=pos,
                length=piece,
            )
            pos += piece

    def bytes_per_target(self, length: int, offset: int = 0) -> dict[int, int]:
        """Exact bytes landing on each stripe target for the given range.

        Computed in O(stripe count), not by enumerating chunks: full
        stripe rounds contribute equally and the remainder is walked
        chunk by chunk.
        """
        if length < 0:
            raise StripingError(f"negative length {length}")
        if length == 0:
            return {t: 0 for t in self.targets}
        if offset < 0:
            raise StripingError(f"negative chunk index {offset // self.chunk_size}")
        # Positions are periodic in whole stripe rounds, so the offset is
        # reduced modulo one round before hitting the geometry cache.
        period = self.stripe_count * self.chunk_size
        by_position = _bytes_per_position(
            self.stripe_count, self.chunk_size, length, offset % period
        )
        return {t: by_position[p] for p, t in enumerate(self.targets)}

    def file_size_on_target(self, file_size: int, target_id: int) -> int:
        """Bytes of a ``file_size``-byte file stored on ``target_id``."""
        if target_id not in self.targets:
            raise StripingError(f"target {target_id} not in pattern {self.targets}")
        return self.bytes_per_target(file_size)[target_id]
