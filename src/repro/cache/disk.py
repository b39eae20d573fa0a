"""The on-disk tier: ``ResultCache``, written atomically but not fsync'd.

Layout, atomic writes, header validation and size-bounded GC are
preserved byte-for-byte from the original ``repro.service.ResultCache``
(which re-exports this class for compatibility).  An entry's only
reader is a later lookup, and a torn, empty, zero-filled or missing
entry reads as a quarantined miss that re-executes to the same bytes,
so an fsync would protect nothing a reader needs.  Two behaviours are
new:

* **touch-on-hit** — a validated load best-effort bumps the entry's
  mtime, so ``gc``'s oldest-mtime-first ordering is true LRU instead of
  FIFO (before this, nothing ever touched mtime after the write);
* **corrupt-entry quarantine** — an entry that fails UTF-8 or JSON
  decoding is renamed to ``<entry>.corrupt`` (best-effort) and reported
  through the ``on_corrupt`` hook, instead of being re-read and
  re-failed on every future lookup.  Quarantined files are still
  counted and evictable by ``gc``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping

from ..errors import ConfigError
from ..scenario import MODEL_REVISION, ScenarioSpec
from ..telemetry.bus import get_bus
from .tier import (
    CACHE_SCHEMA,
    EntryKey,
    safe_fingerprint,
    safe_token,
    validate_entry,
)

__all__ = ["ResultCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/beegfs-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "beegfs-repro"


class ResultCache:
    """Content-addressed on-disk store of simulated run results.

    Layout: ``<root>/<fp[:2]>/<fp>/<engine>-m<model_revision>-r<rep>.json``
    where ``fp`` is the spec's behaviour fingerprint.  Entries are JSON
    with the full spec embedded, so an entry is self-describing (and a
    fingerprint collision with a *different* spec would be detectable).
    Writes are atomic (same-directory tempfile + ``os.replace``), so
    concurrent campaigns over one cache directory cannot corrupt it and
    no reader ever sees a partial entry.  They are not fsync'd: a crash
    may lose or tear a recent entry, and a lookup then quarantines it
    (undecodable) or finds nothing — a miss either way, and the run
    re-executes to the same bytes.

    ``on_corrupt`` (when set) is called with the path of every entry
    quarantined after a decode failure — the service hooks its
    ``corrupt`` tally here without this module importing the service.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        on_corrupt: Callable[[Path], None] | None = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.on_corrupt = on_corrupt

    def path_for(self, spec: ScenarioSpec, rep: int) -> Path:
        fp = spec.fingerprint
        return self.root / fp[:2] / fp / f"{spec.engine}-m{MODEL_REVISION}-r{int(rep)}.json"

    def path_for_key(
        self, fingerprint: str, engine: str, rep: int, model_revision: int | None = None
    ) -> Path:
        """The entry path for a bare key (spec-less remote lookups).

        Raises :class:`ConfigError` on a fingerprint or engine that is
        not path-safe — keys arriving over the wire must never be able
        to address outside the cache root.
        """
        fp = safe_fingerprint(fingerprint)
        eng = safe_token(engine)
        if fp is None or eng is None:
            raise ConfigError(
                f"unsafe cache key ({fingerprint!r}, {engine!r}, {rep!r})"
            )
        rev = MODEL_REVISION if model_revision is None else int(model_revision)
        return self.root / fp[:2] / fp / f"{eng}-m{rev}-r{int(rep)}.json"

    def _quarantine(self, path: Path) -> None:
        """Sideline an undecodable entry as ``<entry>.corrupt`` (best effort)."""
        try:
            path.rename(path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        if self.on_corrupt is not None:
            self.on_corrupt(path)

    def _read_validated(self, path: Path, **expect: Any) -> dict[str, Any] | None:
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (UnicodeDecodeError, json.JSONDecodeError):
            # Bytes that are not UTF-8 are as corrupt as a torn write.
            self._quarantine(path)
            return None
        if not validate_entry(entry, **expect):
            return None
        # Touch-on-hit (best effort): gc evicts oldest-mtime-first, so a
        # read must refresh the entry or eviction degenerates to FIFO.
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def load(self, spec: ScenarioSpec, rep: int) -> dict[str, Any] | None:
        """The entry for (spec, rep), or ``None`` on a miss or corruption.

        A missing file is a normal miss; a torn/garbled entry is
        quarantined and degrades to a miss (the run simply re-executes).
        Any *other* ``OSError`` — dead mount, permission loss,
        not-a-directory — propagates so the service can count it against
        the cache circuit breaker.
        """
        return self._read_validated(
            self.path_for(spec, rep),
            fingerprint=spec.fingerprint,
            engine=spec.engine,
            rep=int(rep),
        )

    def load_key(
        self, fingerprint: str, engine: str, rep: int, model_revision: int | None = None
    ) -> dict[str, Any] | None:
        """Like :meth:`load` but addressed by bare key (the server's path)."""
        fp = safe_fingerprint(fingerprint)
        eng = safe_token(engine)
        if fp is None or eng is None:
            return None
        return self._read_validated(
            self.path_for_key(fp, eng, rep, model_revision),
            fingerprint=fp,
            engine=eng,
            rep=int(rep),
            model_revision=model_revision,
        )

    def load_many(
        self, jobs: "list[tuple[ScenarioSpec, int]]"
    ) -> dict[EntryKey, dict[str, Any]]:
        """Bulk lookup: load every hit among ``jobs`` in one pass.

        Jobs are grouped by fingerprint and each fingerprint directory
        is scanned **once** (one ``scandir`` replaces a failed ``open``
        per missing rep), visiting directories in sorted order.  I/O
        errors leave the affected jobs misses — the bulk path is
        opportunistic; breaker accounting stays on the per-run path.
        """
        out: dict[EntryKey, dict[str, Any]] = {}
        by_fp: dict[str, list[tuple[ScenarioSpec, int]]] = {}
        for spec, rep in jobs:
            by_fp.setdefault(spec.fingerprint, []).append((spec, int(rep)))
        for fp in sorted(by_fp):
            probe = by_fp[fp][0][0]
            try:
                names = {e.name for e in os.scandir(self.path_for(probe, 0).parent)}
            except OSError:
                continue
            for spec, rep in sorted(by_fp[fp], key=lambda job: job[1]):
                key = (spec.fingerprint, spec.engine, rep)
                if key in out or self.path_for(spec, rep).name not in names:
                    continue
                try:
                    entry = self.load(spec, rep)
                except OSError:
                    continue
                if entry is not None:
                    out[key] = entry
        return out

    def store_entry(self, entry: Mapping[str, Any]) -> Path:
        """Atomically write one validated entry at its canonical path.

        Atomic, not durable (see the class doc): readers see the old
        entry or the whole new one, and a crash that loses the write
        leaves a miss.
        """
        if not validate_entry(entry, model_revision=entry.get("model_revision")):
            raise ConfigError("malformed cache entry")
        path = self.path_for_key(
            entry["fingerprint"], entry["engine"], entry["rep"], entry["model_revision"]
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(dict(entry)))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*/*.json"))

    def _scan(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every entry, quarantined files included."""
        files: list[tuple[float, int, Path]] = []
        if self.root.is_dir():
            for pattern in ("*/*/*.json", "*/*/*.json.corrupt"):
                for path in self.root.glob(pattern):
                    try:
                        st = path.stat()
                    except OSError:
                        continue
                    files.append((st.st_mtime, st.st_size, path))
        return files

    def stats(self) -> dict[str, Any]:
        files = self._scan()
        return {
            "entries": len(self),
            "bytes": sum(size for _, size, _ in files),
            "corrupt": sum(1 for _, _, p in files if p.name.endswith(".corrupt")),
            "root": str(self.root),
        }

    def gc(self, max_bytes: int, dry_run: bool = False) -> dict[str, int]:
        """Evict entries, oldest mtime first, until the cache fits.

        LRU-by-mtime: loads touch mtime (touch-on-hit), so eviction
        order reflects real access recency.  Emptied fingerprint
        directories are pruned.  Returns a summary and emits a
        ``cache.gc`` event plus the ``service.cache.evicted`` counter.

        ``dry_run=True`` deletes nothing: the summary reports what a
        real pass *would* evict (and no event or counter is emitted,
        since nothing happened).
        """
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        files = self._scan()
        files.sort(key=lambda item: (item[0], str(item[2])))
        total = sum(size for _, size, _ in files)
        evicted = 0
        freed = 0
        for _, size, path in files:
            if total - freed <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            evicted += 1
            freed += size
        if evicted and not dry_run:
            for depth in ("*/*", "*"):
                for directory in self.root.glob(depth):
                    try:
                        directory.rmdir()
                    except OSError:
                        pass  # not empty (or gone already)
        summary = {
            "scanned": len(files),
            "evicted": evicted,
            "freed_bytes": freed,
            "remaining_bytes": total - freed,
            "dry_run": bool(dry_run),
        }
        if dry_run:
            return summary
        bus = get_bus()
        if bus.enabled:
            bus.metrics.counter("service.cache.evicted").inc(evicted)
            bus.emit(
                "cache.gc",
                evicted=evicted,
                freed_bytes=freed,
                remaining_bytes=total - freed,
            )
        return summary
