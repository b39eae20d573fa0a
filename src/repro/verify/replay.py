"""Deterministic-replay verification.

The reproducibility claim behind every experiment in this repo is that
a (seed, rep) pair fully determines a run: same seed, same bytes, same
timings — including under fault schedules, retry storms and noise.  The
engines implement this through the named :class:`~repro.rng.SeedTree`;
this module *proves* it per configuration by executing the same run
twice and comparing fingerprints of everything the run produced.

The fingerprint covers every per-application field (start/end times,
byte volumes, targets, placements), the segment count, the retry and
abandonment tallies and the full fault-event trace.  Floats enter the
canonical form via ``repr``, so replay must match to the last ulp —
"close" is a determinism bug, not a pass.
"""

from __future__ import annotations

from typing import Any, Callable

from ..engine.result import RunResult
from ..errors import ReplayDivergenceError
from ..scenario.canonical import fingerprint_of

__all__ = ["canonical_form", "result_fingerprint", "check_replay"]


def canonical_form(result: RunResult) -> dict[str, Any]:
    """A JSON-serialisable projection of everything replay must preserve."""
    return {
        "apps": [
            {
                "app_id": a.app_id,
                "start_time": repr(a.start_time),
                "end_time": repr(a.end_time),
                "volume_bytes": repr(a.volume_bytes),
                "num_nodes": a.num_nodes,
                "ppn": a.ppn,
                "stripe_count": a.stripe_count,
                "targets": list(a.targets),
                "placement": list(a.placement),
            }
            for a in result.apps
        ],
        "segments": result.segments,
        "retries": result.retries,
        "abandoned_flows": result.abandoned_flows,
        "fault_events": [
            {k: (repr(v) if isinstance(v, float) else v) for k, v in sorted(e.items())}
            for e in result.fault_events
        ],
    }


def result_fingerprint(result: RunResult) -> str:
    """A stable sha256 digest of the run's canonical form.

    Hashes through :func:`repro.scenario.canonical.fingerprint_of`, the
    same canonical-JSON convention the :class:`~repro.scenario.ScenarioSpec`
    content fingerprints use, so every digest in the system agrees on
    its serialization rules.
    """
    return fingerprint_of(canonical_form(result))


def _first_difference(a: dict[str, Any], b: dict[str, Any], prefix: str = "") -> str:
    """Human-oriented pointer at the first diverging leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{prefix}{key}: present in only one run"
            if a[key] != b[key]:
                return _first_difference(a[key], b[key], f"{prefix}{key}.")
        return f"{prefix.rstrip('.')}: dicts equal (fingerprint collision?)"
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{prefix.rstrip('.')}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{prefix}[{i}].")
        return f"{prefix.rstrip('.')}: lists equal"
    return f"{prefix.rstrip('.')}: {a!r} vs {b!r}"


def check_replay(
    factory: Callable[[], RunResult],
    runs: int = 2,
    context: str = "",
) -> str:
    """Execute ``factory`` ``runs`` times; all results must be identical.

    ``factory`` may run on one engine throughout, as every campaign rep
    after the first does: state a run leaves behind then shows up as a
    divergence of the next.  That two independently constructed engines
    agree is pinned elsewhere (the engine-fingerprint golden and the
    serial == parallel campaigns).  Returns the common fingerprint;
    raises :class:`ReplayDivergenceError` naming the first diverging
    field otherwise.
    """
    if runs < 2:
        raise ValueError("check_replay needs at least 2 runs to compare")
    first = factory()
    reference = canonical_form(first)
    fingerprint = result_fingerprint(first)
    for i in range(1, runs):
        other = factory()
        if result_fingerprint(other) != fingerprint:
            where = _first_difference(reference, canonical_form(other))
            label = f" [{context}]" if context else ""
            raise ReplayDivergenceError(
                f"replay{label} diverged on run {i + 1}/{runs} at {where}"
            )
    return fingerprint
