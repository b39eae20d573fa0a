"""Max-min fair rate allocation (progressive filling / water-filling).

Given flows, each crossing a subset of capacitated resources, the
max-min fair allocation raises all rates together until a resource
saturates, freezes the flows crossing it, and continues with the rest.
This is the classic fluid model of fair bandwidth sharing; it is what
makes the paper's Figure 9 argument quantitative (an unbalanced (1,3)
allocation leaves one server link idle for part of the run).

Per-flow rate caps are supported both directly (``flow_caps``) and as
rate-dependent callables through :func:`solve_with_caps`, which runs a
short fixed-point iteration: the caps are seeded from the uncapped
allocation and afterwards only ever rise, so the iteration converges
monotonically.

The implementation is vectorised with NumPy over an incidence matrix.
The fluid engine solves many segments over the *same* flow population
— flows enter and leave far less often than capacities change — so
:class:`MaxMinSolver` builds the incidence matrix once per population
and reuses it across solves.  Nothing is memoized: every call solves,
and returns a fresh array.  :func:`max_min_rates` remains the one-shot
functional entry point.  The fill loops enter ``np.errstate`` once per
solve and reduce with the ufuncs' own ``reduce`` (``np.logical_or``,
``np.minimum``) and masked in-place updates, which compute what the
``ndarray`` methods and boolean-indexed updates did, element for
element.

A solve may also weight its rows with integer ``counts``: row ``r``
then stands for ``counts[r]`` identical flows.  Identical flows share
every headroom, delta and freeze decision of the fill, and integer user
counts are exact, so each row's rate equals, bit for bit, the rate every
one of its flows gets from the expanded per-flow solve.  The one
exception is the fill's force-freeze corner, which freezes a single
flow by the caller's order; a counted solve that reaches it returns
``None`` and leaves the caller to solve the expanded rows.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ..errors import FlowError

__all__ = ["MaxMinSolver", "max_min_rates", "solve_with_caps", "fairness_violations"]

# Hard ceiling on the lanes of one stacked solve; callers chunk above it.
_MAX_BATCH_LANES = 4096

_EPS = 1e-9

# The ufuncs' own reductions: what ``ndarray.any``/``.all``/``.min``
# compute, without the Python wrapper layers around them.
_any = np.logical_or.reduce
_all = np.logical_and.reduce
_min = np.minimum.reduce


def _membership_arrays(
    memberships: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten memberships to ``(counts, flat_indices)`` arrays."""
    nflows = len(memberships)
    counts = np.fromiter((len(m) for m in memberships), dtype=np.intp, count=nflows)
    flat = np.fromiter(
        chain.from_iterable(memberships), dtype=np.intp, count=int(counts.sum())
    )
    return counts, flat


def _build_incidence(
    memberships: Sequence[Sequence[int]], nres: int, allow_empty: bool = False
) -> np.ndarray:
    """The boolean flows x resources incidence matrix, validated."""
    nflows = len(memberships)
    counts, flat = _membership_arrays(memberships)
    if not allow_empty and nflows and (counts == 0).any():
        f = int(np.argmax(counts == 0))
        raise FlowError(f"flow {f} crosses no resources")
    incidence = np.zeros((nflows, nres), dtype=bool)
    if flat.size:
        bad = (flat < 0) | (flat >= nres)
        if bad.any():
            pos = int(np.argmax(bad))
            f = int(np.searchsorted(np.cumsum(counts), pos, side="right"))
            raise FlowError(f"flow {f}: resource index {int(flat[pos])} out of range")
        incidence[np.repeat(np.arange(nflows), counts), flat] = True
    return incidence


class MaxMinSolver:
    """Progressive-filling solver with a reusable incidence matrix.

    Built once for a fixed flow population (``memberships`` over
    ``num_resources`` resources), then solved repeatedly for varying
    capacities and per-flow caps.  Compared with calling
    :func:`max_min_rates` per segment this avoids re-validating and
    re-building the incidence matrix — the dominant cost for the fluid
    engine's problem sizes.  Every solve computes afresh; the returned
    rate arrays belong to the caller.
    """

    def __init__(self, memberships: Sequence[Sequence[int]], num_resources: int):
        self._adopt(_build_incidence(memberships, int(num_resources)))

    @classmethod
    def from_incidence(cls, incidence: np.ndarray) -> "MaxMinSolver":
        """A solver over a boolean flows x resources matrix already validated.

        The solver takes ``incidence`` over and makes it read-only; the
        rows must be what :func:`_build_incidence` builds from valid
        memberships (every flow crosses at least one resource).
        """
        solver = cls.__new__(cls)
        solver._adopt(incidence)
        return solver

    def _adopt(self, incidence: np.ndarray) -> None:
        self.num_flows, self.num_resources = incidence.shape
        self._incidence = incidence
        self._incidence.setflags(write=False)
        # Per-resource active-flow counts when *every* flow is active —
        # the common case at the top of a solve (no dead resources, no
        # zero caps), saved so the fill loop can start incrementally.
        self._users_all = self._incidence.sum(axis=0)
        # Integer view of the incidence for exact batched matmuls (the
        # products are sums of 0/1 integers, so they match the
        # boolean-mask reductions of the scalar path bit for bit).
        # Built lazily: only batched solves need it.
        self._inc_int_cache: np.ndarray | None = None

    @property
    def _inc_int(self) -> np.ndarray:
        if self._inc_int_cache is None:
            self._inc_int_cache = self._incidence.astype(np.intp)
        return self._inc_int_cache

    @property
    def incidence(self) -> np.ndarray:
        """The (read-only) boolean flows x resources matrix."""
        return self._incidence

    def solve(
        self,
        capacities: np.ndarray | Sequence[float],
        flow_caps: np.ndarray | Sequence[float] | None = None,
        counts: np.ndarray | Sequence[int] | None = None,
    ) -> np.ndarray | None:
        """Max-min fair rates for this population under ``capacities``.

        Semantics are identical to :func:`max_min_rates`.  With
        ``counts`` (one non-negative integer per row) row ``r`` stands
        for ``counts[r]`` identical flows and gets their common rate; a
        row with count 0 is inactive and gets 0.  A counted solve that
        reaches the order-dependent force-freeze corner returns ``None``:
        solve the expanded rows with :func:`max_min_rates` instead.
        """
        caps = np.asarray(capacities, dtype=float)
        if caps.shape != (self.num_resources,):
            raise FlowError(
                f"capacities must have shape ({self.num_resources},), got {caps.shape}"
            )
        if np.count_nonzero(caps < 0):
            raise FlowError("negative resource capacity")
        fc: np.ndarray | None = None
        if flow_caps is not None:
            fc = np.asarray(flow_caps, dtype=float)
            if fc.shape != (self.num_flows,):
                raise FlowError("flow_caps must have one entry per flow")
            if np.count_nonzero(fc < 0):
                raise FlowError("negative flow cap")
        if counts is None:
            return self._fill(caps, fc)
        cnt = np.asarray(counts)
        if cnt.shape != (self.num_flows,):
            raise FlowError("counts must have one entry per flow")
        if cnt.size and cnt.dtype.kind not in "iu":
            raise FlowError("counts must be integers")
        if (cnt < 0).any():
            raise FlowError("negative flow count")
        return self._fill_counted(caps, fc, cnt.astype(np.intp, copy=False))

    def solve_batch(
        self,
        capacities: np.ndarray | Sequence[Sequence[float]],
        flow_caps: np.ndarray | Sequence[Sequence[float]] | None = None,
    ) -> np.ndarray:
        """Max-min fair rates for a stacked batch of capacity vectors.

        ``capacities`` is ``(lanes, num_resources)``; ``flow_caps``,
        when given, is ``(lanes, num_flows)``.  Lane ``b`` of the
        returned ``(lanes, num_flows)`` array is **bit-identical** to
        ``solve(capacities[b], flow_caps[b])``: the batched fill runs
        every lane through the same elementwise arithmetic the scalar
        loop performs, and its only reductions (mins, 0/1 integer sums)
        are exact.
        """
        caps = np.asarray(capacities, dtype=float)
        if caps.ndim != 2 or caps.shape[1] != self.num_resources:
            raise FlowError(
                f"capacities must have shape (lanes, {self.num_resources}), "
                f"got {caps.shape}"
            )
        if caps.shape[0] > _MAX_BATCH_LANES:
            raise FlowError(f"batch of {caps.shape[0]} lanes exceeds {_MAX_BATCH_LANES}")
        if np.count_nonzero(caps < 0):
            raise FlowError("negative resource capacity")
        fc: np.ndarray | None = None
        if flow_caps is not None:
            fc = np.asarray(flow_caps, dtype=float)
            if fc.shape != (caps.shape[0], self.num_flows):
                raise FlowError(
                    f"flow_caps must have shape ({caps.shape[0]}, {self.num_flows}), "
                    f"got {fc.shape}"
                )
            if np.count_nonzero(fc < 0):
                raise FlowError("negative flow cap")
        return self._fill_batch(caps, fc)

    def _fill_batch(self, caps: np.ndarray, flow_caps: np.ndarray | None) -> np.ndarray:
        """Progressive filling over stacked lanes (validated inputs only).

        Every operation below is either elementwise per lane or an exact
        reduction (min, 0/1 integer sum), so each lane's trajectory —
        deltas, freeze order, final rates — reproduces the scalar
        :meth:`_fill` bit for bit.  Finished lanes are masked out of the
        updates and keep their values.
        """
        lanes = caps.shape[0]
        nflows, nres = self.num_flows, self.num_resources
        inc_int = self._inc_int
        rates = np.zeros((lanes, nflows))
        if nflows == 0 or lanes == 0:
            return rates

        if flow_caps is None:
            cap_rem = np.full((lanes, nflows), np.inf)
        else:
            cap_rem = flow_caps.astype(float, copy=True)

        active = np.ones((lanes, nflows), dtype=bool)
        rem = caps.astype(float)  # a copy

        zero_res = rem <= _EPS
        if np.count_nonzero(zero_res):
            active &= ~((zero_res.astype(np.intp) @ inc_int.T) > 0)
        active &= cap_rem > _EPS

        users = active.astype(np.intp) @ inc_int  # (lanes, nres), exact

        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(nflows + nres + 1):
                live = _any(active, axis=1)
                if not np.count_nonzero(live):
                    break
                headroom = np.where(users > 0, rem / np.maximum(users, 1), np.inf)
                delta_res = _min(headroom, axis=1)
                delta_cap = _min(cap_rem, axis=1, where=active, initial=np.inf)
                delta = np.minimum(delta_res, delta_cap)
                if not _all(np.isfinite(delta[live])):
                    raise FlowError("unbounded max-min allocation (no finite constraint)")
                delta = np.where(live, np.maximum(delta, 0.0), 0.0)

                # Inactive entries are left as they are: adding (or
                # subtracting) the 0.0 an unmasked update would apply to
                # them changes no bit of a rate (never -0.0) or a cap.
                lane_delta = delta[:, None]
                np.add(rates, lane_delta, out=rates, where=active)
                rem -= lane_delta * users
                np.subtract(cap_rem, lane_delta, out=cap_rem, where=active)

                saturated_res = (rem <= _EPS) & (users > 0)
                freeze = active & (
                    ((saturated_res.astype(np.intp) @ inc_int.T) > 0) | (cap_rem <= _EPS)
                )
                stuck = live & ~_any(freeze, axis=1)
                if np.count_nonzero(stuck):
                    # Numerical corner, per lane: force-freeze the flow at
                    # the tightest constraint so progress is guaranteed.
                    for b in np.flatnonzero(stuck):
                        tight = int(np.argmin(np.where(active[b], cap_rem[b], np.inf)))
                        freeze[b, tight] = True
                removed = active & freeze
                if np.count_nonzero(removed):
                    users -= removed.astype(np.intp) @ inc_int
                active &= ~freeze
            else:  # pragma: no cover - loop bound is a hard invariant
                raise FlowError("max-min allocation did not converge")
        return rates

    def _fill_counted(
        self, caps: np.ndarray, flow_caps: np.ndarray | None, counts: np.ndarray
    ) -> np.ndarray | None:
        """:meth:`_fill` over counted rows (validated inputs only).

        Step for step the per-flow loop, with two differences: the
        per-resource user counts are count-weighted sums of incidence
        rows, and the force-freeze corner returns ``None``.  Skipping
        the arithmetic of absent flow caps (all ``inf``) changes no
        result.
        """
        nflows, nres = self.num_flows, self.num_resources
        incidence, inc_int = self._incidence, self._inc_int
        rates = np.zeros(nflows)
        active = counts > 0
        rem = caps.astype(float)  # a copy
        zero_res = rem <= _EPS
        if zero_res.any():
            active &= ~incidence[:, zero_res].any(axis=1)
        cap_rem = None
        if flow_caps is not None:
            cap_rem = flow_caps.astype(float)
            active &= cap_rem > _EPS
        if not np.count_nonzero(active):
            return rates
        users = np.where(active, counts, 0) @ inc_int

        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(nflows + nres + 1):
                busy = users > 0
                headroom = np.where(busy, rem / np.maximum(users, 1), np.inf)
                delta = headroom.min()
                # As in _fill: inf, not NaN, when no headroom is finite.
                if not delta < np.inf and not np.isfinite(headroom).any():
                    delta = np.inf
                if cap_rem is not None:
                    delta = min(delta, cap_rem[active].min())
                if not math.isfinite(delta):
                    raise FlowError("unbounded max-min allocation (no finite constraint)")
                delta = max(delta, 0.0)

                np.add(rates, delta, out=rates, where=active)
                rem -= delta * users
                freeze = active & incidence[:, (rem <= _EPS) & busy].any(axis=1)
                if cap_rem is not None:
                    np.subtract(cap_rem, delta, out=cap_rem, where=active)
                    freeze |= active & (cap_rem <= _EPS)
                if not np.count_nonzero(freeze):
                    # The per-flow loop would force-freeze one flow by its
                    # position here, parting the members of a row.
                    return None
                users -= np.where(freeze, counts, 0) @ inc_int
                active ^= freeze
                if not np.count_nonzero(active):
                    return rates
        raise FlowError("max-min allocation did not converge")  # pragma: no cover

    def _fill(self, caps: np.ndarray, flow_caps: np.ndarray | None) -> np.ndarray:
        """The progressive-filling loop (validated inputs only)."""
        nflows, nres = self.num_flows, self.num_resources
        incidence = self._incidence
        rates = np.zeros(nflows)
        if nflows == 0:
            return rates

        if flow_caps is None:
            cap_rem = np.full(nflows, np.inf)
        else:
            cap_rem = flow_caps.astype(float, copy=True)

        active = np.ones(nflows, dtype=bool)
        rem = caps.astype(float)  # a copy

        # Flows through zero-capacity resources can never move.
        zero_res = rem <= _EPS
        if np.count_nonzero(zero_res):
            active &= ~_any(incidence[:, zero_res], axis=1)
        # Flows capped at zero are immediately frozen at rate 0.
        active &= cap_rem > _EPS

        # Active flows per resource, maintained incrementally: integer
        # subtraction of frozen flows' rows is exact, so the counts (and
        # therefore every float that follows) match a from-scratch
        # recompute bit for bit.
        if np.count_nonzero(active) == nflows:
            users = self._users_all.copy()
        else:
            users = incidence[active].sum(axis=0)

        # Each iteration freezes at least one flow, so this terminates in
        # at most ``nflows`` iterations.
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(nflows + nres + 1):
                if not np.count_nonzero(active):
                    break
                headroom = np.where(users > 0, rem / np.maximum(users, 1), np.inf)
                delta_res = _min(headroom, initial=np.inf)
                # inf, not NaN, when no headroom is finite.
                if not delta_res < np.inf and not _any(np.isfinite(headroom)):
                    delta_res = np.inf
                delta_cap = _min(cap_rem, where=active, initial=np.inf)
                delta = min(delta_res, delta_cap)
                if not math.isfinite(delta):
                    raise FlowError("unbounded max-min allocation (no finite constraint)")
                delta = max(delta, 0.0)

                np.add(rates, delta, out=rates, where=active)
                rem -= delta * users
                np.subtract(cap_rem, delta, out=cap_rem, where=active)

                saturated_res = (rem <= _EPS) & (users > 0)
                freeze = active & (_any(incidence[:, saturated_res], axis=1) | (cap_rem <= _EPS))
                if not np.count_nonzero(freeze):
                    # Numerical corner: force-freeze the flows at the tightest
                    # constraint so progress is guaranteed.
                    tight = np.argmin(np.where(active, cap_rem, np.inf))
                    freeze = np.zeros(nflows, dtype=bool)
                    freeze[tight] = True
                removed = active & freeze
                if np.count_nonzero(removed):
                    users -= incidence[removed].sum(axis=0)
                active &= ~freeze
            else:  # pragma: no cover - loop bound is a hard invariant
                raise FlowError("max-min allocation did not converge")
        return rates


def max_min_rates(
    memberships: Sequence[Sequence[int]],
    capacities: np.ndarray | Sequence[float],
    flow_caps: np.ndarray | Sequence[float] | None = None,
) -> np.ndarray:
    """Compute the max-min fair rates of ``F`` flows over ``R`` resources.

    Parameters
    ----------
    memberships:
        For each flow, the indices of the resources it crosses.
    capacities:
        Capacity of each resource (same unit as the returned rates).
    flow_caps:
        Optional hard per-flow rate caps (``inf`` for uncapped).

    Returns
    -------
    numpy.ndarray
        The rate of each flow.  Flows crossing a zero-capacity resource
        get rate 0.  The allocation saturates at least one constraint
        per flow (resource or cap), the defining property of max-min
        fairness.
    """
    caps = np.asarray(capacities, dtype=float)
    nres = caps.shape[0]
    nflows = len(memberships)
    if np.any(caps < 0):
        raise FlowError("negative resource capacity")
    if nflows == 0:
        return np.zeros(0)
    return MaxMinSolver(memberships, nres).solve(caps, flow_caps)


def solve_with_caps(
    memberships: Sequence[Sequence[int]],
    capacities: np.ndarray | Sequence[float],
    cap_fn: Callable[[np.ndarray], np.ndarray] | None,
    iterations: int = 4,
) -> np.ndarray:
    """Max-min allocation with rate-dependent per-flow caps.

    ``cap_fn(rates)`` returns, for each flow, the maximum rate it can
    actually sustain when offered that share (e.g. the blocking-request
    model of :mod:`repro.netsim.latency`).  Because ``cap_fn`` maps an
    offered share to a strictly smaller achieved rate, naively iterating
    it on its own output spirals to zero; the physically meaningful cap
    is the one evaluated at the *offered* (uncapped) share.  So the caps
    are seeded from the uncapped allocation and afterwards only allowed
    to **rise** — a flow whose share grows when others are capped may
    achieve more — which converges monotonically.
    """
    rates = max_min_rates(memberships, capacities, None)
    if cap_fn is None:
        return rates
    caps = np.asarray(cap_fn(rates), dtype=float)
    if caps.shape != rates.shape:
        raise FlowError("cap_fn returned wrong shape")
    for _ in range(max(1, iterations)):
        rates = max_min_rates(memberships, capacities, caps)
        new_caps = np.maximum(caps, np.asarray(cap_fn(rates), dtype=float))
        if np.allclose(new_caps, caps, rtol=1e-6, atol=1e-9):
            break
        caps = new_caps
    return rates


def fairness_violations(
    memberships: Sequence[Sequence[int]],
    capacities: np.ndarray | Sequence[float],
    rates: np.ndarray | Sequence[float],
    flow_caps: np.ndarray | Sequence[float] | None = None,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> list[int]:
    """Indices of flows that saturate *no* constraint — the max-min certificate.

    A max-min fair allocation has a simple machine-checkable witness:
    every flow is held back by *something* — either one of its resources
    is saturated (its usage reaches capacity) or the flow sits at its own
    rate cap.  A flow constrained by neither could be raised without
    hurting anyone, so the allocation would not be max-min fair.  The
    returned list is empty for a fair allocation; non-empty means the
    solver (or the capacities handed to it) is inconsistent.

    Zero-capacity resources count as saturated (their flows are pinned at
    rate 0 by a binding constraint).  Tolerances absorb the progressive
    filling epsilon; they are deliberately loose enough that only genuine
    solver bugs trip the certificate.
    """
    caps = np.asarray(capacities, dtype=float)
    rates_arr = np.asarray(rates, dtype=float)
    nflows = len(memberships)
    if nflows != rates_arr.shape[0]:
        raise FlowError("rates must have one entry per flow")
    counts, flat = _membership_arrays(memberships)
    # ``np.add.at`` accumulates unbuffered in membership order, so the
    # usage vector rounds identically to the scalar loop it replaces
    # (and duplicate resource indices still count once per occurrence).
    usage = np.zeros(caps.shape[0])
    if flat.size:
        np.add.at(usage, flat, np.repeat(rates_arr, counts))
    saturated = usage >= caps * (1.0 - rtol) - atol
    caps_arr = None
    if flow_caps is not None:
        caps_arr = np.asarray(flow_caps, dtype=float)
        if caps_arr.shape != rates_arr.shape:
            raise FlowError("flow_caps must have one entry per flow")
    # A flow is held back when any of its resources is saturated...
    held = np.zeros(nflows, dtype=bool)
    if flat.size:
        np.logical_or.at(held, np.repeat(np.arange(nflows), counts), saturated[flat])
    # ...or when it sits at its own (finite) rate cap.
    if caps_arr is not None:
        with np.errstate(invalid="ignore"):
            held |= np.isfinite(caps_arr) & (rates_arr >= caps_arr * (1.0 - rtol) - atol)
    return [int(f) for f in np.flatnonzero(~held)]
