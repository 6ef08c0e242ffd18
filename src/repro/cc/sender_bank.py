"""The DCQCN vector engine: one sender bank over a link incidence.

:class:`SenderBank` is the ``engine="vector"`` fast path of
:class:`repro.cc.dcqcn.DcqcnFluidSimulator` on every topology. It runs
over a :class:`LinkFabric` — per-link queues, PFC state and the links x
senders route incidence. The classic single bottleneck is the one-link
fabric :meth:`LinkFabric.bottleneck` (link :data:`BOTTLENECK`, wrapping
``sim.queue``); a topology-backed simulator brings the fabric that
:class:`repro.cc.link_engine.LinkSenderBank` attaches. The bank holds
every sender's DCQCN rate-machine state (current/target rate, alpha,
byte/timer accumulators, increase-stage counters, CNP gating clocks) in
structure-of-arrays form and advances the whole bank per tick, with the
marking randomness pre-drawn in chunks from each sender's generator
(:class:`UniformChunks`). Three mechanisms make it fast while keeping
every observable output (rate series, queue series, job timelines,
bytes/remaining, CNP counts, RNG stream position, PFC pause time)
*bit-identical* to the scalar reference loop
:func:`repro.cc.link_engine.run_scalar_fabric` over the same fabric:

* **Deterministic span advancement** — a tick is deterministic when no
  CNP can possibly arrive on it: on every link either the queue sits at
  or below the marker's ``kmin`` (marking probability exactly zero) or
  every active sender is still inside its CNP gating window (``now``
  before ``_next_cnp_time``, so the scalar sender early-outs before
  drawing). Over a run of such ticks each sender evolves as a
  piecewise-constant left fold punctuated by byte/timer increase events
  at exactly computable ticks. :meth:`SenderBank._plan_sender` walks
  that evolution segment by segment — ``np.cumsum`` evaluates the folds
  sequentially in C, bit-identical to the per-tick ``+=``, and the event
  while-loops run in exact scalar order at the crossing tick — so one
  span can jump hundreds of ticks *through* increase events, not just up
  to the next one. Each link's queue trajectory is the exact elementwise
  fold of the planned per-tick arrivals of the senders crossing it (slot
  order) with the single drain-clamp episode applied in closed form
  (arrivals are nondecreasing between CNPs, so at most one clamp episode
  exists). The span is cut at the earliest violation across all links:
  a queue above ``kmin`` once a sender is CNP-eligible, or an occupancy
  at the PFC pause threshold.
* **Idle and fault-window fast-forward** — when every source is
  computing (or done) the clock jumps to the earliest next burst start
  exposed by :class:`repro.core.lifecycle.OnOffSource` deadlines, on the
  closed-form queue drains. A fault window in which every link is failed
  or every link storms (on the bottleneck, every failure or storm
  window) advances in closed form too. Both synthesize the skipped
  sample rows exactly.
* **Per-tick kernel** — stochastic ticks (a queue above ``kmin`` with a
  CNP-eligible sender, a PFC pause, a window that faults only some
  links) run one flat pass over the bank with hoisted locals and inlined
  queue/marker updates.

Randomness stays DET001-clean: chunks are drawn from the same
generators the scalar engine would use, and :meth:`UniformChunks.rewind`
repositions each generator to the exact state the equivalent sequence
of scalar ``rng.random()`` calls would have left, so callers that reuse
a generator after ``run()`` (e.g. the runner's fluid backend running
several scenarios over shared streams) observe identical draws.

One documented deviation: senders pinned at line rate (``rate`` and
``target_rate`` both at ``line_rate``) have increase events that are
exact no-ops on their rates, and their byte/timer accumulators and
stage counters are dead state until the next CNP resets them. Spans
therefore fold those accumulators without the wrap-around while-loops.
Every externally observable quantity is still bit-identical; only the
private ``_byte_accum``/``_timer_accum``/``_*_stage`` fields of a
line-pinned sender may differ from the scalar engine's at the instant
``run()`` returns, and they re-converge on the next CNP.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lifecycle import OnOffSource
from ..errors import ConfigError
from ..faults.events import InjectionSchedule  # simlint: disable=ARCH001 - CC tiers execute fault windows inline for bit-equivalence; shared types pending a layer move
from ..faults.runtime import (  # simlint: disable=ARCH001 - same inversion as above
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    FabricWindow,
    capacity_windows,
    link_capacity_windows,
)
from ..switches.ecn import RedEcnMarker
from ..switches.queues import FluidQueue
from .dcqcn import (
    DcqcnResult,
    DcqcnSender,
    OnOffDcqcnJob,
    _SampleBuffer,
)

#: A queue's occupancy; ``map`` over it reads every link's occupancy
#: without a per-call comprehension frame.
occupancy_of = attrgetter("occupancy")

#: Minimum profitable deterministic span, ticks. Shorter spans fall back
#: to the per-tick kernel: planning a span costs more than stepping a
#: few ticks directly.
MIN_SPAN = 8

#: Longest span planned at once, ticks. Bounds the planning work thrown
#: away when a span is cut short by a queue/eligibility violation;
#: longer stretches simply chain several spans.
MAX_HORIZON = 256

#: Ticks to wait before re-attempting a span after a failed attempt.
#: Purely a cost heuristic — span boundaries never change results.
TICK_RETRY = 4

#: Safety margin (ticks) subtracted from analytic event estimates before
#: the exact upward scan; covers float rounding in the estimates.
SPAN_MARGIN = 2


class UniformChunks:
    """Chunked uniform draws from one generator, exactly replayable.

    The kernels draw inline — read ``_buf[_pos]``, advance ``_pos``, and
    call :meth:`refill` when the buffer runs out — which yields the same
    sequence as repeated ``rng.random()`` calls (numpy fills
    ``random(n)`` with the identical stream) but amortizes the generator
    call overhead over a chunk of draws. Chunks double from
    :attr:`FIRST_CHUNK` up to :attr:`MAX_CHUNK`, so a short run over
    many streams draws little beyond what it uses. :meth:`rewind`
    restores the generator to the state the equivalent number of scalar
    draws would have produced, discarding the unused tail of the final
    chunk.
    """

    FIRST_CHUNK = 64
    MAX_CHUNK = 4096

    __slots__ = ("_rng", "_chunk", "_buf", "_pos", "_drawn", "_state0")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._chunk = UniformChunks.FIRST_CHUNK
        self._buf: List[float] = []
        self._pos = 0
        #: Draws taken from the generator, including the current chunk.
        self._drawn = 0
        self._state0 = None

    def refill(self) -> List[float]:
        """Draw the next chunk into the buffer and return it; the next
        draw reads position 0."""
        if self._state0 is None:
            self._state0 = self._rng.bit_generator.state
        self._buf = self._rng.random(self._chunk).tolist()
        self._pos = 0
        self._drawn += self._chunk
        if self._chunk < UniformChunks.MAX_CHUNK:
            self._chunk *= 2
        return self._buf

    def rewind(self) -> None:
        """Leave the generator exactly as many scalar draws ahead as the
        kernels consumed."""
        if self._state0 is None:
            return
        consumed = self._drawn - len(self._buf) + self._pos
        self._rng.bit_generator.state = self._state0
        if consumed:
            self._rng.random(consumed)
        self._state0 = None
        self._buf = []
        self._pos = 0
        self._drawn = 0


# ---------------------------------------------------------------------------
# Exact fold helpers
# ---------------------------------------------------------------------------

def fold_last(x0: float, delta: float, n: int) -> float:
    """Value of ``x`` after ``n`` sequential ``x += delta`` updates.

    ``np.cumsum`` accumulates left-to-right, so the result is
    bit-identical to the per-tick Python fold.
    """
    if n <= 0:
        return x0
    arr = np.empty(n + 1)
    arr[0] = x0
    arr[1:] = delta
    return float(arr.cumsum()[-1])


def fold_traj(x0: float, delta: float, n: int) -> np.ndarray:
    """All ``n + 1`` fold values ``x0, x0+delta, ...`` (sequential)."""
    arr = np.empty(n + 1)
    arr[0] = x0
    arr[1:] = delta
    return arr.cumsum()


def clamp_drain(traj: np.ndarray) -> np.ndarray:
    """Apply the queue's ``max(0, .)`` clamp to a draining fold in place.

    Once the exact fold first goes negative the scalar queue pins the
    occupancy at ``0.0`` and every later draining step keeps it there,
    so zeroing the tail reproduces the per-tick clamp bit-for-bit.
    """
    below = np.nonzero(traj < 0.0)[0]
    if below.size:
        traj[below[0]:] = 0.0
    return traj


def activation_tick(deadline: float, dt: float) -> int:
    """First tick index ``j >= 0`` with ``j*dt + dt >= deadline``.

    This is the exact float predicate :class:`OnOffSource` evaluates, so
    the fast-forwarded clock lands on the same activation tick as the
    dt-by-dt loop. The analytic estimate only seeds a short upward scan.
    """
    est = int(math.ceil(deadline / dt)) - (SPAN_MARGIN + 1)
    j = est if est > 0 else 0
    while j * dt + dt < deadline:
        j += 1
    return j


def sample_ticks(start: int, end: int, samples_every: int) -> range:
    """Global tick indices in ``[start, end)`` that emit a sample row."""
    first = -(-(start + 1) // samples_every) * samples_every - 1
    return range(first, end, samples_every)


def sample_rows(
    trajs: Sequence[np.ndarray], wanted: range, start: int
) -> List[List[float]]:
    """Sample-row vectors from per-column trajectories over a span that
    begins at tick ``start``: row ``m`` holds every column's value after
    tick ``wanted[m]`` (index ``wanted[m] - start + 1``)."""
    offsets = np.arange(
        wanted.start - start + 1, wanted.stop - start + 1, wanted.step
    )
    columns = [traj[offsets].tolist() for traj in trajs]
    return [list(row) for row in zip(*columns)]


def _apply_increase(
    r: float,
    tgt: float,
    bst: int,
    tst: int,
    fast: int,
    rai: float,
    rhai: float,
    line: float,
) -> Tuple[float, float]:
    """One increase event on local ``(rate, target)``; exact scalar ops."""
    if bst < fast and tst < fast:
        pass
    elif bst >= fast and tst >= fast:
        tgt += rhai
    else:
        tgt += rai
    if tgt > line:
        tgt = line
    return (tgt + r) / 2.0, tgt


#: Sentinel phase for a timer accumulator whose tick offset from its
#: last exact-zero reset is unknown (pre-existing sender state, or a
#: line-pinned span that folded the accumulator without wrapping). A
#: slot with unknown phase cannot be span-planned until its next CNP,
#: which resets the accumulator to an exact ``0.0`` and re-syncs it.
UNKNOWN_PHASE = -(1 << 60)


class TimerCache:
    """Exact timer-accumulator trajectory for one ``(T, dt)`` pair.

    Every timer accumulator starts from an exact ``0.0`` (fresh sender,
    burst activation, CNP reset) and then evolves by the identical op
    sequence — ``t += dt``; on ``t >= T`` wrap with repeated ``t -= T``
    — so the whole trajectory, values *and* wrap schedule, is a pure
    function of ``(T, dt)``. The cache stores it indexed by integer
    *phase* (ticks since the last reset) and extends itself lazily, so
    span planning replaces per-segment float folds with list lookups.
    """

    CHUNK = 4096

    def __init__(self, T: float, dt: float) -> None:
        self._T = T
        self._dt = dt
        #: ``t_at[p]`` — accumulator value at the *start* of the tick
        #: that is ``p`` ticks after a reset.
        self.t_at: List[float] = [0.0]
        #: ``stages[p]`` — cumulative wrap count up to phase ``p``.
        self.stages: List[int] = [0]
        #: Sorted phases ``q`` whose preceding tick wraps the timer
        #: (``stages[q] > stages[q - 1]``), for bisect-then-index walks.
        self.events: List[int] = []

    def _extend(self, upto: int) -> None:
        T = self._T
        dt = self._dt
        t_at = self.t_at
        stages = self.stages
        events = self.events
        t = t_at[-1]
        st = stages[-1]
        for p in range(len(t_at), upto + TimerCache.CHUNK + 1):
            t += dt
            if t >= T:
                while t >= T:
                    t -= T
                    st += 1
                events.append(p)
            t_at.append(t)
            stages.append(st)

    def value(self, p: int) -> float:
        """Exact accumulator value at phase ``p``."""
        if p >= len(self.t_at):
            self._extend(p)
        return self.t_at[p]


class _Plan:
    """One sender's planned CNP-free evolution.

    ``sent[m]`` is the bytes sent on span tick ``m`` and ``rates[m]``
    the rate at the *start* of tick ``m`` (``rates[m+1]`` is the
    sampled rate after tick ``m``); ``cap`` is the number of ticks
    planned. ``segments`` holds ``(start, rate, target, b_stage,
    t_stage)`` at each event boundary and ``anchors`` holds
    ``(tick, byte_accum)`` at each exact byte-accumulator reset point,
    so :meth:`SenderBank._commit_sender` can recover exact state at any
    cut ``e <= cap``. ``clamped`` marks the line-pinned fast path whose
    timer accumulator folds without wrapping (phase becomes unknown).
    """

    __slots__ = (
        "cap", "sent", "rates", "segments", "anchors", "clamped",
        "t0", "ph0",
    )

    def __init__(
        self,
        cap: int,
        sent: np.ndarray,
        rates: np.ndarray,
        segments: List[tuple],
        anchors: List[tuple],
        clamped: bool,
        t0: float,
        ph0: int,
    ) -> None:
        self.cap = cap
        self.sent = sent
        self.rates = rates
        self.segments = segments
        self.anchors = anchors
        self.clamped = clamped
        self.t0 = t0
        self.ph0 = ph0


#: Link name of the one-link fabric that models the classic single
#: bottleneck (see :meth:`LinkFabric.bottleneck`).
BOTTLENECK = "bottleneck"


class LinkFabric:
    """Per-link queues, PFC state and route incidence for one simulator.

    ``routes`` holds one tuple of link indices per sender slot. A
    topology-backed fabric (:meth:`from_topology`) interns links in
    first-use order over the senders' routes (plus any extra links a
    fault schedule names), so it only carries the links traffic or
    faults can actually touch — a fat tree has ``5k^3/4`` directed
    links but a handful of jobs cross far fewer. The classic single
    bottleneck is the one-link fabric of :meth:`bottleneck`.
    """

    def __init__(
        self,
        names: Sequence[str],
        capacities: Sequence[float],
        routes: Sequence[Tuple[str, ...]],
        queues: Sequence[FluidQueue],
        is_bottleneck: bool = False,
    ) -> None:
        if not names:
            raise ConfigError("fabric needs at least one routed link")
        self.names: List[str] = list(names)
        self.index: Dict[str, int] = {
            name: link for link, name in enumerate(self.names)
        }
        self.base_caps: List[float] = list(capacities)
        self.queues: List[FluidQueue] = list(queues)
        #: Routes as tuples of link indices, one per sender slot.
        self.routes: List[Tuple[int, ...]] = [
            tuple(self.index[name] for name in route) for route in routes
        ]
        #: The single-bottleneck fabric: its fault windows come from the
        #: one-link :func:`capacity_windows`, and its results carry the
        #: headline queue series only (no per-link series).
        self.is_bottleneck = is_bottleneck
        n = len(self.names)
        self.paused: List[bool] = [False] * n
        self.pause_seconds: List[float] = [0.0] * n
        # Per-fault-window effective state (mode + capacity per link).
        self.modes: List[str] = [MODE_NORMAL] * n
        self.eff_caps: List[float] = list(self.base_caps)
        self._index_modes()

    @classmethod
    def from_topology(
        cls,
        topology,
        routes: Sequence[Tuple[str, ...]],
        extra_links: Sequence[str] = (),
        max_occupancy: float = math.inf,
    ) -> "LinkFabric":
        """Resolve named routes (and extra fault-targeted links) against
        ``topology``, one fresh queue per link."""
        names = list(dict.fromkeys(chain(*routes, extra_links)))
        capacities = [topology.link_by_name(name).capacity for name in names]
        queues = [
            FluidQueue(capacity, max_occupancy=max_occupancy)
            for capacity in capacities
        ]
        return cls(names, capacities, routes, queues)

    @classmethod
    def bottleneck(cls, sim) -> "LinkFabric":
        """The single-bottleneck simulator ``sim`` as a one-link fabric:
        link :data:`BOTTLENECK` wraps ``sim.queue`` and carries its PFC
        state, and every sender routes across it."""
        fabric = cls(
            [BOTTLENECK], [sim.capacity],
            [(BOTTLENECK,)] * len(sim.senders), [sim.queue],
            is_bottleneck=True,
        )
        fabric.paused[0] = sim.pfc_paused
        return fabric

    def base_capacities(self) -> Dict[str, float]:
        """Link name -> base capacity, for the fault-window segmentation."""
        return dict(zip(self.names, self.base_caps))

    def windows(
        self, schedule: Optional[InjectionSchedule], steps: int, dt: float
    ) -> List[FabricWindow]:
        """The fault windows tiling ``[0, steps)`` on this fabric."""
        if not self.is_bottleneck:
            return link_capacity_windows(
                schedule, steps, dt, self.base_capacities()
            )
        return [
            FabricWindow(
                window.start, window.end,
                {BOTTLENECK: (window.mode, window.capacity)},
            )
            for window in capacity_windows(
                schedule, steps, dt, self.base_caps[0]
            )
        ]

    def apply_window(self, modes: Dict[str, Tuple[str, float]]) -> None:
        """Point every link at one fault window's mode and capacity."""
        for index, name in enumerate(self.names):
            mode, capacity = modes.get(
                name, (MODE_NORMAL, self.base_caps[index])
            )
            self.modes[index] = mode
            self.eff_caps[index] = capacity
            if mode != MODE_FREEZE:
                self.queues[index].capacity = capacity
        self._index_modes()

    def restore(self) -> None:
        """Reset every link to its base capacity and normal mode."""
        for index, capacity in enumerate(self.base_caps):
            self.modes[index] = MODE_NORMAL
            self.eff_caps[index] = capacity
            self.queues[index].capacity = capacity
        self._index_modes()

    def _index_modes(self) -> None:
        """Per-window views for the per-tick kernel: which links block
        their routes (failed or storming; PFC pauses are added tick by
        tick), and the normal and not-failed links as ``(index, queue)``
        pairs."""
        modes = self.modes
        self.blocked: List[bool] = [mode != MODE_NORMAL for mode in modes]
        self.normal_links: List[Tuple[int, FluidQueue]] = [
            (link, queue)
            for link, queue in enumerate(self.queues)
            if modes[link] == MODE_NORMAL
        ]
        self.live_links: List[Tuple[int, FluidQueue]] = [
            (link, queue)
            for link, queue in enumerate(self.queues)
            if modes[link] != MODE_FREEZE
        ]

    def uniform_mode(self) -> Optional[str]:
        """The mode every link is in, or ``None`` when links differ."""
        mode = self.modes[0]
        for other in self.modes:
            if other != mode:
                return None
        return mode


class SenderBank:
    """Structure-of-arrays state for every sender over one fabric."""

    def __init__(self, sim, fabric: LinkFabric) -> None:
        self.sim = sim
        self.fabric = fabric
        #: Per link, the slots whose route crosses it, ascending — the
        #: reference loop's arrival accumulation order.
        self._link_slots: List[List[int]] = [[] for _ in fabric.names]
        for slot, route in enumerate(fabric.routes):
            for link in route:
                self._link_slots[link].append(slot)
        self.objs: List[object] = []
        self.is_job: List[bool] = []
        self.lifec: List[object] = []
        self.active: List[bool] = []
        self.finite: List[bool] = []
        self.rate: List[float] = []
        self.target: List[float] = []
        self.alpha: List[float] = []
        self.remaining: List[float] = []
        self.bytes_sent: List[float] = []
        self.b_acc: List[float] = []
        self.t_acc: List[float] = []
        self.b_st: List[int] = []
        self.t_st: List[int] = []
        self.next_cnp: List[float] = []
        self.next_decay: List[float] = []
        self.cnps: List[int] = []
        # Per-slot parameters.
        self.line: List[float] = []
        self.timer: List[float] = []
        self.byte_counter: List[float] = []
        self.rai: List[float] = []
        self.rhai: List[float] = []
        self.g: List[float] = []
        self.one_minus_g: List[float] = []
        self.fast_rounds: List[int] = []
        self.cnp_interval: List[float] = []
        self.alpha_timer: List[float] = []
        self.min_rate: List[float] = []
        self.mtu: List[float] = []
        self.stream: List[UniformChunks] = []
        self._streams_by_rng: Dict[int, UniformChunks] = {}
        self._act_tick: List[Optional[int]] = []
        self._n_active = 0
        self._idle_live: List[int] = []
        # Timer phase bookkeeping for span planning.
        self.t_ph: List[int] = []
        self.tcache: List[TimerCache] = []
        self._tcaches: Dict[Tuple[float, float], TimerCache] = {}
        # Earliest pending activation tick (-1 = recompute lazily).
        self._act_min = -1
        # Fast-path capability flags, resolved once in build().
        self._red_marker = False
        self._kmin = 0.0
        self._kmax = 0.0
        self._pmax = 0.0
        self._mspan = 0.0
        self._has_pfc = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, sim) -> Optional["SenderBank"]:
        """A bank for ``sim``'s sources, or ``None`` if the vector engine
        does not cover the configuration (the run then falls back to the
        scalar reference loop): a source type outside its supported set,
        a bottleneck queue that is not an unbounded :class:`FluidQueue`,
        or a topology-backed simulator without an attached fabric (see
        :class:`repro.cc.link_engine.LinkSenderBank`)."""
        for source in sim.senders:
            if type(source) is not DcqcnSender and (
                type(source) is not OnOffDcqcnJob
            ):
                return None
        if sim.topology is not None:
            fabric = sim.fabric
            if fabric is None:
                return None
        else:
            queue = sim.queue
            if type(queue) is not FluidQueue or not math.isinf(
                queue.max_occupancy
            ):
                return None
            fabric = LinkFabric.bottleneck(sim)
        bank = cls(sim, fabric)
        for source in sim.senders:
            bank._add_slot(source)
        for k in range(len(bank.objs)):
            # The per-tick kernel clamps rate and target only when they
            # move, which matches the scalar's per-step clamp for
            # in-range state; anything else runs the reference loop.
            if bank.active[k] and not (
                bank.min_rate[k] <= bank.rate[k] <= bank.line[k]
                and bank.target[k] <= bank.line[k]
            ):
                return None
        bank._n_active = sum(bank.active)
        bank._idle_live = [
            k
            for k in range(len(bank.objs))
            if bank.is_job[k]
            and not bank.active[k]
            and not bank.objs[k].lifecycle.done
        ]
        marker = sim.marker
        if type(marker) is RedEcnMarker:
            bank._red_marker = True
            bank._kmin = marker.kmin
            bank._kmax = marker.kmax
            bank._pmax = marker.pmax
            # Same operands as the per-call ``kmax - kmin`` inside
            # marking_probability, so the cached span is bit-identical.
            bank._mspan = marker.kmax - marker.kmin
        bank._has_pfc = sim.pfc_pause_threshold is not None
        return bank
    def _stream_for(self, rng: np.random.Generator) -> UniformChunks:
        # Senders sharing one generator must share one chunk buffer so
        # the draw order within a tick matches the scalar engine.
        stream = self._streams_by_rng.get(id(rng))
        if stream is None:
            stream = UniformChunks(rng)
            self._streams_by_rng[id(rng)] = stream
        return stream

    def _add_slot(self, source) -> None:
        job = type(source) is OnOffDcqcnJob
        params = source.params
        self.objs.append(source)
        self.is_job.append(job)
        self.lifec.append(source.lifecycle if job else None)
        self.line.append(params.line_rate)
        self.timer.append(params.timer)
        self.byte_counter.append(params.byte_counter)
        self.rai.append(params.rai)
        self.rhai.append(params.rhai)
        self.g.append(params.g)
        self.one_minus_g.append(1.0 - params.g)
        self.fast_rounds.append(params.fast_recovery_rounds)
        self.cnp_interval.append(params.cnp_interval)
        self.alpha_timer.append(params.alpha_timer)
        self.min_rate.append(params.min_rate)
        self.mtu.append(params.mtu)
        self.stream.append(self._stream_for(source._rng))
        key = (params.timer, self.sim.dt)
        cache = self._tcaches.get(key)
        if cache is None:
            cache = TimerCache(params.timer, self.sim.dt)
            self._tcaches[key] = cache
        self.tcache.append(cache)
        sender = source._sender if job else source
        if sender is None:
            # Idle on-off job: placeholder state until activation.
            self.active.append(False)
            self.finite.append(True)
            self.rate.append(0.0)
            self.target.append(0.0)
            self.alpha.append(1.0)
            self.remaining.append(0.0)
            self.bytes_sent.append(0.0)
            self.b_acc.append(0.0)
            self.t_acc.append(0.0)
            self.b_st.append(0)
            self.t_st.append(0)
            self.next_cnp.append(0.0)
            self.next_decay.append(params.alpha_timer)
            self.cnps.append(0)
            self._act_tick.append(None)
            self.t_ph.append(0)
        else:
            self.active.append(not sender.done)
            self.finite.append(sender.remaining is not None)
            self.rate.append(sender.rate)
            self.target.append(sender.target_rate)
            self.alpha.append(sender.alpha)
            self.remaining.append(
                sender.remaining if sender.remaining is not None else 0.0
            )
            self.bytes_sent.append(sender.bytes_sent)
            self.b_acc.append(sender._byte_accum)
            self.t_acc.append(sender._timer_accum)
            self.b_st.append(sender._byte_stage)
            self.t_st.append(sender._timer_stage)
            self.next_cnp.append(sender._next_cnp_time)
            self.next_decay.append(sender._next_alpha_decay)
            self.cnps.append(sender.cnps_received)
            self._act_tick.append(None)
            # Phase 0 only for a provably fresh accumulator (exactly
            # the post-__init__ state); anything else re-syncs at the
            # sender's next CNP reset.
            fresh = (
                sender._timer_accum <= 0.0
                and sender._timer_stage == 0
                and sender.cnps_received == 0
            )
            self.t_ph.append(0 if fresh else UNKNOWN_PHASE)


    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, duration: float) -> DcqcnResult:
        """Simulate ``duration`` seconds; same contract as the scalar
        reference loop of the simulator's topology."""
        sim = self.sim
        dt = sim.dt
        steps = int(round(duration / dt))
        samples_every = max(1, int(round(sim.sample_interval / dt)))
        fabric = self.fabric
        samples = _SampleBuffer(
            None if fabric.is_bottleneck else fabric.names
        )
        # Fault windows partition the run; span fast-forward truncates
        # at every boundary because each window's end is the bound the
        # inner loop sees. An empty schedule is one normal window.
        for window in fabric.windows(sim.faults, steps, dt):
            fabric.apply_window(window.modes)
            mode = fabric.uniform_mode()
            if mode == MODE_NORMAL:
                self._run_span(
                    window.start, window.end, samples_every, samples
                )
            elif mode == MODE_FREEZE:
                self._bulk_freeze(
                    window.start, window.end, samples_every, samples
                )
            elif mode == MODE_STORM:
                self._bulk_storm(
                    window.start, window.end, samples_every, samples
                )
            else:
                # Links disagree, so blocking is per route and span
                # planning would be invalid; fault windows are short
                # relative to the run.
                self._tick_run(
                    window.start, window.end, samples_every, samples,
                    fast_exit=False,
                )
        return self._finish(duration, steps, samples)

    def _update_pfc_all(self) -> None:
        """Idempotent start-of-tick PFC hysteresis on every normal link."""
        sim = self.sim
        pause_threshold = sim.pfc_pause_threshold
        resume_threshold = sim.pfc_resume_threshold
        paused = self.fabric.paused
        for link, queue in self.fabric.normal_links:
            occupancy = queue.occupancy
            if not paused[link] and occupancy >= pause_threshold:
                paused[link] = True
            elif paused[link] and occupancy <= resume_threshold:
                paused[link] = False

    def _run_span(
        self, start: int, steps: int, samples_every: int,
        samples: _SampleBuffer,
    ) -> None:
        """The all-links-normal engine loop over ticks ``[start, steps)``."""
        i = start
        retry_at = start
        retry_gap = TICK_RETRY
        while i < steps:
            if self._has_pfc:
                self._update_pfc_all()
                if True in self.fabric.paused:
                    # Some routes are blocked: the per-tick kernel owns
                    # pause accrual and resume; probe again shortly.
                    end = i + 4 * TICK_RETRY
                    if end > steps:
                        end = steps
                    i = self._tick_run(
                        i, end, samples_every, samples, fast_exit=False
                    )
                    retry_gap = TICK_RETRY
                    continue
            if self._n_active == 0:
                nxt = self._next_activation()
                if nxt is None or nxt > i:
                    end = steps if nxt is None else min(nxt, steps)
                    self._bulk_idle(i, end, samples_every, samples)
                    i = end
                    retry_gap = TICK_RETRY
                    continue
            elif i >= retry_at:
                advanced = self._try_span(i, steps, samples_every, samples)
                if advanced:
                    i += advanced
                    retry_gap = TICK_RETRY
                    continue
                # Exponential backoff: sustained stochastic stretches
                # (a queue pinned above kmin) reject every attempt, so
                # probing less often is pure saved work — span
                # boundaries never affect results.
                retry_at = i + retry_gap
                if retry_gap < 8 * TICK_RETRY:
                    retry_gap *= 2
            end = retry_at if i < retry_at else i + 1
            if end > steps:
                end = steps
            i = self._tick_run(i, end, samples_every, samples)

    # ------------------------------------------------------------------
    # Idle and fault-window fast-forward
    # ------------------------------------------------------------------

    def _frozen_rates(self) -> List[float]:
        """The sample-row rates while no sender moves."""
        rate = self.rate
        active = self.active
        return [rate[k] if active[k] else 0.0 for k in range(len(rate))]

    def _bulk_freeze(
        self, i: int, end: int, samples_every: int, samples: _SampleBuffer
    ) -> None:
        """Every link failed: all state holds; emit sample rows only."""
        dt = self.sim.dt
        wanted = sample_ticks(i, end, samples_every)
        if not len(wanted):
            return
        occs = [float(queue.occupancy) for queue in self.fabric.queues]
        row = self._frozen_rates()
        for j in wanted:
            samples.rows.append(((j + 1) * dt, row, occs))

    def _bulk_storm(
        self, i: int, end: int, samples_every: int, samples: _SampleBuffer
    ) -> None:
        """Every link in a PFC storm: senders frozen, each queue drains.

        Each link drains at its window capacity on the closed-form fold,
        pause time accrues per link and per tick, and the PFC
        hysteresis state is left untouched.
        """
        sim = self.sim
        dt = sim.dt
        span = end - i
        if span <= 0:
            return
        fabric = self.fabric
        trajs: List[np.ndarray] = []
        for link, queue in enumerate(fabric.queues):
            delta = (0.0 - fabric.eff_caps[link]) * dt
            traj = clamp_drain(fold_traj(queue.occupancy, delta, span))
            queue.occupancy = float(traj[span])
            fabric.pause_seconds[link] = fold_last(
                fabric.pause_seconds[link], dt, span
            )
            trajs.append(traj)
        sim.pfc_pause_seconds = fold_last(
            sim.pfc_pause_seconds, dt, span * len(trajs)
        )
        row = self._frozen_rates()
        wanted = sample_ticks(i, end, samples_every)
        for j, occs in zip(wanted, sample_rows(trajs, wanted, i)):
            samples.rows.append(((j + 1) * dt, row, occs))

    def _next_activation(self) -> Optional[int]:
        """Earliest activation tick among idle live on-off jobs."""
        best: Optional[int] = None
        dt = self.sim.dt
        for k in self._idle_live:
            tick = self._act_tick[k]
            if tick is None:
                tick = activation_tick(self.objs[k]._deadline, dt)
                self._act_tick[k] = tick
            if best is None or tick < best:
                best = tick
        return best

    def _bulk_idle(
        self, i: int, end: int, samples_every: int, samples
    ) -> None:
        """Fast-forward ticks where every source computes or is done.

        No link is PFC-paused on entry (checked by the caller after the
        hysteresis update) and occupancies only fall while draining, so
        no pause can begin mid-stretch and every queue's trajectory is
        the closed-form drain fold.
        """
        sim = self.sim
        dt = sim.dt
        span = end - i
        if span <= 0:
            return
        fabric = self.fabric
        wanted = sample_ticks(i, end, samples_every)
        need_rows = len(wanted) > 0
        trajs: List[Optional[np.ndarray]] = []
        for link, queue in enumerate(fabric.queues):
            occ0 = queue.occupancy
            delta = (0.0 / dt - fabric.eff_caps[link]) * dt
            if occ0 > 0.0 or need_rows:
                traj = clamp_drain(fold_traj(occ0, delta, span))
                queue.occupancy = float(traj[span])
                trajs.append(traj)
            else:
                trajs.append(None)
        if need_rows:
            zeros = [0.0] * len(self.objs)
            rows = sample_rows(trajs, wanted, i)
            for j, occs in zip(wanted, rows):
                samples.rows.append(((j + 1) * dt, zeros, occs))

    # ------------------------------------------------------------------
    # Deterministic spans
    # ------------------------------------------------------------------

    def _plan_sender(self, k: int, H: int, dt: float) -> Optional[_Plan]:
        """Plan sender ``k``'s exact evolution over up to ``H`` CNP-free
        ticks, or ``None`` when the timer phase is unknown (it re-syncs
        at the sender's next CNP, which zeroes the accumulator).

        The walk advances one timer-event stretch at a time: the event
        schedule comes from the :class:`TimerCache` as integer phase
        lookups, and the byte counter / completion are screened with
        conservative bounds, materialized exactly (one ``cumsum`` from
        the last anchor) only when a bound says an event may be near.
        """
        r = self.rate[k]
        tgt = self.target[k]
        line = self.line[k]
        b0 = self.b_acc[k]
        bst = self.b_st[k]
        tst = self.t_st[k]
        B = self.byte_counter[k]
        finite = self.finite[k]
        rem0 = self.remaining[k] if finite else 0.0
        if r >= line and tgt >= line:
            # Line-pinned: increase events are exact no-ops on the
            # rates; fold accumulators without wrapping (dead state
            # until the next CNP — see module docstring).
            s = r * dt
            cap = H
            if finite and s > 0.0 and int(rem0 / s) - 2 < H:
                rtraj = fold_traj(rem0, -s, H)
                comp = np.nonzero(rtraj[:H] <= s)[0]
                if comp.size:
                    # Completion tick: its clamped send and lifecycle
                    # transition run per-tick; stop just short of it.
                    cap = int(comp[0])
            return _Plan(
                cap, np.full(cap, s), np.full(cap + 1, r),
                [(0, r, tgt, bst, tst)], [(0, b0)],
                True, self.t_acc[k], 0,
            )
        ph0 = self.t_ph[k]
        if ph0 < 0:
            return None
        cache = self.tcache[k]
        if ph0 + H >= len(cache.t_at):
            cache._extend(ph0 + H)
        events = cache.events
        stages = cache.stages
        n_events = len(events)
        eidx = bisect_right(events, ph0)
        fast = self.fast_rounds[k]
        rai = self.rai[k]
        rhai = self.rhai[k]
        runs: List[tuple] = []
        # Runs since the last anchor, for exact materialization.
        tail_lens: List[int] = []
        tail_sents: List[float] = []
        segments: List[tuple] = [(0, r, tgt, bst, tst)]
        anchors: List[tuple] = [(0, b0)]
        a_tick = 0
        a_b = b0
        a_rem = rem0
        # Conservative screens (exactness never depends on them: a
        # slack bound only costs an extra materialization). One byte of
        # absolute slack per stretch dwarfs fold rounding at these
        # magnitudes while staying far below one tick's send.
        b_hi = b0
        rem_lo = rem0
        cap = H
        m = 0
        while m < H:
            s = r * dt
            q = events[eidx] if eidx < n_events else ph0 + H + 1
            mt = q - ph0 - 1
            end = mt if mt < H - 1 else H - 1
            w = end - m + 1
            if s > 0.0:
                safe_b = int((B - b_hi) / s) - 2
                safe_c = int(rem_lo / s) - 3 if finite else w
            else:
                safe_b = w
                safe_c = w
            if w <= safe_b and w <= safe_c:
                runs.append((w, s, r))
                tail_lens.append(w)
                tail_sents.append(s)
                pad = w * s
                b_hi += pad + 1.0
                rem_lo -= pad + 1.0
                m += w
                if end == mt:
                    eidx += 1
                    for _ in range(stages[q] - stages[q - 1]):
                        tst += 1
                        r, tgt = _apply_increase(
                            r, tgt, bst, tst, fast, rai, rhai, line
                        )
                    segments.append((m, r, tgt, bst, tst))
                continue
            # A screen fired: materialize the exact accumulators from
            # the last anchor through this stretch, then either process
            # the event or rebase the screens exactly and move on.
            j0 = m - a_tick
            L = j0 + w
            seg_sent = np.asarray(tail_sents + [s]).repeat(tail_lens + [w])
            arr = np.empty(L + 1)
            arr[0] = a_b
            arr[1:] = seg_sent
            btr = arr.cumsum()
            jc = -1
            rtr = None
            if finite:
                arr = np.empty(L + 1)
                arr[0] = a_rem
                arr[1:] = -seg_sent
                rtr = arr.cumsum()
                comps = np.nonzero(rtr[j0:L] <= seg_sent[j0:])[0]
                if comps.size:
                    jc = j0 + int(comps[0])
            hits = np.nonzero(btr[j0 + 1:] >= B)[0]
            jb = j0 + int(hits[0]) if hits.size else -1
            if jc >= 0 and (jb < 0 or jc <= jb):
                # Completion tick: stop the plan just short of it.
                cap = a_tick + jc
                if cap > m:
                    runs.append((cap - m, s, r))
                break
            if jb >= 0:
                # Byte-counter event on tick ``ub``: send at the old
                # rate, wrap the byte stage fully, then the timer stage
                # if it fires on the same tick — exact scalar order.
                ub = a_tick + jb
                runs.append((ub - m + 1, s, r))
                m = ub + 1
                bb = float(btr[jb + 1])
                while bb >= B:
                    bb -= B
                    bst += 1
                    r, tgt = _apply_increase(
                        r, tgt, bst, tst, fast, rai, rhai, line
                    )
                if ub == mt:
                    eidx += 1
                    for _ in range(stages[q] - stages[q - 1]):
                        tst += 1
                        r, tgt = _apply_increase(
                            r, tgt, bst, tst, fast, rai, rhai, line
                        )
                segments.append((m, r, tgt, bst, tst))
                a_tick = m
                a_b = bb
                a_rem = float(rtr[jb + 1]) if finite else 0.0
                anchors.append((a_tick, a_b))
                tail_lens = []
                tail_sents = []
                b_hi = bb
                rem_lo = a_rem
                continue
            # Spurious screen: take the whole stretch and rebase the
            # anchor on the exact end-of-stretch values.
            runs.append((w, s, r))
            m += w
            a_tick = m
            a_b = float(btr[L])
            a_rem = float(rtr[L]) if finite else 0.0
            anchors.append((a_tick, a_b))
            tail_lens = []
            tail_sents = []
            b_hi = a_b
            rem_lo = a_rem
            if end == mt:
                eidx += 1
                for _ in range(stages[q] - stages[q - 1]):
                    tst += 1
                    r, tgt = _apply_increase(
                        r, tgt, bst, tst, fast, rai, rhai, line
                    )
                segments.append((m, r, tgt, bst, tst))
        lens = [run[0] for run in runs]
        sent = np.asarray([run[1] for run in runs]).repeat(lens)
        rates = np.empty(cap + 1)
        if cap:
            rates[:cap] = np.asarray([run[2] for run in runs]).repeat(lens)
        rates[cap] = r
        return _Plan(cap, sent, rates, segments, anchors, False, 0.0, ph0)

    def _try_span(
        self, i: int, steps: int, samples_every: int, samples
    ) -> int:
        """Advance as many deterministic ticks as possible in one jump.

        The single-link logic generalized over the incidence: per-sender
        plans are unchanged; the queue fold, clamp episode, kmin cut and
        PFC cut run per link and the committed span is the minimum cut
        across all of them. Returns 0 when no profitable span exists.
        """
        if not self._red_marker:
            return 0
        sim = self.sim
        dt = sim.dt
        kmin = self._kmin
        fabric = self.fabric
        active = self.active
        n = len(self.objs)
        n_links = len(fabric.queues)
        link_slots = self._link_slots
        occ0s = list(map(occupancy_of, fabric.queues))
        # Earliest tick offset at which any active sender becomes
        # CNP-eligible (identical to the single-link computation).
        elig = steps
        for k in range(n):
            if not active[k]:
                continue
            nc = self.next_cnp[k]
            m = 0
            if i * dt < nc:
                est = int(math.ceil(nc / dt)) - i - (SPAN_MARGIN + 1)
                m = est if est > 0 else 0
                while (i + m) * dt < nc:
                    m += 1
            if m < elig:
                elig = m
        if elig < MIN_SPAN:
            # Doomed screen, per link: a congested link that cannot
            # drain below kmin before an eligible tick kills the span.
            for link in range(n_links):
                occ0 = occ0s[link]
                if occ0 <= kmin:
                    continue
                arrival0 = 0.0
                for k in link_slots[link]:
                    if active[k]:
                        arrival0 += self.rate[k] * dt
                drain = fabric.eff_caps[link] * dt - arrival0
                if drain <= 0.0 or elig < int((occ0 - kmin) / drain):
                    return 0
        H = steps - i
        if H > MAX_HORIZON:
            H = MAX_HORIZON
        nxt = self._next_activation()
        if nxt is not None and nxt - i < H:
            H = nxt - i
        if H < MIN_SPAN:
            return 0
        # Trim the horizon to the earliest estimated cut across links.
        e_est = H
        for link in range(n_links):
            occ0 = occ0s[link]
            if occ0 > kmin:
                est_l = elig + 2 * SPAN_MARGIN
            else:
                arrival0 = 0.0
                for k in link_slots[link]:
                    if active[k]:
                        arrival0 += self.rate[k] * dt
                delta0 = arrival0 - fabric.eff_caps[link] * dt
                if delta0 > 0.0:
                    est_l = int((kmin - occ0) / delta0) + 1
                    if est_l < elig:
                        est_l = elig
                else:
                    est_l = H
            if est_l < e_est:
                e_est = est_l
        e_est += 4 * SPAN_MARGIN
        if MIN_SPAN <= e_est < H:
            H = e_est
        plans: List[Optional[object]] = [None] * n
        cap = H
        for k in range(n):
            if not active[k]:
                continue
            plan = self._plan_sender(k, H, dt)
            if plan is None:
                return 0
            plans[k] = plan
            if plan.cap < cap:
                cap = plan.cap
                if cap < MIN_SPAN:
                    return 0
        # Exact per-link queue trajectories: arrivals folded in slot
        # order, then the net-delta fold with its single clamp episode
        # (arrivals are nondecreasing between CNPs on every link).
        occs: List[np.ndarray] = []
        for link in range(n_links):
            acc = None
            for k in link_slots[link]:
                plan = plans[k]
                if plan is None:
                    continue
                if acc is None:
                    acc = plan.sent[:cap].copy()
                else:
                    acc += plan.sent[:cap]
            if acc is None:
                acc = np.zeros(cap)
            deltas = (acc / dt - fabric.eff_caps[link]) * dt
            occ = np.empty(cap + 1)
            occ[0] = occ0s[link]
            occ[1:] = deltas
            occ = occ.cumsum()
            if deltas[0] < 0.0:
                nonneg = np.nonzero(deltas >= 0.0)[0]
                jstar = int(nonneg[0]) if nonneg.size else cap
                below = np.nonzero(occ[1:jstar + 1] < 0.0)[0]
                if below.size:
                    kstar = 1 + int(below[0])
                    occ[kstar:jstar + 1] = 0.0
                    if jstar < cap:
                        tail = np.empty(cap - jstar + 1)
                        tail[0] = 0.0
                        tail[1:] = deltas[jstar:]
                        occ[jstar:] = tail.cumsum()
            occs.append(occ)
        e = cap
        for occ in occs:
            if elig < e:
                viol = np.nonzero(occ[elig:e] > kmin)[0]
                if viol.size:
                    e = elig + int(viol[0])
            if self._has_pfc and e > 1:
                hits = np.nonzero(occ[1:e] >= sim.pfc_pause_threshold)[0]
                if hits.size:
                    e = 1 + int(hits[0])
        if e < MIN_SPAN:
            return 0
        now_last = (i + e - 1) * dt
        for k in range(n):
            if plans[k] is not None:
                self._commit_sender(k, plans[k], e, dt, now_last)
        for link in range(n_links):
            fabric.queues[link].occupancy = float(occs[link][e])
        for j in sample_ticks(i, i + e, samples_every):
            u = j - i + 1
            samples.rows.append((
                (j + 1) * dt,
                [
                    float(plan.rates[u]) if plan is not None else 0.0
                    for plan in plans
                ],
                [float(occ[u]) for occ in occs],
            ))
        return e

    def _commit_sender(
        self, k: int, plan: _Plan, e: int, dt: float, now_last: float
    ) -> None:
        """Write sender ``k``'s exact state at span cut ``e`` back into
        the bank from its plan's segment and anchor records."""
        sent = plan.sent
        seg = plan.segments[0]
        for seg in reversed(plan.segments):
            if seg[0] <= e:
                break
        _start, r, tgt, bst, tst = seg
        self.rate[k] = r
        self.target[k] = tgt
        self.b_st[k] = bst
        self.t_st[k] = tst
        # Byte accumulator: wrap-free fold from the last anchor at or
        # before the cut (anchors sit right after each byte event).
        a_tick, a_b = plan.anchors[0]
        for a_tick, a_b in reversed(plan.anchors):
            if a_tick <= e:
                break
        u = e - a_tick
        if u > 0:
            arr = np.empty(u + 1)
            arr[0] = a_b
            arr[1:] = sent[a_tick:e]
            a_b = float(arr.cumsum()[-1])
        self.b_acc[k] = a_b
        if plan.clamped:
            # Line-pinned fold skips the dead wrap-arounds, so the
            # phase is no longer on the cache trajectory.
            self.t_acc[k] = fold_last(plan.t0, dt, e)
            self.t_ph[k] = UNKNOWN_PHASE
        else:
            ph = plan.ph0 + e
            self.t_acc[k] = self.tcache[k].value(ph)
            self.t_ph[k] = ph
        se = sent[:e]
        arr = np.empty(e + 1)
        arr[0] = self.bytes_sent[k]
        arr[1:] = se
        self.bytes_sent[k] = float(arr.cumsum()[-1])
        if self.finite[k]:
            arr = np.empty(e + 1)
            arr[0] = self.remaining[k]
            arr[1:] = -se
            self.remaining[k] = float(arr.cumsum()[-1])
        if self.is_job[k]:
            lifecycle = self.objs[k].lifecycle
            arr = np.empty(e + 1)
            arr[0] = lifecycle.comm_sent
            arr[1:] = se
            lifecycle.comm_sent = float(arr.cumsum()[-1])
        nd = self.next_decay[k]
        if now_last >= nd:
            a = self.alpha[k]
            shrink = self.one_minus_g[k]
            period = self.alpha_timer[k]
            while now_last >= nd:
                a *= shrink
                nd += period
            self.alpha[k] = a
            self.next_decay[k] = nd

    # ------------------------------------------------------------------
    # Per-tick kernel
    # ------------------------------------------------------------------

    def _activate(self, k: int, now: float) -> None:
        """Start slot ``k``'s communication burst; mirrors the state a
        fresh :class:`DcqcnSender` gets in :meth:`OnOffSource.step`."""
        obj = self.objs[k]
        budget = obj.lifecycle.begin_comm(now)
        params = obj.params
        self.active[k] = True
        self.finite[k] = True
        self.rate[k] = params.line_rate
        self.target[k] = params.line_rate
        self.alpha[k] = 1.0
        self.remaining[k] = budget
        self.bytes_sent[k] = 0.0
        self.b_acc[k] = 0.0
        self.t_acc[k] = 0.0
        self.b_st[k] = 0
        self.t_st[k] = 0
        self.next_cnp[k] = 0.0
        self.next_decay[k] = params.alpha_timer
        self.t_ph[k] = 0
        self._act_tick[k] = None
        self._n_active += 1
        self._idle_live.remove(k)
        self._act_min = -1

    def _complete(self, k: int, now: float, dt: float) -> None:
        """Close slot ``k``'s burst; mirrors :meth:`OnOffSource.step`."""
        end = now + dt
        obj = self.objs[k]
        lifecycle = obj.lifecycle
        self.active[k] = False
        self._n_active -= 1
        if lifecycle.has_more_segments:
            obj._deadline = end + lifecycle.advance_segment(end)
        else:
            lifecycle.close_iteration(end)
            if not lifecycle.done:
                obj._deadline = end + lifecycle.begin_iteration(end)
        self._act_tick[k] = None
        self._act_min = -1
        if not lifecycle.done:
            self._idle_live.append(k)

    def _increase_event(self, k: int) -> None:
        self.rate[k], self.target[k] = _apply_increase(
            self.rate[k], self.target[k], self.b_st[k], self.t_st[k],
            self.fast_rounds[k], self.rai[k], self.rhai[k], self.line[k],
        )

    def _tick_run(
        self, start: int, stop: int, samples_every: int,
        samples: _SampleBuffer, fast_exit: bool = True,
    ) -> int:
        """Step ticks ``[start, stop)`` through the exact per-tick kernel.

        Mirrors the scalar reference tick with state lookups hoisted once
        for the whole run: per-link PFC hysteresis and marking, then the
        senders in slot order — a sender whose route crosses a blocked
        link (paused, failed or storming) is skipped, any other steps
        under the largest marking probability on its route and its bytes
        land on every route link — then the per-link queue updates.
        Returns the first tick *not* stepped: ``stop``, or earlier when
        ``fast_exit`` is set and the bank goes fully idle, so the
        caller's idle fast-forward takes over (normal windows only —
        faulted windows must keep stepping the queues and pause
        accounting)."""
        sim = self.sim
        dt = sim.dt
        fabric = self.fabric
        queues = fabric.queues
        paused = fabric.paused
        pause_seconds = fabric.pause_seconds
        routes = fabric.routes
        n_links = len(queues)
        # Window modes hold for the whole call.
        modes = fabric.modes
        blocked = fabric.blocked
        normal_links = fabric.normal_links
        live_links = fabric.live_links
        window_blocked = len(normal_links) < n_links
        accrue = self._has_pfc or MODE_STORM in modes
        # On one link every route is that link: the per-route max and
        # arrival folds collapse to the link's own values.
        one_link = n_links == 1
        has_pfc = self._has_pfc
        pause_threshold = sim.pfc_pause_threshold
        resume_threshold = sim.pfc_resume_threshold
        red = self._red_marker
        kmin = self._kmin
        kmax = self._kmax
        pmax = self._pmax
        mspan = self._mspan
        marker = sim.marker
        n = len(self.objs)
        active = self.active
        rate = self.rate
        finite = self.finite
        is_job = self.is_job
        remaining = self.remaining
        bytes_sent = self.bytes_sent
        b_acc = self.b_acc
        t_acc = self.t_acc
        b_st = self.b_st
        t_st = self.t_st
        next_cnp = self.next_cnp
        next_decay = self.next_decay
        min_rate = self.min_rate
        line = self.line
        target = self.target
        objs = self.objs
        t_ph = self.t_ph
        byte_counter = self.byte_counter
        timer = self.timer
        mtu = self.mtu
        stream = self.stream
        one_minus_g = self.one_minus_g
        g = self.g
        alpha = self.alpha
        cnp_interval = self.cnp_interval
        alpha_timer = self.alpha_timer
        cnps = self.cnps
        idle_live = self._idle_live
        lifec = self.lifec
        p_link = [0.0] * n_links
        arrivals = [0.0] * n_links
        i = start
        while i < stop:
            now = i * dt
            any_blocked = window_blocked
            for link, queue in normal_links:
                occq = queue.occupancy
                if has_pfc:
                    if not paused[link] and occq >= pause_threshold:
                        paused[link] = True
                    elif paused[link] and occq <= resume_threshold:
                        paused[link] = False
                    if paused[link]:
                        any_blocked = True
                    blocked[link] = paused[link]
                if red:
                    if occq <= kmin:
                        p_link[link] = 0.0
                    elif occq >= kmax:
                        p_link[link] = 1.0
                    else:
                        p_link[link] = pmax * (occq - kmin) / mspan
                else:
                    p_link[link] = marker.marking_probability(occq)
            if idle_live:
                am = self._act_min
                if am < 0:
                    nxt = self._next_activation()
                    am = nxt if nxt is not None else (1 << 60)
                    self._act_min = am
                if i >= am:
                    for k in tuple(idle_live):
                        tick = self._act_tick[k]
                        if tick is None:
                            tick = activation_tick(objs[k]._deadline, dt)
                            self._act_tick[k] = tick
                        if i >= tick:
                            # A blocked route defers activation exactly
                            # as the reference loop's skipped step().
                            if any_blocked and True in [
                                blocked[link] for link in routes[k]
                            ]:
                                continue
                            self._activate(k, now)
            if one_link:
                if any_blocked:
                    n_send = 0
                else:
                    n_send = n
                    p_mark = p_link[0]
            else:
                n_send = n
            arrival = 0.0
            for k in range(n_send):
                if not active[k]:
                    continue
                if not one_link:
                    route = routes[k]
                    p_mark = 0.0
                    for link in route:
                        if blocked[link]:
                            p_mark = -1.0
                            break
                        if p_link[link] > p_mark:
                            p_mark = p_link[link]
                    if p_mark < 0.0:
                        continue
                r = rate[k]
                sent = r * dt
                fin = finite[k]
                if fin:
                    rem = remaining[k]
                    if rem < sent:
                        sent = rem
                    rem -= sent
                    remaining[k] = rem
                bytes_sent[k] += sent
                # Rate and target move only on a CNP or an increase
                # event, and build() admits in-range state only, so the
                # scalar's per-step clamp is a no-op on every other tick.
                moved = False
                if p_mark > 0.0 and now >= next_cnp[k] and sent > 0.0:
                    packets = sent / mtu[k]
                    p_any = 1.0 - (1.0 - p_mark) ** packets
                    # Inlined UniformChunks draw.
                    st = stream[k]
                    pos = st._pos
                    buf = st._buf
                    if pos >= len(buf):
                        buf = st.refill()
                        pos = 0
                    st._pos = pos + 1
                    if buf[pos] < p_any:
                        moved = True
                        a = one_minus_g[k] * alpha[k] + g[k]
                        alpha[k] = a
                        target[k] = r
                        cut = r * (1.0 - a / 2.0)
                        floor = min_rate[k]
                        rate[k] = cut if cut > floor else floor
                        b_acc[k] = 0.0
                        t_acc[k] = 0.0
                        b_st[k] = 0
                        t_st[k] = 0
                        next_cnp[k] = now + cnp_interval[k]
                        next_decay[k] = now + alpha_timer[k]
                        cnps[k] += 1
                        # Accumulator reset to exact 0.0: this tick's
                        # timer stage advances it to phase 1.
                        t_ph[k] = 0
                ba = b_acc[k] + sent
                limit = byte_counter[k]
                if ba >= limit:
                    moved = True
                    while ba >= limit:
                        ba -= limit
                        b_st[k] += 1
                        self._increase_event(k)
                b_acc[k] = ba
                ta = t_acc[k] + dt
                limit = timer[k]
                if ta >= limit:
                    moved = True
                    while ta >= limit:
                        ta -= limit
                        t_st[k] += 1
                        self._increase_event(k)
                t_acc[k] = ta
                t_ph[k] += 1
                nd = next_decay[k]
                if now >= nd:
                    a = alpha[k]
                    shrink = one_minus_g[k]
                    period = alpha_timer[k]
                    while now >= nd:
                        a *= shrink
                        nd += period
                    alpha[k] = a
                    next_decay[k] = nd
                if moved:
                    r = rate[k]
                    floor = min_rate[k]
                    ln = line[k]
                    if r < floor:
                        rate[k] = floor
                    elif r > ln:
                        rate[k] = ln
                    if target[k] > ln:
                        target[k] = ln
                if one_link:
                    arrival += sent
                else:
                    for link in route:
                        arrivals[link] += sent
                if is_job[k]:
                    lifec[k].comm_sent += sent
                    if rem <= 0.0:
                        self._complete(k, now, dt)
                elif fin and rem <= 0.0:
                    active[k] = False
                    self._n_active -= 1
            if one_link:
                arrivals[0] = arrival
            for link, queue in live_links:
                if accrue and (paused[link] or modes[link] == MODE_STORM):
                    pause_seconds[link] += dt
                    sim.pfc_pause_seconds += dt
                net = arrivals[link] / dt - queue.capacity
                occq = queue.occupancy + net * dt
                if net < 0.0 and occq <= 0.0:
                    occq = 0.0
                queue.occupancy = occq
                arrivals[link] = 0.0
            i += 1
            if i % samples_every == 0:
                samples.rows.append((
                    i * dt,
                    [rate[k] if active[k] else 0.0 for k in range(n)],
                    list(map(occupancy_of, queues)),
                ))
            if fast_exit and self._n_active == 0:
                return i
        return i

    # ------------------------------------------------------------------
    # Result assembly and write-back
    # ------------------------------------------------------------------

    def _finish(
        self, duration: float, steps: int, samples: _SampleBuffer
    ) -> DcqcnResult:
        sim = self.sim
        fabric = self.fabric
        fabric.restore()
        if fabric.is_bottleneck:
            sim.pfc_paused = fabric.paused[0]
        result = DcqcnResult(duration=duration)
        names = [obj.name for obj in self.objs]
        samples.flush(result, names, sim.telemetry)
        if sim.telemetry.enabled:
            sim.telemetry.counter("cc.steps").inc(steps)
            cnp_counter = sim.telemetry.counter("cc.cnps")
            for k, obj in enumerate(self.objs):
                cnp_counter.inc(0 if self.is_job[k] else self.cnps[k])
        for k, obj in enumerate(self.objs):
            if self.is_job[k]:
                if self.active[k]:
                    sender = DcqcnSender(
                        obj.name, obj.params, obj._rng,
                        data_bytes=self.remaining[k],
                    )
                    self._write_sender(k, sender)
                    obj._sender = sender
                else:
                    obj._sender = None
            else:
                self._write_sender(k, obj)
        for stream in self._streams_by_rng.values():
            stream.rewind()
        result.timelines = {
            obj.name: obj.timeline
            for obj in self.objs
            if isinstance(obj, OnOffSource)
        }
        return result

    def _write_sender(self, k: int, sender: DcqcnSender) -> None:
        sender.rate = self.rate[k]
        sender.target_rate = self.target[k]
        sender.alpha = self.alpha[k]
        sender.bytes_sent = self.bytes_sent[k]
        sender.cnps_received = self.cnps[k]
        sender.remaining = self.remaining[k] if self.finite[k] else None
        sender._byte_accum = self.b_acc[k]
        sender._timer_accum = self.t_acc[k]
        sender._byte_stage = self.b_st[k]
        sender._timer_stage = self.t_st[k]
        sender._next_cnp_time = self.next_cnp[k]
        sender._next_alpha_decay = self.next_decay[k]
