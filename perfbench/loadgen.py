"""Load generators: a closed loop for one stream, an open loop for many.

Both time a frame from when it was *due*.  In the closed loop a frame
is due when the previous one is done.  In the open loop one generator
thread submits to every stream on a fixed schedule; a frame's latency
is (enqueue - due) plus the engine's submit-to-emit service latency, so
a stall, in the generator or in backpressure, counts against every
frame it delays.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from repro.runtime import BackpressureError

#: Share of a rung's frames allowed over the latency limit (its p90).
MISS_SHARE = 0.1
#: Share of ``seconds`` spent on each intermediate rung, and at least on
#: the saturating top rung.
RUNG_SHARE, TOP_MIN_SHARE = 0.04, 0.1
#: Percentile of the per-stretch rates reported as the sustained rate:
#: the rate a run meets in 3 of every 4 stretches.  The host's cores
#: switch between slow and fast phases; every run spends a quarter of
#: its time or more in the slow phase, so this quantile is steady where
#: the mean follows how much of the run happened to be fast.
SUSTAINED_PERCENTILE = 25


def frame_id(lane: int, index: int) -> int:
    """Frame id of stream ``lane``'s ``index``-th frame, unique per run."""
    return 1_000_000 * (lane + 1) + index


def fresh_copy(scene, new_id: int):
    """The scene under a new frame id, with its own point array."""
    return dataclasses.replace(scene, points=scene.points.copy(),
                               frame_id=new_id)


def closed_loop(pool, seconds: float, stamps: list):
    """Yield fresh copies of ``pool`` until ``seconds`` have passed.

    Each ``stamps`` entry is ``[sent, done]``.  ``InferenceEngine.run``
    with batch size 1 asks for the next frame only after emitting the
    previous one, so ``done`` is when the next request arrives.
    """
    end = time.perf_counter() + seconds
    index = 0
    while True:
        now = time.perf_counter()
        if stamps:
            stamps[-1][1] = now
        if now >= end:
            return
        scene = fresh_copy(pool[index % len(pool)], frame_id(0, index))
        stamps.append([time.perf_counter(), None])
        yield scene
        index += 1


@dataclasses.dataclass
class Frame:
    """One submitted frame of the open loop."""

    lane: int
    index: int
    rung: int
    due: float
    enqueued: float
    emitted: float | None = None

    @property
    def latency(self) -> float:
        return self.emitted - self.due


class OpenLoop:
    """One generator thread driving every stream of a ``ServingEngine``.

    Frames go round-robin over the streams at a rung's aggregate rate.
    Submits block on backpressure; a rejected submit is counted in
    :attr:`rejected`.
    """

    def __init__(self, serving, names: list[str], pools: list[list],
                 limit_s: float):
        self.serving = serving
        self.names = names
        self.pools = pools
        self.limit_s = limit_s
        self.frames: list[Frame] = []
        self.lanes: list[list[Frame]] = [[] for _ in names]
        self.planned: dict[int, int] = {}
        self.rejected = 0
        self.capacity = 0.0

    def run(self, ladder: list[float], latency_frames: int,
            seconds: float) -> None:
        """The lowest rung for ``latency_frames`` frames, then the
        saturating top rung for the rest of ``seconds``, then each rung
        in between whose rate is below the throughput measured there,
        until one misses the latency limit."""
        start = time.perf_counter()
        duration = min(latency_frames / ladder[0],
                       (1 - TOP_MIN_SHARE) * seconds)
        self._rung(0, ladder[0], start, duration)
        top = len(ladder) - 1
        at = max(start + duration, time.perf_counter())
        self._rung(top, ladder[top], at,
                   max(start + seconds - at, TOP_MIN_SHARE * seconds))
        # The backlog left at the end drains in full windows too, so its
        # emissions count towards the saturated throughput.
        self._drain()
        self.capacity = sustained_rate(
            emission_events(self.frames, at, time.perf_counter()), 1)
        for rung in range(1, top):
            if ladder[rung] > self.capacity:
                break
            if not self._rung(rung, ladder[rung], time.perf_counter(),
                              RUNG_SHARE * seconds, judge=True):
                break

    def finish(self, timeout: float) -> list:
        """Close every stream; the streams' reports once drained."""
        for name in self.names:
            self.serving.close_stream(name)
        reports = [self.serving.result(name, timeout=timeout)
                   for name in self.names]
        self.collect()
        return reports

    def collect(self) -> None:
        """Record the emission time of every frame emitted so far."""
        for frames, name in zip(self.lanes, self.names):
            for frame, service in zip(frames,
                                      self.serving.service_latencies(name)):
                if frame.emitted is None:
                    frame.emitted = frame.enqueued + service

    def misses(self, rung: int, now: float | None = None) -> int:
        """Frames of ``rung`` over the latency limit, never emitted, or
        never sent.  With ``now``, a count taken while running: frames
        still in flight count once they are past their limit."""
        frames = [frame for frame in self.frames if frame.rung == rung]
        late = 0
        for frame in frames:
            if frame.emitted is not None:
                late += frame.latency > self.limit_s
            else:
                late += now is None or now - frame.due > self.limit_s
        return late + self.planned[rung] - len(frames)

    def passed(self, rung: int) -> bool:
        """Whether the rung's p90 met the latency limit.  A backlog that
        grows through the long lowest rung pushes its p90 over the limit;
        higher rungs run only below the measured throughput."""
        return self.misses(rung) <= MISS_SHARE * self.planned[rung]

    def _submit(self, rung: int, due: float) -> None:
        lane = len(self.frames) % len(self.names)
        index = len(self.lanes[lane])
        pool = self.pools[lane]
        scene = fresh_copy(pool[index % len(pool)], frame_id(lane, index))
        try:
            self.serving.submit(self.names[lane], scene, block=True,
                                timeout=60.0)
        except BackpressureError:
            self.rejected += 1
            return
        frame = Frame(lane, index, rung, due, time.perf_counter())
        self.frames.append(frame)
        self.lanes[lane].append(frame)

    def _rung(self, rung: int, rate: float, at: float, duration: float,
              judge: bool = False) -> bool:
        """Offer one rung; with ``judge``, stop and return False once
        more of its frames are late than :data:`MISS_SHARE` allows."""
        end = at + duration
        self.planned[rung] = math.ceil(duration * rate)
        for count in range(self.planned[rung]):
            due = at + count / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if time.perf_counter() >= end:
                break
            self._submit(rung, due)
            if judge and count % 4 == 3:
                self.collect()
                if self.misses(rung, time.perf_counter()) \
                        > MISS_SHARE * self.planned[rung]:
                    return False
        return True

    def _drain(self, timeout: float = 120.0) -> None:
        """Wait until every submitted frame has been emitted."""
        end = time.perf_counter() + timeout
        while time.perf_counter() < end:
            self.collect()
            if all(frame.emitted is not None for frame in self.frames):
                return
            time.sleep(0.02)
        raise TimeoutError("frames still in flight after the drain timeout")


def emission_events(frames: list[Frame], start: float,
                    stop: float) -> list[tuple]:
    """``(moment, frames)`` per window emitted in ``[start, stop]``.

    A window's frames leave together, within a millisecond.
    """
    moments = sorted(frame.emitted for frame in frames
                     if frame.emitted is not None
                     and start <= frame.emitted <= stop)
    events: list[list] = []
    for moment in moments:
        if events and moment - events[-1][0] < 1e-3:
            events[-1][1] += 1
        else:
            events.append([moment, 1])
    return [tuple(event) for event in events]


def sustained_rate(events: list[tuple], group: int) -> float:
    """Frames per second met in 3 of 4 stretches of ``group`` events.

    ``events`` are ``(moment, frames)`` completions in time order; a
    stretch's rate counts the frames of its ``group`` events over the
    time since the event before them.  Under saturation the engine
    works back to back, so each stretch's rate is its throughput.
    """
    rates = [sum(count for _, count in events[i + 1:i + group + 1])
             / (events[i + group][0] - events[i][0])
             for i in range(0, len(events) - group, group)]
    if not rates:
        raise ValueError(f"fewer than {group + 1} completions to time")
    return float(np.percentile(rates, SUSTAINED_PERCENTILE))
