"""Per-engine circuit breakers for the CQA dispatcher.

A flaky backend must be *skipped*, not re-timed-out on every request: a
dispatcher that walks into a dead SQLite materialization pays the full
retry/backoff schedule per request, multiplying a single backend outage
into pipeline-wide latency.  Each engine therefore sits behind a
:class:`CircuitBreaker` with the classic three states:

* **closed** — requests flow; consecutive failures are counted and the
  count resets on any success;
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: every request is rejected outright (the dispatcher
  falls through to the next rung) until ``cooldown_s`` of wall clock
  has passed;
* **half-open** — after the cooldown one *probe* request is allowed
  through.  Success closes the breaker; failure re-opens it and
  restarts the cooldown.

The clock is injectable so tests (and deterministic experiments) can
drive state transitions without sleeping.  Applicability rejections
(:class:`~repro.errors.NotRewritableError`) never reach the breaker —
an engine that correctly reports "not my query class" is healthy.

Breakers are shared across the serving layer's request threads, so all
state transitions sit behind a per-breaker lock.  The contract that
needs it most is the half-open probe: when many threads hit
:meth:`CircuitBreaker.allows` on a just-cooled breaker, exactly one may
win the probe slot — check-state and claim-probe must be one atomic
step, or a thundering herd re-hammers the backend the breaker exists to
protect.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Optional

from ..observability import add
from ..observability.live import emit_event

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    """Breaker state; members compare equal to their strings."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:
        return self.value


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe after cooldown."""

    __slots__ = (
        "name",
        "failure_threshold",
        "cooldown_s",
        "failures",
        "trips",
        "_clock",
        "_state",
        "_opened_at",
        "_probe_inflight",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.trips = 0
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        # Reentrant: state() promotes inside allows()/record_failure().
        self._lock = threading.RLock()

    # -- queries -------------------------------------------------------

    def state(self) -> BreakerState:
        """The current state, promoting OPEN to HALF_OPEN after cooldown."""
        with self._lock:
            if (
                self._state is BreakerState.OPEN
                and self._opened_at is not None
                and self._clock() - self._opened_at >= self.cooldown_s
            ):
                self._set_state(BreakerState.HALF_OPEN)
                self._probe_inflight = False
            return self._state

    def _set_state(self, new: BreakerState) -> None:
        """Transition to *new*, emitting a ``breaker.transition`` event
        on the live plane (no-op transition emits nothing)."""
        old = self._state
        if new is old:
            return
        self._state = new
        emit_event(
            "breaker.transition",
            engine=self.name,
            from_state=str(old),
            to_state=str(new),
            failures=self.failures,
            trips=self.trips,
        )

    def would_allow(self) -> bool:
        """Would :meth:`allows` let a request through now?  A peek: it
        takes no half-open probe and counts nothing."""
        with self._lock:
            state = self.state()
            return state is BreakerState.CLOSED or (
                state is BreakerState.HALF_OPEN and not self._probe_inflight
            )

    def allows(self) -> bool:
        """May a request be attempted right now?

        CLOSED always allows.  HALF_OPEN allows exactly one in-flight
        probe; further requests are rejected until the probe reports
        back.  OPEN rejects (and records the skip for ``obs report``).
        """
        with self._lock:
            state = self.state()
            if state is BreakerState.CLOSED:
                return True
            if (
                state is BreakerState.HALF_OPEN
                and not self._probe_inflight
            ):
                self._probe_inflight = True
                return True
        add("dispatch.breaker_open")
        add(f"dispatch.breaker_open.{self.name}")
        return False

    # -- flight-recorder snapshot/restore ------------------------------

    def snapshot(self) -> dict:
        """JSON-ready state for the flight recorder's envelope.

        ``cooldown_remaining_s`` is only meaningful for OPEN breakers:
        replay restores an open breaker with the same remaining wait so
        a request recorded mid-cooldown replays the same skip decision.
        """
        with self._lock:
            state = self.state()
            remaining = None
            if state is BreakerState.OPEN and self._opened_at is not None:
                remaining = max(
                    0.0,
                    self.cooldown_s - (self._clock() - self._opened_at),
                )
            return {
                "state": str(state),
                "failures": self.failures,
                "trips": self.trips,
                "cooldown_remaining_s": remaining,
            }

    def restore(self, snapshot: dict) -> None:
        """Adopt a recorded snapshot (deterministic replay only).

        Sets the state directly — no ``breaker.transition`` event is
        emitted, since nothing transitioned; the breaker simply resumes
        where the recorded one stood.
        """
        with self._lock:
            state = BreakerState(snapshot["state"])
            self.failures = int(snapshot["failures"])
            self.trips = int(snapshot.get("trips", 0))
            self._probe_inflight = False
            self._state = state
            if state is BreakerState.OPEN:
                remaining = float(
                    snapshot.get("cooldown_remaining_s") or 0.0
                )
                self._opened_at = self._clock() - (
                    self.cooldown_s - remaining
                )
            elif state is BreakerState.HALF_OPEN:
                self._opened_at = self._clock() - self.cooldown_s
            else:
                self._opened_at = None

    # -- outcome reporting ---------------------------------------------

    def record_success(self) -> None:
        """A request succeeded: reset failures, close from half-open."""
        with self._lock:
            self.failures = 0
            self._probe_inflight = False
            if self._state is not BreakerState.CLOSED:
                self._set_state(BreakerState.CLOSED)
                self._opened_at = None

    def record_failure(self) -> None:
        """A request failed: count it; trip or re-open as needed."""
        with self._lock:
            self._probe_inflight = False
            if self.state() is BreakerState.HALF_OPEN:
                # The probe failed: straight back to OPEN, fresh cooldown.
                self._trip()
                return
            self.failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self.failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self.failures = self.failure_threshold
        self.trips += 1
        self._set_state(BreakerState.OPEN)
        self._opened_at = self._clock()
        add("dispatch.breaker_trips")
        add(f"dispatch.breaker_trips.{self.name}")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, {self.state().value}, "
            f"failures={self.failures}/{self.failure_threshold})"
        )
