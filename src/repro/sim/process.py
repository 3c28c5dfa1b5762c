"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield``-ed value must
be an :class:`~repro.sim.events.Event` (or subclass — :class:`Timeout`,
another :class:`Process`, :class:`AnyOf`, ...).  The process suspends until
that event fires, then resumes with the event's value (or the event's
exception thrown into the generator).

A process *is itself an event* that fires when the generator returns, so
processes can ``yield`` other processes to join them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PASSIVE_WAIT, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Process", "ProcessKilled"]


class ProcessKilled(Exception):
    """Thrown into a generator by :meth:`Process.kill`."""


class Process(Event):
    """A running simulation actor.  Create via :meth:`Simulator.spawn`."""

    __slots__ = ("gen", "name", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None) -> None:
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", None) or repr(gen)
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: Optional[Event] = None
        self._resume_cb = self._on_target_fired
        # Kick off at the current instant through a zero-delay callback so
        # that spawn order == first-execution order (deterministic).
        sim.post_later(0.0, self._resume, None, True)

    # ----------------------------------------------------------------- state

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event currently being waited on (for debugging/tests)."""
        return self._target

    # ------------------------------------------------------------- execution

    def _resume(self, value: Any, ok: bool) -> None:
        if self.triggered:  # killed/interrupted race: already finished
            return
        self._target = None
        try:
            if ok:
                target = self.gen.send(value)
            else:
                target = self.gen.throw(value)
        except StopIteration as stop:
            self._complete(stop.value, ok=True)
            return
        except BaseException as exc:  # generator crashed
            self._complete(exc, ok=False)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if target is PASSIVE_WAIT:
            # Park with zero allocations; only Process.wake() resumes us.
            self._target = target
            return
        if not isinstance(target, Event):
            err = TypeError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances (Timeout, Process, AnyOf, ...)"
            )
            # Surface the bug inside the generator for a usable traceback.
            self.sim.call_later(0.0, self._resume, err, False)
            return
        self._target = target
        target.subscribe(self._resume_cb)

    def _on_target_fired(self, event: Event) -> None:
        if self._target is not event:
            # Stale wake-up after an interrupt/kill re-targeted us.
            return
        if event.ok:
            self._resume(event.value, ok=True)
        else:
            event.defuse()
            self._resume(event.value, ok=False)

    def _complete(self, value: Any, ok: bool) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        # Break the self-cycle through the bound method, so a finished
        # process (and the value it returned) is freed by reference
        # counting instead of waiting for the cycle collector.
        self._resume_cb = None
        self.sim.schedule(self, 0.0)

    def wake(self, value: Any = None) -> bool:
        """Resume a process parked on :data:`~repro.sim.events.PASSIVE_WAIT`.

        Resumption happens through a zero-delay callback at the current
        instant (same virtual time as the wake).  Returns ``False`` —
        harmlessly — if the process is not passively waiting: a stale
        notify that fires while the process is running is simply dropped,
        because the process re-checks its queues before parking again.
        """
        if self._target is not PASSIVE_WAIT:
            return False
        self._target = None
        self.sim.post_later(0.0, self._resume, value, True)
        return True

    # ------------------------------------------------------------- control

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process stops waiting on its current event (which may still fire
        later; the wake-up is discarded as stale).
        """
        if not self.alive:
            return
        self._target = None  # detach; pending wake-ups become stale
        self.sim.call_later(0.0, self._resume, Interrupt(cause), False)

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it.

        If the generator does not catch the exception the process completes
        *successfully* with value ``None`` (a kill is not an error).
        """
        if not self.alive:
            return
        self._target = None
        try:
            self.gen.throw(ProcessKilled())
        except (StopIteration, ProcessKilled):
            pass
        except BaseException as exc:
            self._complete(exc, ok=False)
            return
        else:
            # Generator swallowed the kill and yielded again; treat as done.
            self.gen.close()
        if not self.triggered:
            self._complete(None, ok=True)
