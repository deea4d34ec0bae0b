"""The discrete-event simulation kernel.

The kernel owns a binary-heap event queue keyed on ``(time, sequence)``.
Simulation *processes* are plain Python generators; they advance by
yielding one of:

* an ``int`` — suspend for that many nanoseconds;
* a :class:`~repro.engine.events.Completion` — suspend until it fires;
  the fired value becomes the result of the ``yield``;
* a :class:`~repro.engine.events.WaitQueue` — park in a server's FIFO
  queue until the server's release resumes it with
  :meth:`~repro.engine.events.WaitQueue.wake_first`.

Processes compose with ``yield from``, which is how the cache stack
builds multi-step I/O paths out of small helper generators.

The kernel is single-threaded and deterministic: ties in simulated time
break by scheduling order, so a run with the same inputs always produces
the same interleaving.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterator, List, Optional, Tuple

from repro.engine.events import Completion, WaitQueue
from repro.errors import SimulationError

#: The generator type processes are built from.
ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulation process wrapping a generator.

    Exposes :attr:`completion`, which fires with the generator's return
    value when it finishes; other processes can ``yield proc.completion``
    to join.
    """

    __slots__ = ("_sim", "_gen", "_completion", "_finished", "_result", "name", "_blocked")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        # The completion is allocated lazily: most processes (background
        # flushes, syncer batches) finish without anyone ever joining
        # them, so the common case skips the allocation entirely.
        self._completion: Optional[Completion] = None
        self._finished = False
        self._result: Any = None
        self.name = name or getattr(gen, "__name__", "process")
        #: waiting on an unfired Completion or parked in a WaitQueue
        #: (kernel leak accounting)
        self._blocked = False

    @property
    def completion(self) -> Completion:
        """Fires with the generator's return value when it finishes."""
        done = self._completion
        if done is None:
            done = self._completion = Completion()
            if self._finished:
                done.fire(self._result)
        return done

    @property
    def finished(self) -> bool:
        """True once the underlying generator has returned."""
        return self._finished

    def _resume_soon(self, value: Any) -> None:
        """Schedule this process to resume at the current simulated time."""
        if self._blocked:
            self._blocked = False
            self._sim.blocked_processes -= 1
        sim = self._sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, self, value))

    def _finish(self, result: Any) -> None:
        """Mark the generator returned, delivering ``result`` to joiners."""
        self._finished = True
        done = self._completion
        if done is not None:
            done.fire(result)
        else:
            self._result = result

    def _step(self, send_value: Any) -> None:
        """Advance the generator until it suspends on future work.

        Runs a trampoline: a yield of an *already fired* completion —
        the uncontended resource grant, a finished process's join — is
        answered immediately instead of round-tripping the event heap,
        so the common fast paths cost zero heap operations.  Time never
        advances inside the loop (a fired completion resumes at the
        current instant by definition), and positive delays, unfired
        completions, and ``yield 0`` still suspend through the heap,
        preserving the kernel's deterministic (time, sequence) order
        for everything that actually waits.
        """
        try:
            command = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(command)

    def _throw_step(self, exc: BaseException) -> None:
        """Throw ``exc`` into the generator and keep stepping.

        A process may *catch* the thrown error and yield a new command;
        that command must be handled exactly like any other suspension
        (both run loops delegate here, so the semantics cannot drift).
        Catch-and-``return`` finishes the process normally; an uncaught
        exception propagates to the caller of ``run()``.
        """
        try:
            command = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        """Trampoline with the first command already in hand.

        Shared continuation of :meth:`_step` (after a ``send``) and
        :meth:`_throw_step` (after a ``throw``): processes ``command``,
        and keeps sending for as long as suspensions can be answered in
        place (fast-forwarded delays, fired completions).
        """
        sim = self._sim
        gen = self._gen
        send = gen.send
        while True:
            if type(command) is int:
                if command > 0:
                    when = sim.now + command
                    heap = sim._heap
                    if (not heap or when < heap[0][0]) and (
                        sim._until is None or when <= sim._until
                    ):
                        # Fast-forward: this process is strictly ahead
                        # of every queued event, so pushing and popping
                        # it would run it next anyway with nothing in
                        # between.  Advance time in place instead.
                        sim.now = when
                        value = None
                    else:
                        sim._seq += 1
                        heappush(heap, (when, sim._seq, self, None))
                        return
                elif command < 0:
                    try:
                        command = gen.throw(
                            SimulationError("negative timeout %d" % command)
                        )
                    except StopIteration as stop:
                        self._finish(stop.value)
                        return
                    continue
                else:
                    # A zero delay is an explicit reschedule: it must let
                    # already-queued same-time events run first, so it goes
                    # through the heap like any other suspension.
                    sim._seq += 1
                    heappush(sim._heap, (sim.now, sim._seq, self, None))
                    return
            elif type(command) is WaitQueue:
                # Park in a busy server's queue; its release resumes us.
                self._blocked = True
                sim.blocked_processes += 1
                command.append(self)
                return
            elif isinstance(command, Completion):
                if command.fired:
                    # Same-time wakeup fast path: resume in place.
                    value = command.value
                else:
                    # Track waiters on unfired completions: a non-zero
                    # count once the event queue drains means a process
                    # leaked (deadlocked on a completion nobody fires).
                    self._blocked = True
                    sim.blocked_processes += 1
                    command._waiters.append(self)
                    return
            else:
                try:
                    command = gen.throw(
                        SimulationError(
                            "process %r yielded %r; expected int delay,"
                            " Completion or WaitQueue" % (self.name, command)
                        )
                    )
                except StopIteration as stop:
                    self._finish(stop.value)
                    return
                continue
            try:
                command = send(value)
            except StopIteration as stop:
                self._finish(stop.value)
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return "<Process %s %s>" % (self.name, state)


class Simulator:
    """Event loop: owns simulated time and the pending-event heap."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, Process, Any]] = []
        self._seq: int = 0
        self._running = False
        #: absolute time bound of the active bounded run() (None when
        #: unbounded); gates the trampoline's time fast-forward so a
        #: bounded run never advances past its horizon.
        self._until: Optional[int] = None
        #: processes currently suspended on an unfired Completion or
        #: parked in a WaitQueue; when the heap drains this must be zero
        #: or waiters leaked.
        self.blocked_processes: int = 0
        #: optional observability callback, called with each spawned
        #: process's name (None when tracing is off — the common case
        #: pays one predictable branch per spawn, nothing per event).
        self.trace_hook = None

    # --- scheduling -------------------------------------------------

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Create a process from ``gen`` and schedule its first step now."""
        process = Process(self, gen, name)
        if self.trace_hook is not None:
            self.trace_hook(process.name)
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, process, None))
        return process

    # --- execution ---------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains (or simulated ``until`` is hit).

        Returns the final simulated time.  ``until`` is an absolute
        timestamp; events scheduled beyond it stay queued so the run can
        be continued later.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._until = until
        try:
            heap = self._heap
            if until is None:
                # The unbounded loop is the replay hot path; the body is
                # Process._step's trampoline inlined (minus the _until
                # guard, vacuous here) to save a method call and the
                # attribute re-lookups on every event.  Keep the two in
                # sync when changing suspension semantics.
                while heap:
                    when, _seq, process, value = heappop(heap)
                    self.now = when
                    send = process._gen.send
                    while True:
                        try:
                            command = send(value)
                        except StopIteration as stop:
                            process._finished = True
                            done = process._completion
                            if done is not None:
                                done.fire(stop.value)
                            else:
                                process._result = stop.value
                            break
                        if type(command) is int:
                            if command > 0:
                                when = self.now + command
                                if not heap or when < heap[0][0]:
                                    self.now = when
                                    value = None
                                    continue
                                self._seq += 1
                                heappush(heap, (when, self._seq, process, None))
                                break
                            if command < 0:
                                process._throw_step(
                                    SimulationError("negative timeout %d" % command)
                                )
                                break
                            self._seq += 1
                            heappush(heap, (self.now, self._seq, process, None))
                            break
                        if type(command) is WaitQueue:
                            process._blocked = True
                            self.blocked_processes += 1
                            command.append(process)
                            break
                        if isinstance(command, Completion):
                            if command.fired:
                                value = command.value
                                continue
                            process._blocked = True
                            self.blocked_processes += 1
                            command._waiters.append(process)
                            break
                        process._throw_step(
                            SimulationError(
                                "process %r yielded %r; expected int delay,"
                                " Completion or WaitQueue" % (process.name, command)
                            )
                        )
                        break
            else:
                while heap:
                    if heap[0][0] > until:
                        # Advance to the horizon, but never rewind: a
                        # bounded run whose horizon is already in the
                        # past must leave ``now`` untouched, matching
                        # the unbounded loop (which only moves forward).
                        if until > self.now:
                            self.now = until
                        break
                    when, _seq, process, value = heappop(heap)
                    self.now = when
                    process._step(value)
        finally:
            self._running = False
            self._until = None
        return self.now

    def run_until_complete(self, gen: ProcessGenerator, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation, and return its result.

        Raises :class:`SimulationError` if the event queue drains before
        the process finishes (i.e. it deadlocked on a completion nobody
        fires).
        """
        process = self.spawn(gen, name)
        self.run()
        if not process.finished:
            raise SimulationError(
                "process %r did not finish; simulation deadlocked" % process.name
            )
        return process.completion.value

    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue (for tests/diagnostics)."""
        return len(self._heap)


def timeout(sim: Simulator, delay: int) -> Completion:
    """Return a completion that fires ``delay`` ns from now.

    Useful when non-process code needs a timer, or when a process wants
    to race a timer against another completion.
    """
    done = Completion()

    def fire_gen() -> Iterator[Any]:
        yield delay
        done.fire(sim.now)

    sim.spawn(fire_gen(), name="timeout")
    return done
