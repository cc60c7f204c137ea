"""Thread-safe concurrent serving engine over a :class:`HiddenVolumeService`.

The paper's security argument (Sections 4.1.3 and 5) is about *aggregate*
traffic: each user's accesses hide inside the interleaved stream of many
concurrently logged-in users plus the agent's dummy updates.  The
sequential facade can only be driven from one thread — the whole core
(agents, volume, allocator, PRNG streams, raw storage) is
single-threaded by contract (see the locking contract in
:mod:`repro.core.agent`).  :class:`ConcurrentVolumeService` is the
serving engine that closes that gap: any number of worker threads submit
per-session operations and the engine serializes them through a fair
scheduler that *interleaves* real operations with the agent's dummy
stream.

Architecture — a dedicated scheduler over fair per-session queues
-----------------------------------------------------------------
Every operation is enqueued on its session's FIFO and executed by one
dedicated scheduler thread; submitting threads sleep on their request's
own completion event.  Per scheduling quantum the scheduler

* **gathers** briefly until the queues hold one request per active
  client thread (the engine is a closed loop — fulfilled clients
  resubmit within microseconds), so batches reach worker-pool width;
* pops up to ``quantum`` requests **fairly**: round-robin across
  sessions, FIFO within each session, so one chatty user cannot starve
  the others;
* **plans read, write and append requests** into declarative
  :class:`~repro.core.plan.IoPlan` objects and **fuses adjacent steps
  across sessions** — batched reads, batched writes, batched Figure-6
  read/write cycles — via the plan kernel's
  :func:`~repro.core.plan.fuse`, with per-event stream labels keeping
  per-session trace attribution intact; the plan buffer survives across
  quanta, so fusion also happens across scheduling quanta;
* **interleaves dummy updates** at ``dummy_to_real_ratio`` dummies per
  real operation (Section 4.1.3), coalescing each flush into one
  batched burst (:meth:`~repro.core.agent.StegAgent.dummy_update_batch`);
* executes creates, deletes and session management one at a time —
  they mutate directory and key state the planners do not model.

Fusing across sessions is safe because the buffer order is the plan
(bookkeeping) order: :func:`~repro.core.plan.fuse` never reorders steps
across plans, different sessions' file blocks are disjoint (the
allocator hands each block to one file), and the only cross-session
touches — Figure-6 reseals — preserve the plaintext, so any flush is a
legal serialization of the buffered requests.  A session's *own*
pending mutations are flushed before planning its next write or append
(their boundary reads touch the device at plan time), and before any of
its non-plannable requests, so no session observes its operations out
of order.

Because every core touch happens on the scheduler thread, the
single-threaded contract of the agents is never violated; worker
threads only ever block on their own request's completion event.  The
batching is where multi-worker throughput comes from: each batched
device call has a fixed cost (validation, one trace append, one backend
gather or scatter) that the batch width divides.  That cost is small —
about 15 µs for a one-block read and 20 µs for a one-cycle read-write
on a 2-vCPU Xeon VM, each further block or cycle adding 1–2 µs — so
planning, the cipher and thread hand-offs, which width does not
divide, bound how much more throughput extra workers buy.

Quickstart::

    service = HiddenVolumeService.create("nonvolatile", volume_mib=16, seed=7)
    engine = service.concurrent(dummy_to_real_ratio=2.0)
    alice = engine.login(service.new_keyring("alice"))
    alice.create("/alice/report", b"secret" * 100)     # callable from any thread
    assert alice.read("/alice/report", at=6, size=6) == b"secret"
    engine.close()
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.plan import (
    KIND_CYCLE,
    KIND_WRITE,
    PlanJournal,
    PlannedOp,
    execute_runs,
    fuse,
)
from repro.crypto.keys import KeyRing
from repro.errors import NotLoggedInError, ServiceClosedError
from repro.service.facade import FileStat, HiddenVolumeService, Session

#: Request kinds that count as *real* operations for the dummy-to-real
#: ratio (Section 4.1.3).  Session management and metadata lookups do not
#: consume dummy credit.
_REAL_OPS = frozenset({"read", "write", "append", "create", "create_decoy", "delete"})

#: Safety-net timeout (seconds) for client waits: fulfilment sets the
#: request's own event, so clients normally wake instantly; the timeout
#: only bounds how long a client sleeps before noticing the scheduler
#: thread died (a bug, not a normal path).
_CLIENT_WAIT_TIMEOUT_S = 0.05

#: How long close() waits for the scheduler thread to wind down.
_SCHEDULER_JOIN_TIMEOUT_S = 10.0

#: A registered client whose last submit is older than this (seconds)
#: is pruned from the gather registry when a gather times out.  An
#: active client submits every few hundred microseconds, so a few
#: milliseconds of silence means the thread left (or was a one-off,
#: e.g. the set-up thread); it re-registers for free on its next
#: submit.
_CLIENT_PRUNE_S = 0.002

#: How long (seconds) the scheduler waits for just-fulfilled clients to
#: resubmit before serving the next (possibly narrower) batch.  The
#: engine is a closed loop — a fulfilled worker's next request arrives
#: within microseconds once its thread gets scheduled — so a short
#: bounded wait trades a sliver of latency for much wider device
#: batches.  A single client never triggers a wait (its own request is
#: already queued).
_GATHER_TIMEOUT_S = 0.0005


class _Request:
    """One queued operation: inputs, a completion event, and the outcome.

    ``plan_call`` is set on plannable requests (reads; writes and
    appends when write fusion is on); it is what lets the scheduler
    turn them into :class:`~repro.core.plan.IoPlan` objects and fuse
    them across sessions instead of running ``execute`` (the unbatched
    fallback semantics).
    """

    __slots__ = ("kind", "user", "execute", "done", "result", "error", "plan_call")

    def __init__(
        self,
        kind: str,
        user: str,
        execute: Callable[[], Any],
        plan_call: Callable[[], PlannedOp] | None = None,
    ):
        self.kind = kind
        self.user = user
        self.execute = execute
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.plan_call = plan_call

    def fulfil(self, result: Any = None, error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.done.set()

    def outcome(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.result


@dataclass
class EngineStats:
    """Scheduler observability: how much work ran, and how well it batched."""

    real_ops: int = 0
    dummy_updates: int = 0
    quanta: int = 0
    read_batches: int = 0
    batched_read_requests: int = 0
    largest_read_batch: int = 0
    write_fusions: int = 0
    fused_write_steps: int = 0
    largest_write_fusion: int = 0

    def snapshot(self) -> "EngineStats":
        """An independent copy, useful for measuring deltas."""
        return EngineStats(
            self.real_ops,
            self.dummy_updates,
            self.quanta,
            self.read_batches,
            self.batched_read_requests,
            self.largest_read_batch,
            self.write_fusions,
            self.fused_write_steps,
            self.largest_write_fusion,
        )


@dataclass
class _Planned:
    """A planned request buffered for the next fused flush."""

    request: _Request
    op: PlannedOp


class ConcurrentSession:
    """Thread-safe proxy for one logged-in user's :class:`Session`.

    Every call is submitted to the engine's scheduler thread and blocks
    until it has been executed; results and exceptions are relayed
    unchanged from the underlying session.
    """

    def __init__(self, engine: "ConcurrentVolumeService", session: Session):
        self._engine = engine
        self._session = session

    @property
    def user(self) -> str:
        """Name of the user who opened this session."""
        return self._session.user

    @property
    def active(self) -> bool:
        """Whether the session is still logged in."""
        return self._session.active

    @property
    def paths(self) -> list[str]:
        """Paths of the files this session has open, sorted."""
        return self._session.paths

    def stat(self, path: str) -> FileStat:
        """Size and shape of one open file."""
        return self._engine._run("stat", self.user, lambda s=self._session: s.stat(path))

    def create(self, path: str, data: bytes) -> FileStat:
        """Hide a new file at ``path`` (see :meth:`Session.create`)."""
        return self._engine._run("create", self.user, lambda s=self._session: s.create(path, data))

    def create_decoy(self, path: str, size_bytes: int) -> FileStat:
        """Create a dummy file for plausible deniability."""
        return self._engine._run(
            "create_decoy", self.user, lambda s=self._session: s.create_decoy(path, size_bytes)
        )

    def read(
        self, path: str, at: int = 0, size: int | None = None, oblivious: bool = False
    ) -> bytes:
        """Read ``size`` bytes at offset ``at`` (whole file by default).

        Plain reads are eligible for the scheduler's cross-session
        fusion; oblivious reads run unbatched through the hierarchy.
        """
        if oblivious:
            return self._engine._run(
                "read", self.user, lambda s=self._session: s.read(path, at, size, oblivious=True)
            )
        return self._engine._run(
            "read",
            self.user,
            lambda s=self._session: s.read(path, at, size),
            plan_call=lambda s=self._session: s.plan_read(path, at, size),
        )

    def write(self, path: str, data: bytes, at: int = 0):
        """Overwrite ``data`` at offset ``at`` through the Figure-6 path.

        With write fusion on (the default), the update is planned and
        its steps fuse with adjacent sessions' reads, writes and cycles.
        """
        return self._engine._run(
            "write",
            self.user,
            lambda s=self._session: s.write(path, data, at),
            plan_call=(
                (lambda s=self._session: s.plan_write(path, data, at))
                if self._engine.fuse_writes
                else None
            ),
        )

    def append(self, path: str, data: bytes) -> FileStat:
        """Grow the file by ``data`` bytes at its end."""
        return self._engine._run(
            "append",
            self.user,
            lambda s=self._session: s.append(path, data),
            plan_call=(
                (lambda s=self._session: s.plan_append(path, data))
                if self._engine.fuse_writes
                else None
            ),
        )

    def delete(self, path: str) -> None:
        """Delete a file: free its blocks, drop its key (no device I/O)."""
        return self._engine._run("delete", self.user, lambda s=self._session: s.delete(path))

    def logout(self) -> None:
        """Close every file and forget this user's keys."""
        return self._engine._run("logout", self.user, lambda s=self._session: s.logout())

    def deniable_view(self) -> KeyRing:
        """A key ring this user could plausibly disclose under coercion."""
        return self._engine._run(
            "deniable_view", self.user, lambda s=self._session: s.deniable_view()
        )

    def __enter__(self) -> "ConcurrentSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._session.active:
            self.logout()


class ConcurrentVolumeService:
    """Fair, batching, thread-safe scheduler over a :class:`HiddenVolumeService`.

    Parameters
    ----------
    service:
        The sequential facade to serve.  The engine becomes the only
        legal way to drive it; bypassing the engine from another thread
        violates the core's locking contract (and will usually trip the
        agent's :class:`~repro.errors.ConcurrentAccessError` tripwire).
    dummy_to_real_ratio:
        Dummy updates injected per real operation (Section 4.1.3).
        Fractional ratios accrue: at ``0.5`` every second real operation
        is followed by one dummy update.
    quantum:
        Maximum requests the scheduler pops per scheduling quantum (and
        the cap on one fused plan buffer).  Within a quantum, adjacent
        planned steps fuse into batched device calls, and the quantum's
        dummy credit flushes as batched bursts.
    fuse_writes:
        When True (default), writes and appends are planned through the
        plan kernel and fuse across sessions like reads do; ``False``
        executes them one at a time (the pre-plan-kernel engine), which
        is the baseline the fusion benchmarks compare against.
    gather_timeout_s:
        How long the scheduler waits for just-fulfilled clients to
        resubmit before serving a narrower batch; ``None`` keeps the
        tuned default, ``0`` disables gathering (each request is served
        as soon as it is popped, preserving per-session FIFO order but
        forfeiting batch width).
    journal:
        Optional :class:`~repro.core.plan.PlanJournal`; when given,
        every plan — fused flushes and the agent's direct executions
        alike — is recorded before its first device request and marked
        committed after its last.  Defaults to the wrapped service's
        own durable journal (``service.journal``) when it has one.
    """

    def __init__(
        self,
        service: HiddenVolumeService,
        dummy_to_real_ratio: float = 1.0,
        quantum: int = 16,
        fuse_writes: bool = True,
        gather_timeout_s: float | None = None,
        journal: PlanJournal | None = None,
    ):
        if dummy_to_real_ratio < 0:
            raise ValueError("dummy_to_real_ratio must be non-negative")
        if quantum < 1:
            raise ValueError("quantum must be at least 1")
        if gather_timeout_s is not None and gather_timeout_s < 0:
            raise ValueError("gather_timeout_s must be non-negative")
        self.service = service
        self.dummy_to_real_ratio = dummy_to_real_ratio
        self.quantum = quantum
        self.fuse_writes = fuse_writes
        self.gather_timeout_s = (
            _GATHER_TIMEOUT_S if gather_timeout_s is None else gather_timeout_s
        )
        # A file-backed service already carries its durable intent log;
        # inherit it so fused flushes stay journalled (and recoverable)
        # through the engine too.
        self.journal = journal if journal is not None else service.journal
        if self.journal is not None:
            # Direct agent executions (creates, dummy bursts, unfused
            # writes) journal at the agent seam; fused flushes journal
            # in _flush_plans.  Together the intent log is complete.
            service.agent.plan_journal = self.journal
        self.stats = EngineStats()
        self._queue_lock = threading.Lock()
        # The scheduler thread is the only waiter on this condition;
        # clients wake on their own request's completion event instead,
        # so a fulfilment is a targeted wake, not a thundering herd.
        self._cond = threading.Condition(self._queue_lock)
        self._queues: dict[str, deque[_Request]] = {}
        self._rotation: deque[str] = deque()
        self._pending_count = 0
        # Registry of client threads (ident -> monotonic time of last
        # submit), maintained with one dict store under the enqueue
        # lock.  The scheduler gathers until the queues hold one request
        # per registered client before popping — that is what makes
        # device batches as wide as the worker pool — and lazily prunes
        # clients that stopped submitting (see _prune_clients).
        self._clients: dict[int, float] = {}
        # True only while the scheduler blocks on the condition; submits
        # skip the (futex-touching) notify when the scheduler is busy
        # executing anyway — it will re-check the queues on its own.
        self._scheduler_waiting = False
        self._dummy_credit = 0.0
        self._closed = False
        self._shutdown = False
        self._broken: BaseException | None = None
        self._scheduler = threading.Thread(
            target=self._serve_loop, name="hidden-volume-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- public surface ---------------------------------------------------------------

    def login(self, keyring: KeyRing, stream: str | None = None) -> ConcurrentSession:
        """Open a session (thread-safe); returns a :class:`ConcurrentSession`.

        ``stream`` defaults to the key ring's owner name, so each user's
        requests carry their own trace stream — the attribution the
        attacker experiments slice on.
        """
        label = stream if stream is not None else keyring.owner
        session = self._run(
            "login", keyring.owner, lambda: self.service.login(keyring, label)
        )
        return ConcurrentSession(self, session)

    def idle(self, num_dummy_updates: int) -> None:
        """Run a burst of dummy updates through the scheduler (batched).

        ``idle(0)`` is a useful no-op barrier: requests execute in
        order, so its return guarantees every previously submitted
        operation *and its trailing dummy burst* have finished.
        """

        def burst() -> None:
            done = self.service.agent.dummy_update_batch(num_dummy_updates)
            self.stats.dummy_updates += len(done)

        self._run("idle", "<idle>", burst)

    def flush(self) -> None:
        """Persist all state (see :meth:`HiddenVolumeService.flush`)."""
        self._run("flush", "<service>", self.service.flush)

    def close(self) -> None:
        """Drain pending requests, close the service, stop the scheduler.

        Idempotent.  Requests submitted after ``close`` raise
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._queue_lock:
            already = self._closed
            self._closed = True
        if already:
            self._scheduler.join(timeout=_SCHEDULER_JOIN_TIMEOUT_S)
            return
        # The close request joins the queue *after* everything already
        # submitted, so the scheduler finishes outstanding work first.
        try:
            self._execute(_Request("close", "<service>", self.service.close))
        except ServiceClosedError:
            # The scheduler died earlier; nothing else can touch the
            # core any more, so closing the service directly is safe.
            self.service.close()
        finally:
            with self._cond:
                self._shutdown = True
                self._cond.notify_all()
            self._scheduler.join(timeout=_SCHEDULER_JOIN_TIMEOUT_S)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has shut this engine down."""
        return self._closed

    def __enter__(self) -> "ConcurrentVolumeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request intake ---------------------------------------------------------------

    def _run(
        self,
        kind: str,
        user: str,
        execute: Callable[[], Any],
        plan_call: Callable[[], PlannedOp] | None = None,
    ) -> Any:
        return self._execute(_Request(kind, user, execute, plan_call))

    def _execute(self, request: _Request) -> Any:
        """Enqueue one request and block until the scheduler fulfils it.

        The submitting thread never touches the core: it enqueues, wakes
        the scheduler and sleeps on its request's own completion event —
        a targeted wake with no shared-lock thundering herd.  The timed
        wait is a safety net, not a polling loop: it bounds how long a
        client sleeps before noticing the scheduler thread died.
        """
        with self._cond:
            if self._closed and request.kind != "close":
                raise ServiceClosedError("this ConcurrentVolumeService has been closed")
            if self._broken is not None:
                raise ServiceClosedError(
                    "this ConcurrentVolumeService's scheduler died"
                ) from self._broken
            self._clients[threading.get_ident()] = time.monotonic()
            queue = self._queues.get(request.user)
            if queue is None:
                self._queues[request.user] = queue = deque()
                self._rotation.append(request.user)
            queue.append(request)
            self._pending_count += 1
            if self._scheduler_waiting:
                self._cond.notify_all()
        while not request.done.wait(timeout=_CLIENT_WAIT_TIMEOUT_S):
            if not self._scheduler.is_alive() and not request.done.is_set():
                raise ServiceClosedError(
                    "this ConcurrentVolumeService's scheduler died"
                ) from self._broken
        return request.outcome()

    # -- the scheduler ----------------------------------------------------------------

    def _pop_quantum(self) -> list[_Request]:
        """Pop up to ``quantum`` requests: round-robin across sessions."""
        with self._queue_lock:
            return self._pop_locked()

    def _pop_locked(self) -> list[_Request]:
        """:meth:`_pop_quantum` body; caller must hold the queue lock."""
        popped: list[_Request] = []
        while self._rotation and len(popped) < self.quantum:
            user = self._rotation[0]
            queue = self._queues[user]
            popped.append(queue.popleft())
            if queue:
                self._rotation.rotate(-1)
            else:
                self._rotation.popleft()
                del self._queues[user]
        self._pending_count -= len(popped)
        return popped

    def _serve_loop(self) -> None:
        """The scheduler thread: gather, pop fairly, plan, fuse, execute.

        The plan buffer survives across pops, so fusion happens across
        scheduling quanta.  Buffer order is plan order and ``fuse``
        never reorders across plans, so every flush replays a legal
        serialization of the buffered requests; a request from a session
        *with buffered plans* forces a flush first where ordering could
        be observed (see :meth:`_route_batch`), so a session never sees
        its own operations out of order.  All core state is touched
        exclusively from this thread, which is what upholds the agents'
        single-threaded locking contract (see :mod:`repro.core.agent`).
        """
        pending: list[_Planned] = []
        try:
            while True:
                # One critical section per quantum: wait for work,
                # gather arrivals, pop — three logical steps, one lock
                # acquisition (locks here are contended futexes; every
                # acquisition shaved is wall-clock off the serial path).
                with self._cond:
                    while self._pending_count == 0 and not pending and not self._shutdown:
                        self._scheduler_waiting = True
                        try:
                            self._cond.wait()
                        finally:
                            self._scheduler_waiting = False
                    if self._shutdown and self._pending_count == 0 and not pending:
                        return
                    # Gather: every registered client (except those
                    # whose plans sit in our buffer) has or is about to
                    # enqueue a request — a brief bounded wait for their
                    # arrivals makes the batch as wide as the client
                    # pool instead of racing ahead and serving
                    # stragglers one by one.  While the scheduler waits
                    # it holds no GIL, which is precisely what lets
                    # just-fulfilled clients run and resubmit.  A single
                    # client never triggers a wait: its own request is
                    # already queued, so the target is immediately met.
                    target = min(len(self._clients) - len(pending), self.quantum)
                    if (
                        target >= 2
                        and self._pending_count < target
                        and self.gather_timeout_s > 0
                    ):
                        self._scheduler_waiting = True
                        try:
                            arrived = self._cond.wait_for(
                                lambda: self._pending_count >= target or self._shutdown,
                                timeout=self.gather_timeout_s,
                            )
                        finally:
                            self._scheduler_waiting = False
                        if not arrived:
                            self._prune_clients()
                    batch = self._pop_locked()
                if batch:
                    self.stats.quanta += 1
                    self._route_batch(batch, pending)
                    continue
                if pending:
                    self._flush_plans(pending)
        except BaseException as error:  # pragma: no cover - scheduler bug safety net
            # A failure outside _route_batch's per-request handling is an
            # engine bug; make it loud for every current and future
            # client instead of hanging them.
            with self._cond:
                self._broken = error
                stranded = [
                    request for queue in self._queues.values() for request in queue
                ]
                self._queues.clear()
                self._rotation.clear()
                self._pending_count = 0
            for request in stranded + [planned.request for planned in pending]:
                if not request.done.is_set():
                    request.fulfil(error=error)
            raise

    def _prune_clients(self) -> None:
        """Drop registry entries of threads that stopped submitting.

        Called (under the lock) when a gather times out; a client whose
        last submit is older than the prune window is gone or idle, and
        waiting for it would only stall every future batch.
        """
        horizon = time.monotonic() - _CLIENT_PRUNE_S
        stale = [ident for ident, last in self._clients.items() if last < horizon]
        for ident in stale:
            del self._clients[ident]

    def _route_batch(self, batch: list[_Request], pending: list[_Planned]) -> int:
        """Plan or execute one popped batch; returns how many requests completed.

        Plannable requests are planned *at pop time* (bookkeeping order
        = buffer order) and buffered for a fused flush.  A write or
        append is planned only after the same session's earlier
        mutations have flushed: its planner reads boundary blocks from
        the device, and those bytes must reflect the session's own
        pending writes.  Reads need no such flush — their device I/O is
        entirely deferred, and fusion preserves the buffer order — so a
        session's read-after-write stays a read-after-write.
        """
        fulfilled = 0
        try:
            for request in batch:
                if request.plan_call is not None:
                    if request.kind in ("write", "append") and any(
                        planned.request.user == request.user
                        and planned.request.kind in ("write", "append")
                        for planned in pending
                    ):
                        fulfilled += self._flush_plans(pending)
                    try:
                        op = request.plan_call()
                    except BaseException as error:  # relayed, like execute errors
                        request.fulfil(error=error)
                        fulfilled += 1
                        continue
                    pending.append(_Planned(request, op))
                    if len(pending) >= self.quantum:
                        fulfilled += self._flush_plans(pending)
                    continue
                if request.kind in ("flush", "close", "idle") or any(
                    planned.request.user == request.user for planned in pending
                ):
                    fulfilled += self._flush_plans(pending)
                self._execute_one(request)
                fulfilled += 1
                if request.kind in _REAL_OPS:
                    self._accrue_dummies(1)
            return fulfilled
        except BaseException as error:
            # A scheduler-level failure (e.g. the backend closed under a
            # dummy burst) must never strand an already-popped request:
            # its submitter is no longer in any queue, so nothing else
            # would ever wake it.  Relay the error to every unfinished
            # request of this batch (buffered plans included) instead of
            # killing the scheduler.
            for request in batch + [planned.request for planned in pending]:
                if not request.done.is_set():
                    request.fulfil(error=error)
                    fulfilled += 1
            pending.clear()
            return fulfilled

    def _execute_one(self, request: _Request) -> None:
        try:
            result = request.execute()
        except BaseException as error:  # relayed to the submitting thread
            request.fulfil(error=error)
        else:
            self.stats.real_ops += request.kind in _REAL_OPS
            request.fulfil(result)

    # -- dummy interleave -------------------------------------------------------------

    def _accrue_dummies(self, real_ops: int) -> None:
        self._dummy_credit += real_ops * self.dummy_to_real_ratio
        count = int(self._dummy_credit)
        if count <= 0:
            return
        self._dummy_credit -= count
        try:
            self.stats.dummy_updates += len(self.service.agent.dummy_update_batch(count))
        except NotLoggedInError:
            # Volatile agent with an empty selection space (no files
            # disclosed yet): there is nothing to dummy-update, and no
            # real data whose updates would need hiding either.
            pass

    # -- fused flushes ----------------------------------------------------------------

    def _flush_plans(self, pending: list[_Planned]) -> int:
        """Fuse and execute the buffered plans as batched device calls.

        The device sees every plan's steps in submission order — the
        same requests, in the same order, a serial execution would
        issue — with per-event stream labels preserving per-session
        trace attribution; :func:`~repro.core.plan.fuse` only widens
        adjacent same-kind steps into batched calls.  Payload decryption
        runs per (file) key through the vectorized cipher path inside
        the executor.  Returns how many requests completed.
        """
        if not pending:
            return 0
        flushed = len(pending)
        plans = [planned.op.plan for planned in pending]
        if self.journal is not None:
            for plan in plans:
                self.journal.record(plan)
        runs = fuse(plans)
        read_requests = sum(1 for planned in pending if planned.request.kind == "read")
        if read_requests:
            self.stats.read_batches += 1
            self.stats.batched_read_requests += read_requests
            self.stats.largest_read_batch = max(self.stats.largest_read_batch, read_requests)
        for run in runs:
            if run.kind in (KIND_WRITE, KIND_CYCLE) and run.source_count >= 2:
                self.stats.write_fusions += 1
                self.stats.fused_write_steps += len(run.steps)
                self.stats.largest_write_fusion = max(
                    self.stats.largest_write_fusion, run.source_count
                )
        count = sum(1 for planned in pending if planned.request.kind in _REAL_OPS)
        self.stats.real_ops += count
        try:
            payloads = execute_runs(runs, self.service.volume.device, self.service.volume.cipher_for)
        except BaseException as error:
            for planned in pending:
                if not planned.request.done.is_set():
                    planned.request.fulfil(error=error)
            pending.clear()
            self._accrue_dummies(count)
            return flushed
        if self.journal is not None:
            # Every plan of the batch has fully landed; a surfaced error
            # above deliberately leaves the entries uncommitted so a
            # durable journal rolls the partial progress back on the
            # next open.
            self.journal.mark_committed()
        for position, planned in enumerate(pending):
            try:
                result = planned.op.finish(payloads.get(position, []))
            except BaseException as error:  # pragma: no cover - finisher bug safety net
                planned.request.fulfil(error=error)
            else:
                planned.request.fulfil(result)
        pending.clear()
        self._accrue_dummies(count)
        return flushed
