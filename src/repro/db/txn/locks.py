"""Row-granularity lock manager: strict two-phase locking (DESIGN.md §10).

Transactions take shared/exclusive locks on rows (any hashable resource
key works; the convention is ``(fileid, pageno, slot)``) and hold them
until commit or abort — strict 2PL, so committed histories are
serializable and cascading aborts cannot happen.  Waiting is cooperative:
:meth:`LockManager.acquire` never blocks the Python thread, it queues the
request and reports "you must wait"; the interleaved transaction
scheduler parks the task until the grant (or until the waiter is chosen
as a deadlock victim).

Deadlocks are detected eagerly at block time by a depth-first cycle
search over the waits-for graph (waiter → every transaction it waits
behind).  Victim selection is deterministic — the *youngest* transaction
(highest txid) in the cycle — which is what makes contended schedules
replayable: same seed, same victims, same abort sequence.

Everything here is in-memory bookkeeping: acquiring, waiting and
releasing charge no simulated I/O, so a schedule that never conflicts is
bit-identical to the same operations run without the lock manager.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.db.errors import ReproError

LockKey = tuple
"""Resource key; row locks use ``(fileid, pageno, slot)``."""


class DeadlockError(ReproError):
    """The requesting transaction was chosen as the deadlock victim.

    Raised out of :meth:`LockManager.acquire` (when the requester itself
    is the victim) or thrown into a parked task by the scheduler (when a
    waiter is victimised from the outside).  The handler must roll the
    transaction back — its locks are released by the abort.
    """

    def __init__(self, victim: int, cycle: tuple[int, ...]) -> None:
        super().__init__(
            f"deadlock: transaction {victim} victimised "
            f"(cycle {' -> '.join(map(str, cycle))})"
        )
        self.victim = victim
        self.cycle = cycle


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass
class LockRequest:
    """One entry in a resource's queue: a holder or a waiter."""

    txid: int
    mode: LockMode
    granted: bool = False
    upgrade: bool = False
    """An upgrade (S held, X wanted) waits at the front of the queue."""


@dataclass
class LockStats:
    """Counters the harness reports next to the LOG/write-buffer stats."""

    acquisitions: int = 0
    waits: int = 0
    upgrades: int = 0
    deadlocks: int = 0
    victims: int = 0


class LockManager:
    """Per-resource FIFO lock queues with deadlock detection."""

    def __init__(self) -> None:
        self._queues: dict[LockKey, list[LockRequest]] = {}
        self._held: dict[int, set[LockKey]] = {}
        self._waiting: dict[int, LockKey] = {}
        self._victims: set[int] = set()
        self.stats = LockStats()
        self.observer = None
        """Optional :class:`~repro.obs.Observer`; mirrors wait/deadlock
        counts into the metrics registry (purely passive)."""

    # -------------------------------------------------------------- acquire

    def acquire(self, txid: int, key: LockKey, mode: LockMode) -> bool:
        """Try to take ``key`` in ``mode`` for ``txid``.

        Returns True when the lock is granted (immediately or because an
        earlier wait has since been granted).  Returns False when the
        request was queued and the caller must park until
        :meth:`is_waiting` turns false.  Raises :class:`DeadlockError`
        when queuing the request closes a waits-for cycle and the
        requester itself is the deterministic victim.
        """
        queue = self._queues.setdefault(key, [])
        own = next((r for r in queue if r.txid == txid), None)
        if own is not None and own.granted:
            if own.mode is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # re-entrant at sufficient strength
            return self._request_upgrade(txid, key, queue, own)
        if own is not None:
            # Still queued from an earlier acquire; granted yet?
            return own.granted
        request = LockRequest(txid=txid, mode=mode)
        queue.append(request)
        self._grant(key)
        if request.granted:
            return True
        self._begin_wait(txid, key)
        return False

    def _request_upgrade(
        self, txid: int, key: LockKey, queue: list[LockRequest], own: LockRequest
    ) -> bool:
        others = [r for r in queue if r.granted and r.txid != txid]
        if not others:
            own.mode = LockMode.EXCLUSIVE
            self.stats.upgrades += 1
            return True
        # Park an upgrade request ahead of ordinary waiters: the holder
        # blocks everyone behind it anyway, and upgrades are deadlock
        # bait if they queue at the tail.
        first_wait = next(
            (i for i, r in enumerate(queue) if not r.granted), len(queue)
        )
        queue.insert(
            first_wait,
            LockRequest(txid=txid, mode=LockMode.EXCLUSIVE, upgrade=True),
        )
        self._begin_wait(txid, key)
        return False

    def _begin_wait(self, txid: int, key: LockKey) -> None:
        self._waiting[txid] = key
        self.stats.waits += 1
        obs = self.observer
        if obs is not None and not obs.enabled:
            obs = None
        if obs is not None:
            obs.on_lock_wait()
        cycle = self._find_cycle(txid)
        if cycle is not None:
            self.stats.deadlocks += 1
            if obs is not None:
                obs.on_deadlock()
            victim = max(cycle)  # youngest transaction, deterministically
            self.stats.victims += 1
            self.cancel_wait(victim)
            if victim == txid:
                raise DeadlockError(victim, cycle)
            self._victims.add(victim)

    # ---------------------------------------------------------------- grant

    def _grant(self, key: LockKey) -> list[int]:
        """FIFO re-grant: walk the queue granting while compatible.

        An upgrade entry is grantable once its transaction's shared lock
        is the only other grant.  Returns the txids granted by this pass
        (their wait, if any, is over).
        """
        queue = self._queues.get(key)
        if not queue:
            return []
        newly: list[int] = []

        def book(txid: int) -> None:
            newly.append(txid)
            self._held.setdefault(txid, set()).add(key)
            if self._waiting.get(txid) == key:
                del self._waiting[txid]

        for request in queue:
            if request.granted:
                continue
            holders = [
                r for r in queue if r.granted and r.txid != request.txid
            ]
            if request.upgrade:
                if holders:
                    break
                # Fold the upgrade into the original shared entry.
                own = next(
                    r for r in queue if r.txid == request.txid and r.granted
                )
                own.mode = LockMode.EXCLUSIVE
                queue.remove(request)
                self.stats.upgrades += 1
                book(request.txid)
                return newly + self._grant(key)
            if all(request.mode.compatible(r.mode) for r in holders):
                request.granted = True
                self.stats.acquisitions += 1
                book(request.txid)
                continue
            break  # FIFO: nobody overtakes the first blocked waiter
        return newly

    # -------------------------------------------------------------- release

    def release_all(self, txid: int) -> list[int]:
        """Drop every lock and queued request of ``txid`` (commit/abort).

        Returns the transactions granted by the release, so a scheduler
        can credit their blocked time and mark them runnable.
        """
        keys = set(self._held.pop(txid, ()))
        waited = self._waiting.pop(txid, None)
        if waited is not None:
            keys.add(waited)
        self._victims.discard(txid)
        granted: list[int] = []
        for key in keys:
            queue = self._queues.get(key)
            if not queue:
                continue
            queue[:] = [r for r in queue if r.txid != txid]
            if queue:
                granted.extend(self._grant(key))
            else:
                del self._queues[key]
        return granted

    def cancel_wait(self, txid: int) -> None:
        """Remove a parked request (victim path); re-grants the queue."""
        key = self._waiting.pop(txid, None)
        if key is None:
            return
        queue = self._queues.get(key, [])
        queue[:] = [r for r in queue if r.txid != txid or r.granted]
        if queue:
            self._grant(key)
        else:
            self._queues.pop(key, None)

    # ------------------------------------------------------------ inspection

    def holds(self, txid: int, key: LockKey, mode: LockMode) -> bool:
        return any(
            r.txid == txid
            and r.granted
            and (r.mode is LockMode.EXCLUSIVE or mode is LockMode.SHARED)
            for r in self._queues.get(key, ())
        )

    def is_waiting(self, txid: int) -> bool:
        return txid in self._waiting

    def is_victim(self, txid: int) -> bool:
        return txid in self._victims

    def take_victim(self, txid: int) -> bool:
        """True once if ``txid`` was victimised from the outside."""
        if txid in self._victims:
            self._victims.remove(txid)
            return True
        return False

    def held_keys(self, txid: int) -> frozenset:
        return frozenset(self._held.get(txid, ()))

    def reset(self) -> None:
        """Forget everything (crash simulation: volatile state is gone)."""
        self._queues.clear()
        self._held.clear()
        self._waiting.clear()
        self._victims.clear()

    # ------------------------------------------------------------- deadlocks

    def _blockers(self, txid: int) -> list[int]:
        """Transactions ``txid`` waits behind: the granted holders of the
        awaited resource plus earlier (FIFO-ahead) waiters on it."""
        key = self._waiting.get(txid)
        if key is None:
            return []
        blockers: list[int] = []
        for request in self._queues.get(key, ()):
            if request.txid == txid and not request.granted:
                break
            if request.txid != txid:
                blockers.append(request.txid)
        return blockers

    def _find_cycle(self, start: int) -> tuple[int, ...] | None:
        """DFS over the waits-for graph; a path back to ``start`` is a
        deadlock.  Deterministic: edges follow queue order."""
        path: list[int] = [start]
        on_path = {start}
        seen: set[int] = set()

        def visit(txid: int) -> tuple[int, ...] | None:
            for blocker in self._blockers(txid):
                if blocker == start:
                    return tuple(path)
                if blocker in on_path or blocker in seen:
                    continue
                path.append(blocker)
                on_path.add(blocker)
                found = visit(blocker)
                if found is not None:
                    return found
                on_path.remove(blocker)
                path.pop()
                seen.add(blocker)
            return None

        return visit(start)
