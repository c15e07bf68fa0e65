"""Deterministic fault injection for storage devices (DESIGN.md §13).

A :class:`FaultPlan` is a *seeded, sim-clock-driven* schedule of device
misbehaviour: per-access fault rates (transient read/write errors,
latency spikes, torn multi-block writes, silent write corruption) plus
scheduled whole-device events (bit rot at rest, degradation, failure)
that fire when the simulated clock passes their timestamp.  Nothing
consults the wall clock and every random draw comes from a per-device
``random.Random`` stream seeded from ``(plan seed, device name)``, so
the same seed over the same request stream reproduces the identical
fault trace, byte for byte.

:class:`FaultyDevice` wraps the timing model of
:class:`~repro.storage.device.Device` with that misbehaviour.  Since
the simulator transports no real bytes, "corruption" is a per-device
registry of LBNs whose on-media frame would fail
:func:`~repro.storage.integrity.unframe_block`; the tier chain checks
the registry on every read and either repairs from the authoritative
copy or raises :class:`~repro.db.errors.CorruptBlockError` — never a
silent wrong result.
"""

from __future__ import annotations

import enum
import hashlib
import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Iterable

from repro.db.errors import (
    DeviceFailedError,
    StorageConfigError,
    TransientIOError,
)
from repro.storage.device import Device


class FaultKind(enum.Enum):
    """Everything a :class:`FaultPlan` can do to a device."""

    TRANSIENT_READ = "transient-read"
    TRANSIENT_WRITE = "transient-write"
    LATENCY_SPIKE = "latency-spike"
    TORN_WRITE = "torn-write"
    CORRUPT = "corrupt"
    DEGRADE = "degrade"
    FAIL = "fail"


@dataclass(frozen=True)
class FaultProfile:
    """Per-access fault rates for one device (probabilities in [0, 1])."""

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    spike_rate: float = 0.0
    spike_factor: float = 8.0
    """Service-time multiplier a latency spike applies to one access."""
    torn_write_rate: float = 0.0
    """Chance a multi-block write tears: a cut point is drawn and every
    block after it is silently written corrupt."""
    corrupt_write_rate: float = 0.0
    """Chance a write lands bad on the medium (silent bit corruption on
    the write path; rot at rest is modelled by scheduled CORRUPT events)."""

    def __post_init__(self) -> None:
        for f in (
            "read_error_rate",
            "write_error_rate",
            "spike_rate",
            "torn_write_rate",
            "corrupt_write_rate",
        ):
            rate = getattr(self, f)
            if not 0.0 <= rate <= 1.0:
                raise StorageConfigError(f"{f} must be in [0, 1]: {rate!r}")
        if self.spike_factor < 1.0:
            raise StorageConfigError(
                f"spike_factor must be >= 1: {self.spike_factor!r}"
            )

    @property
    def injects(self) -> bool:
        return any(
            (
                self.read_error_rate,
                self.write_error_rate,
                self.spike_rate,
                self.torn_write_rate,
                self.corrupt_write_rate,
            )
        )


@dataclass(frozen=True)
class ScheduledFault:
    """One clock-driven event: fires when ``clock.now >= at_seconds``."""

    at_seconds: float
    device: str
    kind: FaultKind
    factor: float = 4.0
    """Service-time multiplier installed by a DEGRADE event."""
    lbns: tuple[int, ...] = ()
    """Blocks a CORRUPT event marks bad (bit rot at rest)."""

    def __post_init__(self) -> None:
        if self.at_seconds < 0:
            raise StorageConfigError(
                f"at_seconds must be >= 0: {self.at_seconds!r}"
            )
        if self.kind not in (
            FaultKind.DEGRADE,
            FaultKind.FAIL,
            FaultKind.CORRUPT,
        ):
            raise StorageConfigError(
                f"only DEGRADE/FAIL/CORRUPT can be scheduled: {self.kind}"
            )
        if self.kind is FaultKind.DEGRADE and self.factor < 1.0:
            raise StorageConfigError(
                f"degrade factor must be >= 1: {self.factor!r}"
            )
        if self.kind is FaultKind.CORRUPT and not self.lbns:
            raise StorageConfigError("a CORRUPT event needs target lbns")


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the append-only fault trace."""

    seconds: float
    """Simulated time of the batch during which the fault fired."""
    device: str
    kind: FaultKind
    lbn: int | None = None
    detail: float | None = None

    def as_tuple(self) -> tuple:
        return (
            round(self.seconds, 9),
            self.device,
            self.kind.value,
            self.lbn,
            self.detail,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/backoff schedule for transient device errors.

    Attempt ``k`` (1-based) that fails transiently charges
    ``backoff_s * multiplier**(k-1)`` seconds of backoff to the caller's
    clock accumulator; after ``max_attempts`` failed attempts the error
    escalates to :class:`~repro.db.errors.DeviceFailedError` (persistent
    failure → tier failover)."""

    max_attempts: int = 4
    backoff_s: float = 0.0005
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageConfigError(
                f"max_attempts must be >= 1: {self.max_attempts!r}"
            )
        if self.backoff_s < 0:
            raise StorageConfigError(
                f"backoff_s must be >= 0: {self.backoff_s!r}"
            )
        if self.multiplier < 1.0:
            raise StorageConfigError(
                f"multiplier must be >= 1: {self.multiplier!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff seconds charged after failed attempt ``attempt``."""
        return self.backoff_s * self.multiplier ** (attempt - 1)


@dataclass
class RecoveryStats:
    """Tier-chain counters for the whole detect/retry/repair machinery."""

    retries: int = 0
    retry_backoff_seconds: float = 0.0
    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    unrepairable: int = 0
    tier_failovers: int = 0
    blocks_remapped: int = 0
    failover_seconds: float = 0.0
    retries_by_tier: dict = field(default_factory=dict)
    """Transient-error retries broken down by device/tier name."""

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "retries_by_tier": dict(sorted(self.retries_by_tier.items())),
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "corruptions_detected": self.corruptions_detected,
            "corruptions_repaired": self.corruptions_repaired,
            "unrepairable": self.unrepairable,
            "tier_failovers": self.tier_failovers,
            "blocks_remapped": self.blocks_remapped,
            "failover_seconds": self.failover_seconds,
        }


class FaultPlan:
    """A seeded fault schedule shared by every wrapped device.

    The plan is *disarmed* on request (``enabled=False``) so a harness
    can build and load a database fault-free, reset the clock, and only
    then :meth:`enable` injection for the measured window.  Scheduled
    events fire from :meth:`advance_to`, which the storage system calls
    with ``clock.now`` at every batch submission — devices themselves
    stay clock-free.
    """

    def __init__(
        self,
        seed: int = 0,
        profiles: dict[str, FaultProfile] | None = None,
        schedule: Iterable[ScheduledFault] = (),
        *,
        enabled: bool = True,
    ) -> None:
        self.seed = seed
        self.profiles = dict(profiles or {})
        self.enabled = enabled
        self.now = 0.0
        self.devices: dict[str, "FaultyDevice"] = {}
        self.trace: list[FaultEvent] = []
        self.counters: dict[str, int] = {k.value: 0 for k in FaultKind}
        self._pending: list[ScheduledFault] = []
        for fault in schedule:
            self.schedule_fault(fault)

    # ----------------------------------------------------------- wiring

    def profile_for(self, name: str) -> FaultProfile:
        """The profile for device ``name`` (``"*"`` is the wildcard)."""
        profile = self.profiles.get(name)
        if profile is None:
            profile = self.profiles.get("*", FaultProfile())
        return profile

    def wrap(self, device: Device) -> "FaultyDevice":
        """Replace ``device`` with a fault-injecting twin of its spec."""
        faulty = FaultyDevice(device.spec, self)
        self.devices[faulty.name] = faulty
        return faulty

    def schedule_fault(self, fault: ScheduledFault) -> None:
        """Add a clock-driven event (also usable after construction)."""
        self._pending.append(fault)
        self._pending.sort(
            key=lambda f: (f.at_seconds, f.device, f.kind.value)
        )

    # ----------------------------------------------------------- firing

    def enable(self) -> None:
        """Arm injection; scheduled times count from the current clock."""
        self.enabled = True

    def advance_to(self, now: float) -> None:
        """Fire every scheduled event whose time has come."""
        self.now = now
        if not self.enabled:
            return
        while self._pending and self._pending[0].at_seconds <= now:
            fault = self._pending.pop(0)
            device = self.devices.get(fault.device)
            if device is None:
                continue  # no such device in this stack: event is inert
            if fault.kind is FaultKind.DEGRADE:
                device.degrade_factor = fault.factor
                self.record(fault.kind, device.name, detail=fault.factor)
            elif fault.kind is FaultKind.FAIL:
                device.failed = True
                self.record(fault.kind, device.name)
            else:  # CORRUPT: bit rot at rest
                for lbn in fault.lbns:
                    if lbn not in device.corrupt_lbns:
                        device.corrupt_lbns.add(lbn)
                        self.record(fault.kind, device.name, lbn=lbn)

    def record(
        self,
        kind: FaultKind,
        device: str,
        *,
        lbn: int | None = None,
        detail: float | None = None,
    ) -> None:
        self.trace.append(FaultEvent(self.now, device, kind, lbn, detail))
        self.counters[kind.value] += 1

    # -------------------------------------------------------- reporting

    def remaining_corrupt(self) -> dict[str, tuple[int, ...]]:
        """Blocks still flagged bad, per device (the audit's worklist)."""
        return {
            name: tuple(sorted(dev.corrupt_lbns))
            for name, dev in self.devices.items()
            if dev.corrupt_lbns
        }

    def trace_fingerprint(self) -> str:
        """SHA-256 over the ordered trace — the determinism witness."""
        blob = repr([event.as_tuple() for event in self.trace])
        return hashlib.sha256(blob.encode()).hexdigest()

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "enabled": self.enabled,
            "events": len(self.trace),
            "counters": dict(self.counters),
            "remaining_corrupt": {
                name: list(lbns)
                for name, lbns in self.remaining_corrupt().items()
            },
            "trace_fingerprint": self.trace_fingerprint(),
        }


class FaultyDevice(Device):
    """A :class:`Device` that misbehaves according to a :class:`FaultPlan`.

    Transient errors are raised *before* any service time is charged
    (the tier chain's retry loop charges deterministic backoff instead);
    latency spikes and degradation multiply the access's service time;
    torn/corrupt writes and scheduled rot populate ``corrupt_lbns``, the
    registry of blocks whose frame would fail CRC verification.  A
    successful (un-torn) write restores the integrity of every block it
    covers, exactly as rewriting a frame does.
    """

    def __init__(self, spec, plan: FaultPlan) -> None:
        super().__init__(spec)
        self.plan = plan
        self.profile = plan.profile_for(spec.name)
        self._rng = Random(
            ((plan.seed & 0xFFFFFFFF) << 32) ^ zlib.crc32(spec.name.encode())
        )
        self.corrupt_lbns: set[int] = set()
        self.failed = False
        self.degrade_factor = 1.0

    # --------------------------------------------------------- plumbing

    def _check_alive(self) -> None:
        if self.failed:
            raise DeviceFailedError(self.name)

    def _roll(self, rate: float) -> bool:
        """One deterministic Bernoulli draw; rate 0 draws nothing, so
        disabled fault classes do not perturb the RNG stream."""
        return rate > 0.0 and self._rng.random() < rate

    def _stretch(self, seconds: float, factor: float) -> float:
        """Multiply an access's service time, keeping counters honest."""
        extra = seconds * (factor - 1.0)
        self.busy_seconds += extra
        return seconds + extra

    # ----------------------------------------------------------- access

    def access(self, lba: int, nblocks: int = 1, *, write: bool = False) -> float:
        self._check_alive()
        profile = self.profile
        inject = self.plan.enabled and profile.injects
        if inject:
            rate = (
                profile.write_error_rate if write else profile.read_error_rate
            )
            if self._roll(rate):
                kind = (
                    FaultKind.TRANSIENT_WRITE
                    if write
                    else FaultKind.TRANSIENT_READ
                )
                self.plan.record(kind, self.name, lbn=lba)
                raise TransientIOError(self.name, lba=lba, write=write)
        seconds = super().access(lba, nblocks, write=write)
        if self.degrade_factor > 1.0:
            seconds = self._stretch(seconds, self.degrade_factor)
        if inject and self._roll(profile.spike_rate):
            self.plan.record(
                FaultKind.LATENCY_SPIKE,
                self.name,
                lbn=lba,
                detail=profile.spike_factor,
            )
            seconds = self._stretch(seconds, profile.spike_factor)
        if write:
            # Device.access already restored the integrity of every
            # covered block (a completed write lays down fresh frames) …
            if inject and nblocks > 1 and self._roll(profile.torn_write_rate):
                # … unless it tears: everything past the cut is garbage.
                cut = self._rng.randrange(1, nblocks)
                torn = range(lba + cut, lba + nblocks)
                self.corrupt_lbns.update(torn)
                self.plan.record(
                    FaultKind.TORN_WRITE,
                    self.name,
                    lbn=lba + cut,
                    detail=float(nblocks - cut),
                )
            elif inject and self._roll(profile.corrupt_write_rate):
                victim = (
                    lba
                    if nblocks == 1
                    else lba + self._rng.randrange(nblocks)
                )
                self.corrupt_lbns.add(victim)
                self.plan.record(FaultKind.CORRUPT, self.name, lbn=victim)
        return seconds

    # Background transfers (migration, scrubbing, evacuation) carry no
    # retry machinery, so they stay infallible — but a degraded device
    # slows them down like everything else, and a failed one is gone.

    def background_write(self, nblocks: int = 1) -> float:
        self._check_alive()
        seconds = super().background_write(nblocks)
        if self.degrade_factor > 1.0:
            seconds = self._stretch(seconds, self.degrade_factor)
        return seconds

    def background_read(self, nblocks: int = 1) -> float:
        self._check_alive()
        seconds = super().background_read(nblocks)
        if self.degrade_factor > 1.0:
            seconds = self._stretch(seconds, self.degrade_factor)
        return seconds
