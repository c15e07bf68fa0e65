"""Multi-window burn-rate alerting and the monitoring orchestrator (§16).

A :class:`BurnRateRule` watches one SLO tracker through two windows — a
*fast* window that reacts quickly and a *slow* window that filters
blips — and transitions FIRING when **both** windows burn the error
budget faster than ``threshold`` (the classic SRE multi-window,
multi-burn-rate recipe).  It transitions RESOLVED once the fast window
drops back below the threshold.  Transitions are appended to an
:class:`AlertLog` as replayable :class:`AlertEvent` records — integer
epochs and sequence numbers, no wall clock — so the same seed always
produces the same alert timeline, byte for byte.

The :class:`Monitor` ties the pipeline together: one
:class:`~repro.obs.timeseries.TimeSeriesSampler` scraping a registry,
one :class:`~repro.obs.slo.SLOTracker` per objective, the burn-rate
rules, and a listener list through which alert transitions reach
interested parties — notably the serving layer's
:class:`~repro.serve.governor.OverloadGovernor`, which closes the loop
from telemetry back into admission control.  Driving :meth:`Monitor.tick`
is strictly passive unless such a listener acts: the monitor itself only
reads the clock and the registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.errors import StorageConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import AvailabilitySLO, LatencySLO, SLOTracker
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    DEFAULT_INTERVAL_SECONDS,
    TimeSeriesSampler,
    epoch_of,
)

FIRING = "firing"
RESOLVED = "resolved"


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when both windows exceed ``threshold`` × the budget rate."""

    name: str
    slo: str
    """Name of the SLO this rule watches."""
    fast_window: int = 3
    """Epochs in the fast (reaction) window."""
    slow_window: int = 12
    """Epochs in the slow (confirmation) window."""
    threshold: float = 2.0
    """Budget-burn multiple above which the rule fires (1.0 = spending
    the budget exactly at the exhaustion rate)."""
    min_events: int = 20
    """Traffic floor: the slow window must contain at least this many
    SLO events before the rule may fire.  Filters the degenerate
    startup regime where one slow cold-cache op is "100% bad"."""

    def __post_init__(self) -> None:
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise StorageConfigError(
                f"rule {self.name!r}: need 1 <= fast_window <= slow_window"
            )
        if self.threshold <= 0:
            raise StorageConfigError(
                f"rule {self.name!r}: threshold must be > 0"
            )
        if self.min_events < 0:
            raise StorageConfigError(
                f"rule {self.name!r}: min_events must be >= 0"
            )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "slo": self.slo,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "threshold": self.threshold,
            "min_events": self.min_events,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One replayable alert transition (integer epoch, no wall clock)."""

    seq: int
    epoch: int
    rule: str
    slo: str
    state: str
    burn_fast: float
    burn_slow: float

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "epoch": self.epoch,
            "rule": self.rule,
            "slo": self.slo,
            "state": self.state,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
        }


class AlertLog:
    """Append-only, deterministic record of alert transitions."""

    def __init__(self) -> None:
        self.events: list[AlertEvent] = []

    def append(
        self, epoch: int, rule: BurnRateRule, state: str,
        burn_fast: float, burn_slow: float,
    ) -> AlertEvent:
        event = AlertEvent(
            seq=len(self.events),
            epoch=epoch,
            rule=rule.name,
            slo=rule.slo,
            state=state,
            burn_fast=burn_fast,
            burn_slow=burn_slow,
        )
        self.events.append(event)
        return event

    def first_firing_epoch(self) -> int | None:
        """Epoch of the earliest FIRING transition, if any fired."""
        for event in self.events:
            if event.state == FIRING:
                return event.epoch
        return None

    def as_dict(self) -> list[dict]:
        return [event.as_dict() for event in self.events]


@dataclass(frozen=True)
class MonitorSpec:
    """Everything that defines one monitoring pipeline (pure config)."""

    interval_seconds: float = DEFAULT_INTERVAL_SECONDS
    capacity: int = DEFAULT_CAPACITY
    slos: tuple = ()
    rules: tuple = ()

    def validate(self) -> None:
        names = {slo.name for slo in self.slos}
        if len(names) != len(self.slos):
            raise StorageConfigError("duplicate SLO names")
        for rule in self.rules:
            if rule.slo not in names:
                raise StorageConfigError(
                    f"rule {rule.name!r} watches unknown SLO {rule.slo!r}"
                )


def default_serving_slos(
    latency_threshold: float = 0.05,
    latency_target: float = 0.95,
    availability_target: float = 0.99,
) -> tuple:
    """The stock serving objectives: interactive latency + availability."""
    return (
        LatencySLO(
            name="interactive-latency",
            histogram="serve_latency_seconds{cls=interactive}",
            threshold_seconds=latency_threshold,
            target=latency_target,
        ),
        AvailabilitySLO(
            name="interactive-availability",
            good_counters=(
                "admission_decisions{cls=interactive,verdict=admit}",
                "admission_decisions{cls=interactive,verdict=defer}",
            ),
            bad_counters=(
                "admission_decisions{cls=interactive,verdict=reject}",
            ),
            target=availability_target,
        ),
    )


def default_serving_rules(threshold: float = 2.0) -> tuple:
    return (
        BurnRateRule(
            name="interactive-latency-burn",
            slo="interactive-latency",
            threshold=threshold,
        ),
        BurnRateRule(
            name="interactive-availability-burn",
            slo="interactive-availability",
            threshold=threshold,
        ),
    )


def default_monitor_spec(**kwargs) -> MonitorSpec:
    """The serving default: stock SLOs + their burn-rate rules."""
    return MonitorSpec(
        slos=default_serving_slos(),
        rules=default_serving_rules(),
        **kwargs,
    )


class Monitor:
    """Sampler + SLO trackers + burn-rate rules over one registry.

    ``collectors`` are zero-argument callables invoked right before each
    batch of epoch samples — the hook through which gauges that live
    outside the registry (scheduler queue depths, admission in-flight
    totals) are mirrored in.  ``listeners`` receive every
    :class:`AlertEvent` as it is appended.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        spec: MonitorSpec | None = None,
        collectors: tuple = (),
    ) -> None:
        self.spec = spec if spec is not None else default_monitor_spec()
        self.spec.validate()
        self.sampler = TimeSeriesSampler(
            registry,
            interval_seconds=self.spec.interval_seconds,
            capacity=self.spec.capacity,
        )
        self.trackers = {
            slo.name: SLOTracker(slo, capacity=self.spec.capacity)
            for slo in self.spec.slos
        }
        self.rules = tuple(self.spec.rules)
        self._firing: dict[str, bool] = {r.name: False for r in self.rules}
        self.log = AlertLog()
        self.collectors = list(collectors)
        self.listeners: list = []

    def subscribe(self, listener) -> None:
        """Register a callable receiving ``(event, now_seconds)`` for
        every AlertEvent appended — ``now_seconds`` is the simulated
        time of the tick that produced the event, so listeners that act
        on the clock (the overload governor re-rating token buckets)
        settle state at the actual sim instant, not a stale epoch
        boundary."""
        self.listeners.append(listener)

    def firing(self, rule: str) -> bool:
        return self._firing.get(rule, False)

    def tick(self, now_seconds: float) -> list[AlertEvent]:
        """Advance monitoring to ``now_seconds``; returns new events."""
        if self.sampler.epoch >= epoch_of(
            now_seconds, self.sampler.interval_ns
        ):
            return []  # fast path: still inside the current epoch
        for collect in self.collectors:
            collect()
        events: list[AlertEvent] = []

        def on_epoch(epoch: int) -> None:
            # Runs inside the sampling loop, while the sampler's
            # counter_deltas/hist_deltas still describe `epoch`: a tick
            # that crosses several boundaries must fold each epoch's
            # own windows into the trackers, not the last epoch's.
            for tracker in self.trackers.values():
                tracker.record(epoch, self.sampler)
            for rule in self.rules:
                event = self._evaluate(rule, epoch)
                if event is not None:
                    events.append(event)

        self.sampler.advance_to(now_seconds, on_epoch)
        for event in events:
            for listener in self.listeners:
                listener(event, now_seconds)
        return events

    def _evaluate(self, rule: BurnRateRule, epoch: int) -> AlertEvent | None:
        tracker = self.trackers[rule.slo]
        fast = tracker.burn_rate(rule.fast_window)
        slow = tracker.burn_rate(rule.slow_window)
        firing = self._firing[rule.name]
        if (
            not firing
            and fast >= rule.threshold
            and slow >= rule.threshold
            and tracker.window_events(rule.slow_window) >= rule.min_events
        ):
            self._firing[rule.name] = True
            return self.log.append(epoch, rule, FIRING, fast, slow)
        if firing and fast < rule.threshold:
            self._firing[rule.name] = False
            return self.log.append(epoch, rule, RESOLVED, fast, slow)
        return None

    def as_dict(self) -> dict:
        """The full monitoring state tree (dashboard export payload)."""
        return {
            "interval_seconds": self.spec.interval_seconds,
            "timeline": self.sampler.as_dict(),
            "slos": {
                name: tracker.as_dict()
                for name, tracker in sorted(self.trackers.items())
            },
            "rules": [rule.as_dict() for rule in self.rules],
            "alerts": self.log.as_dict(),
        }
