"""Storage configurations: the paper's four plus N-tier extensions.

=============  ===========================================================
HDD-only       baseline: every request served by the hard disk
LRU            SSD cache managed by a single LRU stack (monitoring-based)
hStorage-DB    SSD cache with priority groups, policies delivered per
               request (the paper's system)
SSD-only       ideal case: every request served by the SSD
tier3          HOT/WARM/COLD: a priority-managed NVMe tier over a
               priority-managed SSD tier over the HDD (DESIGN.md §3)
=============  ===========================================================

The paper's four (Section 6.3) are exact two-tier special cases of the
:class:`~repro.storage.tiers.TierChain`; ``tier3`` exercises the N-tier
generalisation with DLM-style demotion (clean blocks evicted from the
HOT tier waterfall into the WARM tier).

Each factory assembles a fresh storage stack plus the policy assignment
table.  The Differentiated Storage Services protocol is backward
compatible: a classification-enabled DBMS embeds the QoS policy in every
request, and legacy backends (direct devices, the LRU cache) simply ignore
it (Section 5).  Classification is therefore always on; only the priority
cache acts on it.  This is also what lets the statistics layer report
per-priority breakdowns under LRU, as the paper does in Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.assignment import PolicyAssignmentTable
from repro.core.registry import ConcurrencyRegistry
from repro.db.engine import Database
from repro.sim.params import SimulationParameters
from repro.storage.backends import CachedBackend, DirectBackend
from repro.storage.device import Device, DeviceSpec
from repro.storage.faults import FaultPlan
from repro.storage.lru_cache import LRUCache
from repro.storage.placement import (
    PLACEMENT_MODES,
    PlacementConfig,
    PlacementEngine,
    PlacementMode,
)
from repro.storage.priority_cache import PriorityCache
from repro.storage.qos import PolicySet
from repro.storage.scheduler import IOScheduler
from repro.storage.scrub import ScrubConfig, Scrubber
from repro.storage.system import StorageSystem
from repro.storage.tiers import Tier, TierChain

CONFIG_NAMES = ("hdd", "lru", "hstorage", "ssd")
"""The paper's four configurations (kept stable for the figure/table
experiments)."""

EXTENDED_CONFIG_NAMES = CONFIG_NAMES + ("tier3",)
"""Everything :func:`build_storage` understands, N-tier kinds included."""

CONFIG_LABELS = {
    "hdd": "HDD-only",
    "lru": "LRU",
    "hstorage": "hStorage-DB",
    "ssd": "SSD-only",
    "tier3": "3-tier DLM",
}


@dataclass
class StorageConfig:
    """Everything needed to build a :class:`~repro.db.engine.Database`."""

    kind: str
    cache_blocks: int = 4096
    params: SimulationParameters = field(default_factory=SimulationParameters)
    policy_set: PolicySet = field(default_factory=PolicySet)
    bufferpool_pages: int = 256
    work_mem_rows: int = 5000
    btree_order: int = 128
    use_trim: bool = True
    hot_tier_blocks: int = 0
    """NVMe (HOT) tier capacity for the ``tier3`` kind; 0 sizes it to a
    quarter of ``cache_blocks``."""
    placement: str = "semantic"
    """Placement mode (DESIGN.md §11): ``semantic`` (the paper's system,
    bit-identical to pre-subsystem behaviour), ``temperature`` (no
    semantic hints; pure heat-driven background migration — the paper's
    rival), or ``hybrid`` (semantic admission plus heat migration)."""
    placement_config: PlacementConfig = field(default_factory=PlacementConfig)
    """Heat-decay / epoch / budget tunables of the migration subsystem."""
    fault_plan: FaultPlan | None = None
    """Optional deterministic fault schedule (DESIGN.md §13): every device
    in the stack is wrapped in a fault-injecting twin driven by this plan.
    ``None`` (the default) builds plain devices — the fault-free fast
    path, bit-identical to pre-subsystem behaviour."""
    scrub: ScrubConfig | None = None
    """Optional background scrubber clockwork; ``None`` disables the
    integrity audit service."""
    observer: object | None = None
    """Optional :class:`~repro.obs.Observer` (DESIGN.md §14): one passive
    telemetry hub threaded through the scheduler, tier chain and DBMS
    layers.  ``None`` (the default) collects nothing; attaching one is
    guaranteed not to change the simulation (bit-identity gate)."""

    def __post_init__(self) -> None:
        if self.kind not in EXTENDED_CONFIG_NAMES:
            raise ValueError(
                f"unknown config kind {self.kind!r}; "
                f"choose from {EXTENDED_CONFIG_NAMES}"
            )
        if self.placement not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement mode {self.placement!r}; "
                f"choose from {PLACEMENT_MODES}"
            )
        if self.placement != "semantic" and self.kind in ("hdd", "ssd"):
            raise ValueError(
                "migration-based placement needs at least one caching "
                f"tier; {self.kind!r} is a single-device configuration"
            )

    @property
    def label(self) -> str:
        return CONFIG_LABELS[self.kind]

    def with_(self, **changes) -> "StorageConfig":
        return replace(self, **changes)


def build_storage(config: StorageConfig) -> tuple[StorageSystem, PolicyAssignmentTable]:
    """Assemble the storage system + assignment table for a configuration."""
    params = config.params
    hdd = Device(DeviceSpec.hdd_from_params(params))
    ssd = Device(DeviceSpec.ssd_from_params(params))
    if config.fault_plan is not None:
        hdd = config.fault_plan.wrap(hdd)
        ssd = config.fault_plan.wrap(ssd)
    assignment = PolicyAssignmentTable(
        policy_set=config.policy_set,
        registry=ConcurrencyRegistry(),
    )
    if config.kind == "hdd":
        backend = DirectBackend(hdd)
    elif config.kind == "ssd":
        backend = DirectBackend(ssd)
    elif config.kind == "lru":
        backend = CachedBackend(
            LRUCache(config.cache_blocks), ssd, hdd, params
        )
    elif config.kind == "hstorage":
        backend = CachedBackend(
            PriorityCache(config.cache_blocks, config.policy_set),
            ssd,
            hdd,
            params,
        )
    else:  # tier3: HOT (NVMe) > WARM (SSD) > COLD (HDD)
        nvme = Device(DeviceSpec.nvme_from_params(params))
        if config.fault_plan is not None:
            nvme = config.fault_plan.wrap(nvme)
        hot_blocks = config.hot_tier_blocks or max(
            64, config.cache_blocks // 4
        )
        backend = TierChain(
            [
                Tier(
                    nvme,
                    PriorityCache(hot_blocks, config.policy_set),
                    admit_level=0,
                    demote_clean=True,
                    name="nvme",
                ),
                Tier(
                    ssd,
                    PriorityCache(config.cache_blocks, config.policy_set),
                    admit_level=1,
                    name="ssd",
                ),
                Tier(hdd),
            ],
            params=params,
            policy_set=config.policy_set,
        )
    mode = PlacementMode(config.placement)
    if not mode.uses_semantic_hints:
        # The temperature rival sees only legacy block traffic: the
        # statistics still record each request's class, but no QoS policy
        # is delivered, so nothing is cached at access time — placement
        # happens exclusively through background migration.
        assignment.enabled = False
    engine = PlacementEngine(mode, config.placement_config)
    scheduler = IOScheduler(backend, depth=params.writeback_queue_depth)
    scrubber = Scrubber(config.scrub) if config.scrub is not None else None
    system = StorageSystem(
        backend,
        scheduler=scheduler,
        placement=engine,
        faults=config.fault_plan,
        scrubber=scrubber,
        observer=config.observer,
    )
    return system, assignment


def build_database(config: StorageConfig) -> Database:
    """A ready-to-load Database under the given configuration."""
    storage, assignment = build_storage(config)
    return Database(
        storage,
        assignment,
        params=config.params,
        bufferpool_pages=config.bufferpool_pages,
        work_mem_rows=config.work_mem_rows,
        btree_order=config.btree_order,
        use_trim=config.use_trim,
        placement=config.placement,
    )


def hdd_only_config(**kw) -> StorageConfig:
    return StorageConfig(kind="hdd", **kw)


def ssd_only_config(**kw) -> StorageConfig:
    return StorageConfig(kind="ssd", **kw)


def lru_config(cache_blocks: int = 4096, **kw) -> StorageConfig:
    return StorageConfig(kind="lru", cache_blocks=cache_blocks, **kw)


def hstorage_config(cache_blocks: int = 4096, **kw) -> StorageConfig:
    return StorageConfig(kind="hstorage", cache_blocks=cache_blocks, **kw)


def tier3_config(
    cache_blocks: int = 4096, hot_tier_blocks: int = 0, **kw
) -> StorageConfig:
    """HOT/WARM/COLD three-tier chain (NVMe > SSD > HDD)."""
    return StorageConfig(
        kind="tier3",
        cache_blocks=cache_blocks,
        hot_tier_blocks=hot_tier_blocks,
        **kw,
    )
