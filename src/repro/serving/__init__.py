"""Always-on serving: an asyncio truth service over versioned snapshots.

Writers append claims/answers into a bounded queue; a single background EM
worker journals each micro-batch to a write-ahead journal (when attached),
batches it onto the live dataset (the columnar appender splices each batch
into a new immutable snapshot), refits warm/incrementally off the event
loop, and publishes the result behind an atomic latest-snapshot pointer
that readers hit lock-free. After a crash, :func:`recover` replays the
journal into an identical dataset and restarts the service at the next
epoch. With a :class:`SupervisionPolicy` attached the service is
self-healing in-process too: worker crashes roll back to the last published
state by replaying the journal (a private one when none is attached) and
restart with backoff, poison batches are quarantined
(:class:`BatchQuarantined`), wedged fits are watchdogged
(:class:`FitTimeout`), reads stay live while degraded, and the journal is
bounded by compaction. See ``docs/serving.md`` for the architecture, the
staleness / consistency / durability contracts and runnable round-trips.
"""

from .faults import FaultInjector, InjectedFault
from .journal import (
    FSYNC_POLICIES,
    InjectedTornWrite,
    JournalError,
    JournalScan,
    WriteAheadJournal,
    scan_journal,
    truncate_torn_tail,
)
from .metrics import LatencyRecorder, ServiceMetrics, percentile
from .recovery import RecoveryReport, rebuild_dataset, recover
from .service import (
    Overloaded,
    ServiceClosed,
    ServiceNotStarted,
    TruthRead,
    TruthService,
)
from .snapshots import PublicationError, PublishedResult, SnapshotStore
from .supervisor import BatchQuarantined, SupervisionPolicy, Supervisor
from .worker import EMWorker, FitTimeout, PendingBatch, Write

__all__ = [
    "TruthService",
    "TruthRead",
    "ServiceClosed",
    "ServiceNotStarted",
    "Overloaded",
    "Supervisor",
    "SupervisionPolicy",
    "BatchQuarantined",
    "FitTimeout",
    "PendingBatch",
    "PublishedResult",
    "SnapshotStore",
    "PublicationError",
    "EMWorker",
    "Write",
    "ServiceMetrics",
    "LatencyRecorder",
    "percentile",
    "WriteAheadJournal",
    "JournalError",
    "JournalScan",
    "InjectedTornWrite",
    "FSYNC_POLICIES",
    "scan_journal",
    "truncate_torn_tail",
    "recover",
    "rebuild_dataset",
    "RecoveryReport",
    "FaultInjector",
    "InjectedFault",
]
