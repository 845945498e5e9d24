"""``repro.fuzz.dist`` — fault-tolerant coordinator/worker campaigns.

The ROADMAP's scale-out item, built on the single-machine recovery
layer: a :class:`Coordinator` owns the corpus, round schedule, and
merged report; stateless workers (:func:`run_worker`) lease seed
batches over HTTP, fuzz them locally, and POST results back.  Leases
expire and re-issue, ingest is idempotent on batch fingerprints,
checkpoints are atomic — and the merged
:class:`~repro.eval.precision.PrecisionReport` is byte-identical to a
single-machine fault-free campaign for any worker count or kill
schedule.  See ``docs/distributed.md``.
"""

from .coordinator import Coordinator, CoordinatorConfig
from .protocol import (
    DIST_SCHEMA_VERSION,
    batch_fingerprint,
    campaign_id,
    validate_batch_results,
)
from .worker import (
    CoordinatorClient,
    CoordinatorUnreachable,
    DistProtocolError,
    run_worker,
)

__all__ = [
    "DIST_SCHEMA_VERSION",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "DistProtocolError",
    "batch_fingerprint",
    "campaign_id",
    "run_worker",
    "validate_batch_results",
]
