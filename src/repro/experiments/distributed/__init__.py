"""Fault-tolerant distributed campaign execution.

A coordinator/worker architecture sharding campaigns across hosts over
a minimal HTTP/JSON protocol, engineered first for fault tolerance:
lease-based work assignment with heartbeats and deadline expiry,
idempotent result commits through the write-ahead scenario journal
(journal-as-replication-log — ``--resume`` and crash-safety compose
for free), and quarantine of poison scenarios that fail on several
distinct workers.  The coordinator is the remote attempt runner of the
executor's one dispatch loop: retries, backoff, failure records and
drain are the executor's, exactly as for local attempts.

Modules
-------
``protocol``
    Wire format: JSON endpoints carrying the scenario journal's
    CRC-guarded JSON records,
    :class:`~repro.experiments.distributed.protocol.DistributedSpec`.
``lease``
    The coordinator's lease table (grant / heartbeat / complete /
    fail / expire state machine).
``coordinator``
    Embedded HTTP server + durable commit pipeline; posts lease
    outcomes to the executor's dispatch loop.
``worker``
    The ``repro-noc worker`` loop: lease, heartbeat, execute, report.

Entry points: ``Executor(distributed=DistributedSpec(...))`` (or
``--port`` / ``repro-noc serve`` on the CLI) on the coordinator side,
``repro-noc worker --connect HOST:PORT`` on every worker host.
"""

from repro.experiments.distributed.protocol import (  # noqa: F401
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    DistributedSpec,
    ProtocolError,
)
from repro.experiments.distributed.lease import LeaseTable  # noqa: F401
from repro.experiments.distributed.coordinator import CoordinatorServer  # noqa: F401
from repro.experiments.distributed.worker import (  # noqa: F401
    default_worker_id,
    run_worker,
)

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "DistributedSpec",
    "ProtocolError",
    "LeaseTable",
    "CoordinatorServer",
    "default_worker_id",
    "run_worker",
]
