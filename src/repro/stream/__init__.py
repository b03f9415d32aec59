"""Bounded-memory streaming certification: feed service + workloads.

This package wraps the online certifier's prefix-compaction mode
(:class:`repro.core.online.OnlineCertifier` with ``compaction=True``)
in a long-lived deployment shape:

* :mod:`repro.stream.service` — an asyncio feed API with bounded
  queues/backpressure, many concurrent sessions sharded over certifier
  workers, and ``stream.*`` metrics;
* :mod:`repro.stream.workload` — commit-as-you-go stream generation
  whose live window stays O(1) in the stream length, the workload the
  ``repro stream`` CLI subcommand and benchmark E15 drive.

Import names from those modules.  The four below are also importable
from the package because the ``perfbench/`` ledger imports them from
here; nothing else is.
"""

from .service import StreamConfig, StreamService
from .workload import StreamWorkload, commit_as_you_go

__all__ = ["StreamConfig", "StreamService", "StreamWorkload", "commit_as_you_go"]
