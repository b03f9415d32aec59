"""Multi-site certification: replication, site failure, global merging.

A *site* is just a subtree of the paper's transaction tree, so each
site's history certifies with the unchanged single-site machinery; what
no site can see is the other sites' ordering decisions.  This package
routes replicated workloads onto per-site generic-controller systems
(:mod:`~repro.distributed.cluster`, :mod:`~repro.distributed.simulate`),
merges the per-site serialization graphs, and certifies cross-site
serial correctness (:mod:`~repro.distributed.certifier`) — reporting the
runs where local-only certification would have wrongly passed.

See ``docs/DISTRIBUTED.md`` for the model, the placement and
available-copies rules, and runnable examples.
"""
