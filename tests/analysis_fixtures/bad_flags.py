"""Known-bad fixture for R001: a declared A/B flag with a dead branch.

``certify_things`` declares ``compaction=`` but never consults it with a
conditional nor forwards it — the optimised/baseline pairing is dead.
``delegating`` forwards the flag as a keyword, which is fine.
"""


def certify_things(events, compaction=True):  # flag never consulted -> R001
    return list(events)


def delegating(events, compaction=True):
    return certify_things(events, compaction=compaction)  # forwarding: fine
