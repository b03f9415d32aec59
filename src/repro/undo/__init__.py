"""The undo logging algorithm for arbitrary data types (Section 6.2)."""
