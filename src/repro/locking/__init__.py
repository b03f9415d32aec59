"""Moss' read/write locking algorithm (Section 5)."""
