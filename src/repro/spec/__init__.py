"""Arbitrary data types: specifications and commutativity (Section 6.1)."""
