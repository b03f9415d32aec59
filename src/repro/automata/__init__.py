"""The I/O automaton framework (Section 2.1)."""
