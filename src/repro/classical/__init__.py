"""The classical (flat) serializability theory, as a baseline."""
