"""Simulation substrate: programs, workloads, driver, policies, faults."""
