"""Core model: names, actions, event machinery, and the SG construction."""
