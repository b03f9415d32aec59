"""Extensions beyond the paper's verified algorithms (its future work)."""
