"""Repository benchmark: see run.py and RATIONALE.md."""
