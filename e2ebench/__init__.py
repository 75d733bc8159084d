"""End-to-end benchmark of the simulator; see run.py."""
