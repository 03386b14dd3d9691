"""Package of the tracer stub; see ``dispatch.py``."""
