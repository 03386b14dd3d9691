"""Stub whose only reader is ``perfbench/tracer.py``.

The tracer wraps ``array_namespace`` when it installs.  Nothing in the
library imports this module, so a traced run reports zero calls.  Delete it
together with the tracer's ``backend.namespace`` row.
"""

import numpy as np


def array_namespace(*arrays):
    return np
