"""The tracing plane: span timelines for CONGEST, MPC and recovery runs.

``TraceRecorder`` (see :mod:`repro.trace.recorder` for the determinism
and clock contracts) collects Chrome trace-event / Perfetto JSON;
``validate_trace`` / ``load_trace`` check the emitted shape.  Wire-up is
``--trace PATH`` on the mvc/mds/sweep/verify CLI commands, or
:meth:`TraceRecorder.attach` on a network / passing ``tracer=`` to the
MPC solvers directly.
"""

from repro.trace.recorder import MAIN_TID, TraceRecorder
from repro.trace.validate import load_trace, validate_trace

__all__ = ["MAIN_TID", "TraceRecorder", "load_trace", "validate_trace"]
