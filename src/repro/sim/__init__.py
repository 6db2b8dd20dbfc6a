"""Deterministic discrete-event simulation engine.

This package provides the substrate on which every timed component of the
ROS reproduction runs: a single simulated clock, generator-based processes,
FIFO/priority resources and a processor-sharing bandwidth model used for
I/O-stream interference.

The engine is deliberately small and dependency-free.  Processes are plain
Python generators that ``yield`` *effects* (:class:`Delay`, :class:`Wait`,
:class:`Acquire`, ...) and receive the effect's result back at the yield
point, in the style of SimPy::

    def worker(engine, resource):
        grant = yield Acquire(resource)
        yield Delay(2.5)
        grant.release()
        return "done"

    engine = Engine()
    result = engine.run_process(worker(engine, resource))
"""

from repro.sim.engine import (
    Acquire,
    AllOf,
    Delay,
    Engine,
    FirstOf,
    Interrupt,
    Join,
    Process,
    SimEvent,
    Wait,
)
from repro.sim.resources import Grant, Resource
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    to_chrome_trace,
    to_flat_json,
)

__all__ = [
    "Acquire",
    "AllOf",
    "Counter",
    "Delay",
    "DeterministicRNG",
    "Engine",
    "FirstOf",
    "Gauge",
    "Grant",
    "Histogram",
    "Interrupt",
    "Join",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Process",
    "Resource",
    "SharedBandwidth",
    "SimEvent",
    "Span",
    "Tracer",
    "to_chrome_trace",
    "to_flat_json",
    "Wait",
]
