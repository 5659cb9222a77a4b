"""Distributed state-vector circuit simulation with pluggable rank
transports, benchmark harness, and an analytic interconnect performance
model."""

from .svcore import (
    Circuit,
    CountsDistribution,
    GateOp,
    StateSlice,
    apply_gate_dense,
    dense_run,
    fuse,
)

__all__ = [
    "Circuit",
    "CountsDistribution",
    "GateOp",
    "StateSlice",
    "apply_gate_dense",
    "dense_run",
    "fuse",
]

__version__ = "0.1.0"
