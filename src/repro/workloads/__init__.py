"""Workload synthesis: distributions, arrivals, traces and their kernels."""

from repro.workloads.arrivals import (
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workloads.distributions import (
    Distribution,
    LogUniform,
    PowerOfTwoNodes,
)
from repro.workloads.generator import CampaignDriver, submit_trace
from repro.workloads.hybrid import trace_kernel_payload
from repro.workloads.swf import TraceJob, read_swf, synthesise_trace, write_swf

__all__ = [
    # Distributions and arrivals
    "DiurnalArrivals",
    "Distribution",
    "LogUniform",
    "PoissonArrivals",
    "PowerOfTwoNodes",
    "TraceArrivals",
    # Traces
    "TraceJob",
    "read_swf",
    "synthesise_trace",
    "write_swf",
    # Submission
    "CampaignDriver",
    "submit_trace",
    "trace_kernel_payload",
]
