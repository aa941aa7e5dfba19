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
from repro.workloads.swf import (
    TraceJob,
    clip_trace,
    jitter_trace,
    loop_trace,
    read_swf,
    rescale_trace,
    synthesise_trace,
    truncate_trace,
    write_swf,
)

__all__ = [
    "CampaignDriver",
    "DiurnalArrivals",
    "Distribution",
    "LogUniform",
    "PoissonArrivals",
    "PowerOfTwoNodes",
    "TraceArrivals",
    "TraceJob",
    "clip_trace",
    "jitter_trace",
    "loop_trace",
    "read_swf",
    "rescale_trace",
    "submit_trace",
    "synthesise_trace",
    "trace_kernel_payload",
    "truncate_trace",
    "write_swf",
]
