"""Point runner that traced service runs submit (``module:qualname``).

Service workers are fresh interpreters, so the benchmark cannot wrap
their functions from outside.  A submission naming
``perfbench.tracehooks:run_scenario_point`` makes a worker import this
module when it resolves the runner, before it runs the sweep; when
``$PERFBENCH_TRACE_DIR`` is set, the import installs the same span
wrappers the benchmark process uses and writes the worker's spans to
that directory.  The runner itself is ``run_scenario_point`` unchanged.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from perfbench.trace import Tracer, install

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_trace_dir = os.environ.get(TRACE_DIR_ENV)
if _trace_dir:
    install(Tracer(_trace_dir, flush_top=True), worker=True)


def run_scenario_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.scenarios import sweeps

    return sweeps.run_scenario_point(params, seed)
