"""Benchmark E6 — regenerate the Section 4 strategy crossover map.

E6's five strategies share each cell's seed, so most background traces
and shot counts are memo hits; the hit and miss counts of both memos
go into BENCH_<rev>.json so the trajectory shows that reuse.
"""

from repro.experiments.crossover import run
from repro.experiments.harness import assert_all_claims
from repro.quantum.circuit import _sampled_counts
from repro.scenarios.build import _drawn_background


def test_bench_crossover(run_once, bench_record):
    # Start cold, so the counts are E6's own, whatever ran before it.
    _sampled_counts.cache_clear()
    _drawn_background.cache_clear()
    result = run_once(run, seed=0)
    print()
    print(result.render())
    assert_all_claims(result)
    counts = _sampled_counts.cache_info()
    traces = _drawn_background.cache_info()
    bench_record(
        sample_counts_hits=counts.hits,
        sample_counts_misses=counts.misses,
        background_trace_hits=traces.hits,
        background_trace_misses=traces.misses,
    )
