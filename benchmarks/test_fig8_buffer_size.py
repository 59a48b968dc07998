"""Fig. 8: effect of experience-buffer size on Sibyl's performance.

The paper sweeps 1..100000 entries and finds performance saturating at
1000 (the chosen capacity); we sweep the same axis.  Claim: the
``fig8`` row of ``claims.py``.
"""

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, emit

from repro.sim.experiment import buffer_size_sweep
from repro.sim.report import format_series

SIZES = (1, 10, 100, 1000, 10000)


def test_fig8_experience_buffer_size(benchmark):
    series = benchmark.pedantic(
        lambda: buffer_size_sweep(SIZES, workload="rsrch_0",
                                  config="H&M", n_requests=N_REQUESTS,
                                  n_seeds=N_SEEDS, store=STORE),
        rounds=1, iterations=1,
    )
    emit(
        "fig8_buffer_size",
        format_series(series, label="norm_latency",
                      title="Fig 8: normalized latency vs buffer size (H&M)"),
        series,
    )
    check("fig8_buffer_size")
