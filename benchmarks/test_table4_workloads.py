"""Table 4: characteristics of the 14 evaluated workloads.

Regenerates the table from the synthetic traces and reports both the
paper's target statistics and the measured ones.  It characterises the
inputs and carries no claim; the generator's calibration is tested in
``tests/traces``.
"""

from common import N_REQUESTS, emit

from repro.sim.report import format_table
from repro.traces.stats import compute_stats
from repro.traces.workloads import MSRC_WORKLOADS, make_trace


def build_table4():
    rows = []
    for name, spec in MSRC_WORKLOADS.items():
        trace = make_trace(name, n_requests=N_REQUESTS, seed=0)
        stats = compute_stats(trace)
        rows.append(
            {
                "workload": name,
                "write%_paper": 100 * spec.write_fraction,
                "write%_meas": 100 * stats.write_fraction,
                "size_kib_paper": spec.avg_request_size_kib,
                "size_kib_meas": stats.avg_request_size_kib,
                "acc_cnt_paper": spec.avg_access_count,
                "acc_cnt_meas": stats.avg_access_count,
                "uniq_pages": stats.unique_pages,
            }
        )
    return rows


def test_table4_workload_characteristics(benchmark):
    rows = benchmark.pedantic(build_table4, rounds=1, iterations=1)
    text = format_table(
        rows, title="Table 4: workload characteristics (paper vs measured)",
        precision=1,
    )
    emit("table4_workloads", text)
