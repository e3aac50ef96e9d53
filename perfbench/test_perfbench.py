"""Self-test of the benchmark: tracing, output checks and BENCHMARK.json.

    python3 -m pytest perfbench

The traced tests run each workload once plain and once traced (about 15 s
in all on a 2-core x86 host).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from checks import check_csv  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    work = run.ROOT / ".perfbench_work" / f"test{os.getpid()}"
    work.mkdir(parents=True)
    yield run.Runner(work, time.perf_counter() + 600)
    shutil.rmtree(work, ignore_errors=True)


@pytest.fixture(scope="module")
def cycles(runner):
    """(plain, traced) cycle of every workload at the CLI default seed."""
    seed = run.cli_seed(0, 0)
    return {w: (runner.cycle(w, seed, traced=False), runner.cycle(w, seed, traced=True))
            for w in run.WORKLOADS}


def test_ber_curve_span_counts(cycles):
    counts = Counter(span[0] for span in cycles["ber_curve"][1].spans)
    assert counts["link.link_budget"] == 24
    assert counts["phy.ber_monte_carlo"] == 24
    assert counts["phy.ber_vs_distance"] == 4


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_csvs_equal_plain(cycles, workload):
    plain, traced = cycles[workload]
    assert plain.failed == traced.failed == 0
    assert traced.csvs == plain.csvs
    assert len(plain.csvs) == len(run.WORKLOADS[workload])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_no_span_missing(cycles, workload):
    assert run.span_problems(workload, cycles[workload][1].spans) == []


def test_probes_and_self_times(cycles):
    metrics = run.layer_metrics(cycles["mac_aloha"][1].spans)
    assert metrics["mac.max_fully_read.probes"] == 39      # 5 read times
    assert metrics["mac.aloha_simulate.self_s"] > 0
    assert metrics["mac.aloha_mean_successes.self_s"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.fixture(scope="module")
def params(runner):
    return {sub: p for (sub, _), p in runner.params.items()}


@pytest.fixture(scope="module")
def schemas(runner):
    return runner.info["schemas"]


def _replace_row(text: str, index: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[index].split(",")
    cells[column] = value
    lines[index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checks_accept_program_output(cycles, params, schemas):
    for workload, (plain, _) in cycles.items():
        for sub, data in plain.csvs.items():
            problems, samples = check_csv(sub, data.decode(), params[sub], schemas[sub])
            assert problems == [] and samples > 0


@pytest.mark.parametrize("subcommand,row,column,value", [
    ("ber-sweep", 10, 3, "0.06"),        # uncoded BPSK at 6 cm: Q gives 0.013
    ("ber-sweep", 1, 3, "nan"),
    ("mac-scenario2", 1, 3, "9.5"),      # n = 10 in 781 slots: 9.885 expected
    ("mac-compare", 2, 3, "49"),         # Walsh L = 128 reads all 50 motes
])
def test_checks_reject_wrong_rows(cycles, params, schemas, subcommand, row, column,
                                  value):
    workload = next(w for w, steps in run.WORKLOADS.items()
                    if subcommand in dict(steps))
    text = cycles[workload][0].csvs[subcommand].decode()
    problems, _ = check_csv(subcommand, _replace_row(text, row, column, value),
                            params[subcommand], schemas[subcommand])
    assert problems


def test_checks_reject_wrong_header(cycles, params, schemas):
    text = cycles["ber_curve"][0].csvs["ber-sweep"].decode()
    problems, _ = check_csv("ber-sweep", text.replace("bits", "n_bits", 1),
                            params["ber-sweep"], schemas["ber-sweep"])
    assert problems
