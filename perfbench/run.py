"""The biomote benchmark: one closed-loop client running CLI studies.

    python3 perfbench/run.py --workload ber_curve --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``biomote`` subcommands.  One cycle runs
them one after another, each as a child process, and checks every CSV it
writes; cycles repeat until ``--seconds`` have passed, and each time
metric is the median over the cycles.  The seed picks the CLI master seed
of each cycle from a pool of :data:`SEED_POOL` seeds whose CSV digests
were recorded at the baseline commit (``reference_digests.json``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
cycle twice, plain and under ``tracer.py``, and reports the per-layer
metrics from the traced spans; it also checks that the traced CSVs equal
the plain ones and that each workload produces exactly its expected spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

DEFAULT_CLI_SEED = 0xB10B10
SEED_POOL = 16
SETUP_REPEATS = 11
#: no child runs past this many seconds after the measured ``--seconds``
DEADLINE_SLACK_S = 120

# The default grids of mac-cdma and mac-compare take about 265 s; this trim
# keeps short and long codes (L = 64, 256), n up to 200, and both compare
# durations, at 20 trials so one cycle takes a few seconds.
_CDMA_TRIM = ("mac_n_motes=50,200", "mac_trials=20")

#: workload -> [(subcommand, --set overrides)]; everything else is the
#: packaged config and the shipped defaults
WORKLOADS = {
    # FEC and PHY Monte Carlo over 4 scheme pairs x 6 distances; the only
    # workload where fec and phy do the work, with early-stopping points and
    # points that run to the bit cap
    "ber_curve": [("ber-sweep", ())],
    # single-frame ALOHA and the max_fully_read scan; no CDMA, fec or phy,
    # so it is the bypass case for codec and despreading changes
    "mac_aloha": [("mac-scenario1", ()), ("mac-scenario2", ())],
    # CDMA despreading with random codes, then Walsh CDMA against framed
    # ALOHA at matched airtime
    "mac_cdma": [("mac-cdma", ("mac_code_lens=64,256",) + _CDMA_TRIM),
                 ("mac-compare", _CDMA_TRIM)],
}

#: span names each workload must produce, no more and no fewer
EXPECTED_SPANS = {
    "ber_curve": {"link.link_budget", "phy.ber_vs_distance",
                  "phy.ber_monte_carlo", "phy.modulate", "phy.awgn",
                  "phy.demodulate", "fec.hamming_encode", "fec.hamming_decode",
                  "fec.rs_encode", "fec.rs_decode"},
    "mac_aloha": {"mac.max_fully_read", "mac.scenario2_sweep",
                  "mac.aloha_mean_successes", "mac.aloha_simulate"},
    "mac_cdma": {"mac.cdma_simulate", "mac.compare_schemes",
                 "mac.aloha_mean_successes", "mac.aloha_simulate"},
}
#: span counts fixed by the workload's grid, whatever the seed
EXACT_SPAN_COUNTS = {
    "ber_curve": {"link.link_budget": 24, "phy.ber_monte_carlo": 24,
                  "phy.ber_vs_distance": 4},
}

#: (name, unit) of each metric, in BENCHMARK.json order
END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
    ("samples_per_s", "1/s"), ("passed_ratio", "ratio"),
    ("csv_identical_ratio", "ratio"),
]
_CODECS = ("hamming_encode", "hamming_decode", "rs_encode", "rs_decode")
PER_LAYER = (
    [("link.link_budget.calls", "count"), ("link.link_budget.self_s", "s"),
     ("link.link_budget.evals_per_s", "1/s")]
    + [(f"fec.{c}.{stat}", unit) for c in _CODECS
       for stat, unit in (("calls", "count"), ("self_s", "s"),
                          ("info_bits_per_s", "bit/s"))]
    + [("fec.rs_decode.failure_ratio", "ratio")]
    + [(f"phy.{f}.{stat}", unit) for f in ("modulate", "awgn", "demodulate")
       for stat, unit in (("self_s", "s"), ("bits_per_s", "bit/s"))]
    + [("phy.ber_monte_carlo.calls", "count"), ("phy.ber_monte_carlo.self_s", "s"),
       ("phy.ber_monte_carlo.bits", "count"),
       ("phy.ber_monte_carlo.overshoot_bits", "count"),
       ("phy.ber_monte_carlo.low_confidence_ratio", "ratio"),
       ("phy.ber_vs_distance.calls", "count"),
       ("mac.aloha_simulate.calls", "count"), ("mac.aloha_simulate.self_s", "s"),
       ("mac.aloha_simulate.trials_per_s", "1/s"),
       ("mac.aloha.slot_success_ratio", "ratio"),
       ("mac.aloha_mean_successes.self_s", "s"),
       ("mac.max_fully_read.probes", "count")]
    + [(f"mac.cdma_simulate.{family}.{stat}", unit)
       for family in ("random", "walsh")
       for stat, unit in (("calls", "count"), ("self_s", "s"),
                          ("trials_per_s", "1/s"))]
    + [("mac.cdma_simulate.unique_ratio", "ratio"),
       ("mac.cdma.despread_ops_computed", "count"),
       # last: measured by the run, not from the spans
       ("trace.overhead_ratio", "ratio")]
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def cli_seed(seed: int, cycle: int) -> int:
    """CLI master seed of a cycle: the pool entry after ``seed``."""
    return DEFAULT_CLI_SEED + (seed + cycle) % SEED_POOL


@dataclass
class Cycle:
    """One pass over a workload's subcommands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    csvs: dict = field(default_factory=dict)      # subcommand -> bytes
    spans: list = field(default_factory=list)


class Runner:
    """Spawns the CLI children of one benchmark run inside ``work``."""

    def __init__(self, work: Path, deadline: float):
        from checks import check_csv

        self.check_csv = check_csv
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BIOLINK_SEED", None)
        self.info = program_info(self.env)
        # the resolved config of each subcommand, for the output checks
        self.params = {(sub, sets): resolved_config(sets)
                       for steps in WORKLOADS.values() for sub, sets in steps}

    def child(self, argv: list[str]) -> tuple[bool, float, float]:
        """Run one child to its exit: (succeeded, wall s, user+sys s)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.work,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - start, 0.1))
            ok = proc.returncode == 0
            if not ok:
                print(f"child {argv[1:4]} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            ok = False
            print(f"child {argv[1:4]} timed out", file=sys.stderr)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return ok, wall, cpu

    def cycle(self, workload: str, seed: int, traced: bool) -> Cycle:
        """Run the workload's subcommands once with CLI master seed ``seed``
        and check each CSV."""
        out = Cycle()
        spans_path = self.work / "spans.json"
        for sub, sets in WORKLOADS[workload]:
            csv_path = self.work / f"{sub}.csv"
            csv_path.unlink(missing_ok=True)
            spans_path.unlink(missing_ok=True)
            args = [sub, "--out", str(csv_path), "--seed", str(seed)]
            args += [a for s in sets for a in ("--set", s)]
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)]
            else:
                argv = [sys.executable, "-m", "biomote.cli"]
            ok, wall, cpu = self.child(argv + args)
            out.attempted += 1
            out.wall_s += wall
            out.cpu_s += cpu
            if ok:
                data = csv_path.read_bytes()
                problems, samples = self.check_csv(
                    sub, data.decode(), self.params[sub, sets],
                    self.info["schemas"][sub])
                for problem in problems:
                    print(f"check failed (seed {seed}): {problem}", file=sys.stderr)
                ok = not problems
                out.samples += samples
                out.csvs[sub] = data
                if traced:
                    # parent indices are local to each child's spans file
                    base = len(out.spans)
                    out.spans += [[name, start, end, parent + base if parent >= 0 else -1,
                                   attrs] for name, start, end, parent, attrs
                                  in json.loads(spans_path.read_text())]
            out.failed += not ok
        return out

    def setup(self) -> tuple[bool, float]:
        """Start-up of a child that only imports the CLI and loads the
        packaged config: (succeeded, user+sys s).

        CPU time, not wall time: numpy's BLAS threads start on the second
        core when it is free, which swings the wall time of this 0.2-0.3 s
        child by about a third with the host's load, while its CPU time
        stays within about a tenth.
        """
        code = ("import biomote.cli\n"
                "from biomote.config import load_config, packaged_config_path\n"
                "load_config(packaged_config_path())\n")
        ok, _, cpu = self.child([sys.executable, "-c", code])
        return ok, cpu


def resolved_config(sets):
    """The packaged config with ``--set`` overrides, as the CLI resolves it."""
    from biomote.config import apply_setting, load_config, packaged_config_path

    params = load_config(packaged_config_path())
    for item in sets:
        key, _, value = item.partition("=")
        apply_setting(params, key, value)
    return params


def program_info(env: dict) -> dict:
    """numpy version, BLAS and CSV schemas, read in a child so that this
    process never imports numpy.

    A child's ``ru_maxrss`` counts the memory of the process that spawned
    it, so the runner stays small (about 15 MB against 35 MB and more for
    any CLI child) to keep ``peak_rss_mb`` the children's own.
    """
    code = ("import json, numpy\n"
            "from biomote.cli import CSV_SCHEMAS\n"
            "try:\n"
            "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
            "except (TypeError, KeyError):\n"
            "    blas = 'unknown'\n"
            "print(json.dumps({'numpy': numpy.__version__, 'blas': blas,\n"
            "                  'schemas': CSV_SCHEMAS}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def csv_identical(cycle: Cycle, workload: str, seed: int,
                  digests: dict) -> int:
    return sum(digests.get(workload, {}).get(f"{sub} {seed}")
               == hashlib.sha256(data).hexdigest()
               for sub, data in cycle.csvs.items())


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.

    Self time is a span's duration minus the time of its direct child
    spans; a ``mac.cdma_simulate`` span is filed under its code family.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    sums: defaultdict = defaultdict(float)
    probes = 0
    cdma_keys = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "mac.cdma_simulate":
            cdma_keys.append(tuple(attrs["key"]))
            sums["despread_ops"] += attrs["despread_ops"]
            name = f"{name}.{attrs['family']}"
        if name == "mac.aloha_mean_successes" and parent >= 0:
            probes += spans[parent][0] == "mac.max_fully_read"
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        for key, value in attrs.items():
            if isinstance(value, (bool, int, float)):
                sums[name, key] += value

    m = {"link.link_budget.calls": calls["link.link_budget"],
         "link.link_budget.self_s": self_s["link.link_budget"],
         "link.link_budget.evals_per_s": _rate(calls["link.link_budget"],
                                               self_s["link.link_budget"])}
    for codec in _CODECS:
        name = f"fec.{codec}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.info_bits_per_s"] = _rate(sums[name, "info_bits"], self_s[name])
    m["fec.rs_decode.failure_ratio"] = _rate(sums["fec.rs_decode", "failed"],
                                             sums["fec.rs_decode", "blocks"])
    for f in ("modulate", "awgn", "demodulate"):
        name = f"phy.{f}"
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.bits_per_s"] = _rate(sums[name, "bits"], self_s[name])
    mc = "phy.ber_monte_carlo"
    m.update({f"{mc}.calls": calls[mc], f"{mc}.self_s": self_s[mc],
              f"{mc}.bits": sums[mc, "bits"],
              f"{mc}.overshoot_bits": sums[mc, "overshoot_bits"],
              f"{mc}.low_confidence_ratio": _rate(sums[mc, "low_confidence"],
                                                  calls[mc]),
              "phy.ber_vs_distance.calls": calls["phy.ber_vs_distance"]})
    aloha = "mac.aloha_simulate"
    m.update({f"{aloha}.calls": calls[aloha], f"{aloha}.self_s": self_s[aloha],
              f"{aloha}.trials_per_s": _rate(calls[aloha], self_s[aloha]),
              "mac.aloha.slot_success_ratio": _rate(sums[aloha, "reads"],
                                                    sums[aloha, "slots"]),
              "mac.aloha_mean_successes.self_s": self_s["mac.aloha_mean_successes"],
              "mac.max_fully_read.probes": probes})
    for family in ("random", "walsh"):
        name = f"mac.cdma_simulate.{family}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.trials_per_s"] = _rate(sums[name, "trials"], self_s[name])
    m["mac.cdma_simulate.unique_ratio"] = _rate(len(set(cdma_keys)), len(cdma_keys))
    m["mac.cdma.despread_ops_computed"] = sums["despread_ops"]
    return m


def span_problems(workload: str, spans: list) -> list[str]:
    """Self-test of the tracing: expected span set and exact counts."""
    counts = Counter(span[0] for span in spans)
    problems = []
    if set(counts) != EXPECTED_SPANS[workload]:
        problems.append(f"spans missing {sorted(EXPECTED_SPANS[workload] - set(counts))}"
                        f", unexpected {sorted(set(counts) - EXPECTED_SPANS[workload])}")
    for name, count in EXACT_SPAN_COUNTS.get(workload, {}).items():
        if counts[name] != count:
            problems.append(f"{counts[name]} {name} spans, expected {count}")
    return problems


def environment(info: dict) -> dict:
    """What the numbers depend on besides the code."""
    import platform

    return {"python": platform.python_version(), "numpy": info["numpy"],
            "blas": info["blas"], "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                                if k in os.environ},
            "loadavg_1m": os.getloadavg()[0]}


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            trace: bool, digests: dict) -> dict:
    """Cycle until ``seconds`` have passed; return the result object.

    Set-up children run between the plain cycles, so that their median
    spans the same stretch of time as the cycles', and are topped up to
    :data:`SETUP_REPEATS` at the end.
    """
    attempted = failed = compared = identical = 0
    plain: list[Cycle] = []
    traced: list[Cycle] = []
    setups: list[tuple[bool, float]] = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        s = cli_seed(seed, k)
        c = runner.cycle(workload, s, False)
        plain.append(c)
        attempted += c.attempted
        failed += c.failed
        compared += len(WORKLOADS[workload])
        identical += csv_identical(c, workload, s, digests)
        if trace:
            t = runner.cycle(workload, s, True)
            traced.append(t)
            problems = span_problems(workload, t.spans)
            if t.csvs != c.csvs:
                problems.append("traced CSVs differ from the plain run")
            for problem in problems:
                print(f"trace self-test failed (seed {s}): {problem}", file=sys.stderr)
            attempted += t.attempted
            failed += max(t.failed, bool(problems))
        else:
            setups.append(runner.setup())
        k += 1
    if trace:
        per_cycle = [layer_metrics(t.spans) for t in traced]
        values = {name: statistics.median(m[name] for m in per_cycle)
                  for name, _ in PER_LAYER[:-1]}
        values["trace.overhead_ratio"] = statistics.median(
            t.wall_s / c.wall_s for t, c in zip(traced, plain))
        units = dict(PER_LAYER)
    else:
        while len(setups) < SETUP_REPEATS:
            setups.append(runner.setup())
        attempted += len(setups)
        failed += sum(not ok for ok, _ in setups)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": statistics.median(c.wall_s for c in plain),
            "cpu_s": statistics.median(c.cpu_s for c in plain),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(cpu for _, cpu in setups),
            "samples_per_s": statistics.median(c.samples / c.wall_s for c in plain),
            "passed_ratio": (attempted - failed) / attempted,
            "csv_identical_ratio": identical / compared,
        }
        units = dict(END_TO_END)
    print(f"{workload}: {len(plain)} cycles, failed_ratio {failed / attempted} "
          f"({failed} of {attempted} runs)")
    for name, value in values.items():
        print(f"{workload:10s} {name:42s} {value:16.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biomote" / "cli.py").is_file():
        print(f"perfbench: no biomote sources under {SRC}", file=sys.stderr)
        return 2
    digests = json.loads((BENCH / "reference_digests.json").read_text())
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.perf_counter() + args.seconds + DEADLINE_SLACK_S)
        print(json.dumps({"environment": environment(runner.info)}))
        result = measure(runner, args.workload, args.seed, args.seconds,
                         bool(args.trace), digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
