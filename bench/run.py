"""Benchmark of the ttnmf CLI: train -> estimate -> evaluate on CSV files.

    python3 bench/run.py --workload i2-cli --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

The inputs are DATASETS input sets made from --seed by bench/inputs.py
(numpy only, no ttnmf).  The run repeats whole cycles, each one round of
`ttnmf train`, `ttnmf estimate` and `ttnmf evaluate` per input set, each
subcommand through the CLI's main() in this process, for about --seconds
seconds, and checks every output (bench/checks.py).

--trace 0 reports the end-to-end metrics: medians over the rounds, except
tre_mean and sre_mean (means over the rounds, so over the input sets),
setup_s (median over all set-ups: SETUP_REPEATS before the first round and
one before each round) and peak_rss_mb (growth of the process's peak
resident memory over its peak after the imports and the first set-ups).
--trace 1 runs half the input sets, each once untraced and once traced, and
reports the per-layer metrics, medians over the traced rounds; spans go to
spans.jsonl in the run directory when the run ends.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

Exit status: 0 when a result was printed, nonzero when ttnmf cannot be
imported (for example with no src/ttnmf next to this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent

SETUP_REPEATS = 3
# Input sets per round.  A round runs the three subcommands on each set, so
# every round sees the same sets, made from (--seed, index); the mean over
# several sets spreads less from seed to seed than one set does.
DATASETS = 6


@dataclass(frozen=True)
class Workload:
    network: inputs.Network
    n_train: int
    n_test: int
    # Whether the link-residual and min-norm checks run.  refine_em's
    # zero-start fault (CHANGES.md) fails both on some GEANT seeds.
    em_checks: bool


# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    "i2-cli": Workload(inputs.INTERNET2, 2016, 1152, em_checks=True),
    "geant-cli": Workload(inputs.GEANT, 1008, 672, em_checks=False),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "pipeline_cpu_s": "s", "train_s": "s",
    "estimate_cols_per_s": "cols/s", "tre_mean": "ratio", "sre_mean": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose durations are summed over a round
SPAN_SECONDS = {
    "fileio.csv_read_s": "fileio.csv_read",
    "fileio.csv_write_s": "fileio.csv_write",
    "fileio.model_save_s": "fileio.model_save",
    "fileio.model_load_s": "fileio.model_load",
    "initialization.svd_seed_s": "initialization.svd_seed",
    "initialization.lag_weights_s": "initialization.lag_weights",
    "training.train_s": "training.train",
    "training.tune_penalties_s": "training.tune_penalties",
    "training.spatial_s": "training.spatial",
    "training.latent_s": "training.latent",
    "training.ar_s": "training.ar",
    "factors.temporal_graph_s": "factors.temporal_graph",
    "estimation.estimate_s": "estimation.estimate",
    "estimation.latent_fit_s": "estimation.latent_fit",
    "estimation.em_refine_s": "estimation.em_refine",
    "cli.evaluate_s": "cli.evaluate",
}
SPAN_CALLS = {
    "factors.temporal_graph_calls": "factors.temporal_graph",
    "estimation.latent_fit_calls": "estimation.latent_fit",
}
SPAN_MB = {
    "fileio.csv_mb_read": "fileio.csv_read",
    "fileio.csv_mb_written": "fileio.csv_write",
}
# TrainReport.block_iteration_counts key -> metric
INNER_ITERS = {"spatial": "training.spatial_inner_iters",
               "latent": "training.latent_inner_iters",
               "ar": "training.ar_inner_iters"}

PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "MB" for name in SPAN_MB},
    "fileio.csv_read_mb_per_s": "MB/s",
    "training.s_per_outer_iter": "s",
    "training.outer_iters": "count",
    **{name: "count" for name in INNER_ITERS.values()},
    "training.final_fit_rel": "ratio",
    "estimation.link_residual": "ratio",
    "bench.trace_overhead_s": "s",
}

# written by the CLI during a round; removed before the next one so that a
# failed subcommand can never be checked against an earlier round's file
OUTPUTS = ("model.ttnmf", "trace.csv", "estimated.csv", "sre.csv", "tre.csv",
           "stats.csv", "cdf_sre.csv", "cdf_tre.csv")
INPUT_FILES = ("routing.csv", "traffic_train.csv", "linkflows_test.csv",
               "traffic_test.csv")


class CountingHandler(logging.Handler):
    """Counts ttnmf's log records instead of printing them.

    refine_em can log one warning per EM iteration, thousands per round.
    Installed on the root logger before the CLI runs, it also turns the
    CLI's logging.basicConfig() into a no-op; the level stays at the CLI's
    default (warn), so the program still creates every record.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def import_ttnmf() -> dict:
    src = REPO / "src"
    if not (src / "ttnmf" / "cli.py").is_file():
        sys.exit(f"run.py: ttnmf sources not found under {src}")
    sys.path.insert(0, str(src))
    import ttnmf.cli
    import ttnmf.estimation
    import ttnmf.training
    return {"ttnmf.cli": ttnmf.cli, "ttnmf.estimation": ttnmf.estimation,
            "ttnmf.training": ttnmf.training}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_inputs(w: Workload, seed, run_dir: Path,
                 setups: list) -> inputs.Inputs:
    """Make and write the input CSVs; append the time taken to setups."""
    t0 = time.perf_counter()
    inp = inputs.make_inputs(w.network, w.n_train, w.n_test, seed)
    inputs.write_csv(run_dir / "routing.csv", inp.routing)
    inputs.write_csv(run_dir / "traffic_train.csv", inp.traffic_train)
    inputs.write_csv(run_dir / "linkflows_test.csv", inp.links_test)
    inputs.write_csv(run_dir / "traffic_test.csv", inp.traffic_test)
    setups.append(time.perf_counter() - t0)
    return inp


def commands(w: Workload, d: Path) -> list:
    train = ["train", "--out", d, "--routing", d / "routing.csv",
             "--traffic", d / "traffic_train.csv",
             "--profile", w.network.name]
    estimate = ["estimate", "--out", d, "--model", d / "model.ttnmf",
                "--linkflows", d / "linkflows_test.csv"]
    evaluate = ["evaluate", "--out", d, "--true", d / "traffic_test.csv",
                "--est", d / "estimated.csv"]
    return [("train", train), ("estimate", estimate), ("evaluate", evaluate)]


def run_round(cli, w: Workload, d: Path, inp: inputs.Inputs,
              baseline_tre, tracer=None) -> dict:
    """train -> estimate -> evaluate on one input set, with output checks."""
    for name in OUTPUTS:
        (d / name).unlink(missing_ok=True)
    r = {"wall": {}, "cpu": 0.0, "failed": 0, "problems": [],
         "tre": None, "sre": None, "residual": None, "e_q": []}
    for name, argv in commands(w, d):
        # each CLI call normally gets a fresh process; collecting the last
        # call's garbage first keeps it out of this call's peak memory
        gc.collect()
        span = tracer.span("cli." + name) if tracer else contextlib.nullcontext()
        c0, t0 = time.process_time(), time.perf_counter()
        with span:
            try:
                code = cli.main([str(a) for a in argv])
            except Exception:  # a traceback is a failed subcommand, not a crash
                traceback.print_exc()
                code = "exception"
        r["wall"][name] = time.perf_counter() - t0
        r["cpu"] += time.process_time() - c0
        if code != 0:
            print(f"run.py: ttnmf {name} exited {code}", file=sys.stderr)
            r["failed"] += 1
            continue
        problems = check_output(name, d, inp, baseline_tre, r)
        if problems:
            r["failed"] += 1
            r["problems"] += [f"{name}: {p}" for p in problems]
    return r


def check_output(name, d, inp, baseline_tre, r) -> list:
    if name == "train":
        problems, r["e_q"] = checks.check_trace(d / "trace.csv")
        return problems
    if name == "estimate":
        try:
            est = checks.read_csv_matrix(d / "estimated.csv")
        except (OSError, ValueError) as exc:
            return [f"estimated.csv unreadable: {exc}"]
        problems, r["tre"], r["sre"], r["residual"] = checks.check_estimate(
            est, inp.routing, inp.links_test, inp.traffic_test, baseline_tre,
            checks.RESIDUAL_LIMIT if baseline_tre is not None else None)
        return problems
    return checks.check_stats(d / "stats.csv", r["tre"], r["sre"])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(rounds, setup_s, rss_growth_mb, n_test) -> dict:
    def med(f):
        return _median([f(r) for r in rounds])

    def mean(f):  # every input set occurs equally often
        return statistics.fmean(f(r) for r in rounds)
    return {
        "setup_s": setup_s,
        "pipeline_s": med(lambda r: sum(r["wall"].values())),
        "pipeline_cpu_s": med(lambda r: r["cpu"]),
        "train_s": med(lambda r: r["wall"]["train"]),
        "estimate_cols_per_s": med(lambda r: n_test / r["wall"]["estimate"]),
        "tre_mean": mean(lambda r: r["tre"]),
        "sre_mean": mean(lambda r: r["sre"]),
        "peak_rss_mb": rss_growth_mb,
    }


def layer_metrics(spans, wrapped, r) -> dict:
    """Per-layer figures of one traced round."""
    m = {}
    for metric, name in SPAN_SECONDS.items():
        if name in wrapped or name.startswith("cli."):
            m[metric] = sum(s.seconds for s in spans if s.name == name)
    for metric, name in SPAN_CALLS.items():
        if name in wrapped:
            m[metric] = sum(1 for s in spans if s.name == name)
    for metric, name in SPAN_MB.items():
        if name in wrapped:
            m[metric] = sum(s.extra["bytes"] for s in spans
                            if s.name == name) / 1e6
    if m.get("fileio.csv_read_s"):
        m["fileio.csv_read_mb_per_s"] = (m["fileio.csv_mb_read"]
                                         / m["fileio.csv_read_s"])
    reports = [s.extra["report"] for s in spans if "report" in s.extra]
    if reports:
        report = reports[-1]
        m["training.outer_iters"] = report.n_iterations
        for block, metric in INNER_ITERS.items():
            m[metric] = sum(report.block_iteration_counts.get(block, []))
        if report.n_iterations:
            m["training.s_per_outer_iter"] = (m["training.train_s"]
                                              / report.n_iterations)
    if r["e_q"]:
        m["training.final_fit_rel"] = r["e_q"][-1] / r["x_train_sq"]
    if r["residual"] is not None:
        m["estimation.link_residual"] = r["residual"]
    return m


def per_layer(rounds, tracer) -> dict:
    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    per_round = [layer_metrics(tracer.round_spans(i), tracer.wrapped,
                               rounds[i]) for i in traced]
    out = {name: _median([m.get(name) for m in per_round])
           for name in PER_LAYER}

    def pipeline(r):
        return sum(r["wall"].values())
    # each input set ran once traced and once untraced
    untraced = {r["set"]: pipeline(r) for r in rounds if not r["traced"]}
    out["bench.trace_overhead_s"] = _median(
        [pipeline(r) - untraced[r["set"]] for r in rounds
         if r["traced"] and r["set"] in untraced])
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 run_dir: Path, modules: dict) -> dict:
    """Whole cycles of one round per input set for about `seconds`."""
    cli = modules["ttnmf.cli"]
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        write_inputs(w, (seed, 0), run_dir, setups)
    tracer = tracing.Tracer(modules) if trace else None
    rss_baseline = peak_rss_mb()

    baselines = {}
    rounds = []
    start = time.perf_counter()
    while True:
        for position in range(DATASETS):
            # traced runs take half the sets and run each twice, untraced
            # and traced, in turn first, so that neither gains from order
            index = position // 2 if trace else position
            traced = trace and (position + index) % 2 == 1
            # a set-up before every round spreads the setup_s samples over
            # the run, so a slow stretch of the host touches only some
            inp = write_inputs(w, (seed, index), run_dir, setups)
            if w.em_checks and index not in baselines:
                baselines[index] = checks.min_norm_tre(
                    inp.routing, inp.links_test, inp.traffic_test)
            if traced:
                tracer.round = len(rounds)
                with tracer:
                    r = run_round(cli, w, run_dir, inp, baselines.get(index),
                                  tracer)
            else:
                r = run_round(cli, w, run_dir, inp, baselines.get(index))
            r["traced"], r["set"] = traced, index
            r["x_train_sq"] = float(np.sum(inp.traffic_train ** 2))
            rounds.append(r)
            print(f"run.py: round {len(rounds)} set {index}"
                  f"{' traced' if traced else ''}: "
                  + " ".join(f"{k} {v:.3f}s" for k, v in r["wall"].items())
                  + f" tre {r['tre']} residual {r['residual']}",
                  file=sys.stderr)
        elapsed = time.perf_counter() - start
        cycle = elapsed / (len(rounds) // DATASETS)
        if elapsed + 0.5 * cycle > seconds:
            break
    rss_growth = peak_rss_mb() - rss_baseline
    print(f"run.py: peak RSS {rss_baseline:.1f} MiB after set-up, "
          f"+{rss_growth:.1f} MiB in the rounds", file=sys.stderr)

    if trace:
        metrics = per_layer(rounds, tracer)
        units = PER_LAYER
        tracer.write(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end(rounds, statistics.median(setups), rss_growth,
                             w.n_test)
        units = END_TO_END
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    for name in INPUT_FILES + ("estimated.csv", "model.ttnmf"):
        (run_dir / name).unlink(missing_ok=True)
    return {
        "correct": not problems,
        "attempted": 3 * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if metrics.get(name) is not None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for name in WORKLOADS]
        return max(codes)

    modules = import_ttnmf()
    logs = CountingHandler()
    logging.getLogger().addHandler(logs)
    run_dir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), run_dir, modules)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"run.py: ttnmf logged {logs.count} warnings (counted, not shown)",
          file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} "
          f"subcommands, {result['failed']} failed, correct "
          f"{str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
