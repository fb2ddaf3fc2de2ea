"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and requires zero
failed subcommands, passing output checks and every metric that
BENCHMARK.json names, with the same units.  Then feeds the output checks
corrupted estimates (a negative entry, all zeros, a wrong shape) and a
rising trace.csv, and requires each to be rejected.  Exits 0 when every step
passes.  It takes about 35 s; it is kept out of the tier-1 suite, like the
benchmark itself.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import replace

import numpy as np

import checks
import inputs
import run

TINY = {
    "i2-cli": replace(run.WORKLOADS["i2-cli"], n_train=320, n_test=48),
    "geant-cli": replace(run.WORKLOADS["geant-cli"], n_train=120, n_test=48),
}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_declared_metrics():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads of run.py")
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} matches run.py")


def check_workloads(modules):
    for name, w in TINY.items():
        for trace in (False, True):
            label = f"{name} tiny trace={int(trace)}"
            run_dir = run.BENCH / "runs" / f"smoke-{name}-trace{int(trace)}"
            result = run.run_workload(w, 1, 0.0, trace, run_dir, modules)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] == 3 * run.DATASETS,
                   f"{label}: every subcommand passes its checks")
            wanted = run.PER_LAYER if trace else run.END_TO_END
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: reports every metric")


def check_corrupted_estimates():
    w = TINY["i2-cli"]
    inp = inputs.make_inputs(w.network, w.n_train, w.n_test, 1)
    baseline = checks.min_norm_tre(inp.routing, inp.links_test,
                                   inp.traffic_test)
    negative = inp.traffic_test.copy()
    negative[3, 5] = -1.0
    cases = {"ground truth": (inp.traffic_test, False),
             "negative entry": (negative, True),
             "all zeros": (np.zeros_like(inp.traffic_test), True),
             "wrong shape": (inp.traffic_test[:, :-1], True)}
    run_dir = run.BENCH / "runs" / "smoke-corrupt"
    run_dir.mkdir(parents=True, exist_ok=True)
    for label, (est, bad) in cases.items():
        path = run_dir / "estimated.csv"
        inputs.write_csv(path, est)
        problems = checks.check_estimate(
            checks.read_csv_matrix(path), inp.routing, inp.links_test,
            inp.traffic_test, baseline, checks.RESIDUAL_LIMIT)[0]
        expect(bool(problems) == bad,
               f"estimated.csv with {label}: "
               + ("; ".join(problems) if problems else "accepted"))
    path = run_dir / "trace.csv"
    path.write_text("q,e_q,wall_ms\n0,5.0,0\n1,4.0,1\n2,4.5,2\n")
    expect(bool(checks.check_trace(path)[0]), "rising trace.csv is rejected")


def main() -> int:
    modules = run.import_ttnmf()
    logging.getLogger().addHandler(run.CountingHandler())
    check_declared_metrics()
    check_workloads(modules)
    check_corrupted_estimates()
    print(f"{len(failures)} failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
