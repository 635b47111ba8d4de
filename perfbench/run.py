"""perfbench: the repository benchmark (four workloads, one shape).

``BENCHMARK.json`` lists three of the workloads; ``single_open`` runs by
name only, because under host stalls it can fail requests (README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload single_open --seed 3 --seconds 10
    python3 perfbench/run.py --workload recover_live --trace 1

Each workload prints its figures by name with their units, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` measures half the time untraced and
half traced and reports the per-layer metrics.  Full results, host
facts and (traced) spans are written under ``.bench_build/perfbench/``.
Building the native Hamming kernel happens before any timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"
WORKLOADS = ("gateway_batch", "single_open", "http_features", "recover_live")

# End-to-end slot -> the detail figure that fills it, per workload.  Each
# run reports every end-to-end metric, so the slots are shared and each
# workload fills them with its own user-facing figure.
SLOTS = {
    "gateway_batch": {
        "cpu_us_per_op": "batch_ref_cpu_us_per_req",
        "accuracy": "served_accuracy",
    },
    "single_open": {
        "cpu_us_per_op": "single_cpu_us_per_req",
        "accuracy": "served_accuracy",
    },
    "http_features": {
        "cpu_us_per_op": "http_ref_cpu_us_per_req",
        "accuracy": "served_accuracy",
    },
    "recover_live": {
        "cpu_us_per_op": "recover_ref_cpu_us_per_query",
        "accuracy": "recovered_accuracy",
    },
}
# Workloads whose figures would otherwise hang on the host: with two
# requests in flight, or recovery beside reads, the work a request costs
# depends on whether a second core is free to run the other side at the
# same time, and that comes and goes with the host's other load.  On one
# CPU it does not.  single_open stays on every CPU: its top rate needs
# more than one.
ONE_CPU = ("gateway_batch", "http_features", "recover_live")
# Closed loops measure fixed-count epochs on fresh stacks (see workloads).
EPOCH_REQUESTS = {"gateway_batch": "BATCH_EPOCH_REQUESTS",
                  "http_features": "HTTP_EPOCH_REQUESTS"}


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout.

    The native kernel is compiled into the temp directory, so point that
    at ``.bench_build/tmp`` before the package is imported.
    """
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # One BLAS thread: the serving stack already shares the host's cores,
    # and spinning BLAS threads would count as CPU the program did not need.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))


def _place(name: str, host_cpus: set) -> None:
    """Run a workload in ONE_CPU on the first CPU, any other on them all.

    The engine's worker inherits the placement when it forks, so on one
    CPU the client, the gateway, the engine and the worker share it.
    """
    os.sched_setaffinity(0, {min(host_cpus)} if name in ONE_CPU else host_cpus)


def host_facts(seed: int, host_cpus: set) -> dict:
    import numpy as np

    from repro.core import kernels

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "host_cpus": len(host_cpus),
        "kernel_backend": kernels.active_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import workloads as w
    from layers import BENCHMARK, per_layer

    rng = np.random.default_rng(seed)
    task = w.make_task()
    http = name == "http_features"
    packed = w.packed_pool(
        task, rng, w.POOL_REQUESTS if not http else w.HTTP_POOL_REQUESTS
    )
    features = w.feature_pool(task, rng, w.HTTP_POOL_REQUESTS) if http else None
    inputs = w.recovery_inputs(task, rng) if name == "recover_live" else None

    speed = w.HostSpeed()
    stack, setups = w.set_up(task, speed, http=http, warm_payload=packed.words[0])
    try:
        w.set_reference(packed, stack.classifier)
        if features is not None:
            w.set_feature_reference(features, stack.classifier)
        if inputs is not None:
            w.set_recovery_reference(inputs, stack, packed)

        def measure(stack, phase_seconds: float, tracer=None, requests=None):
            traced = tracer is not None
            if name == "gateway_batch":
                return w.gateway_batch(stack, packed, phase_seconds, traced,
                                       requests, speed)
            if name == "single_open":
                return w.single_open(stack, packed, phase_seconds, rng, traced)
            if name == "http_features":
                return w.http_features(stack, features, phase_seconds, traced,
                                       requests, speed)
            return w.recover_live(stack, inputs, packed, phase_seconds, rng,
                                  traced, tracer, speed)

        if not trace and name in EPOCH_REQUESTS:
            # Fixed-count epochs, each on a fresh stack, until the time is
            # up; every rebuild is one more timed set-up.
            requests = getattr(w, EPOCH_REQUESTS[name])
            deadline = w.now() + seconds
            phases = [measure(stack, seconds, requests=requests)]
            while w.now() < deadline:
                stack.close()
                stack = w.timed_stack(task, speed, http=http,
                                      warm_payload=packed.words[0], setups=setups)
                phases.append(measure(stack, seconds, requests=requests))
            layer_metrics = None
        elif not trace:
            phases = [measure(stack, seconds)]
            layer_metrics = None
        else:
            untraced = measure(stack, seconds / 2)
            # The engine slows as it serves (see README), so the traced
            # half runs on a fresh stack: both halves start alike.
            stack.close()
            stack = w.Stack(task, http=http, warm_payload=packed.words[0])
            layer_metrics, outcome = per_layer(
                name, stack, packed,
                lambda tracer: measure(stack, seconds / 2, tracer),
                untraced, OUT / f"spans-{name}-seed{seed}.jsonl",
            )
            phases = [untraced, outcome]
    finally:
        stack.close()

    # Epochs pool their cost slices and report the median of each other
    # figure; sample counts add up.
    detail = {}
    samples = {}
    if not trace:
        for metric, (_, unit) in phases[0].metrics.items():
            counts = [p.samples[metric] for p in phases if metric in p.samples]
            if counts:
                samples[metric] = sum(counts)
            if metric in phases[0].costs:
                slices = [v for p in phases for v in p.costs[metric]]
                detail[metric] = (w.cost_figure(slices), unit)
            else:
                detail[metric] = (
                    statistics.median(p.metrics[metric][0] for p in phases), unit
                )
    else:
        for phase in phases:
            detail.update(phase.metrics)
            samples.update(phase.samples)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    errors: dict[str, int] = {}
    for phase in phases:
        for kind, count in phase.errors.items():
            errors[kind] = errors.get(kind, 0) + count
    # The times the bounded metrics report are CPU times (the host's other
    # tenants do not stretch them) scaled to the reference host speed
    # (see workloads.HostSpeed).  single_open's cost is not scaled: on two
    # CPUs it is mostly cross-core wake-ups, which did not move with the
    # calibration kernel in the runs that set up this benchmark.
    detail["setup_s"] = (statistics.median(cpu * scale for cpu, _, scale in setups), "s")
    detail["setup_cpu_s"] = (statistics.median(cpu for cpu, _, _ in setups), "s")
    detail["setup_wall_s"] = (statistics.median(wall for _, wall, _ in setups), "s")
    samples["setup_s"] = samples["setup_cpu_s"] = samples["setup_wall_s"] = len(setups)
    detail["host_speed_s_p50"] = (statistics.median(speed.samples), "s")
    samples["host_speed_s_p50"] = len(speed.samples)
    if not trace:
        detail["epochs"] = (len(phases), "count")
    detail["failed_share"] = (failed / attempted if attempted else 1.0, "ratio")
    samples["failed_share"] = attempted
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    if trace:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": detail["setup_s"],
            "ok_share": ((attempted - failed) / attempted if attempted else 0.0,
                         "ratio"),
        }
        metrics["cpu_us_per_op"] = (detail[SLOTS[name]["cpu_us_per_op"]][0], "us")
        metrics["accuracy"] = (detail[SLOTS[name]["accuracy"]][0], units["accuracy"])
    return {
        "workload": name,
        "correct": wrong == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": metrics,
        "detail": detail,
        "samples": samples,
        "setups_cpu_wall_scale": setups,
        "cost_slices": {metric: [v for p in phases for v in p.costs.get(metric, ())]
                        for metric in phases[0].costs},
        "errors": errors,
        "window_rates": [p.extra.get("window_rates") for p in phases],
    }


def _print_result(result: dict, facts: dict) -> None:
    print(f"== {result['workload']}  (cpus={facts['cpus']} of "
          f"{facts['host_cpus']}, "
          f"kernel_backend={facts['kernel_backend']}, seed={facts['seed']})")
    for name, (value, unit) in sorted(result["detail"].items()):
        n = result["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:32s} {value:14.6g} {unit}{suffix}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"wrong={result['wrong']} errors={result['errors']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    _prepare_environment()
    from repro.core import kernels

    kernels.active_backend()   # compile the native kernel before timing
    host_cpus = os.sched_getaffinity(0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        _place(name, host_cpus)
        facts = host_facts(args.seed, host_cpus)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["host"] = facts
        _print_result(result, facts)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, default=str))
        results.append(result)
    # The standard library starts a shared-memory resource tracker process
    # on first use; stop it so no process of the run outlives it.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, (value, unit) in result["metrics"].items():
            if not math.isfinite(value):
                print(f"perfbench: {prefix}{metric} is {value}", file=sys.stderr)
                return 1
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
