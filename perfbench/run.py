"""ctreg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload cv_tall --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs ops for ``--seconds``
seconds (the next op starts when the previous one returns), checks every
op against independent oracles and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured with
no tracing; ``--trace 1`` reports the per-layer metrics of a traced run.
A full result file (environment, every sample, the spans) is written under
``perfbench/results/``.  ``--selftest`` runs every workload at a tiny size
and shows that a corrupted output is counted as a failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

SETUP_REPEATS = 3

# end-to-end metrics: name -> unit (the order they are printed in)
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
# step metrics of the workloads that have the step: step -> (metric, unit)
STEP_METRICS = {
    "cv": ("cv_s", "s"),
    "refit": ("refit_s", "s"),
    "predict": ("predict_rows_per_s", "rows/s"),
    "kernel_fit": ("kernel_fit_s", "s"),
    "kernel_predict": ("kernel_predict_s", "s"),
    "cli_predict": ("cli_predict_rows_per_s", "rows/s"),
}


def import_ctreg() -> float:
    """Import ctreg from this checkout's source tree; returns seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ctreg", "__init__.py")):
        raise ImportError(f"no ctreg source tree under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import ctreg  # noqa: F401
    import ctreg.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not os.path.abspath(ctreg.__file__).startswith(src + os.sep):
        raise ImportError(f"ctreg imported from {ctreg.__file__}, not {src}")
    return elapsed


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {key: deps.get(key) for key in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_lapack": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# -- running -------------------------------------------------------------------


def run_op(workload, index: int, steps, failures: list, tracer=None, corrupt: bool = False):
    """Run one op (traced if a tracer is given), then its checks, untimed and
    untraced.  Returns the op's seconds, or None if it raised; a failed check
    is recorded in ``failures``."""
    if tracer is not None:
        tracer.install()
        root = tracer.start_op(index)
    start = time.perf_counter()
    try:
        out = workload.op(index, steps)
    except Exception:  # an op that raises is a failed op, never a stopped run
        failures.append({"op": index, "error": traceback.format_exc(limit=4)})
        return None
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
    if corrupt:
        out = workload.corrupt(out)
    try:
        problems = workload.check(index, out)
    except Exception:
        problems = [traceback.format_exc(limit=4)]
    if problems:
        failures.append({"op": index, "error": "; ".join(problems)})
    return elapsed


def set_up(workload, steps, failures: list) -> dict:
    """Make the inputs SETUP_REPEATS times (median kept), then the warm-up op."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.make_inputs()
        times.append(time.perf_counter() - start)
    workload.references()
    warmup = run_op(workload, 0, steps, failures)
    return {"inputs_s": times, "warmup_s": warmup}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop until ``seconds`` have passed.  With a tracer, ops alternate
    untraced and traced, and each traced op is compared with the untraced op
    just before it, which saw nearly the same machine state."""
    from workloads import Steps

    steps, failures = Steps(), []
    setup = set_up(workload, steps, failures)
    steps.samples.clear()  # step metrics come from measured ops only
    plain, traced, ratios = [], [], []
    previous = None
    index = 1
    deadline = time.perf_counter() + seconds
    # at least one untraced op, and one traced op when tracing
    while index <= (2 if tracer else 1) or time.perf_counter() < deadline:
        use_trace = tracer is not None and index % 2 == 0
        elapsed = run_op(workload, index, steps, failures, tracer if use_trace else None)
        if elapsed is not None and use_trace:
            traced.append(elapsed)
            if previous is not None:
                ratios.append(elapsed / previous)
        elif elapsed is not None:
            plain.append(elapsed)
        previous = elapsed
        index += 1
    return {
        "setup": setup,
        "op_s": plain,
        "traced_op_s": traced,
        "traced_over_untraced": ratios,
        "steps": steps.samples,
        "attempted": index,  # the measured ops and the warm-up op
        "failures": failures,
    }


def end_to_end(run: dict, import_s: float) -> dict:
    ops = run["op_s"]
    setup = run["setup"]
    metrics = {
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
        "op_p50_s": statistics.median(ops) if ops else 0.0,
        "setup_s": import_s + statistics.median(setup["inputs_s"]) + (setup["warmup_s"] or 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - len(run["failures"]) / run["attempted"],
    }
    out = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    out["op_p50_s"]["samples"] = len(ops)
    return out


def step_metrics(run: dict, step_rows: dict) -> dict:
    """Printed and stored, not gated: each exists only on some workloads."""
    out = {"failed_frac": {"value": len(run["failures"]) / run["attempted"], "unit": "ratio"}}
    for step, samples in run["steps"].items():
        name, unit = STEP_METRICS[step]
        median = statistics.median(samples)
        value = step_rows[step] / median if step in step_rows else median
        out[name] = {"value": value, "unit": unit, "samples": len(samples)}
    return out


def per_layer(tracer, run: dict) -> dict:
    from tracer import COUNTERS, all_targets

    n_ops = max(len(run["traced_op_s"]), 1)
    selfs = tracer.self_times()
    metrics = {}
    for target in all_targets():
        calls, self_s = selfs.get(target, (0, 0.0))
        metrics[f"{target}.calls"] = (calls / n_ops, "count")
        metrics[f"{target}.self_s"] = (self_s / n_ops, "s")
    for target, (quantities, _) in COUNTERS.items():
        counts = tracer.counts.get(target, {})
        for key in quantities:
            value = counts.get(key, 0)
            per_op = value if key.endswith("_min") else value / n_ops
            metrics[f"{target}.{key}"] = (per_op, "bytes" if key == "bytes" else "count")
    # 0 when every op of one kind raised (the run is then reported incorrect)
    ratios = run["traced_over_untraced"]
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    metrics["trace.op_s"] = (statistics.median(run["traced_op_s"]) if run["traced_op_s"] else 0.0, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def design_checks(name: str, layers: dict) -> list:
    """The two layer-share claims the workloads were designed around."""
    value = {key: metric["value"] for key, metric in layers.items()}
    if not value["trace.op_s"]:
        return []
    if name == "cv_wide":
        share = value["canonical.canonicalize.self_s"] / value["trace.op_s"]
        return [f"canonicalize self time is {share:.0%} of op time (design: >= 70%)"]
    if name == "cv_tall":
        path = value["tuning.kfold_cv.self_s"] + value["thresholding.apply_rule.self_s"]
        svd = value["canonical.canonicalize.self_s"]
        return [f"kfold_cv + apply_rule self time {path:.3f}s vs canonicalize {svd:.3f}s "
                f"per op (design: path > canonicalize)"]
    return []


def run_workload(args) -> int:
    import_s = import_ctreg()
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK, smoke=False)
    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    attempted, failed = run["attempted"], len(run["failures"])
    if args.trace:
        if tracer.missing:
            print(f"warning: bindings not found, reported as 0 calls: {tracer.missing}",
                  file=sys.stderr)
        metrics = per_layer(tracer, run)
        extra = {}
    else:
        metrics = end_to_end(run, import_s)
        extra = step_metrics(run, workload.step_rows)

    stem = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "import_s": import_s,
        "run": run,
        "metrics": metrics,
        "step_metrics": extra,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(result, handle, indent=1)
    if tracer is not None:
        with open(stem + "_spans.json", "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, handle)

    traced = f" + {len(run['traced_op_s'])} traced" if args.trace else ""
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run['op_s'])} untraced{traced} ops, {failed}/{attempted} ops failed")
    for name, metric in {**metrics, **extra}.items():
        samples = f"  [{metric['samples']} samples]" if "samples" in metric else ""
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}{samples}")
    for failure in run["failures"][:5]:
        print(f"  FAILED op {failure['op']}: {failure['error'].strip()}")
    if args.trace:
        for line in design_checks(args.workload, metrics):
            print(f"  {line}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def selftest() -> int:
    """Tiny sizes: every workload passes its checks, and a corrupted output
    of every workload is counted as a failed op."""
    import_ctreg()
    from tracer import Tracer
    from workloads import WORKLOADS, Steps

    os.makedirs(WORK, exist_ok=True)
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(7, WORK, smoke=True)
        steps, failures = Steps(), []
        set_up(workload, steps, failures)
        tracer = Tracer()
        run_op(workload, 1, steps, failures, tracer)
        clean = not failures and not tracer.missing and tracer.spans
        run_op(workload, 0, steps, failures, corrupt=True)
        caught = len(failures) == 1
        print(f"{name}: clean ops pass={bool(clean)}, corrupted op caught={caught}")
        for failure in failures:
            print(f"  {failure['error'].strip()[:200]}")
        ok = ok and bool(clean) and caught
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cv_tall", "cv_wide", "simstudy", "kernel_cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the ctreg under test: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
