#!/usr/bin/env python3
"""spinphase benchmark: README CLI workloads, timed one run after another.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each CLI run is `spinphase.cli.main(argv)`
in a fresh child process (child.py) with inputs generated from the seed;
runs follow each other until the next one would end past --seconds. Every
run's output files are checked (checks.py) outside the timed region, and a
run fails on a non-zero exit, an exception or an output mismatch. Before the
timed runs, SETUP_RUNS children only import the CLI, so that set-up time has
a median of several cold starts.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced runs; the traced ones wrap the package's public functions from
outside (tracer.py) and give the per-layer metrics, and the untraced ones
give the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics. Results with provenance go to .bench_work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
from workloads import WORKLOADS, make_inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("rows_per_s", "rows/s"),
              ("peak_rss_mb", "MiB"))


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The caller's environment with BLAS threads pinned to the usable cores."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    env.pop("PYTHONPATH", None)  # the child imports the package from SRC only
    return env


def invoke(src, cli_argv, workdir, env, trace=False, run_id="run",
           timeout=CHILD_TIMEOUT_S):
    """Run child.py once; return its result with `setup_s` and `error` filled in.

    With an empty `cli_argv` the child only imports the CLI. `error` is None
    for a run that exited 0 without an exception.
    """
    result_path = os.path.join(workdir, "child.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, CHILD, result_path, src, "1" if trace else "0", run_id, *cli_argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout} s", "setup_s": None, "traced": trace}
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    result["traced"] = trace
    result["setup_s"] = result["imported_at"] - spawned if "imported_at" in result else None
    if not result.get("error") and proc.returncode != 0:
        result["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result.setdefault("error", None)
    return result


def measure(inputs, seconds, trace, env):
    """Set-up samples, then CLI runs until the next would end past `seconds`."""
    workdir = os.path.join(WORK, "run")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setups = [invoke(SRC, [], workdir, env)["setup_s"] for _ in range(SETUP_RUNS)]
    runs, critical = [], None
    outdir = os.path.join(workdir, "out")
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        run_id = f"{inputs.workload.name}/seed{inputs.seed}/{len(runs)}"
        run = invoke(SRC, inputs.argv(outdir), workdir, env, traced, run_id)
        if run["error"] is None:
            try:
                run["rows"], run["oracle_rows"] = checks.check_outputs(inputs, outdir)
            except checks.CheckError as exc:
                run["error"] = f"output mismatch: {exc}"
            if critical is None:
                critical = checks.critical_points_report(inputs, outdir)
        runs.append(run)
        setups.append(run["setup_s"])
        elapsed = time.monotonic() - start
        if len(runs) >= (2 if trace else 1) and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    shutil.rmtree(outdir, ignore_errors=True)
    return [s for s in setups if s is not None], runs, critical


def tally(runs):
    """(attempted, failed) CLI runs."""
    return len(runs), sum(1 for r in runs if r["error"] is not None)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value): the highest percentile with at least 10 samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def end_to_end(setups, runs):
    ok = [r for r in runs if r["error"] is None and not r["traced"]]
    return {
        "run_s": median_or_zero([r["run_s"] for r in ok]),
        "setup_s": median_or_zero(setups),
        "rows_per_s": median_or_zero([r["rows"] / r["run_s"] for r in ok]),
        "peak_rss_mb": median_or_zero([r["maxrss_kib"] / 1024 for r in ok]),
    }


def per_layer(inputs, runs):
    ok = [r for r in runs if r["error"] is None]
    plain = [r["run_s"] for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    per_run = [tracer.layer_metrics(r["spans"], len(inputs.params)) for r in traced]
    metrics = {name: median_or_zero([m[name] for m in per_run])
               for name, _ in tracer.LAYER_METRICS if not name.startswith("trace.")}
    metrics["trace.run_s"] = median_or_zero([r["run_s"] for r in traced])
    metrics["trace.overhead_frac"] = (metrics["trace.run_s"] / statistics.median(plain) - 1
                                      if plain and traced else 0.0)
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    """sha256 over the package sources, which identifies the code outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spinphase")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed, env):
    from importlib import metadata

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="spinphase benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinphase", "cli.py")):
        print(f"bench: no spinphase sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    inputs = make_inputs(WORKLOADS[args.workload], args.seed)
    env = child_env()
    prov = provenance(args.seed, env)
    print(f"workload {inputs.workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("argv", " ".join(inputs.args))
    print("provenance", json.dumps(prov, sort_keys=True))

    setups, runs, critical = measure(inputs, args.seconds, bool(args.trace), env)
    attempted, failed = tally(runs)
    for err in [r["error"] for r in runs if r["error"] is not None][:3]:
        print("FAILED RUN:", err.strip().splitlines()[-1] if err.strip() else err)

    if args.trace:
        metrics = per_layer(inputs, runs)
        units = dict(tracer.LAYER_METRICS)
        run_s = metrics["trace.run_s"]
        for name, value in metrics.items():
            share = f"  {100 * value / run_s:5.1f} % of traced run_s" \
                if units[name] == "s" and run_s and name != "trace.run_s" else ""
            print(f"{name:42s} {value:14.6g} {units[name]}{share}")
    else:
        metrics = end_to_end(setups, runs)
        units = dict(END_TO_END)
        plain = [r["run_s"] for r in runs if r["error"] is None]
        for name, value in metrics.items():
            print(f"{name:12s} {value:12.6g} {units[name]}")
        pct = tail(plain)
        print(f"run_s samples {len(plain)}; " + (
            f"p{pct[0]:.0f} {pct[1]:.6g} s" if pct else
            "no percentile has 10 samples beyond it"))
        print(f"setup_s samples {len(setups)}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed)")
    if critical is not None:
        print("criticalpoints (reported, not gated)", json.dumps(critical, sort_keys=True))

    record = {"provenance": prov, "argv": list(inputs.args), "trace": args.trace,
              "seconds": args.seconds, "setup_s": setups, "critical_points": critical,
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
              "metrics": metrics}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{inputs.workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    traced = [r for r in runs if r.get("spans")]
    if traced:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(traced[-1]["spans"], fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
