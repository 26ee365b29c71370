"""Benchmark runner for cqsw: one workload per process.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; cqsw is imported from ``src/``.
A run repeats the workload's fixed list of operations in whole rounds while
the next round still fits in ``--seconds`` (at least one), each round on
fresh cqsw input objects, and times each operation at its median over the
rounds, in reference-host seconds (see ``hostspeed``). With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count the operations of one round, and every round must fail the same
operations. Scratch files go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
# The eigensolver the bounds in BENCHMARK.json were measured with: the
# pure-Python Jacobi kernel ("python"), or none once cqsw.kernels is gone.
MEASURED_BACKENDS = ("python", "none")
SAMPLE_EVERY_S = 0.02  # wall time between two host speed probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads():
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_cqsw():
    """Import cqsw from this checkout, and the workloads built on it."""
    sys.path.insert(0, str(SRC))
    import cqsw
    if Path(cqsw.__file__).resolve().parent != SRC / "cqsw":
        raise SystemExit(f"run.py: imported cqsw from {cqsw.__file__}, not {SRC}")
    import workloads
    return workloads


def _backend():
    """The eigensolver kernel cqsw.kernels picked ("none" without it)."""
    kernels = sys.modules.get("cqsw.kernels")
    return getattr(kernels, "BACKEND", "unknown") if kernels is not None else "none"


def _setup(workloads, name, seed):
    """(ops, inputs) of the workload, and its scratch directory."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR)
    return workloads.WORKLOADS[name](seed, workdir), workdir


def _probe_setup(name, seed):
    """Child process: set up once, report readiness, clean up."""
    _, workdir = _setup(_import_cqsw(), name, seed)
    print("ready", flush=True)
    shutil.rmtree(workdir)


def _time_setups(name, seed, hostspeed):
    """Seconds from starting a fresh interpreter to a set-up workload,
    measured in SETUP_PROBES child processes one after another, as measured
    and in reference-host seconds. This process samples the host speed,
    on the other core, while it waits for each child."""
    times, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--seconds", "0"]
    sampler = hostspeed.Sampler(SAMPLE_EVERY_S)
    for _ in range(SETUP_PROBES):
        sampler.start()
        try:
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                code = proc.wait()
        finally:
            sampler.stop()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"run.py: set-up probe failed with exit code {code}")
        times.append(t1 - t0)
        scaled.append((t1 - t0) * sampler.scale(t0, t1))
    return times, scaled


class Runner:
    """Runs whole rounds of a workload's operations and tallies outcomes."""

    def __init__(self, ops, inputs, known_faults):
        self.ops = ops
        self.inputs = inputs
        self.known_faults = known_faults
        self.rounds = 0
        self.failing = None      # indices of the operations the first round failed
        self.uneven = False      # a later round failed other operations
        self.first_error = {}

    def round(self, spans, tracer=None):
        """One pass over every operation, on cqsw input objects rebuilt
        before it, untimed (and untraced), so that no round reuses what cqsw
        cached on an earlier round's inputs. Appends each call's
        (start, end) perf_counter times to spans."""
        for holder in self.inputs:
            holder.refresh()
        if tracer is not None:
            tracer.install()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                failing = self._pass(spans)
        finally:
            if tracer is not None:
                tracer.restore()
        self.rounds += 1
        if self.failing is None:
            self.failing = failing
        elif failing != self.failing:
            self.uneven = True
            print(f"round {self.rounds} failed operations {failing}, the first round "
                  f"{self.failing}")

    def _pass(self, spans):
        ctx = {}
        failing = []
        for i, op in enumerate(self.ops):
            t1 = None
            t0 = time.perf_counter()
            try:
                result = op.call()
                t1 = time.perf_counter()
                op.check(result, ctx)
                ctx[op.key] = result
            except Exception as exc:  # a failing operation is counted, and the round goes on
                if t1 is None:
                    t1 = time.perf_counter()
                failing.append(i)
                self.first_error.setdefault(op.name, f"{type(exc).__name__}: {exc}")
            spans.append((t0, t1))
        return failing

    @property
    def failed(self):
        """Operations failed per round, by name."""
        return Counter(self.ops[i].name for i in self.failing)

    def correct(self):
        return not self.uneven and all(name in self.known_faults for name in self.failed)

    def report_failures(self):
        for name, count in sorted(self.failed.items()):
            tag = "known fault" if name in self.known_faults else "UNEXPECTED"
            print(f"failed {name} x{count} per round ({tag}): {self.first_error[name][:300]}")


def _percentile_line(durations):
    """Median and the highest of p90/p99 that has at least ten samples above it."""
    n = len(durations)
    ms = sorted(d * 1e3 for d in durations)
    parts = [f"p50 {statistics.median(ms):.4f}"]
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            parts.append(f"p{q} {ms[min(n - 1, int(n * q / 100))]:.4f}")
            break
    return " ".join(parts) + f" (n={n})"


def _per_op(durations, n_ops, pick):
    """pick() of each operation's call times over the run's rounds."""
    return [pick(durations[i::n_ops]) for i in range(n_ops)]


def _rounds(seconds, body):
    """body() in whole rounds while the next one still fits in the time
    budget, and at least once."""
    t_start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while rounds == 0 or time.perf_counter() - t_start + longest <= seconds:
        t0 = time.perf_counter()
        body()
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
    return rounds


def _run_traced(runner, seconds, label):
    """Pairs of one untraced and one traced round, without host speed
    sampling, whose probes would land inside traced spans; per-layer metrics
    of the traced rounds."""
    import tracer as tracing
    tr = tracing.Tracer()
    plain, traced, per_round = [], [], []

    def pair():
        runner.round(plain)
        runner.round(traced, tracer=tr)
        per_round.append(tr.metrics())

    _rounds(seconds, pair)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"trace-{label}.npz"
    tr.save(spans)
    counts = [{k: v for k, v in m.items() if tracing.unit_of(k) == "count"} for m in per_round]
    if any(c != counts[0] for c in counts):
        print("warning: per-layer counts differ between traced rounds")
    metrics = {}
    for key in per_round[0]:
        unit = tracing.unit_of(key)
        value = per_round[0][key] if unit != "s" else statistics.median(m[key] for m in per_round)
        metrics[key] = {"value": value, "unit": unit}
    n_ops = len(runner.ops)
    run_traced, run_plain = (sum(_per_op([b - a for a, b in s], n_ops, min))
                             for s in (traced, plain))
    print(f"traced rounds {len(per_round)}: run_s as measured, traced {run_traced:.4f} untraced "
          f"{run_plain:.4f} overhead_s {run_traced - run_plain:.4f}; spans in {spans}")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("curves", "blocklength", "pointwise"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _pin_threads()
    if not (SRC / "cqsw" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cqsw sources under {SRC}")
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0

    import hostspeed
    setup_times, setup_scaled = _time_setups(args.workload, args.seed, hostspeed) \
        if not args.trace else (None, None)
    workloads = _import_cqsw()
    (ops, inputs), workdir = _setup(workloads, args.workload, args.seed)
    runner = Runner(ops, inputs, workloads.KNOWN_FAULTS)
    backend = _backend()
    print(f"eigensolver backend: {backend}")
    if backend not in MEASURED_BACKENDS:
        print(f"warning: the bounds were measured with backend {' or '.join(MEASURED_BACKENDS)}, "
              f"this run uses {backend}; its times are not comparable")
    try:
        if args.trace:
            metrics = _run_traced(runner, args.seconds, f"{args.workload}-seed{args.seed}")
        else:
            spans = []
            sampler = hostspeed.Sampler(SAMPLE_EVERY_S)
            sampler.start()
            try:
                _rounds(args.seconds, lambda: runner.round(spans))
            finally:
                sampler.stop()
            durations = [b - a - sampler.probing(a, b) for a, b in spans]
            scaled = [d * sampler.scale(a, b) for d, (a, b) in zip(durations, spans)]
            # The scaled times' remaining noise goes both ways, so each
            # operation takes its median over the rounds; the fastest round
            # is the better estimate of times as measured, which load only
            # ever lengthens.
            per_op = _per_op(scaled, len(ops), statistics.median)
            best_raw = _per_op(durations, len(ops), min)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": min(setup_scaled), "unit": "s"},
                "run_s": {"value": sum(per_op), "unit": "s"},
                "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            print(f"workload {args.workload} seed {args.seed}: {runner.rounds} rounds of "
                  f"{len(ops)} operations; each operation timed at its median over the rounds; "
                  f"{len(sampler.value)} host speed probes")
            print(f"setup_s {metrics['setup_s']['value']:.4f} s in reference-host seconds, the "
                  f"fastest of {len(setup_times)} fresh interpreters (as measured: fastest "
                  f"{min(setup_times):.4f}, median {statistics.median(setup_times):.4f}) | "
                  f"peak_rss_mb {rss_mb:.1f} MB")
            print(f"reference-host seconds: run_s {sum(per_op):.4f} (first round alone "
                  f"{sum(scaled[:len(ops)]):.4f}) | op_p50_ms "
                  f"{statistics.median(per_op) * 1e3:.4f} (n={len(per_op)} operations)")
            print(f"as measured on this host, fastest round of each operation: run_s "
                  f"{sum(best_raw):.4f} | op_p50_ms "
                  f"{statistics.median(best_raw) * 1e3:.4f} | all calls "
                  f"{_percentile_line(durations)} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runner.report_failures()
    attempted, failed = len(ops), len(runner.failing)
    print(f"per round: attempted {attempted} failed {failed}; {runner.rounds} rounds, "
          f"{'the same operations failed in each' if not runner.uneven else 'FAILURES DIFFER'}")
    print(json.dumps({"correct": runner.correct(), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
