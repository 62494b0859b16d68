"""Benchmark of bs_ktheory: verdict latency, Smith-form cost and bsk process time.

    python3 perfbench/run.py --workload bs-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop with one caller in this process:
the next operation starts when the previous one has returned. Inputs are
generated from ``--seed`` before timing and their digest is printed, so two
runs provably used the same inputs. Every output is checked against a
closed form (``checks.py``) outside the timed region.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` the run first measures untraced, then installs the span
recorder (``spans.py``) and measures again; the last line carries the
per-layer metrics. Human-readable lines, including ``fail_ratio`` with its
counts, come before it. See ``perfbench/README.md`` for what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 7
WARMUP_OPS = 3
PROCESS_SHARE = 0.25  # share of fastest runs averaged per input when each operation is a process


class Probes:
    """Wall seconds of fresh interpreters: ``import bs_ktheory`` and, for the
    traced run, a bare ``pass``. Taken a few at a time between slices of the
    loop, so that they sample the same machine conditions as the loop."""

    def __init__(self, env: dict, with_bare: bool):
        self.env = env
        self.imports: list[float] = []
        self.bares: list[float] = []
        self.with_bare = with_bare
        self._time([sys.executable, "-c", "import bs_ktheory"])  # writes the bytecode cache

    def _time(self, argv: list[str]) -> float:
        start = perf_counter()
        subprocess.run(argv, env=self.env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - start

    def take(self) -> None:
        self.imports.append(self._time([sys.executable, "-c", "import bs_ktheory"]))
        if self.with_bare:
            self.bares.append(self._time([sys.executable, "-c", "pass"]))

    @property
    def import_s(self) -> float:
        return statistics.median(self.imports)

    @property
    def bare_s(self) -> float:
        return statistics.median(self.bares)


class Loop:
    """A closed loop over the prepared inputs, cycling through them in order.

    Each input is timed every time it runs, and its latency is its fastest
    run (best of k, as ``timeit`` reports). On a shared 2-vCPU virtual
    machine the host's speed switches between two levels about 40% apart
    every few seconds, which makes the plain median of all runs jump
    between the two levels from run to run; the fastest of k runs spread
    over the loop does not.

    With ``fastest_share``, an input's latency is instead the mean of that
    share of its fastest runs. A fresh process's wall time jitters by tens
    of ms around its floor (exec, page faults, hash seed), so its single
    fastest run is an extreme value of that jitter; the mean of the fastest
    quarter averages it (on ``cli-process``, the spread of ``op_ms.p90``
    over eight seeds fell from 0.13 to 0.09 on the same raw times).
    """

    def __init__(self, pairs, fastest_share: float = 0.0):
        self.pairs = pairs
        self.fastest_share = fastest_share
        self.times: list[list[float]] = [[] for _ in pairs]
        self.cursor = 0
        self.passes = 0
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s = 0.0  # loop time, excluding output checks

    def run(self, seconds: float, whole_passes: bool = False) -> None:
        """Run for at least ``seconds``; with ``whole_passes``, stop only at
        the end of a pass, so that every input runs equally often."""
        start = perf_counter()
        check_s = 0.0
        while True:
            op, check = self.pairs[self.cursor]
            t0 = perf_counter()
            try:
                out, error = op(), None
            except Exception as exc:  # a raising operation is a failed one
                out, error = None, f"raised {exc!r}"
            t1 = perf_counter()
            self.times[self.cursor].append(t1 - t0)
            self.ops += 1
            try:
                problem = error or check(out)
            except Exception as exc:  # malformed output the checker cannot read
                problem = f"output could not be checked: {exc!r}"
            check_s += perf_counter() - t1
            if problem:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(problem)
            self.cursor = (self.cursor + 1) % len(self.pairs)
            if self.cursor == 0:
                self.passes += 1
            if perf_counter() - start >= seconds and (self.cursor == 0 or not whole_passes):
                break
        self.wall_s += perf_counter() - start - check_s

    def best_s(self) -> list[float]:
        """Each input's latency: its fastest run, or the mean of its
        ``fastest_share`` fastest runs."""
        return [
            statistics.fmean(sorted(t)[: max(1, int(len(t) * self.fastest_share))])
            for t in self.times
            if t
        ]

    def median_ms(self) -> float:
        """Median over every run of every input, in ms."""
        return statistics.median(t for times in self.times for t in times) * 1e3

    def quantile_ms(self, q: int) -> float:
        """The q-th percentile over inputs of their latency, in ms."""
        return statistics.quantiles(self.best_s(), n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def digest(inputs: list[dict]) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def per_layer(rec, loop: Loop, probes: Probes, full_ms: float | None, untraced_p50: float) -> dict:
    """Per-layer metrics of a traced loop, normalised per operation; the
    loop covers whole passes, so counts repeat exactly for one seed."""
    spans = rec.summary()
    ops = loop.ops

    def span(name: str, field: str) -> float:
        return spans[name][field] / ops if name in spans else 0.0

    def count(name: str) -> float:
        return (spans[name]["calls"] if name in spans else rec.counts[name]) / ops

    ms = "ms/op"
    calls = "count/op"
    metrics = {
        "presentation.homology.self_ms": (span("presentation.homology", "self_ms"), ms),
        "presentation.khom.ms": (span("presentation.khom", "ms"), ms),
        "presentation.abelianization.ms": (span("presentation.abelianization", "ms"), ms),
        "pv.solve.ms": (span("pv.solve", "ms"), ms),
        "pv.solve.self_ms": (span("pv.solve", "self_ms"), ms),
        "colimit.ladder_cokernel.ms": (span("colimit.ladder_cokernel", "ms"), ms),
        "colimit.ladder_kernel.ms": (span("colimit.ladder_kernel", "ms"), ms),
        "colimit.normalize.calls": (count("colimit.normalize"), calls),
        "abelian.snf.calls": (count("abelian.snf"), calls),
        "abelian.snf.ms": (span("abelian.snf", "ms"), ms),
        "abelian.snf.max_dim": (rec.snf_max_dim, "count"),
        "abelian.snf.max_bits": (rec.snf_max_bits, "bits"),
        "abelian.kernel.ms": (span("abelian.kernel", "ms"), ms),
        "abelian.cokernel.ms": (span("abelian.cokernel", "ms"), ms),
        "abelian.solve.calls": (count("abelian.solve"), calls),
        "abelian.objects_built": (count("abelian.objects_built"), calls),
        "bc.compare.self_ms": (span("bc.compare", "self_ms"), ms),
        "bc.render.ms": (span("bc.render", "ms"), ms),
        "ledger.with_entry.calls": (count("ledger.with_entry"), calls),
        "solenoid.pairing.calls": (count("solenoid.pairing"), calls),
        "solenoid.duality_check.ms": (span("solenoid.duality_check", "ms"), ms),
        "solenoid.random_point.ms": (span("solenoid.random_point", "ms"), ms),
        "cli.interp_start_ms": (probes.bare_s * 1e3, "ms"),
        "cli.import_ms": ((probes.import_s - probes.bare_s) * 1e3, "ms"),
        "cli.compute_ms": (full_ms - probes.import_s * 1e3 if full_ms is not None else 0.0, "ms"),
        "cli.main.self_ms": (span("cli.main", "self_ms"), ms),
        "trace.overhead_pct": ((loop.quantile_ms(50) / untraced_p50 - 1) * 100, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bs_ktheory" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}; run from a source checkout\n")
        return 2

    inputs = workloads.make_inputs(args.workload, random.Random(args.seed))
    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs per pass, digest {digest(inputs)}")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = Probes(env, with_bare=bool(args.trace))

    sys.path.insert(0, str(SRC))
    import bs_ktheory as bsk

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    try:
        timed, in_process = workloads.prepare(args.workload, inputs, bsk, env, tmp)
        for op, _ in timed[:WARMUP_OPS]:
            with contextlib.suppress(Exception):  # the loop counts failures
                op()
        if args.trace:
            return traced(args, timed, in_process, probes)
        return untraced(args, timed, probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(loop: Loop, probes: Probes, seconds: float) -> None:
    """Alternate start-up probes with slices of the loop, then finish the
    first pass if the slices did not, so that every input has a time."""
    for _ in range(PROBES):
        probes.take()
        loop.run(seconds / PROBES)
    if loop.passes == 0:
        loop.run(0, whole_passes=True)


def untraced(args, timed, probes: Probes) -> int:
    loop = Loop(timed, fastest_share=PROCESS_SHARE if args.workload == "cli-process" else 0.0)
    measure(loop, probes, args.seconds)
    best = loop.best_s()
    metrics = {
        "op_ms.p50": (loop.quantile_ms(50), "ms"),
        "op_ms.p90": (loop.quantile_ms(90), "ms"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "setup_s": (probes.import_s, "s"),
        "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli-process"), "MB"),
    }
    samples = f"({len(best)} inputs, {loop.ops} operations)"
    counts = {"op_ms.p50": samples, "op_ms.p90": samples, "ops_per_s": samples, "setup_s": f"({PROBES} probes)"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:12} {value:12.4f} {unit:4} {counts.get(name, '')}")
    print(f"  loop throughput {loop.ops / loop.wall_s:.4f} ops/s of wall time (not a bounded metric)")
    return report(loop.ops, loop.failed, loop.problems, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def traced(args, timed, in_process, probes: Probes) -> int:
    from spans import Recorder

    cli = args.workload == "cli-process"
    # half the time untraced, half traced; the cli workload splits its
    # second half between in-process calls untraced and traced
    share = args.seconds / (4 if cli else 2)
    first = Loop(timed)
    measure(first, probes, args.seconds / 2)
    baseline = Loop(in_process) if cli else first
    if cli:
        baseline.run(share, whole_passes=True)
    rec = Recorder()
    loop = Loop([(rec.operation(op), check) for op, check in in_process])
    rec.install()
    try:
        loop.run(share, whole_passes=True)
    finally:
        rec.uninstall()
    # medians of raw times, like the start-up probes it is differenced with
    full_ms = first.median_ms() if cli else None
    metrics = per_layer(rec, loop, probes, full_ms, baseline.quantile_ms(50))
    for name, m in metrics.items():
        print(f"  {name:30} {m['value']:14.4f} {m['unit']}")
    runs = [first, loop] + ([baseline] if cli else [])
    problems = [p for r in runs for p in r.problems]
    return report(sum(r.ops for r in runs), sum(r.failed for r in runs), problems, metrics)


def report(attempted: int, failed: int, problems: list[str], metrics: dict) -> int:
    print(f"  fail_ratio   {failed / attempted:12.4f} ratio ({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"  failure: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
