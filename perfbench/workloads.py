"""The four workloads: seeded inputs, the operation each input drives, and
the check of its output.

``make_inputs(name, rng)`` returns a list of JSON-serialisable input
descriptors; it is the only place randomness enters, and it never touches
the package. ``prepare`` turns descriptors into (operation, check) pairs:
an operation is a zero-argument callable whose return value the check
inspects outside the timed region. ``prepare`` also returns in-process
pairs for the traced run, which for ``cli-process`` call ``cli.main`` in
this interpreter instead of starting one.

Input sizes are stratified or fixed rather than drawn independently, so
that every seed covers the same range of sizes in the same proportions;
the seed changes the values, not the mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import checks

NAMES = ("bs-grid", "bs-wide", "snf-dense", "cli-process")

GRID = [n for n in range(-64, 65) if n not in (0, 1)]
# |n| >= 10^8 is excluded: the relator is expanded letter by letter, which
# allocates gigabytes or raises MemoryError on a shared machine.
WIDE_MIN, WIDE_MAX = 10**3, 2 * 10**6
# every pairing of these row and column counts, spanning [6, 28]
SNF_SIZES, SNF_PER_SHAPE, SNF_ENTRY = (6, 9, 13, 17, 20, 24, 28), 3, 20
PAIR_DEPTH, PAIR_TRIALS = 4, 300


def _stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """k values, one drawn uniformly from each of k equal slices of [lo, hi)."""
    return [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]


def _grid_inputs(rng) -> list[dict]:
    return [{"n": rng.choice(GRID)} for _ in range(256)]


def _wide_inputs(rng) -> list[dict]:
    logs = _stratified(rng, math.log(WIDE_MIN), math.log(WIDE_MAX), 100)
    out = [{"n": rng.choice((-1, 1)) * min(WIDE_MAX, round(math.exp(x)))} for x in logs]
    rng.shuffle(out)
    return out


def _snf_inputs(rng) -> list[dict]:
    out = [
        {"a": [[rng.randint(-SNF_ENTRY, SNF_ENTRY) for _ in range(c)] for _ in range(r)]}
        for r in SNF_SIZES
        for c in SNF_SIZES
        for _ in range(SNF_PER_SHAPE)
    ]
    rng.shuffle(out)
    return out


def _small_bs(rng) -> int:
    return rng.choice([n for n in GRID if abs(n) <= 12])


def _relator(rng) -> dict:
    """A one-relator presentation that is never a proper power, with its
    exponent sums (the closed forms in ``checks`` need only those)."""
    kind = rng.randrange(4)
    if kind == 0:
        n = _small_bs(rng)
        return {"text": f"<a,b|a b a^-1 = b^{n}>", "gens": ["a", "b"], "sums": [0, 1 - n]}
    if kind == 1:
        p, q = (rng.choice([x for x in range(-12, 13) if x]) for _ in range(2))
        return {"text": f"<a,b|a^{p} b^{q}>", "gens": ["a", "b"], "sums": [p, q]}
    if kind == 2:
        e = [rng.choice([x for x in range(-12, 13) if x]) for _ in range(3)]
        return {"text": "<a,b,c|a^%d b^%d c^%d>" % tuple(e), "gens": ["a", "b", "c"], "sums": e}
    return {"text": "<a,b,c,d|a b a^-1 b^-1 c d c^-1 d^-1>", "gens": ["a", "b", "c", "d"], "sums": [0, 0, 0, 0]}


def _cli_inputs(rng) -> list[dict]:
    """Ten inputs. A process costs ~150 ms, so a 30 s run makes ~200
    operations and each input runs about twenty times; its latency, the mean
    of its fastest quarter of runs, then escapes the host's slow periods,
    which with 100 inputs run twice each
    it did not (op_ms.p90 spread 0.12-0.30 between sets of runs). The two
    pair runs are the slowest, so the 90th percentile falls among them."""
    inputs = [{"cmd": "bs", "n": _small_bs(rng), "json": json_mode} for json_mode in (True, False)]
    inputs.extend({"cmd": cmd, **_relator(rng)} for cmd in ("khom", "homology"))
    for _ in range(2):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        inputs.append({"cmd": "snf", "a": [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]})
    inputs.extend({"cmd": "pv", "n": _small_bs(rng)} for _ in range(2))
    for _ in range(2):
        inputs.append(
            {
                "cmd": "pair",
                "n": rng.choice([x for x in range(-9, 10) if abs(x) >= 2]),
                "depth": PAIR_DEPTH,
                "seed": rng.randrange(2**31),
                "trials": PAIR_TRIALS,
            }
        )
    rng.shuffle(inputs)
    return inputs


def make_inputs(name: str, rng) -> list[dict]:
    return {
        "bs-grid": _grid_inputs,
        "bs-wide": _wide_inputs,
        "snf-dense": _snf_inputs,
        "cli-process": _cli_inputs,
    }[name](rng)


# ---------------------------------------------------------------------------
# operations and checks


def _bs_pair(bsk, n: int):
    def op():
        report = bsk.bc_compare(n)
        return bsk.report_to_json(report), bsk.render_report(report)

    def check(out):
        data, text = out
        return checks.check_bs_json(n, data) or checks.check_bs_text(n, text)

    return op, check


def _rows(m) -> list[list[int]]:
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def _snf_pair(bsk, a: list[list[int]]):
    matrix = bsk.IntMatrix.from_rows(a)

    def op():
        return bsk.smith_normal_form(matrix)

    def check(dec):
        return checks.check_snf(a, _rows(dec.s), _rows(dec.u), _rows(dec.v), dec.diag)

    return op, check


def _cli_argv(item: dict, pv_path: str | None) -> list[str]:
    cmd = item["cmd"]
    if cmd == "bs":
        return (["--json"] if item["json"] else []) + ["bs", str(item["n"])]
    if cmd in ("khom", "homology"):
        return ["--json", cmd, item["text"]]
    if cmd == "snf":
        return ["--json", "snf", json.dumps(item["a"])]
    if cmd == "pv":
        return ["pv", pv_path]
    return ["--json", "pair"] + [f"--{k}={item[k]}" for k in ("n", "depth", "seed", "trials")]


def _cli_check(item: dict):
    cmd = item["cmd"]

    def check(out):
        code, stdout = out
        if code != 0:
            return f"bsk {cmd} exited with {code}"
        if cmd == "bs" and not item["json"]:
            return checks.check_bs_text(item["n"], stdout)
        try:
            data = json.loads(stdout)
        except ValueError:
            return f"bsk {cmd} printed no JSON"
        if cmd == "bs":
            return checks.check_bs_json(item["n"], data)
        if cmd == "khom":
            return checks.check_khom_json(item["gens"], item["sums"], data)
        if cmd == "homology":
            return checks.check_homology_json(item["sums"], data)
        if cmd == "snf":
            return checks.check_snf_json(item["a"], data)
        if cmd == "pv":
            return checks.check_pv_json(item["n"], data)
        return checks.check_pair_json(item["n"], item["depth"], item["seed"], item["trials"], data)

    return check


def prepare(name: str, inputs: list[dict], bsk, env: dict, tmp: Path):
    """(timed pairs, in-process pairs) for the inputs of workload ``name``."""
    if name in ("bs-grid", "bs-wide"):
        pairs = [_bs_pair(bsk, item["n"]) for item in inputs]
        return pairs, pairs
    if name == "snf-dense":
        pairs = [_snf_pair(bsk, item["a"]) for item in inputs]
        return pairs, pairs

    from bs_ktheory import cli, pv

    timed, in_process = [], []
    for i, item in enumerate(inputs):
        pv_path = None
        if item["cmd"] == "pv":
            pv_path = str(tmp / f"pv-{i}.json")
            Path(pv_path).write_text(json.dumps(pv.kinput_to_json(pv.bs_input(item["n"]))), encoding="utf-8")
        argv = _cli_argv(item, pv_path)
        check = _cli_check(item)

        def run_process(argv=argv):
            done = subprocess.run(
                [sys.executable, "-m", "bs_ktheory", *argv], env=env, capture_output=True, text=True
            )
            return done.returncode, done.stdout

        def run_main(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()

        timed.append((run_process, check))
        in_process.append((run_main, check))
    return timed, in_process
