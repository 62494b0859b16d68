"""Self-test of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that

* each output checker accepts the package's real output and rejects a
  deliberately corrupted copy of it;
* the span recorder rebinds every traced name and restores all of them;
* two traced runs with one seed print the same input digest and the same
  deterministic counts;
* every workload runs with fail_ratio 0 on the current code.

It takes about two minutes and exits with 1 if anything fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("abelian.snf.calls", "abelian.objects_built", "abelian.snf.max_bits")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def accepts_and_rejects(label: str, check, good, corrupt) -> None:
    expect(check(good) is None, f"{label}: accepts the real output")
    bad = copy.deepcopy(good)
    corrupt(bad)
    expect(check(bad) is not None, f"{label}: rejects a corrupted output")


def test_checkers() -> None:
    import bs_ktheory as bsk
    from bs_ktheory import pv

    n = 7
    report = bsk.bc_compare(n)
    data = bsk.report_to_json(report)

    def wrong_torsion(d):
        d["rhs"]["k1"]["torsion"] = [3]

    accepts_and_rejects("bs json, K1 torsion", lambda d: checks.check_bs_json(n, d), data, wrong_torsion)

    def wrong_order(d):
        d["matches"][2]["order_rhs"] = 3

    accepts_and_rejects("bs json, order of [b]", lambda d: checks.check_bs_json(n, d), data, wrong_order)
    text = bsk.render_report(report)
    expect(checks.check_bs_text(n, text) is None, "bs table: accepts the real output")
    expect(checks.check_bs_text(n, text.replace("Z/6", "Z/3")) is not None, "bs table: rejects a wrong K1")

    solution = pv.solution_to_json(pv.pv_solve(pv.bs_input(n)))

    def wrong_k1(d):
        d["k1_crossed"]["torsion"] = []

    accepts_and_rejects("pv json, K1", lambda d: checks.check_pv_json(n, d), solution, wrong_k1)

    a = [[2, 4, 4, 1], [-6, 6, 12, 0], [10, -4, -16, 3], [1, 1, 1, 1]]
    dec = bsk.smith_normal_form(bsk.IntMatrix.from_rows(a))
    snf = {"s": dec.s.to_rows(), "u": dec.u.to_rows(), "v": dec.v.to_rows(), "diag": list(dec.diag)}

    def mutate_diagonal(d):
        d["diag"][0] += 1
        d["s"][0][0] += 1

    def mutate_transform(d):
        d["u"][0][0] += 1

    accepts_and_rejects("snf, diagonal", lambda d: checks.check_snf_json(a, d), snf, mutate_diagonal)
    accepts_and_rejects("snf, transform", lambda d: checks.check_snf_json(a, d), snf, mutate_transform)

    sums, gens = [4, 6, -10], ["a", "b", "c"]
    p = bsk.parse("<a,b,c|a^4 b^6 c^-10>")
    hom = bsk.presentation_homology(p)
    hom_json = {
        "h0": bsk.abelian.group_to_json(hom.h0),
        "h1": bsk.abelian.group_to_json(hom.h1),
        "h2": bsk.abelian.group_to_json(hom.h2),
        "basepoint": hom.basepoint_gen,
    }

    def wrong_h2(d):
        d["h2"]["free_rank"] = 1

    accepts_and_rejects("homology, H2", lambda d: checks.check_homology_json(sums, d), hom_json, wrong_h2)
    k0, k1, ledger = bsk.classifying_space_k(p)
    khom = {
        "k0": bsk.abelian.group_to_json(k0),
        "k1": bsk.abelian.group_to_json(k1),
        "ledger": bsk.ledger.ledger_to_json(ledger),
    }

    def wrong_ledger(d):
        d["ledger"]["a"]["order"] = 2

    accepts_and_rejects("khom, ledger order", lambda d: checks.check_khom_json(gens, sums, d), khom, wrong_ledger)

    pair = {"n": 3, "depth": 4, "seed": 1, "trials": 300, "passed": 280, "failed": 0, "skipped": 20}

    def failed_trial(d):
        d["failed"], d["passed"] = 1, 279

    accepts_and_rejects("pair", lambda d: checks.check_pair_json(3, 4, 1, 300, d), pair, failed_trial)

    bs_cli = workloads._cli_check({"cmd": "bs", "n": n, "json": True})
    expect(bs_cli((0, json.dumps(data))) is None, "cli bs: accepts exit 0 with the right answer")
    expect(bs_cli((3, json.dumps(data))) is not None, "cli bs: rejects exit code 3")


def test_recorder() -> None:
    import bs_ktheory as bsk

    expect(spans.unpatched(), "recorder: package unpatched before install")
    rec = spans.Recorder()
    rec.install()
    try:
        expect(not spans.unpatched(), "recorder: install rebinds names")
        rec.operation(lambda: bsk.bc_compare(3))()
    finally:
        rec.uninstall()
    expect(spans.unpatched(), "recorder: uninstall restores every name")
    summary = rec.summary()
    expect(summary["abelian.snf"]["calls"] > 0 and summary["pv.solve"]["calls"] == 1, "recorder: spans recorded")
    expect(rec.counts["abelian.objects_built"] > 0, "recorder: constructions counted")


def bench(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return "", {"correct": False, "failed": -1, "stderr": done.stderr[-500:]}
    return lines[0], json.loads(lines[-1])


def test_runs() -> None:
    for workload in workloads.NAMES:
        first_line, first = bench(workload, 7, 1)
        second_line, second = bench(workload, 7, 1)
        same_counts = first_line and all(
            first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in COUNTS
        )
        expect(first_line == second_line and bool(first_line), f"{workload}: same seed, same input digest")
        expect(bool(same_counts), f"{workload}: same seed, same {', '.join(COUNTS)}")
        _, result = bench(workload, 7, 0)
        for label, run in (("traced", first), ("untraced", result)):
            expect(run.get("correct") is True and run.get("failed") == 0, f"{workload}: fail_ratio 0 ({label})")


def main() -> int:
    if not (ROOT / "src" / "bs_ktheory" / "__init__.py").is_file():
        sys.stderr.write("error: run from a source checkout\n")
        return 2
    test_checkers()
    test_recorder()
    test_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
