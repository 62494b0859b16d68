"""Replays recorded ``bsk`` invocations and compares stdout, stderr and exit code.

``golden/cli.json`` holds each invocation's arguments, the input files it
reads, and the output it produced when it was recorded. A case that reads a
file names it as ``{dir}/<name>`` in its arguments; the test writes the file
into a temporary directory first. To record the file again, run this module:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bs_ktheory.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
SRC = Path(__file__).resolve().parents[1] / "src"

PRESENTATIONS = (
    "<a,b | a b a^-1 b^-2>",
    "<a,b | a b a^-1 = b^3>",
    "<a,b | a b a^-1 b^-1>",
    "<x,y,z | x y^2 z^-1 x^3>",
    "<a,b | a^2 b^3>",
    "<a,b,c | a^2 b^-2 c^3 a>",
)


def _cases() -> list[dict]:
    from bs_ktheory.pv import bs_input, kinput_to_json

    cases = []
    for n in range(-12, 13):
        if n not in (0, 1):
            cases.append({"argv": ["bs", str(n)]})
            cases.append({"argv": ["--json", "bs", str(n)]})
    for text in PRESENTATIONS:
        for command in ("homology", "khom"):
            cases.append({"argv": [command, text]})
            cases.append({"argv": ["--json", command, text]})
    for n in (2, 3, -4):
        cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(kinput_to_json(bs_input(n)))}})
    two_fg = {
        "k0": {"kind": "fg", "group": {"free_rank": 2, "torsion": [5], "gens": ["1", "e", "t"]}},
        "k1": {"kind": "fg", "group": {"free_rank": 1, "torsion": [], "gens": ["w"]}},
        "alpha0": {"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 2]]},
        "alpha1": {"matrix": [[-1]]},
        "ledger": {
            "[1]": {"group": "k0", "coeffs": [1, 0, 0], "order": "inf"},
            "[e]": {"group": "k0", "coeffs": [0, 1, 0], "order": "inf"},
            "[t]": {"group": "k0", "coeffs": [0, 0, 1], "order": 5},
            "[w]": {"group": "k1", "coeffs": [1], "order": "inf"},
        },
    }
    cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(two_fg)}})
    rng = random.Random(20161)
    for shape in ((1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3)):
        rows = [[rng.randint(-9, 9) for _ in range(shape[1])] for _ in range(shape[0])]
        cases.append({"argv": ["snf", json.dumps(rows)]})
        cases.append({"argv": ["--json", "snf", json.dumps(rows)]})
    cases.append({"argv": ["pair", "--n", "3", "--depth", "3", "--seed", "7", "--trials", "40"]})
    cases.append({"argv": ["--json", "pair", "--n", "-2", "--depth", "2", "--seed", "1", "--trials", "30"]})
    # exit 2: a domain error, proper-power relators, an undeclared generator,
    # a non-integer matrix entry, and a one-generator side whose self-map
    # matrix is empty
    cases.append({"argv": ["bs", "0"]})
    cases.append({"argv": ["homology", "<a,b | a b a b>"]})
    cases.append({"argv": ["khom", "<a,b | a b c>"]})
    cases.append({"argv": ["homology", "<a | a^4>"]})
    cases.append({"argv": ["snf", "[[1.5]]"]})
    empty_matrix = dict(two_fg, alpha1={"matrix": []})
    cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(empty_matrix)}})
    # exit 4: Id - alpha vanishes on the localization
    unresolved = kinput_to_json(bs_input(3))
    unresolved["alpha1"] = {"rung": 1}
    cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(unresolved)}})
    # pair on degenerate, negative and odd bases at depths 0, 1 and 64, and at
    # the deepest depth the command accepts
    for n in (-1, 1, -9, 7):
        for depth, seed in ((0, 11), (1, 12), (64, 13)):
            argv = ["pair", "--n", str(n), "--depth", str(depth), "--seed", str(seed), "--trials", "50"]
            cases.append({"argv": argv})
            cases.append({"argv": ["--json", *argv]})
    for n, seed in ((7, 14), (-9, 15)):
        argv = ["pair", "--n", str(n), "--depth", "10000", "--seed", str(seed), "--trials", "20"]
        cases.append({"argv": argv})
        cases.append({"argv": ["--json", *argv]})
    # rungs r other than n: the staged cokernel Z/|1 - r| of the first four is
    # not injective under the bond n, so its stable kernel takes the general
    # path; the last is injective and gives K1 = Z + Z/2
    for n, r in ((6, 3), (4, -1), (10, 5), (12, -3), (3, -1)):
        rung = kinput_to_json(bs_input(n))
        rung["alpha1"] = {"rung": r}
        cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(rung)}})
    # a declared generator named like a derived one: a2 beside a repeated a
    for command in ("homology", "khom"):
        cases.append({"argv": [command, "<a,b,a2 | a^-2 b^-2>"]})
    # exit 2: a ledger order of 0, named by its JSON path
    zero_order = kinput_to_json(bs_input(3))
    zero_order["ledger"]["[b]"]["order"] = 0
    cases.append({"argv": ["pv", "{dir}/in.json"], "files": {"in.json": json.dumps(zero_order)}})
    return cases


def _argv(case: dict, directory: Path) -> list[str]:
    """The case's arguments, after writing the files it reads into ``directory``."""
    for name, text in case.get("files", {}).items():
        (directory / name).write_text(text, encoding="utf-8")
    return [arg.replace("{dir}", str(directory)) for arg in case["argv"]]


def _invoke(case: dict, directory: Path) -> dict:
    argv = _argv(case, directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


RECORDED = _recorded()


@pytest.mark.parametrize("case", RECORDED, ids=[f"{i:02d} {' '.join(c['argv'])[:50]}" for i, c in enumerate(RECORDED)])
def test_output_matches_recording(case, tmp_path):
    expected = {key: case[key] for key in ("stdout", "stderr", "code")}
    assert _invoke(case, tmp_path) == expected


def _first(argv_prefix: list[str]) -> dict:
    """The first recorded case whose arguments start with ``argv_prefix``."""
    return next(c for c in RECORDED if c["argv"][: len(argv_prefix)] == argv_prefix)


# a few cases through the real entry point, the exit-2 one included
ENTRY_POINT_PREFIXES = (
    ["bs"],
    ["--json", "bs"],
    ["khom"],
    ["--json", "snf"],
    ["pv"],
    ["pair"],
    ["--json", "pair"],
    ["bs", "0"],
)
ENTRY_POINT_CASES = [_first(prefix) for prefix in ENTRY_POINT_PREFIXES] if RECORDED else []


@pytest.mark.parametrize("case", ENTRY_POINT_CASES, ids=[" ".join(c["argv"])[:50] for c in ENTRY_POINT_CASES])
def test_entry_point_matches_recording(case, tmp_path):
    """``python -m bs_ktheory`` in a fresh process prints what was recorded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "bs_ktheory", *_argv(case, tmp_path)],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert {"stdout": done.stdout, "stderr": done.stderr, "code": done.returncode} == {
        key: case[key] for key in ("stdout", "stderr", "code")
    }


def test_recording_covers_every_case():
    assert [c["argv"] for c in RECORDED] == [c["argv"] for c in _cases()]


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        recorded = [{**case, **_invoke(case, Path(tmp))} for case in _cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} invocations in {GOLDEN}")


if __name__ == "__main__":
    _record()
