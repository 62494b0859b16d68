"""Command-line front end.

Subcommands expose the full pipeline and each sub-computation with
deterministic output. Exit codes: 0 success, 2 user error (bad arguments,
parse or schema failures, out-of-domain parameters), 3 invariant violation
(a check that is a theorem failed, or a verdict came back false), 4
unresolved extension (partial data is still printed).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import bc as bc_mod
from . import pv as pv_mod
from .abelian import IntMatrix, group_to_json, matrix_from_json, matrix_to_json, smith_normal_form
from .errors import DomainError, UnresolvedExtension
from .ledger import _order_text, ledger_to_json
from .presentation import classifying_space_k, parse, presentation_homology
from .solenoid import NadicRational, duality_check, pairing, pairing_raw, random_point

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INVARIANT = 3
EXIT_UNRESOLVED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsk",
        description=(
            "Exact K-theory bookkeeping for crossed products by Z and for "
            "one-relator classifying spaces, with a two-sided comparison driver."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bs = sub.add_parser("bs", help="full two-sided computation for the parameter n")
    p_bs.add_argument("n", type=int)

    p_pv = sub.add_parser("pv", help="solve a six-term input read from a JSON file")
    p_pv.add_argument("input_path")

    p_hom = sub.add_parser("homology", help="presentation-complex homology")
    p_hom.add_argument("presentation")

    p_khom = sub.add_parser("khom", help="K-homology of the classifying space")
    p_khom.add_argument("presentation")

    p_pair = sub.add_parser("pair", help="randomized exact duality checks on the solenoid")
    p_pair.add_argument("--n", type=int, required=True)
    p_pair.add_argument("--depth", type=int, default=4)
    p_pair.add_argument("--seed", type=int, default=0)
    p_pair.add_argument("--trials", type=int, default=100)

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", help="JSON rows, or a path to a JSON file")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _run_bs(args) -> int:
    report = bc_mod.bc_compare(args.n)
    if args.json:
        _emit(_dump(bc_mod.report_to_json(report)), args.out)
    else:
        _emit(bc_mod.render_report(report) + "\n", args.out)
    return EXIT_OK if report.verdict else EXIT_INVARIANT


def _run_pv(args) -> int:
    raw = Path(args.input_path).read_text(encoding="utf-8")
    data = json.loads(raw)
    kinput = pv_mod.kinput_from_json(data)
    solution = pv_mod.pv_solve(kinput)
    _emit(_dump(pv_mod.solution_to_json(solution)), args.out)
    return EXIT_OK


def _run_homology(args) -> int:
    hom = presentation_homology(parse(args.presentation))
    if args.json:
        payload = {
            "h0": group_to_json(hom.h0),
            "h1": group_to_json(hom.h1),
            "h2": group_to_json(hom.h2),
            "basepoint": hom.basepoint_gen,
        }
        _emit(_dump(payload), args.out)
    else:
        text = (
            f"H0 = {hom.h0}  (basepoint generator {hom.basepoint_gen})\n"
            f"H1 = {hom.h1}\n"
            f"H2 = {hom.h2}\n"
        )
        _emit(text, args.out)
    return EXIT_OK


def _run_khom(args) -> int:
    k0, k1, ledger = classifying_space_k(parse(args.presentation))
    if args.json:
        payload = {
            "k0": group_to_json(k0),
            "k1": group_to_json(k1),
            "ledger": ledger_to_json(ledger),
        }
        _emit(_dump(payload), args.out)
    else:
        lines = [f"K0 = {k0}", f"K1 = {k1}", "classes:"]
        for symbol in ledger.symbols():
            entry = ledger[symbol]
            order = _order_text(entry.order)
            lines.append(f"  {symbol:6} in {entry.location}: coeffs {list(entry.vector)}, order {order}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _run_pair(args) -> int:
    if args.n == 0:
        raise DomainError("the solenoid parameter must be nonzero")
    if args.depth < 0 or args.trials < 0:
        raise DomainError("depth and trials must be nonnegative")
    rng = random.Random(args.seed)
    passed = failed = skipped = 0
    # elements stay within the point's depth; at depth 0 deeper denominators
    # are generated on purpose so the skip policy is exercised
    max_exp = args.depth if args.depth >= 1 else 1
    for _ in range(args.trials):
        z = random_point(args.n, args.depth, rng.randrange(2**30))
        exp = rng.randint(0, max_exp)
        m = rng.randint(-50, 50)
        x = NadicRational(args.n, m, exp)
        y = NadicRational(args.n, rng.randint(-50, 50), rng.randint(0, max_exp))
        applicable = 0
        ok = True

        if x.exp <= z.depth:
            applicable += 1
            direct = pairing(z, x)
            if x.exp + 1 <= z.depth:
                rewritten = pairing_raw(z, x.m * args.n, x.exp + 1)
                ok = ok and rewritten == direct
        if x.exp <= z.depth and y.exp <= z.depth:
            applicable += 1
            total = pairing(z, x + y)
            ok = ok and total == pairing(z, x) + pairing(z, y)
        if z.depth >= max(1, x.exp):
            applicable += 1
            ok = ok and duality_check(z, x)

        if applicable == 0:
            skipped += 1
        elif ok:
            passed += 1
        else:
            failed += 1

    summary = (
        f"pairing checks for n={args.n} (depth {args.depth}, seed {args.seed}, "
        f"trials {args.trials})\n  passed: {passed}  failed: {failed}  skipped: {skipped}\n"
    )
    if args.json:
        _emit(
            _dump(
                {
                    "n": args.n,
                    "depth": args.depth,
                    "seed": args.seed,
                    "trials": args.trials,
                    "passed": passed,
                    "failed": failed,
                    "skipped": skipped,
                }
            ),
            args.out,
        )
    else:
        _emit(summary, args.out)
    # these identities are theorems; a failure means the implementation is wrong
    return EXIT_INVARIANT if failed else EXIT_OK


def _load_matrix(literal_or_path: str) -> IntMatrix:
    text = literal_or_path
    if not text.lstrip().startswith("["):
        path = Path(literal_or_path)
        if not path.exists():
            raise ValueError(f"no such file: {literal_or_path}")
        text = path.read_text(encoding="utf-8")
    return matrix_from_json(json.loads(text))


def _without_digit_limit(render) -> str:
    """``render()`` with the interpreter's limit on int-to-str digits lifted.

    Computed integers, such as Smith transforms, can be far longer than any
    input the limit lets through; input is still read under it.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return render()
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return render()
    finally:
        set_limit(saved)


def _run_snf(args) -> int:
    dec = smith_normal_form(_load_matrix(args.matrix))

    def render() -> str:
        if args.json:
            return _dump({"diag": list(dec.diag), **{k: matrix_to_json(getattr(dec, k)) for k in "suv"}})
        lines = [f"diag: {list(dec.diag)}"]
        for name in "suv":
            lines.append(f"{name} =")
            lines.extend(f"  {row}" for row in getattr(dec, name).to_rows())
        return "\n".join(lines) + "\n"

    _emit(_without_digit_limit(render), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bs": _run_bs,
        "pv": _run_pv,
        "homology": _run_homology,
        "khom": _run_khom,
        "pair": _run_pair,
        "snf": _run_snf,
    }
    try:
        return handlers[args.command](args)
    except UnresolvedExtension as exc:
        payload = {"error": "unresolved extension", "message": str(exc), "partial": exc.partial}
        _emit(_dump(payload), args.out)
        return EXIT_UNRESOLVED
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USER_ERROR
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
