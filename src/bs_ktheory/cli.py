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
import os
import sys

from .errors import DomainError, UnresolvedExtension

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INVARIANT = 3
EXIT_UNRESOLVED = 4


def _argv_int(text: str) -> int:
    """An integer argument: ASCII ``-?[0-9]+``. ``int()`` would also take
    underscores, surrounding space and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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
    p_bs.add_argument("n", type=_argv_int)

    p_pv = sub.add_parser("pv", help="solve a six-term input read from a JSON file")
    p_pv.add_argument("input_path")

    p_hom = sub.add_parser("homology", help="presentation-complex homology")
    p_hom.add_argument("presentation")

    p_khom = sub.add_parser("khom", help="K-homology of the classifying space")
    p_khom.add_argument("presentation")

    p_pair = sub.add_parser("pair", help="randomized exact duality checks on the solenoid")
    p_pair.add_argument("--n", type=_argv_int, required=True)
    p_pair.add_argument("--depth", type=_argv_int, default=4)
    p_pair.add_argument("--seed", type=_argv_int, default=0)
    p_pair.add_argument("--trials", type=_argv_int, default=100)

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", help="JSON rows, or a path to a JSON file")

    return parser


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_json(literal_or_path: str):
    text = literal_or_path
    if not text.lstrip().startswith("["):
        if not os.path.exists(literal_or_path):
            raise ValueError(f"no such file: {literal_or_path}")
        text = _read_text(literal_or_path)
    return json.loads(text)


def _parse_presentation(args):
    from .presentation import parse

    return parse(args.presentation)


# Each handler takes its command's input and returns (exit code, JSON
# payload, table form): a function rendering the table text, or None for a
# command that always prints JSON. A handler imports the modules it runs,
# so a call loads only its own command's part of the package.


def _run_bs(n: int):
    from .bc import bc_compare, render_report, report_to_json

    report = bc_compare(n)
    code = EXIT_OK if report.verdict else EXIT_INVARIANT
    return code, report_to_json(report), lambda: render_report(report) + "\n"


def _run_pv(data):
    from .pv import kinput_from_json, pv_solve, solution_to_json

    solution = pv_solve(kinput_from_json(data))
    return EXIT_OK, solution_to_json(solution), None


def _run_homology(presentation):
    from .abelian import group_to_json
    from .presentation import presentation_homology

    hom = presentation_homology(presentation)
    payload = {
        "h0": group_to_json(hom.h0),
        "h1": group_to_json(hom.h1),
        "h2": group_to_json(hom.h2),
        "basepoint": hom.basepoint_gen,
    }
    return EXIT_OK, payload, lambda: (
        f"H0 = {hom.h0}  (basepoint generator {hom.basepoint_gen})\n"
        f"H1 = {hom.h1}\n"
        f"H2 = {hom.h2}\n"
    )


def _run_khom(presentation):
    from .abelian import group_to_json
    from .ledger import _order_text, ledger_to_json
    from .presentation import classifying_space_k

    k0, k1, ledger = classifying_space_k(presentation)
    payload = {"k0": group_to_json(k0), "k1": group_to_json(k1), "ledger": ledger_to_json(ledger)}
    return EXIT_OK, payload, lambda: f"K0 = {k0}\nK1 = {k1}\nclasses:\n" + "".join(
        f"  {symbol:6} in {ledger[symbol].location}: coeffs {list(ledger[symbol].vector)}, "
        f"order {_order_text(ledger[symbol].order)}\n"
        for symbol in sorted(ledger)
    )


def _run_pair(args):
    from random import Random

    from .solenoid import NadicRational, duality_check, pairing, pairing_raw, random_point

    if args.n == 0:
        raise DomainError("the solenoid parameter must be nonzero")
    if args.depth < 0 or args.trials < 0:
        raise DomainError("depth and trials must be nonnegative")
    if args.depth > 10_000:  # a point keeps one angle per level: 10^8 exhausts memory
        raise DomainError("depth must be at most 10000")
    rng = Random(args.seed)
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

    payload = {
        "n": args.n,
        "depth": args.depth,
        "seed": args.seed,
        "trials": args.trials,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
    }
    # these identities are theorems; a failure means the implementation is wrong
    return EXIT_INVARIANT if failed else EXIT_OK, payload, lambda: (
        f"pairing checks for n={args.n} (depth {args.depth}, seed {args.seed}, "
        f"trials {args.trials})\n  passed: {passed}  failed: {failed}  skipped: {skipped}\n"
    )


def _run_snf(data):
    from .abelian import matrix_from_json, matrix_to_json, smith_normal_form

    dec = smith_normal_form(matrix_from_json(data))
    payload = {"diag": list(dec.diag), **{k: matrix_to_json(getattr(dec, k)) for k in "suv"}}
    return EXIT_OK, payload, lambda: f"diag: {payload['diag']}\n" + "".join(
        f"{k} =\n" + "".join(f"  {row}\n" for row in payload[k]) for k in "suv"
    )


# command -> (read its input from the arguments, handler)
COMMANDS = {
    "bs": (lambda args: args.n, _run_bs),
    "pv": (lambda args: json.loads(_read_text(args.input_path)), _run_pv),
    "homology": (_parse_presentation, _run_homology),
    "khom": (_parse_presentation, _run_khom),
    "pair": (lambda args: args, _run_pair),
    "snf": (lambda args: _load_json(args.matrix), _run_snf),
}


def _without_digit_limit(compute):
    """``compute()`` with the interpreter's limit on int-to-str digits lifted.

    Computed integers can be far longer than any input the limit lets
    through. The limit is restored however ``compute`` exits.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return compute()
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return compute()
    finally:
        set_limit(saved)


def _respond(args, run, data) -> int:
    """Run a handler and write its result to stdout or ``--out``: the table
    text, or the JSON payload under ``--json`` or when there is no table form.
    An unresolved extension prints its partial data as JSON and exits 4."""
    try:
        code, payload, table = run(data)
    except UnresolvedExtension as exc:
        code, table = EXIT_UNRESOLVED, None
        payload = {"error": "unresolved extension", "message": str(exc), "partial": exc.partial}
    if table is None or args.json:
        text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    else:
        text = table()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    read, run = COMMANDS[args.command]
    try:
        # input, like argv, is read under the digit limit; all that follows is not
        data = read(args)
        return _without_digit_limit(lambda: _respond(args, run, data))
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USER_ERROR
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
