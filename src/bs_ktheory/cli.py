"""Command-line front end.

Subcommands expose the full pipeline and each sub-computation with
deterministic output. Exit codes: 0 success, 2 user error (bad arguments,
parse or schema failures, out-of-domain parameters), 3 invariant violation
(a check that is a theorem failed, or a verdict came back false), 4
unresolved extension (partial data is still printed).
"""

from __future__ import annotations

import os
import reprlib
import sys

from .errors import DomainError, UnresolvedExtension

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INVARIANT = 3
EXIT_UNRESOLVED = 4


def _ascii_int(text: str) -> int | None:
    """An integer argument, ASCII ``-?[0-9]+``, else None. ``int()`` would
    also take underscores, surrounding space and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
    return None


def _argv_int(text: str) -> int:
    import argparse
    if (value := _ascii_int(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {reprlib.repr(text)}")
    return value


def build_parser():
    import argparse
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
    for command, (help_line, positional, _, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if positional:
            p.add_argument(positional, type=_argv_int if command == "bs" else None,
                           help="JSON rows, or a path to a JSON file" if command == "snf" else None)
        else:
            for flag, default in _PAIR_FLAGS.items():
                p.add_argument(flag, type=_argv_int, required=default is None, default=default)
    return parser


# pair's flags and defaults; None: required
_PAIR_FLAGS = {"--n": None, "--depth": 4, "--seed": 0, "--trials": 100}
_Namespace = type(sys.implementation)  # types.SimpleNamespace, without importing types


def _read_argv(argv: list[str]) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for an argv of the success
    grammar: ``[--json] [--out PATH]``, a command and its own arguments, each
    flag once and unabbreviated, no other token starting with ``-``. Else
    None, and argparse reads it, with its usage, help and errors."""
    fields, rest = {"json": False, "out": None}, list(argv)
    while rest[:1] == ["--json"] and not fields["json"] or rest[:1] == ["--out"] and fields["out"] is None:
        flag = rest.pop(0)[2:]
        fields[flag] = flag == "json" or (rest.pop(0) if rest else "-")  # "-": no PATH, declined below
    fields["command"] = command = rest.pop(0) if rest and not (fields["out"] or "").startswith("-") else None
    positional = COMMANDS[command][1] if command in COMMANDS else None
    if positional and len(rest) == 1:
        value = _ascii_int(rest[0]) if command == "bs" else None if rest[0].startswith("-") else rest[0]
        return None if value is None else {**fields, positional: value}
    flags = {}
    while command == "pair" and rest:
        flag, sep, value = rest.pop(0).partition("=")
        value = value if sep or not rest else rest.pop(0)
        if flag not in _PAIR_FLAGS or flag in flags or _ascii_int(value) is None:
            return None
        flags[flag] = _ascii_int(value)
    # pair without --n, or any argv that no branch above has read
    return fields | {f[2:]: flags.get(f, d) for f, d in _PAIR_FLAGS.items()} if "--n" in flags else None


def _parse_json(text: str):
    import json
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError("JSON input is nested too deeply") from None


def _read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return _parse_json(f.read())


def _load_json(literal_or_path: str):
    """An existing file's JSON, else the argument itself if it starts with ``[``."""
    if os.path.exists(literal_or_path):
        return _read_json(literal_or_path)
    if not literal_or_path.lstrip().startswith("["):
        raise ValueError(f"no such file: {reprlib.repr(literal_or_path)}")
    return _parse_json(literal_or_path)


def _parse_presentation(text: str):
    from .presentation import parse

    return parse(text)


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
    # a point's size does not depend on its depth, but a sum x + y in Z[1/n] has
    # a numerator of about depth * log2|n| bits; 20 trials at 10^6 take ~0.6 s
    if args.depth > 10_000:
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
        if x.exp > z.depth:
            skipped += 1
            continue

        direct = pairing(z, x)
        ok = True
        if x.exp + 1 <= z.depth:
            ok = pairing_raw(z, x.m * args.n, x.exp + 1) == direct
        if y.exp <= z.depth:
            ok = ok and pairing(z, x + y) == direct + pairing(z, y)
        if z.depth >= 1:
            ok = ok and duality_check(z, x, direct)
        if ok:
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
    from .abelian import matrix_from_json, smith_normal_form

    dec = smith_normal_form(matrix_from_json(data, "matrix"))
    payload = {"diag": list(dec.diag), **{k: getattr(dec, k).to_rows() for k in "suv"}}
    return EXIT_OK, payload, lambda: f"diag: {payload['diag']}\n" + "".join(
        f"{k} =\n" + "".join(f"  {row}\n" for row in payload[k]) for k in "suv"
    )


# command -> (help line, positional argument, read the command's input from
# that argument, handler); pair has no positional, and reads all its flags
COMMANDS = {
    "bs": ("full two-sided computation for the parameter n", "n", lambda n: n, _run_bs),
    "pv": ("solve a six-term input read from a JSON file", "input_path", _read_json, _run_pv),
    "homology": ("presentation-complex homology", "presentation", _parse_presentation, _run_homology),
    "khom": ("K-homology of the classifying space", "presentation", _parse_presentation, _run_khom),
    "pair": ("randomized exact duality checks on the solenoid", None, lambda args: args, _run_pair),
    "snf": ("Smith normal form of an integer matrix", "matrix", _load_json, _run_snf),
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
        import json
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
    fields = _read_argv(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv) if fields is None else _Namespace(**fields)
    _, positional, read, run = COMMANDS[args.command]
    try:
        # input, like argv, is read under the digit limit; all that follows is not
        data = read(getattr(args, positional) if positional else args)
        return _without_digit_limit(lambda: _respond(args, run, data))
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USER_ERROR
    except AssertionError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
