"""Output checkers that never call the package under test.

Each checker takes plain data (ints, lists, dicts parsed from JSON, text)
and returns None when the output is correct, or a one-line description of
the first problem found. The expected values come from closed forms:

* the group < a, b | a b a^-1 = b^n > has K0 = Z and K1 = Z + Z/|n-1| on
  both sides (no torsion when |n-1| = 1); [1], [pt] and [a] have infinite
  order, [b] has order |n-1|, and the trace image of K0 is Z;
* a one-relator presentation whose relator is not a proper power has
  H0 = Z, H1 = Z^m / <e> for the exponent-sum vector e, and H2 = Z exactly
  when e = 0;
* a Smith normal form satisfies u a v = s with u, v unimodular and the
  diagonal of s a nonnegative divisibility chain, checked here with this
  module's own product and determinant.
"""

from __future__ import annotations

import math


def _group_problem(label: str, data, free_rank: int, torsion: list[int]) -> str | None:
    if not isinstance(data, dict):
        return f"{label}: not a group object"
    if data.get("free_rank") != free_rank or data.get("torsion") != torsion:
        return (
            f"{label}: got rank {data.get('free_rank')} torsion {data.get('torsion')}, "
            f"expected rank {free_rank} torsion {torsion}"
        )
    return None


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# the two-sided verdict for < a, b | a b a^-1 = b^n >


def bs_torsion(n: int) -> list[int]:
    t = abs(n - 1)
    return [t] if t > 1 else []


def check_bs_json(n: int, data) -> str | None:
    """A ``bsk --json bs n`` payload, or ``report_to_json`` of the report."""
    if not isinstance(data, dict):
        return "report is not a JSON object"
    tors = bs_torsion(n)
    problem = _first(
        None if data.get("n") == n else f"report is for n = {data.get('n')}, expected {n}",
        *(
            _group_problem(f"{side}.{deg}", data.get(side, {}).get(deg), 1, tors if deg == "k1" else [])
            for side in ("lhs", "rhs")
            for deg in ("k0", "k1")
        ),
    )
    if problem:
        return problem
    order_b = abs(n - 1)
    expected = [
        ("[pt]", "[1]", "inf", "inf", True),
        ("a", "[a]", "inf", "inf", True),
        ("b", "[b]", order_b, order_b, True),
    ]
    got = [
        (m.get("lhs"), m.get("rhs"), m.get("order_lhs"), m.get("order_rhs"), m.get("matched"))
        for m in data.get("matches", [])
    ]
    if got != expected:
        return f"generator matches {got}, expected {expected}"
    if data.get("verdict") is not True:
        return "verdict is not true"
    if data.get("trace_image") != "Z":
        return f"trace image {data.get('trace_image')!r}, expected 'Z'"
    return None


def check_bs_text(n: int, text: str) -> str | None:
    """The table that ``bsk bs n`` prints, or ``render_report`` of the report."""
    if not isinstance(text, str):
        return "rendered report is not text"
    k1 = "Z" + "".join(f" + Z/{t}" for t in bs_torsion(n))
    order_b = abs(n - 1)
    for needle in (
        f"two-sided K-computation for parameter n = {n}\n",
        f"classifying-space side:  K0 = Z, K1 = {k1}\n",
        f"group-algebra side:      K0 = Z, K1 = {k1}\n",
        f"order {order_b:>4} | {order_b:<4} ok",
        "verdict: ISOMORPHIC\n",
        "trace image on K0: Z\n",
    ):
        if needle not in text:
            return f"rendered report lacks {needle.strip()!r}"
    return None


def check_pv_json(n: int, data) -> str | None:
    """``bsk pv`` on the six-term input of the crossed product for n."""
    if not isinstance(data, dict):
        return "solution is not a JSON object"
    problem = _first(
        _group_problem("k0_crossed", data.get("k0_crossed"), 1, []),
        _group_problem("k1_crossed", data.get("k1_crossed"), 1, bs_torsion(n)),
    )
    if problem:
        return problem
    ledger = data.get("ledger", {})
    for symbol, order in (("[1]", "inf"), ("[a]", "inf"), ("[b]", abs(n - 1))):
        got = ledger.get(symbol, {}).get("order")
        if got != order:
            return f"ledger {symbol} has order {got!r}, expected {order!r}"
    return None


# ---------------------------------------------------------------------------
# one-relator presentations


def relator_homology(exponent_sums: list[int]) -> tuple[tuple[int, list[int]], int]:
    """((rank, torsion) of H1, rank of H2) for Z^m / <e> with e the exponent sums."""
    m = len(exponent_sums)
    g = math.gcd(*exponent_sums)
    if g == 0:
        return (m, []), 1
    return (m - 1, [g] if g > 1 else []), 0


def generator_order(exponent_sums: list[int], i: int) -> int | str:
    """Order of the i-th generator in Z^m / <e>: |e_i| if e is supported on i alone."""
    e = exponent_sums
    if e[i] != 0 and not any(x for j, x in enumerate(e) if j != i):
        return abs(e[i])
    return "inf"


def check_homology_json(exponent_sums: list[int], data) -> str | None:
    if not isinstance(data, dict):
        return "homology is not a JSON object"
    (r1, t1), r2 = relator_homology(exponent_sums)
    return _first(
        _group_problem("h0", data.get("h0"), 1, []),
        _group_problem("h1", data.get("h1"), r1, t1),
        _group_problem("h2", data.get("h2"), r2, []),
        None if data.get("basepoint") == "pt" else "basepoint is not 'pt'",
    )


def check_khom_json(generators: list[str], exponent_sums: list[int], data) -> str | None:
    if not isinstance(data, dict):
        return "K-homology is not a JSON object"
    (r1, t1), r2 = relator_homology(exponent_sums)
    problem = _first(
        _group_problem("k0", data.get("k0"), 1 + r2, []),
        _group_problem("k1", data.get("k1"), r1, t1),
    )
    if problem:
        return problem
    ledger = data.get("ledger", {})
    expected = {"[pt]": "inf"}
    expected.update({g: generator_order(exponent_sums, i) for i, g in enumerate(generators)})
    got = {symbol: ledger.get(symbol, {}).get("order") for symbol in expected}
    if got != expected or len(ledger) != len(expected):
        return f"ledger orders {got} (symbols {sorted(ledger)}), expected {expected}"
    return None


# ---------------------------------------------------------------------------
# Smith normal form


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev if n else 1


def _shape(m, rows: int, cols: int) -> bool:
    return (
        isinstance(m, list)
        and len(m) == rows
        and all(isinstance(row, list) and len(row) == cols for row in m)
        and all(type(x) is int for row in m for x in row)
    )


def check_snf(a: list[list[int]], s, u, v, diag) -> str | None:
    """Check a Smith form of the nonempty matrix ``a`` from first principles."""
    r, c = len(a), len(a[0])
    if not (_shape(s, r, c) and _shape(u, r, r) and _shape(v, c, c)):
        return "s, u or v has the wrong shape or non-integer entries"
    if matmul(matmul(u, a), v) != s:
        return "u @ a @ v != s"
    k = min(r, c)
    if any(s[i][j] for i in range(r) for j in range(c) if i != j):
        return "s is not diagonal"
    if list(diag) != [s[i][i] for i in range(k)]:
        return "diag does not match the diagonal of s"
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    nonzero = [d for d in diag if d]
    if list(diag[: len(nonzero)]) != nonzero:
        return "zeros precede nonzero diagonal entries"
    if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
        return f"diagonal {list(diag)} is not a divisibility chain"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "u or v is not unimodular"
    if r == c:
        d = det(a)
        if d and math.prod(diag) != abs(d):
            return f"product of the diagonal {math.prod(diag)} != |det a| = {abs(d)}"
    return None


def check_snf_json(a: list[list[int]], data) -> str | None:
    """A ``bsk --json snf`` payload."""
    if not isinstance(data, dict):
        return "Smith form is not a JSON object"
    return check_snf(a, data.get("s"), data.get("u"), data.get("v"), data.get("diag", []))


# ---------------------------------------------------------------------------
# solenoid duality checks


def check_pair_json(n: int, depth: int, seed: int, trials: int, data) -> str | None:
    if not isinstance(data, dict):
        return "pair summary is not a JSON object"
    echo = {k: data.get(k) for k in ("n", "depth", "seed", "trials")}
    if echo != {"n": n, "depth": depth, "seed": seed, "trials": trials}:
        return f"pair echoes {echo}"
    if data.get("failed") != 0:
        return f"pair reports failed: {data.get('failed')}"
    counts = [data.get(k) for k in ("passed", "failed", "skipped")]
    if not all(type(x) is int and x >= 0 for x in counts) or sum(counts) != trials:
        return f"pair counts {counts} do not add up to {trials} trials"
    return None
