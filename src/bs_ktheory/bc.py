"""Two-pipeline comparison of assembly-map sides, with a verdict report.

The topological side is the K-homology of the presentation two-complex;
the analytic side is the crossed-product K-theory from the six-term
solver. The two are computed by disjoint pipelines and compared as
abstract groups together with the distinguished generators: the basepoint
class against the unit class, and each group generator against its
unitary class, all three by one rule on the orders each side's ledger
records: computed independently on each side, never copied across.
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import FgAbGroup, generates, group_to_json, is_isomorphic
from .errors import DomainError, UnspecifiedTraceValue
from .ledger import _order_text, order_to_json
from .presentation import bs_presentation, classifying_space_k
from .pv import PvSolution, bs_input, pv_solve

# Conclusions imported from the literature, not re-proved here: how the
# distinguished topological classes match the analytic ones.
MATCHING_ASSUMPTIONS = (
    "the basepoint class maps to the unit class in degree zero",
    "in degree one the assembly map restricts to g -> [unitary of g] on the abelianization",
)


class MatchLine(namedtuple("MatchLine", "lhs_symbol rhs_symbol order_lhs order_rhs matched")):
    __slots__ = ()

    lhs_symbol: str
    rhs_symbol: str
    order_lhs: int | float
    order_rhs: int | float
    matched: bool


class BcReport(
    namedtuple(
        "BcReport",
        "n lhs_k0 lhs_k1 rhs_k0 rhs_k1 generator_matches verdict trace_image assumptions",
        defaults=(MATCHING_ASSUMPTIONS,),
    )
):
    __slots__ = ()

    n: int
    lhs_k0: FgAbGroup
    lhs_k1: FgAbGroup
    rhs_k0: FgAbGroup
    rhs_k1: FgAbGroup
    generator_matches: tuple[MatchLine, ...]
    verdict: bool
    trace_image: str
    assumptions: tuple[str, ...]  # defaults to MATCHING_ASSUMPTIONS


def trace_image(solution: PvSolution) -> str:
    """Image of degree-zero K-theory under the canonical trace.

    The trace is declared only on the unit class ([1] -> 1); torsion dies
    in the reals. If the unit class does not generate modulo torsion, the
    trace value of some generator is genuinely unspecified and inventing
    one would be unsound, so this raises instead.
    """
    k0 = solution.k0_crossed
    unit = solution.ledger_out.get("[1]")
    if unit is None or unit.vector is None:
        raise UnspecifiedTraceValue('the ledger does not locate "[1]" in the solved K0')
    if k0.free_rank == 0:
        return "0"
    if k0.free_rank == 1 and abs(unit.vector[0]) == 1:
        return "Z"
    raise UnspecifiedTraceValue(
        "the unit class does not generate K0 modulo torsion; trace values of "
        "the remaining generators are unspecified"
    )


def bc_compare(n: int) -> BcReport:
    """Build both sides for the parameter n and match the generators.

    The verdict is true exactly when both degrees are abstractly isomorphic
    and every distinguished generator has the same order on both sides
    (with the degree-zero classes also generating)."""
    if n in (0, 1):
        raise DomainError("the comparison requires n not in {0, 1}")

    lhs_k0, lhs_k1, lhs_ledger = classifying_space_k(bs_presentation(n))
    solution = pv_solve(bs_input(n))
    rhs_k0, rhs_k1 = solution.k0_crossed, solution.k1_crossed
    rhs_ledger = solution.ledger_out

    matches = []
    for lhs_symbol, rhs_symbol in (("[pt]", "[1]"), ("a", "[a]"), ("b", "[b]")):
        lhs, rhs = lhs_ledger[lhs_symbol], rhs_ledger[rhs_symbol]
        # the degree-zero classes must also generate K0 on both sides
        matched = lhs.order == rhs.order and (
            lhs_symbol != "[pt]" or (generates(lhs_k0, lhs.vector) and generates(rhs_k0, rhs.vector))
        )
        matches.append(MatchLine(lhs_symbol, rhs_symbol, lhs.order, rhs.order, matched))

    verdict = (
        is_isomorphic(lhs_k0, rhs_k0)
        and is_isomorphic(lhs_k1, rhs_k1)
        and all(m.matched for m in matches)
    )
    return BcReport(n, lhs_k0, lhs_k1, rhs_k0, rhs_k1, tuple(matches), verdict, trace_image(solution))


# ---------------------------------------------------------------------------
# rendering


def report_to_json(report: BcReport) -> dict:
    return {
        "n": report.n,
        "lhs": {"k0": group_to_json(report.lhs_k0), "k1": group_to_json(report.lhs_k1)},
        "rhs": {"k0": group_to_json(report.rhs_k0), "k1": group_to_json(report.rhs_k1)},
        "matches": [
            {
                "lhs": m.lhs_symbol,
                "rhs": m.rhs_symbol,
                "order_lhs": order_to_json(m.order_lhs),
                "order_rhs": order_to_json(m.order_rhs),
                "matched": m.matched,
            }
            for m in report.generator_matches
        ],
        "verdict": report.verdict,
        "trace_image": report.trace_image,
        "assumptions": list(report.assumptions),
    }


def render_report(report: BcReport) -> str:
    lines = [
        f"two-sided K-computation for parameter n = {report.n}",
        f"  classifying-space side:  K0 = {report.lhs_k0}, K1 = {report.lhs_k1}",
        f"  group-algebra side:      K0 = {report.rhs_k0}, K1 = {report.rhs_k1}",
        "  generator matches:",
    ]
    for m in report.generator_matches:
        status = "ok" if m.matched else "MISMATCH"
        lines.append(
            f"    {m.lhs_symbol:5} <-> {m.rhs_symbol:5} "
            f"order {_order_text(m.order_lhs):>4} | {_order_text(m.order_rhs):<4} {status}"
        )
    lines.append(f"  verdict: {'ISOMORPHIC' if report.verdict else 'MISMATCH'}")
    lines.append(f"  trace image on K0: {report.trace_image}")
    lines.append("  imported matching assumptions:")
    for a in report.assumptions:
        lines.append(f"    - {a}")
    return "\n".join(lines)
