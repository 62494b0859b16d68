import math

import pytest

from bs_ktheory import bc
from bs_ktheory.abelian import FgAbGroup, element_order
from bs_ktheory.bc import bc_compare, render_report, report_to_json, trace_image
from bs_ktheory.cli import main
from bs_ktheory.errors import DomainError, UnspecifiedTraceValue
from bs_ktheory.ledger import KClass, KClassLedger
from bs_ktheory.presentation import bs_presentation, classifying_space_k
from bs_ktheory.pv import PvSolution, SeqRecord, bs_input, pv_solve
from helpers import run_optimized

GRID = list(range(-12, 0)) + list(range(2, 13))


class TestCompare:
    def test_verdict_across_grid(self):
        for n in GRID:
            report = bc_compare(n)
            assert report.verdict, f"verdict failed for n={n}"
            expected_torsion = () if abs(n - 1) == 1 else (abs(n - 1),)
            for k0 in (report.lhs_k0, report.rhs_k0):
                assert (k0.free_rank, k0.torsion) == (1, ())
            for k1 in (report.lhs_k1, report.rhs_k1):
                assert (k1.free_rank, k1.torsion) == (1, expected_torsion)

    def test_match_lines_n5(self):
        report = bc_compare(5)
        by_symbol = {m.lhs_symbol: m for m in report.generator_matches}
        assert by_symbol["[pt]"].rhs_symbol == "[1]"
        assert by_symbol["[pt]"].order_lhs == math.inf
        assert by_symbol["a"].order_rhs == math.inf
        assert by_symbol["b"].order_lhs == 4 and by_symbol["b"].order_rhs == 4
        assert all(m.matched for m in report.generator_matches)

    def test_b_class_trivial_when_unit(self):
        report = bc_compare(2)
        by_symbol = {m.lhs_symbol: m for m in report.generator_matches}
        assert by_symbol["b"].order_lhs == 1 and by_symbol["b"].order_rhs == 1

    def test_klein_bottle(self):
        report = bc_compare(-1)
        assert report.verdict
        assert report.lhs_k1.torsion == (2,) and report.rhs_k1.torsion == (2,)

    def test_orders_computed_independently(self):
        # re-derive every order from its own side's group and vector; each
        # ledger must hold it, and the report must carry each side's own
        for n in GRID:
            report = bc_compare(n)
            lhs_k0, lhs_k1, lhs_ledger = classifying_space_k(bs_presentation(n))
            sol = pv_solve(bs_input(n))
            groups = {"k0": lhs_k0, "k1": lhs_k1, "crossed0": sol.k0_crossed, "crossed1": sol.k1_crossed}
            for ledger in (lhs_ledger, sol.ledger_out):
                for symbol, entry in ledger.items():
                    vec = entry.vector
                    expected = None if vec is None else element_order(groups[entry.location], vec)
                    assert entry.order == expected, (n, symbol)
            pairs = [(m.lhs_symbol, m.rhs_symbol) for m in report.generator_matches]
            assert pairs == [("[pt]", "[1]"), ("a", "[a]"), ("b", "[b]")]
            for m in report.generator_matches:
                lhs, rhs = lhs_ledger[m.lhs_symbol], sol.ledger_out[m.rhs_symbol]
                assert m.order_lhs == element_order(groups[lhs.location], lhs.vector), (n, m)
                assert m.order_rhs == element_order(groups[rhs.location], rhs.vector), (n, m)

    def test_parameter_past_the_digit_limit(self):
        # 1 - n has 4,301 digits, past the int-to-str limit; the solver formats
        # it once, for its note on a killed class, without that limit
        report = bc_compare(-(10**4300 - 1))
        assert report.verdict
        assert report.rhs_k1.torsion == (10**4300,)

    def test_domain(self):
        with pytest.raises(DomainError):
            bc_compare(0)
        with pytest.raises(DomainError):
            bc_compare(1)


def _extra_k1_torsion(k0, k1, ledger):
    k1 = FgAbGroup(k1.free_rank, (*k1.torsion, 4), (*k1.gen_names, "c"))  # Z + Z/4 + Z/4
    widened = {s: e._replace(vector=(*e.vector, 0)) for s, e in ledger.items() if e.location == "k1"}
    ledger = KClassLedger({**ledger, **widened})
    return k0, k1, ledger


def _doubled_b_order(k0, k1, ledger):
    b = ledger["b"]
    return k0, k1, ledger.with_entry("b", KClass(b.location, b.vector, 2 * b.order, b.note))


def _pt_not_generating(k0, k1, ledger):
    pt = ledger["[pt]"]
    return k0, k1, ledger.with_entry("[pt]", KClass(pt.location, (2,), pt.order, pt.note))


class TestNegativeControls:
    """One side of n = 5 patched so the two sides disagree: the verdict must
    say so, and ``bsk bs`` must exit 3 with the report printed."""

    @pytest.fixture(
        params=[(_extra_k1_torsion, set()), (_doubled_b_order, {"b"}), (_pt_not_generating, {"[pt]"})],
        ids=["extra-k1-torsion", "doubled-b-order", "pt-not-generating"],
    )
    def patched(self, request, monkeypatch):
        patch, failing = request.param
        real = bc.classifying_space_k
        monkeypatch.setattr(bc, "classifying_space_k", lambda pres: patch(*real(pres)))
        return failing

    def test_verdict_and_report(self, patched):
        report = bc_compare(5)
        assert report.verdict is False
        assert {m.lhs_symbol for m in report.generator_matches if not m.matched} == patched
        text = render_report(report)
        assert "verdict: MISMATCH" in text
        for line in text.splitlines():
            if "<->" in line:
                assert line.endswith("MISMATCH") == (line.split()[0] in patched), line
        assert report_to_json(report)["verdict"] is False

    def test_cli_exits_3_with_the_report(self, patched, capsys):
        code = main(["bs", "5"])
        out = capsys.readouterr().out
        assert code == 3
        assert out == render_report(bc_compare(5)) + "\n"
        assert "verdict: MISMATCH" in out


class TestTraceImage:
    def test_all_solved_parameters(self):
        for n in GRID:
            assert trace_image(pv_solve(bs_input(n))) == "Z"

    def test_unit_not_generating_is_refused(self):
        z2 = FgAbGroup.free(2, ("1‾", "g"))
        seq = SeqRecord(z2, z2, FgAbGroup.trivial(), True, "")
        fake = PvSolution(
            z2,
            FgAbGroup.trivial(),
            KClassLedger({"[1]": KClass("crossed0", (1, 0), math.inf)}),
            seq,
            seq,
        )
        with pytest.raises(UnspecifiedTraceValue):
            trace_image(fake)

    def test_unit_not_in_ledger_is_refused(self):
        z = FgAbGroup.free(1, ("b",))
        seq = SeqRecord(z, z, FgAbGroup.trivial(), True, "")
        fake = PvSolution(z, FgAbGroup.trivial(), KClassLedger({"[b]": KClass("crossed0", (1,), math.inf)}), seq, seq)
        with pytest.raises(UnspecifiedTraceValue, match='does not locate "\\[1\\]"'):
            trace_image(fake)

    def test_trivial_k0(self):
        trivial = FgAbGroup.trivial()
        seq = SeqRecord(trivial, trivial, trivial, True, "")
        fake = PvSolution(
            trivial,
            trivial,
            KClassLedger({"[1]": KClass("crossed0", (), 1)}),
            seq,
            seq,
        )
        assert trace_image(fake) == "0"


class TestReportOutput:
    def test_json_schema(self):
        data = report_to_json(bc_compare(5))
        assert set(data) == {"n", "lhs", "rhs", "matches", "verdict", "trace_image", "assumptions"}
        assert data["n"] == 5
        assert data["lhs"]["k1"]["torsion"] == [4]
        assert data["verdict"] is True
        assert data["trace_image"] == "Z"
        assert all(set(m) == {"lhs", "rhs", "order_lhs", "order_rhs", "matched"} for m in data["matches"])

    def test_table_renderer(self):
        text = render_report(bc_compare(5))
        assert "K1 = Z + Z/4" in text
        assert "verdict: ISOMORPHIC" in text
        assert "trace image on K0: Z" in text


def test_grid_under_optimized_mode():
    out = run_optimized(
        "from bs_ktheory.bc import bc_compare\n"
        f"for n in {GRID}:\n"
        "    r = bc_compare(n)\n"
        "    print(n, __debug__, r.verdict, r.lhs_k1, r.rhs_k1)\n"
    )
    k1 = {n: "Z" if abs(n - 1) == 1 else f"Z + Z/{abs(n - 1)}" for n in GRID}
    assert out == "".join(f"{n} False True {k1[n]} {k1[n]}\n" for n in GRID)
