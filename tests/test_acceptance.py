"""Acceptance gate: one test per criterion, each reporting a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the timings.
"""

import itertools
import random
import time

import pytest

from nestprohibitor.engine import (
    eliminate,
    jump_candidates,
    no_jump_candidates,
    prove_proposition2,
    prove_theorem1,
)
from nestprohibitor.figures import build_figure, figure19, figure21
from nestprohibitor.ledger import OrientationLedger, lemma10_residuals
from nestprohibitor.orevkov import f_value, g_value
from nestprohibitor.rules import (
    Candidate,
    RULES,
    VIOLATED,
    evaluate_all,
)
from nestprohibitor.schemes import (
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    NestScheme,
    RealScheme,
    enumerate_three_nest_schemes,
    format_real_scheme,
    parse_real_scheme,
)
from test_engine import FIG20_ROWS, SCHEME_2_2_20, balanced_type, figure20_candidate


def report(line):
    print(f"\nACCEPTANCE {line}")


class TestCriterion1Enumeration:
    def test_counts_exact(self):
        start = time.perf_counter()
        even = enumerate_three_nest_schemes(lambda s: s.all_even)
        beta1 = [s for s in even if s.beta == 1]
        rest = [s for s in even if s.beta != 1]
        elapsed = time.perf_counter() - start
        assert len(even) == 53
        assert len(beta1) == 12
        assert len(rest) == 41
        assert elapsed < 1.0
        report(f"1: PASS - enumeration counts 53/12/41 in {elapsed:.3f}s")


class TestCriterion2Tables:
    def test_tables_exact_and_derivable(self):
        start = time.perf_counter()
        sizes = {16: (10, 6), 17: (8, 2), 18: (4, 8), 19: (12, 4), 22: (3, 6)}
        for number, (rows, cols) in sizes.items():
            fig = build_figure(number)
            assert len(fig.rows) == rows
            assert all(len(r) == cols for r in fig.rows)
        # table 19 equals the two-sided computation entry-wise
        parse = {"-": NestScheme(MINUS, 1, 1), "+": NestScheme(PLUS, 1, 1)}
        for type_str, sj, sk, value in figure19().rows:
            nu = PLUS if type_str[1] == "+" else MINUS
            sep = ComplexType(NestScheme(nu, 1, 1), type_str[4])
            assert int(value) == f_value(sep) - g_value(parse[sj]) - g_value(parse[sk])
        # table 21 keeps the computed entry and annotates the printed one
        fig21 = figure21()
        discrepant = next(r for r in fig21.rows if r[4])
        assert discrepant[3] == "-4" and discrepant[4] == "printed=-2"
        assert fig21.annotations[
            "(+, +, (+, +))"
        ] == {"computed": -4, "printed": -2}
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(f"2: PASS - tables 16-22 regenerated from formulas in {elapsed:.3f}s")


class TestCriterion3Theorem1:
    def test_closure_with_cited_traces(self):
        start = time.perf_counter()
        report_t1 = prove_theorem1()
        elapsed = time.perf_counter() - start
        assert report_t1.all_excluded
        assert report_t1.excluded_count == 53
        assert elapsed < 60.0

        expected_rules = (
            ["empty_triangles"] * 2 + ["triangle_bound"] * 2 + ["lambda0_bound"] * 4
        )
        corner_values = set()
        for row, rule in zip(FIG20_ROWS, expected_rules):
            trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
            assert trace.outcome == "eliminated"
            assert trace.cited_rules == (rule,)
            for branch in trace.branches:
                for closure in branch.closures:
                    if rule == "triangle_bound":
                        corner_values.add(closure.evidence["lambda"])
                    if rule == "lambda0_bound":
                        assert closure.evidence["lambda0"] <= -4
        assert corner_values == {4, 5}
        report(f"3: PASS - theorem closure, 53/53 eliminated in {elapsed:.2f}s")


class TestCriterion4Proposition2:
    def test_closure_with_cited_branches(self):
        start = time.perf_counter()
        rep = prove_proposition2()
        elapsed = time.perf_counter() - start
        assert rep.all_closed
        assert elapsed < 10.0
        assert [row.e0 for row in rep.rows] == [0, 0, 0, -4, -5, -6]
        for row in rep.rows[3:]:
            assert {c.rule_id for c in row.closures} == {"exterior_zone"}
        for row in rep.rows[:2]:
            residuals = [
                c.evidence["residual"]
                for c in row.closures
                if c.rule_id == "separating"
            ]
            assert set(residuals) == {-1}
        assert rep.rows[2].closures  # the all-odd row closes arithmetically
        report(f"4: PASS - bound-3 analysis closed in {elapsed:.2f}s")


class TestCriterion5JumpExclusion:
    def test_parity_exclusion_and_witness(self):
        for scheme in enumerate_three_nest_schemes(lambda s: s.all_even):
            for candidate in jump_candidates(scheme):
                trace = eliminate(candidate, scheme)
                assert trace.outcome == "eliminated"
                assert trace.headline_rule == "jump"
                assert trace.stage_closures[0].evidence["pi_delta"] % 2 == 0
        # the trichotomy arithmetic is satisfiable away from the even family
        witness = None
        for scheme in (RealScheme((1, 2, 22), 0), RealScheme((1, 2, 2), 20)):
            for candidate in jump_candidates(scheme):
                ledger = eliminate(candidate, scheme).witness
                if ledger is not None:
                    witness = ledger
                    break
            if witness:
                break
        assert witness is not None
        assert witness.pi_delta in (3, 4)
        report("5: PASS - jump parity exclusion with an odd-nest witness")


def permute_ledger(ledger, perm):
    """Relabel nests: new slot i takes the data of old slot perm[i]."""
    lam = ledger.lam
    pop = ledger.zone_pop
    eps = ledger.eps
    new_lam = (
        (lam[0],)
        + tuple(lam[1 + perm[i]] for i in range(3))
        + tuple(lam[4 + perm[i]] for i in range(3))
    )
    new_pop = (
        (pop[0],)
        + tuple(pop[1 + perm[i]] for i in range(3))
        + tuple(pop[4 + perm[i]] for i in range(3))
    )
    new_eps = tuple(eps[perm[i]] for i in range(3)) + tuple(
        eps[3 + perm[i]] for i in range(3)
    )
    return OrientationLedger(
        new_lam,
        new_eps,
        ledger.lambda_plus,
        ledger.lambda_minus,
        ledger.pi_plus,
        ledger.pi_minus,
        new_pop,
    )


class TestCriterion6Properties:
    def test_a_identity4_additivity(self):
        rng = random.Random(16)
        for _ in range(10_000):
            lam = tuple(rng.randint(-6, 6) for _ in range(7))
            eps = tuple(rng.choice((1, -1)) for _ in range(6))
            delta = sum(lam) + sum(eps)
            ledger = OrientationLedger(
                lam,
                eps,
                (28 + delta) // 2,
                (28 - delta) // 2,
                rng.randint(0, 12),
                rng.randint(0, 12),
                tuple(abs(v) for v in lam),
            )
            r = lemma10_residuals(ledger)
            assert r[3] == r[0] + r[1] + r[2]
        report("6a: PASS - identity-4 additivity on 10^4 randomized ledgers")

    def test_b_round_trip_full_family(self):
        family = enumerate_three_nest_schemes()
        assert len(family) > 400
        for scheme in family:
            assert parse_real_scheme(format_real_scheme(scheme)) == scheme
        report(f"6b: PASS - parse/format round-trip on {len(family)} schemes")

    def test_c_permutation_invariance_of_verdicts(self):
        # An asymmetric ledger exercising both satisfied and violated rules:
        # statuses must agree under every simultaneous nest/zone relabeling.
        base = CurveType(
            (
                balanced_type(MINUS, 2, "d"),
                balanced_type(MINUS, 4, "n"),
                balanced_type(PLUS, 6, "n"),
            )
        )
        delta = sum((1, 2, -1, 0, 4, 0, -1)) + sum((-1, -1, 1, -1, 1, 1))
        ledger = OrientationLedger(
            lam=(1, 2, -1, 0, 4, 0, -1),
            eps=(-1, -1, 1, -1, 1, 1),
            lambda_plus=(28 + delta) // 2,
            lambda_minus=(28 - delta) // 2,
            pi_plus=6,
            pi_minus=6,
            zone_pop=(1, 2, 1, 0, 4, 0, 1),
        )
        t_pops = (1, 0, 2, 1)

        def verdicts_for(ct, led, pops):
            candidate = Candidate(
                curve_type=ct,
                ledger=led,
                t0_only_exterior=True,
                t_only_exterior=(True, True, True),
                triangles_empty=False,
                exterior_triangle_pops=pops,
            )
            return {rid: v.status for rid, v in evaluate_all(candidate).items()}

        base_verdicts = verdicts_for(base, ledger, t_pops)
        assert VIOLATED in base_verdicts.values()  # the case is non-trivial
        for perm in itertools.permutations(range(3)):
            permuted_ct = CurveType(tuple(base.nests[p] for p in perm))
            permuted_pops = (t_pops[0],) + tuple(t_pops[1 + perm[i]] for i in range(3))
            verdicts = verdicts_for(
                permuted_ct,
                permute_ledger(ledger, perm),
                permuted_pops,
            )
            assert verdicts == base_verdicts
        report("6c: PASS - verdicts invariant under all 6 nest relabelings")

    def test_d_ablation_monotonicity(self):
        scheme = RealScheme((1, 2, 22), 0)
        candidates = no_jump_candidates(scheme) + jump_candidates(scheme)
        survivors = {
            str(c) for c in candidates if eliminate(c, scheme).outcome == "survives"
        }
        assert survivors
        for rule_id in RULES:
            ablated = {
                str(c)
                for c in candidates
                if eliminate(c, scheme, ablate=(rule_id,)).outcome == "survives"
            }
            assert survivors <= ablated
        report("6d: PASS - single-rule ablations never eliminate a survivor")
