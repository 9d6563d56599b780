"""Rule catalog: verdicts on the documented cases, evidence discipline."""

import itertools
import json

import pytest

from nestprohibitor.orevkov import allowed_zones
from nestprohibitor.rules import (
    INAPPLICABLE,
    RULE_ORDER,
    RULES,
    SATISFIED,
    VIOLATED,
    Candidate,
    _lambda0_violation,
    _triangle_violation,
    evaluate_all,
    jump_cases_open,
    replay_violation,
    rule_empty_triangles,
    rule_exterior_zone,
    rule_jump,
    rule_lambda0_bound,
    rule_lemma10,
    rule_rm,
    rule_separating,
    rule_triangle_bound,
)
from nestprohibitor.schemes import (
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    Jump,
    NestScheme,
    RealScheme,
    pi_delta,
)

from test_ledger import make_ledger


def ns(nu, a_plus, a_minus):
    return NestScheme(nu, a_plus, a_minus)


def curve(*parts, jump=None):
    return CurveType(tuple(ComplexType(s, t) for s, t in parts), jump)


def with_ledger(ledger, **kwargs):
    return Candidate(ledger=ledger, **kwargs)


class TestRm:
    def test_balanced(self):
        v = rule_rm(with_ledger(make_ledger(pi_plus=8, pi_minus=4)))
        assert v.status == SATISFIED

    def test_three_two(self):
        ledger = make_ledger(lam=(0, 1, 1, 0, 0, 0, 0), pi_plus=5, pi_minus=2)
        assert rule_rm(with_ledger(ledger)).status == SATISFIED

    def test_zero(self):
        v = rule_rm(with_ledger(make_ledger(pi_plus=3, pi_minus=3)))
        assert v.status == VIOLATED
        assert v.evidence == {"residual": -8}

    def test_no_ledger(self):
        assert rule_rm(Candidate()).status == INAPPLICABLE


class TestLemma10:
    def test_consistent_ledger(self):
        ledger = make_ledger(pi_plus=4, pi_minus=0)
        assert rule_lemma10(with_ledger(ledger)).status == SATISFIED

    def test_all_zero_with_negative_signs(self):
        ledger = make_ledger(eps=(-1,) * 6, pi_plus=4, pi_minus=0)
        v = rule_lemma10(with_ledger(ledger))
        assert v.status == VIOLATED
        assert v.evidence["residuals"][:4] == (-2, -2, -2, -6)

    def test_deficit_minus_four_trace_ledger(self):
        ledger = make_ledger(
            lam=(-4, 6, 6, 6, 0, 0, 0), eps=(-1,) * 6, pi_plus=3, pi_minus=3
        )
        assert rule_lemma10(with_ledger(ledger)).status == SATISFIED


class TestLambda0Bound:
    def test_minus_four_violates_base_tier(self):
        ledger = make_ledger(lam=(-4, 0, 0, 0, 0, 0, 0))
        v = rule_lambda0_bound(with_ledger(ledger, t0_only_exterior=True))
        assert v.status == VIOLATED
        assert v.evidence["tier"] == "lemma16"

    def test_three_satisfies_the_bound(self):
        ledger = make_ledger(lam=(3, 0, 0, 0, 0, 0, 0))
        v = rule_lambda0_bound(with_ledger(ledger, t0_only_exterior=True))
        assert v.status == SATISFIED

    def test_zero_satisfied(self):
        ledger = make_ledger()
        v = rule_lambda0_bound(with_ledger(ledger, t0_only_exterior=True))
        assert v.status == SATISFIED

    def test_hypothesis_required(self):
        ledger = make_ledger(lam=(-4, 0, 0, 0, 0, 0, 0))
        assert rule_lambda0_bound(with_ledger(ledger)).status == INAPPLICABLE

    def test_refinement_kills_nonseparating_at_three(self):
        ledger = make_ledger(lam=(-3, 0, 0, 0, 0, 0, 0), eps=(1,) * 6, pi_plus=0, pi_minus=0)
        ct = curve((ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        v = rule_lambda0_bound(
            Candidate(curve_type=ct, ledger=ledger, t0_only_exterior=True)
        )
        assert v.status == VIOLATED
        assert v.evidence["reason"] == "non-separating nest"

    def test_refinement_checks_epsilon_sum(self):
        ledger = make_ledger(lam=(3, 0, 0, 0, 0, 0, 0), eps=(1,) * 6)
        ct = curve((ns(PLUS, 1, 1), "d"), (ns(PLUS, 1, 1), "d"), (ns(PLUS, 1, 1), "d"))
        v = rule_lambda0_bound(
            Candidate(curve_type=ct, ledger=ledger, t0_only_exterior=True)
        )
        assert v.status == VIOLATED
        assert v.evidence["reason"] == "epsilon sum"


class TestTriangleBound:
    def test_four_violates(self):
        ledger = make_ledger(lam=(0, 0, 0, 0, 0, 0, 4))
        v = rule_triangle_bound(
            with_ledger(ledger, t_only_exterior=(None, None, True))
        )
        assert v.status == VIOLATED
        assert v.evidence == {"zone": "T3", "lambda": 4}

    def test_three_with_deficit_minus_two_satisfied(self):
        ledger = make_ledger(lam=(1, 0, 0, 0, 0, 0, 3))
        assert ledger.lam[0] - ledger.lam[4] - ledger.lam[5] - ledger.lam[6] == -2
        v = rule_triangle_bound(
            with_ledger(ledger, t_only_exterior=(None, None, True))
        )
        assert v.status == SATISFIED

    def test_minus_three_violates(self):
        ledger = make_ledger(lam=(0, 0, 0, 0, 0, 0, -3))
        v = rule_triangle_bound(
            with_ledger(ledger, t_only_exterior=(None, None, True))
        )
        assert v.status == VIOLATED

    def test_hypothesis_off(self):
        ledger = make_ledger(lam=(0, 0, 0, 0, 0, 0, 4))
        assert rule_triangle_bound(with_ledger(ledger)).status == INAPPLICABLE


class TestBoundsReadOneValue:
    # The engine's net screen decides lambda0_bound from a memo keyed by
    # lambda_0 alone, and leaves |lambda_0| = 3 to the branch, which reads
    # the refinements' inputs; the first fact makes that exact.  The corner
    # memo is keyed by (value, deficit, zone), and the second fact says why
    # corner closures off the value 3 merge: their evidence holds no deficit.

    def test_lambda0_off_magnitude_3_reads_lambda0_alone(self):
        others = list(itertools.product(
            (None, True, False),
            (None, *range(-8, 9)),
            (None, (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)),
        ))
        for value in range(-10, 11):
            verdicts = {repr(_lambda0_violation(value, *rest)) for rest in others}
            assert (len(verdicts) == 1) == (abs(value) != 3), value

    def test_corner_off_3_reads_the_value_alone(self):
        for value, zone in itertools.product(range(-10, 11), (1, 2, 3)):
            verdicts = {repr(_triangle_violation(value, d, zone)) for d in (None, *range(-12, 13))}
            assert (len(verdicts) == 1) == (value != 3), (value, zone)


class TestExteriorZone:
    def test_zone_sets(self):
        ct = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        assert allowed_zones(*ct.schemes) == (3,)
        ct2 = curve((ns(MINUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        assert allowed_zones(*ct2.schemes) == ()
        ct3 = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        assert allowed_zones(*ct3.schemes) == (0,)

    def test_population_in_forbidden_zone(self):
        ct = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        v = rule_exterior_zone(
            Candidate(curve_type=ct, exterior_triangle_pops=(1, 0, 0, 0))
        )
        assert v.status == VIOLATED
        assert v.evidence["zone"] == "T0"

    def test_population_in_allowed_zone(self):
        ct = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        v = rule_exterior_zone(
            Candidate(curve_type=ct, exterior_triangle_pops=(0, 0, 0, 4))
        )
        assert v.status == SATISFIED


class TestSeparating:
    def test_up_with_negative_companions(self):
        ct = curve((ns(MINUS, 1, 1), "u"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        v = rule_separating(Candidate(curve_type=ct))
        assert v.status == VIOLATED
        assert v.evidence["residual"] == -1

    def test_down_with_negative_companions(self):
        ct = curve((ns(MINUS, 1, 1), "d"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        assert rule_separating(Candidate(curve_type=ct)).status == SATISFIED

    def test_no_separating_nest(self):
        ct = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        assert rule_separating(Candidate(curve_type=ct)).status == INAPPLICABLE


class TestEmptyTriangles:
    def test_balanced_all_even_violates(self):
        ct = curve((ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        v = rule_empty_triangles(Candidate(curve_type=ct, triangles_empty=True))
        assert v.status == VIOLATED

    def test_listed_triple_satisfies(self):
        ct = curve((ns(MINUS, 1, 0), "n"), (ns(MINUS, 1, 0), "n"), (ns(MINUS, 2, 0), "n"),
                   jump=Jump((1, 1, 1)))
        v = rule_empty_triangles(Candidate(curve_type=ct, triangles_empty=True))
        assert v.status == SATISFIED

    def test_listed_triple_in_any_order(self):
        # same schemes with the two small nests swapped
        ct = curve((ns(PLUS, 0, 1), "n"), (ns(MINUS, 1, 0), "n"), (ns(PLUS, 0, 2), "n"),
                   jump=Jump((1, 1, 1)))
        v = rule_empty_triangles(Candidate(curve_type=ct, triangles_empty=True))
        assert v.status == SATISFIED

    def test_populated_triangle_inapplicable(self):
        ct = curve((ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"), (ns(PLUS, 1, 1), "n"))
        v = rule_empty_triangles(Candidate(curve_type=ct, triangles_empty=False))
        assert v.status == INAPPLICABLE


class TestJump:
    def make_case2_candidate(self):
        # pair difference 3 with a positive jumped nest: case 2 stays open
        return curve(
            (ns(MINUS, 1, 0), "s"),
            (ns(MINUS, 2, 2), "n"),
            (ns(PLUS, 0, 2), "n"),
            jump=Jump((1, 1, 1), crossing=True),
        )

    def test_case2_candidate_open(self):
        ct = self.make_case2_candidate()
        v = rule_jump(Candidate(curve_type=ct))
        assert v.status == SATISFIED
        assert jump_cases_open(pi_delta(ct.schemes), ct.schemes[2].nu, ct.jump.crossing) == [2]

    def test_all_even_jump_violates(self):
        ct = curve(
            (ns(MINUS, 1, 1), "n"),
            (ns(MINUS, 1, 1), "n"),
            (ns(PLUS, 0, 2), "n"),
            jump=Jump((1, 1, 1)),
        )
        v = rule_jump(Candidate(curve_type=ct))
        assert v.status == VIOLATED
        assert v.evidence["pi_delta"] == 2

    def test_no_jump_inapplicable(self):
        ct = curve((ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        assert rule_jump(Candidate(curve_type=ct)).status == INAPPLICABLE

    def test_numeric_tier(self):
        ct = self.make_case2_candidate()
        good = make_ledger(
            lam=(-1, 0, 0, 0, 0, 0, 0), eps=(-1, -1, 1, -1, 1, 1),
            pi_plus=4, pi_minus=1,
        )
        assert rule_jump(Candidate(curve_type=ct, ledger=good)).status == SATISFIED
        bad = make_ledger(
            lam=(0, 0, 0, 0, 0, 0, 0), eps=(-1, -1, 1, -1, 1, 1),
            pi_plus=4, pi_minus=1,
        )
        assert rule_jump(Candidate(curve_type=ct, ledger=bad)).status == VIOLATED


class TestCatalog:
    def test_order_and_ids(self):
        assert RULE_ORDER == (
            "rm",
            "lemma10",
            "lambda0_bound",
            "triangle_bound",
            "exterior_zone",
            "separating",
            "empty_triangles",
            "jump",
        )
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.citation and rule.hypothesis and rule.statement

    def test_rule_equality_ignores_the_check(self):
        rule = RULES["rm"]
        other = rule._replace(check=RULES["jump"].check)
        assert rule == other and not rule != other and hash(rule) == hash(other)
        assert rule != rule._replace(statement="") and rule != tuple(rule)

    def test_evaluate_all_ablation(self):
        out = evaluate_all(Candidate(), ablate=("rm",))
        assert "rm" not in out and "lemma10" in out
        with pytest.raises(KeyError):
            evaluate_all(Candidate(), ablate=("bogus",))

    def test_determinism(self):
        ct = curve((ns(MINUS, 1, 1), "u"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"))
        c = Candidate(curve_type=ct)
        assert rule_separating(c) == rule_separating(c)

    def test_evidence_iff_violated(self):
        ledger = make_ledger(pi_plus=8, pi_minus=4)
        for verdict in evaluate_all(with_ledger(ledger)).values():
            assert (verdict.status == VIOLATED) == (verdict.evidence is not None)


class TestInformationMonotonicity:
    def test_enriching_a_violated_candidate_never_satisfies(self):
        # adding curve-type information to a failing ledger cannot flip
        # violated verdicts back to satisfied
        ledger = make_ledger(lam=(-4, 0, 0, 0, 0, 0, 0), pi_plus=3, pi_minus=3)
        bare = Candidate(ledger=ledger, t0_only_exterior=True)
        ct = curve(
            (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n"), (ns(MINUS, 1, 1), "n")
        )
        rich = Candidate(
            curve_type=ct,
            ledger=ledger,
            t0_only_exterior=True,
            t_only_exterior=(True, True, True),
            exterior_triangle_pops=(4, 0, 0, 0),
        )
        before = evaluate_all(bare)
        after = evaluate_all(rich)
        for rule_id, verdict in before.items():
            if verdict.status == VIOLATED:
                assert after[rule_id].status == VIOLATED


def _moved(evidence, **changes):
    return {**evidence, **changes}


_JUMP_STAGE = {
    "pi_delta": 2,
    "nu3": 1,
    "crossing": None,
    "reason": "every case requires Pi_delta in {3, 4} with matching sign data",
}
_JUMP_OPEN = {"pi_delta": 3, "open_cases": [2], "deficit": -1, "lambda045": 0, "lambda6": 1}
_JUMP_SHUT = _moved(_JUMP_OPEN, lambda6=0)  # no case holds, whichever is open
_REFINEMENT = {"lambda0": 3, "tier": "lemma16-refinement"}
_NON_SEPARATING = {**_REFINEMENT, "reason": "non-separating nest"}
_EPSILON_SUM = {**_REFINEMENT, "reason": "epsilon sum", "epsilon_sum": -4}
_NO_EMPTY_QUAD = {**_REFINEMENT, "reason": "no empty quadrangle"}
_TRIANGLE_DEFICIT = {"zone": "T2", "lambda": 3, "deficit": -3}
_TRIANGLE_REASON = {"zone": "T2", "lambda": -3, "reason": "+3 is forced at magnitude 3"}
_DEFICIT_IDENTITY = {
    "reason": "the deficit identity fails outright",
    "deficit_required": -2,
    "deficit_forced": 0,
}
_BUDGET = {
    "reason": "oval budget cannot realize the identities",
    "required_budget": 2,
    "budget": 0,
    "lambda": [0, -1, 0, 0, 0, 0, 1],
}
_UNREACHABLE = {"zone": "T3", "required": 1, "reachable": [0], "unreachable": True}
_EXTERIOR = {"zone": "T0", "e_value": -4, "population": 1}
_SEPARATING = {"nest": 1, "f": -1, "g_sum": 0, "residual": -1}

# Every evidence shape the engine emits: a recorded violation, and the same
# evidence with one number moved so that it no longer violates.
REPLAY_SHAPES = [
    pytest.param("jump", _JUMP_STAGE, _moved(_JUMP_STAGE, pi_delta=3), id="jump-stage"),
    pytest.param("jump", _JUMP_OPEN, _moved(_JUMP_OPEN, lambda045=-1), id="jump-open-cases"),
    pytest.param(
        "lambda0_bound",
        {"lambda0": -4, "tier": "lemma16"},
        {"lambda0": -3, "tier": "lemma16"},
        id="lambda0-lemma16",
    ),
    pytest.param(
        "lambda0_bound", _NON_SEPARATING, _moved(_NON_SEPARATING, lambda0=2),
        id="lambda0-non-separating",
    ),
    pytest.param(
        "lambda0_bound", _EPSILON_SUM, _moved(_EPSILON_SUM, epsilon_sum=-6),
        id="lambda0-epsilon-sum",
    ),
    pytest.param(
        "lambda0_bound", _NO_EMPTY_QUAD, _moved(_NO_EMPTY_QUAD, lambda0=2),
        id="lambda0-no-empty-quadrangle",
    ),
    pytest.param(
        "triangle_bound",
        {"zone": "T1", "lambda": 5},
        {"zone": "T1", "lambda": 2},
        id="triangle-plain",
    ),
    pytest.param(
        "triangle_bound", _TRIANGLE_DEFICIT, _moved(_TRIANGLE_DEFICIT, deficit=-2),
        id="triangle-deficit",
    ),
    pytest.param(
        "triangle_bound", _TRIANGLE_REASON, _moved(_TRIANGLE_REASON, **{"lambda": -2}),
        id="triangle-reason",
    ),
    pytest.param(
        "lemma10",
        {"residuals": [0, 0, 1, 0, 0]},
        {"residuals": [0, 0, 0, 0, 0]},
        id="lemma10-residuals",
    ),
    pytest.param(
        "lemma10", _DEFICIT_IDENTITY, _moved(_DEFICIT_IDENTITY, deficit_forced=-2),
        id="lemma10-deficit-required",
    ),
    pytest.param("lemma10", _BUDGET, _moved(_BUDGET, budget=2), id="lemma10-required-budget"),
    pytest.param(
        "lemma10", _UNREACHABLE, _moved(_UNREACHABLE, required=0), id="lemma10-unreachable"
    ),
    pytest.param("exterior_zone", _EXTERIOR, _moved(_EXTERIOR, e_value=0), id="exterior-zone"),
    pytest.param("separating", _SEPARATING, _moved(_SEPARATING, f=0), id="separating"),
    pytest.param(
        "empty_triangles",
        {"schemes": ["(+, -)", "(-, +)", "(-, +)"]},
        {"schemes": ["(+, -)", "(-, +)", "(-, +, +)"]},
        id="empty-triangles",
    ),
]

# Evidence that no rule produces, though a violation follows from its
# numbers: replay must re-derive the recorded evidence, not just some
# violation.
FORGERIES = [
    pytest.param("triangle_bound", {"zone": "T1", "lambda": 3}, id="triangle-no-deficit"),
    pytest.param("jump", _moved(_JUMP_OPEN, pi_delta=99), id="jump-pi-delta-99"),
    pytest.param("lambda0_bound", {"lambda0": 4, "tier": "prop2"}, id="lambda0-wrong-tier"),
    pytest.param("lemma10", {"required_budget": 3, "budget": 2}, id="lemma10-no-reason"),
    pytest.param("rm", {"residual": -8.0}, id="rm-float"),
    pytest.param("lemma10", _moved(_UNREACHABLE, unreachable=1), id="lemma10-unreachable-int"),
    pytest.param("lemma10", _moved(_UNREACHABLE, reachable=[0.0]), id="lemma10-reachable-float"),
    # values outside the engine's domains, which the predicates echo
    pytest.param("jump", _moved(_JUMP_STAGE, crossing=0), id="jump-crossing-zero"),
    pytest.param("jump", _moved(_JUMP_STAGE, crossing="x"), id="jump-crossing-string"),
    pytest.param("jump", _moved(_JUMP_STAGE, nu3=5), id="jump-nu3-5"),
    pytest.param("triangle_bound", {"zone": "T9", "lambda": 5}, id="triangle-zone-T9"),
    pytest.param("triangle_bound", {"zone": "T0", "lambda": 5}, id="triangle-zone-T0"),
    pytest.param("exterior_zone", _moved(_EXTERIOR, zone="T7"), id="exterior-zone-T7"),
    pytest.param("separating", _moved(_SEPARATING, nest=9), id="separating-nest-9"),
    pytest.param("lemma10", _moved(_UNREACHABLE, zone="T5"), id="lemma10-unreachable-T5"),
    pytest.param("jump", _moved(_JUMP_STAGE, pi_delta=99), id="jump-stage-pi-delta-99"),
    pytest.param("jump", _moved(_JUMP_OPEN, open_cases=[]), id="jump-no-open-case"),
    pytest.param("lemma10", _moved(_BUDGET, budget=-5), id="lemma10-negative-budget"),
    pytest.param("lemma10", _moved(_BUDGET, **{"lambda": [0]}), id="lemma10-one-lambda"),
    # at Pi_delta 3 the engine writes one open case, [2] or [3]
    pytest.param("jump", _moved(_JUMP_SHUT, open_cases=[2, 3]), id="jump-cases-2-3"),
    pytest.param("jump", _moved(_JUMP_SHUT, open_cases=[3, 2]), id="jump-cases-3-2"),
    pytest.param("jump", _moved(_JUMP_SHUT, open_cases=[2, 2]), id="jump-cases-2-2"),
]


class TestReplay:
    def test_replay_accepts_recorded_violations(self):
        samples = [
            ("rm", {"residual": -8}),
            ("lemma10", {"residuals": [-2, -2, -2, -6, 3]}),
            ("lambda0_bound", {"lambda0": -4, "tier": "lemma16"}),
            ("triangle_bound", {"zone": "T3", "lambda": 4}),
            ("separating", {"nest": 1, "f": -1, "g_sum": 0, "residual": -1}),
            ("empty_triangles", {"schemes": ["-", "-", "-"]}),
            ("jump", _JUMP_STAGE),
        ]
        for rule_id, evidence in samples:
            assert replay_violation(rule_id, evidence)

    def test_replay_rejects_non_violations(self):
        assert not replay_violation("rm", {"residual": 0})
        assert not replay_violation("lambda0_bound", {"lambda0": 2, "tier": "lemma16"})
        assert not replay_violation(
            "empty_triangles", {"schemes": ["(+, -)", "(-, +)", "(-, +, +)"]}
        )

    @pytest.mark.parametrize("rule_id, accepted, rejected", REPLAY_SHAPES)
    def test_every_evidence_shape(self, rule_id, accepted, rejected):
        assert replay_violation(rule_id, accepted)
        assert not replay_violation(rule_id, rejected)

    @pytest.mark.parametrize("rule_id, evidence", FORGERIES)
    def test_rejects_forged_evidence(self, rule_id, evidence):
        assert not replay_violation(rule_id, evidence)

    def test_rejects_malformed_evidence(self):
        assert not replay_violation("separating", {"nest": 1, "f": -1, "g_sum": 0})
        assert not replay_violation("separating", {**_SEPARATING, "extra": 0})
        assert not replay_violation("exterior_zone", _moved(_EXTERIOR, zone=0))
        assert not replay_violation("lemma10", {})
        assert not replay_violation("lambda0_bound", [1])
        assert not replay_violation("rm", json.loads('{"residual": Infinity}'))
        deep = []
        for _ in range(100_000):
            deep = [deep]
        assert not replay_violation("rm", {"residual": -8, "extra": deep})
        assert not replay_violation("empty_triangles", {"schemes": [None, 1, "(+, -)"]})

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            replay_violation("bogus", {})
