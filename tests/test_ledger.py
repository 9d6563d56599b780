"""Orientation ledger: the degree formula, the five identities, JSON."""

import enum
import json
import random

import pytest

from nestprohibitor.ledger import (
    LedgerError,
    OrientationLedger,
    lambda_deficit,
    lemma10_residuals,
    rm_residual,
    rokhlin_mishachev_rhs,
)


def make_ledger(
    lam=(0,) * 7,
    eps=(1, 1, 1, -1, -1, -1),
    lambda_delta=None,
    pi_plus=0,
    pi_minus=0,
    zone_pop=None,
):
    if lambda_delta is None:
        lambda_delta = sum(lam) + sum(eps)
    if zone_pop is None:
        zone_pop = tuple(abs(v) for v in lam)
    return OrientationLedger(
        lam=tuple(lam),
        eps=tuple(eps),
        lambda_plus=(28 + lambda_delta) // 2,
        lambda_minus=(28 - lambda_delta) // 2,
        pi_plus=pi_plus,
        pi_minus=pi_minus,
        zone_pop=tuple(zone_pop),
    )


class TestDegreeFormula:
    # Hand-checked from L - 1 - k(k+1) with L = (m-1)(m-2)/2 + 1:
    #   m=3: k=1, L=2,  1 - 2  = -1
    #   m=5: k=2, L=7,  6 - 6  =  0
    #   m=9: k=4, L=29, 28 - 20 = 8
    @pytest.mark.parametrize("m,expected", [(3, -1), (5, 0), (7, 3), (9, 8)])
    def test_values(self, m, expected):
        assert rokhlin_mishachev_rhs(m) == expected

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            rokhlin_mishachev_rhs(8)


class TestRmResidual:
    def test_balanced_pairs(self):
        ledger = make_ledger(pi_plus=8, pi_minus=4)  # delta 4, lambda delta 0
        assert rm_residual(ledger) == 0

    def test_three_pairs_two_ovals(self):
        ledger = make_ledger(
            lam=(0, 1, 1, 0, 0, 0, 0),
            eps=(1, 1, 1, -1, -1, -1),
            pi_plus=5,
            pi_minus=2,
        )
        assert ledger.lambda_delta == 2 and ledger.pi_delta == 3
        assert rm_residual(ledger) == 0

    def test_zero_everything(self):
        ledger = make_ledger(pi_plus=3, pi_minus=3)
        assert rm_residual(ledger) == -8


class TestIdentities:
    def test_all_minus_epsilon_residuals(self):
        # direct substitution: each identity misses by its epsilon half-sum
        ledger = make_ledger(eps=(-1,) * 6, pi_plus=4, pi_minus=0)
        r = lemma10_residuals(ledger)
        assert r[:4] == (-2, -2, -2, -6)
        # fifth: deficit 0 vs -lambda_delta/2 = 3 and pi_delta - 4 = 0
        assert r[4] == 3

    def test_satisfying_ledger(self):
        ledger = make_ledger(pi_plus=4, pi_minus=0)  # eps (+++---), lam 0
        assert lemma10_residuals(ledger) == (0, 0, 0, 0, 0)

    def test_theorem_trace_shape_satisfies(self):
        # deficit -4 with balanced pairs and all-negative signs
        ledger = make_ledger(
            lam=(-4, 6, 6, 6, 0, 0, 0),
            eps=(-1,) * 6,
            pi_plus=3,
            pi_minus=3,
        )
        assert lambda_deficit(ledger) == -4
        assert lemma10_residuals(ledger) == (0, 0, 0, 0, 0)

    def test_identity4_is_sum_of_first_three(self):
        rng = random.Random(20250809)
        for _ in range(10_000):
            lam = tuple(rng.randint(-6, 6) for _ in range(7))
            eps = tuple(rng.choice((1, -1)) for _ in range(6))
            ledger = make_ledger(
                lam=lam,
                eps=eps,
                pi_plus=rng.randint(0, 12),
                pi_minus=rng.randint(0, 12),
                zone_pop=tuple(abs(v) for v in lam),
            )
            r = lemma10_residuals(ledger)
            assert r[3] == r[0] + r[1] + r[2]

    def test_deficit_bound_under_rm_and_small_pairs(self):
        # whenever the degree formula holds and pi_delta <= 4, the deficit
        # (equal to pi_delta - 4 by the fifth identity) is non-positive
        rng = random.Random(7)
        seen = 0
        for _ in range(5000):
            pd = rng.randint(-6, 4)
            lam0 = rng.randint(-4, 4)
            lam456 = tuple(rng.randint(-4, 4) for _ in range(3))
            deficit = lam0 - sum(lam456)
            if deficit != pd - 4:
                continue
            seen += 1
            assert deficit <= 0
        assert seen > 50


class TestDeficit:
    def test_zero(self):
        assert lambda_deficit(make_ledger()) == 0

    def test_corner_value_four(self):
        ledger = make_ledger(lam=(0, 0, 0, 0, 0, 0, 4))
        assert lambda_deficit(ledger) == -4

    def test_central_minus_four(self):
        ledger = make_ledger(lam=(-4, 0, 0, 0, 0, 0, 0))
        assert lambda_deficit(ledger) == -4


class TestValidation:
    def test_population_bound(self):
        ledger = make_ledger(lam=(2, 0, 0, 0, 0, 0, 0), zone_pop=(1, 0, 0, 0, 0, 0, 0))
        with pytest.raises(LedgerError):
            ledger.validate()

    def test_population_parity(self):
        ledger = make_ledger(lam=(1, 0, 0, 0, 0, 0, 0), zone_pop=(2, 0, 0, 0, 0, 0, 0))
        with pytest.raises(LedgerError):
            ledger.validate()

    def test_lambda_total_consistency(self):
        ledger = OrientationLedger(
            lam=(0,) * 7,
            eps=(1, 1, 1, -1, -1, -1),
            lambda_plus=15,
            lambda_minus=13,
            pi_plus=0,
            pi_minus=0,
            zone_pop=(0,) * 7,
        )
        with pytest.raises(LedgerError):
            ledger.validate()

    def test_pair_total(self):
        ledger = make_ledger(pi_plus=3, pi_minus=3)
        ledger.validate(total_pairs=6)
        with pytest.raises(LedgerError):
            ledger.validate(total_pairs=7)

    def test_parity_matches_population(self):
        ledger = make_ledger(
            lam=(1, -1, 0, 0, 2, 0, 0),
            zone_pop=(3, 1, 2, 0, 2, 0, 0),
            pi_plus=1,
            pi_minus=1,
        )
        ledger.validate()


# The keyword arguments of a ledger that validates.
GOOD = dict(
    lam=(0,) * 7,
    eps=(1, 1, 1, -1, -1, -1),
    lambda_plus=14,
    lambda_minus=14,
    pi_plus=0,
    pi_minus=0,
    zone_pop=(0,) * 7,
)


class _Count(enum.IntEnum):
    ONE = 1


class TestFieldTypes:
    # The constructor checks each field's type, so a ledger built in
    # Python meets the same rules as one read from JSON.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lambda_plus", 14.0, "field 'LambdaPlus' must be an integer"),
            ("pi_minus", False, "field 'PiMinus' must be an integer"),
            ("lam", [0] * 7, "field 'lambda' must be a list of integers"),
            ("zone_pop", (0.0,) * 7, "field 'zonePop' must be a list of integers"),
            ("eps", (True, 1, 1, -1, -1, -1), "field 'epsilon' must be a list of integers"),
        ],
        ids=["float-int", "bool-int", "list-sequence", "float-entries", "bool-entries"],
    )
    def test_wrong_type_is_refused(self, field, value, message):
        with pytest.raises(LedgerError, match=message):
            OrientationLedger(**{**GOOD, field: value})

    # Each refusal's whole message, pinned.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lam", (0,) * 6, "lambda and populations have 7 entries, epsilon 6"),
            ("eps", (1, 1, 1, -1, -1, -1, 1), "lambda and populations have 7 entries, epsilon 6"),
            ("eps", (1, 1, 1, -1, -1, 0), "epsilon entries are signs"),
            ("zone_pop", (0, 0, 0, True, 0, 0, 0),
             "field 'zonePop' must be a list of integers (a tuple here)"),
            ("lam", (0, 0, _Count.ONE, 0, 0, 0, 0),
             "field 'lambda' must be a list of integers (a tuple here)"),
            ("pi_plus", _Count.ONE, "field 'PiPlus' must be an integer"),
        ],
        ids=["lam-6", "eps-7", "eps-0", "bool-in-pop", "intenum-entry", "intenum-field"],
    )
    def test_exact_refusal(self, field, value, message):
        with pytest.raises(LedgerError) as refused:
            OrientationLedger(**{**GOOD, field: value})
        assert str(refused.value) == message


class TestValidationMessages:
    # The first failing check's whole message, pinned: zones in order, then
    # the totals.
    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(zone_pop=(0, 0, -2, 0, 0, 0, -1)), "zone Q2 population is negative"),
            (dict(lam=(0, 0, 0, 0, 0, 3, 0), zone_pop=(0, 0, 0, 0, 0, 1, 0), lambda_plus=15,
                  lambda_minus=13), "zone T2: |lambda|=3 exceeds population 1"),
            (dict(lam=(0, 0, 0, 0, 0, 0, 1), zone_pop=(0, 0, 0, 0, 0, 0, 2)),
             "zone T3: lambda/population parity mismatch"),
            (dict(lambda_plus=15), "Lambda+ + Lambda- must equal 28"),
            (dict(lambda_plus=15, lambda_minus=13),
             "Lambda+ - Lambda- must equal sum(lambda) + sum(epsilon)"),
            (dict(pi_plus=-1, pi_minus=1), "pair counts are non-negative"),
        ],
        ids=["negative", "exceeds", "parity", "lambda-total", "lambda-delta", "pairs"],
    )
    def test_exact_message(self, changes, message):
        with pytest.raises(LedgerError) as refused:
            OrientationLedger(**{**GOOD, **changes}).validate()
        assert str(refused.value) == message

    def test_pair_total_message(self):
        with pytest.raises(LedgerError) as refused:
            OrientationLedger(**{**GOOD, "pi_plus": 2}).validate(total_pairs=3)
        assert str(refused.value) == "Pi+ + Pi- must equal the nest-interior total 3"


class TestJson:
    def test_round_trip(self):
        ledger = make_ledger(lam=(-4, 6, 6, 6, 0, 0, 0), eps=(-1,) * 6, pi_plus=3, pi_minus=3)
        data = json.loads(json.dumps(ledger.to_json_dict()))
        assert OrientationLedger.from_json_dict(data) == ledger

    def test_field_names_fixed(self):
        data = make_ledger().to_json_dict()
        assert sorted(data) == [
            "LambdaMinus",
            "LambdaPlus",
            "PiMinus",
            "PiPlus",
            "epsilon",
            "lambda",
            "zonePop",
        ]
