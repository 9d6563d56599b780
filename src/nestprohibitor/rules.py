"""Catalog of named restriction rules with citations and typed verdicts.

Each rule maps a candidate (curve complex type, optional orientation
ledger, explicit hypothesis flags) to SATISFIED, VIOLATED with numeric
evidence, or INAPPLICABLE when its hypothesis fails.  Rules never infer
geometry on their own: hypotheses such as "triangle T_i holds only
exterior ovals" arrive as flags set by the caller.

Citations name entries of the axiom registry listed in the README; the
rules encode those statements, not their proofs.

Only this module shapes evidence: each shape has one pure predicate over
plain numbers that returns the exact, read-only `Evidence` or None.  They are
`_rm_violation`, `_identities_violation`, `_deficit_identity_violation`,
`_budget_violation`, `_unreachable_violation` (the four lemma10 shapes),
`_lambda0_violation`, `_triangle_violation`, `_exterior_zone_violation`,
`_separating_violation`, `_empty_triangles_violation`, `_jump_stage_violation`
and `_jump_violation`.  The rule adapters, the engine and `replay_violation`
call them; replay re-runs one on the inputs the evidence records.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Optional

from .ledger import OrientationLedger, lambda_deficit, lemma10_residuals, rm_residual
from .orevkov import e_values, f_value, g_value
from .schemes import (
    EMPTY_OVALS,
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    NestScheme,
    _checked,
    _parse_short_scheme,
    pi_delta,
)

SATISFIED = "satisfied"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"


class Evidence(dict):
    """A dict whose mutators raise TypeError, its sequences tuples; a copy
    is a plain dict.  One value is shared by everything that cites it."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("evidence is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = _read_only
    pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class Candidate(namedtuple(
    "Candidate",
    "curve_type ledger t0_only_exterior t_only_exterior triangles_empty exterior_triangle_pops",
    defaults=(None, None, None, (None, None, None), None, None),
)):
    """Everything a rule may look at; unset parts make rules inapplicable:
    a `CurveType`, an `OrientationLedger`, whether T0 and each of T1..T3
    hold only exterior ovals, whether T0..T3 are empty, and the exterior
    ovals in T0..T3."""

    __slots__ = ()


class RuleVerdict(_checked("RuleVerdict", "rule_id status evidence")):
    __slots__ = ()

    def __new__(cls, rule_id: str, status: str, evidence: Optional[Evidence] = None):
        if (status == VIOLATED) != (evidence is not None):
            raise ValueError("evidence must be present exactly when violated")
        return tuple.__new__(cls, (rule_id, status, evidence))


class Rule(namedtuple("Rule", "rule_id citation hypothesis statement check")):
    """A catalog entry: its id, citation, hypothesis and statement, and
    `check`, which maps a `Candidate` to its `RuleVerdict`."""

    __slots__ = ()

    def __call__(self, candidate: Candidate) -> RuleVerdict:
        return self.check(candidate)

    # a rule is its four texts: `check` takes no part in equality or hash
    def __eq__(self, other):
        return type(other) is Rule and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])


def _judged(rule_id: str, violation: Optional[Evidence]) -> RuleVerdict:
    """VIOLATED with the predicate's evidence, else the rule's SATISFIED."""
    return _SATISFIED[rule_id] if violation is None else RuleVerdict(rule_id, VIOLATED, violation)


# ---------------------------------------------------------------------------
# Individual rules


def _rm_violation(residual: int) -> Optional[Evidence]:
    return Evidence({"residual": residual}) if residual != 0 else None


def rule_rm(c: Candidate) -> RuleVerdict:
    if c.ledger is None:
        return _INAPPLICABLE["rm"]
    return _judged("rm", _rm_violation(rm_residual(c.ledger)))


def _identities_violation(residuals) -> Optional[Evidence]:
    """The five zone-contribution identities, as residuals."""
    return Evidence({"residuals": tuple(residuals)}) if any(residuals) else None


def _deficit_identity_violation(deficit_required: int, deficit_forced: int) -> Optional[Evidence]:
    """The deficit identity on a branch whose lambda values are all forced."""
    if deficit_required == deficit_forced:
        return None
    return Evidence({
        "reason": "the deficit identity fails outright",
        "deficit_required": deficit_required,
        "deficit_forced": deficit_forced,
    })


def _budget_violation(required_budget: int, budget: int, lam) -> Optional[Evidence]:
    """The identities' quadrangle values need more ovals than beta."""
    if required_budget <= budget:
        return None
    return Evidence({
        "reason": "oval budget cannot realize the identities",
        "required_budget": required_budget,
        "budget": budget,
        "lambda": tuple(lam),
    })


def _unreachable_violation(zone: int, required: int, reachable) -> Optional[Evidence]:
    """An identity forces a corner value that no chain branch reaches."""
    if required in reachable:
        return None
    return Evidence({
        "zone": f"T{zone}",
        "required": required,
        "reachable": tuple(reachable),
        "unreachable": True,
    })


def rule_lemma10(c: Candidate) -> RuleVerdict:
    if c.ledger is None:
        return _INAPPLICABLE["lemma10"]
    return _judged("lemma10", _identities_violation(lemma10_residuals(c.ledger)))


def _lambda0_violation(
    lambda0: int,
    all_separating: Optional[bool],
    epsilon_sum: Optional[int],
    emptiable_quads: Optional[tuple[int, ...]],
) -> Optional[Evidence]:
    """Core predicate shared by the live check and trace replay."""
    if abs(lambda0) > 3:
        return Evidence({"lambda0": lambda0, "tier": "lemma16"})
    if abs(lambda0) == 3:
        if all_separating is False:
            return Evidence({
                "lambda0": lambda0,
                "tier": "lemma16-refinement",
                "reason": "non-separating nest",
            })
        if epsilon_sum is not None and epsilon_sum != -2 * lambda0:
            return Evidence({
                "lambda0": lambda0,
                "tier": "lemma16-refinement",
                "reason": "epsilon sum",
                "epsilon_sum": epsilon_sum,
            })
        if emptiable_quads is not None and not emptiable_quads:
            return Evidence({
                "lambda0": lambda0,
                "tier": "lemma16-refinement",
                "reason": "no empty quadrangle",
            })
    return None


def rule_lambda0_bound(c: Candidate) -> RuleVerdict:
    curve_type, ledger, t0_only_exterior, _, _, _ = c
    if ledger is None or t0_only_exterior is not True:
        return _INAPPLICABLE["lambda0_bound"]
    lambda0 = ledger.lam[0]
    # The magnitude-3 refinements engage only when the candidate carries
    # separating/quadrangle information, i.e. a curve type, and
    # `_lambda0_violation` reads them only at |lambda_0| = 3.
    all_sep = eps_sum = emptiable = None
    if curve_type is not None and lambda0 in (3, -3):
        all_sep = all(ct.separating for ct in curve_type.nests)
        eps_sum = sum(ledger.eps)
        emptiable = tuple(q for q in (1, 2, 3) if ledger.zone_pop[q] == 0)
    return _judged("lambda0_bound", _lambda0_violation(lambda0, all_sep, eps_sum, emptiable))


def _triangle_violation(value: int, deficit: int, zone: int) -> Optional[Evidence]:
    if abs(value) > 3:
        return Evidence({"zone": f"T{zone}", "lambda": value})
    if value == -3:
        return Evidence(
            {"zone": f"T{zone}", "lambda": value, "reason": "+3 is forced at magnitude 3"}
        )
    if value == 3 and deficit != -2:
        return Evidence({"zone": f"T{zone}", "lambda": value, "deficit": deficit})
    return None


def rule_triangle_bound(c: Candidate) -> RuleVerdict:
    """Bound on each corner triangle flagged as holding only exterior ovals."""
    _, ledger, _, (f1, f2, f3), _, _ = c
    if ledger is None or not (f1 is True or f2 is True or f3 is True):
        return _INAPPLICABLE["triangle_bound"]
    _, _, _, _, lam4, lam5, lam6 = ledger.lam
    deficit = lambda_deficit(ledger)
    for flag, value, idx in ((f1, lam4, 1), (f2, lam5, 2), (f3, lam6, 3)):
        if flag is True:
            violation = _triangle_violation(value, deficit, idx)
            if violation:
                return _judged("triangle_bound", violation)
    return _SATISFIED["triangle_bound"]


def _exterior_zone_violation(zone: int, e_value: int, population: int) -> Optional[Evidence]:
    """Exterior ovals in triangle T_zone against a nonzero residual E_zone."""
    if population > 0 and e_value != 0:
        return Evidence({"zone": f"T{zone}", "e_value": e_value, "population": population})
    return None


def rule_exterior_zone(c: Candidate) -> RuleVerdict:
    if c.curve_type is None or c.exterior_triangle_pops is None:
        return _INAPPLICABLE["exterior_zone"]
    e = e_values(*c.curve_type.schemes)
    for z, pop in enumerate(c.exterior_triangle_pops):
        violation = _exterior_zone_violation(z, e[z], pop)
        if violation:
            return _judged("exterior_zone", violation)
    return _SATISFIED["exterior_zone"]


def _separating_violation(nest: int, f: int, g_sum: int) -> Optional[Evidence]:
    """F of separating nest `nest` (1-based) against G_j + G_k."""
    if f == g_sum:
        return None
    return Evidence({"nest": nest, "f": f, "g_sum": g_sum, "residual": f - g_sum})


def _separating_terms(ct: ComplexType) -> tuple[bool, Optional[int], int]:
    """(separating, F, G) of one nest; F is None for a non-separating nest."""
    separating = ct.separating
    return separating, f_value(ct) if separating else None, g_value(ct.scheme)


def _separating_inputs(terms) -> list[tuple[int, int, int]]:
    """The `_separating_violation` inputs (nest, F, G_j + G_k) of each
    separating nest, 1-based and in nest order, from the `_separating_terms`
    of the three nests."""
    (sep1, f1, g1), (sep2, f2, g2), (sep3, f3, g3) = terms
    inputs = ((sep1, (1, f1, g2 + g3)), (sep2, (2, f2, g1 + g3)), (sep3, (3, f3, g1 + g2)))
    return [args for separating, args in inputs if separating]


def rule_separating(c: Candidate) -> RuleVerdict:
    if c.curve_type is None:
        return _INAPPLICABLE["separating"]
    inputs = _separating_inputs(map(_separating_terms, c.curve_type.nests))
    if not inputs:
        return _INAPPLICABLE["separating"]
    for args in inputs:
        violation = _separating_violation(*args)
        if violation:
            return _judged("separating", violation)
    return _SATISFIED["separating"]


def _empty_triangles_violation(schemes: tuple[NestScheme, ...]) -> Optional[Evidence]:
    """Violated unless some nest labeling puts two schemes in
    {(+,-), (-,+)} and one in {(+,-,-), (-,+,+)}."""

    def small(s: NestScheme) -> bool:
        return abs(s.diff) == 1 and s.nu * s.diff == -1

    def big(s: NestScheme) -> bool:
        return abs(s.diff) == 2 and s.nu * s.diff == -2

    for a, b, c_ in itertools.permutations(schemes):
        if small(a) and small(b) and big(c_):
            return None
    return Evidence({"schemes": tuple(str(s) for s in schemes)})


def rule_empty_triangles(c: Candidate) -> RuleVerdict:
    if c.curve_type is None or c.triangles_empty is not True:
        return _INAPPLICABLE["empty_triangles"]
    return _judged("empty_triangles", _empty_triangles_violation(c.curve_type.schemes))


def jump_cases_open(pd: int, nu3: int, crossing: Optional[bool]) -> list[int]:
    """Trichotomy cases not ruled out by candidate-level data alone."""
    cases = []
    if pd == 4:
        cases.append(1)
    if pd == 3 and nu3 == PLUS and crossing is not False:
        cases.append(2)
    if pd == 3 and nu3 == MINUS and crossing is not True:
        cases.append(3)
    return cases


def _jump_stage_violation(pi_delta: int, nu3: int, crossing: Optional[bool]) -> Optional[Evidence]:
    """Stage tier: no case of the trichotomy is open on candidate data."""
    if jump_cases_open(pi_delta, nu3, crossing):
        return None
    return Evidence({
        "pi_delta": pi_delta,
        "nu3": nu3,
        "crossing": crossing,
        "reason": "every case requires Pi_delta in {3, 4} with matching sign data",
    })


def _jump_violation(
    pi_delta: int, open_cases: list[int], deficit: int, lambda045: int, lambda6: int
) -> Optional[Evidence]:
    """Numeric tier: some open case must hold on the lambda values."""
    if (
        (1 in open_cases and deficit == 0)
        or (2 in open_cases and lambda045 == -1)
        or (3 in open_cases and lambda6 == 1)
    ):
        return None
    return Evidence({
        "pi_delta": pi_delta,
        "open_cases": tuple(open_cases),
        "deficit": deficit,
        "lambda045": lambda045,
        "lambda6": lambda6,
    })


def rule_jump(c: Candidate) -> RuleVerdict:
    curve_type, ledger, _, _, _, _ = c
    if curve_type is None or curve_type.jump is None:
        return _INAPPLICABLE["jump"]
    schemes = curve_type.schemes
    pd = pi_delta(schemes)
    nu3 = schemes[2].nu
    crossing = curve_type.jump.crossing
    violation = _jump_stage_violation(pd, nu3, crossing)
    if violation is None and ledger is not None:
        lam0, _, _, _, lam4, lam5, lam6 = ledger.lam
        violation = _jump_violation(pd, jump_cases_open(pd, nu3, crossing),
                                    lambda_deficit(ledger), lam0 - lam4 - lam5, lam6)
    return _judged("jump", violation)


# ---------------------------------------------------------------------------
# Catalog

RULES: dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule(
            "rm",
            "Rokhlin-Mishachev formula",
            "complex orientations known",
            "2(Pi+ - Pi-) + (Lambda+ - Lambda-) = 8 in degree 9",
            rule_rm,
        ),
        Rule(
            "lemma10",
            "Lemma 10",
            "base ovals chosen",
            "the five zone-contribution identities hold",
            rule_lemma10,
        ),
        Rule(
            "lambda0_bound",
            "Lemma 16; Proposition 2",
            "T0 contains only exterior ovals",
            "|lambda_0| <= 3; at 3 all nests separate, epsilon sums to -+6 and "
            "a quadrangle is empty",
            rule_lambda0_bound,
        ),
        Rule(
            "triangle_bound",
            "Proposition 1",
            "T_i contains only exterior ovals",
            "|lambda_{i+3}| <= 3, and value 3 forces sign + and deficit -2",
            rule_triangle_bound,
        ),
        Rule(
            "exterior_zone",
            "Lemma 19",
            "an exterior oval sits in a triangle",
            "a populated triangle T_i forces E_i = 0",
            rule_exterior_zone,
        ),
        Rule(
            "separating",
            "Lemma 20",
            "some nest is separating",
            "F_i = G_j + G_k for every separating nest",
            rule_separating,
        ),
        Rule(
            "empty_triangles",
            "Lemma 21",
            "no ovals in T0..T3",
            "the nest schemes are {(+,-),(-,+)} twice plus {(+,-,-),(-,+,+)}",
            rule_empty_triangles,
        ),
        Rule(
            "jump",
            "Lemma 18; Lemma 7",
            "the curve has a jump",
            "one of: deficit 0 with Pi_delta 4; crossing with "
            "lambda_0-lambda_4-lambda_5 = -1, eps_3 = 1, Pi_delta 3; "
            "non-crossing with lambda_6 = 1, eps_3 = -1, Pi_delta 3",
            rule_jump,
        ),
    )
}

RULE_ORDER = tuple(RULES)

# The verdicts without evidence, one constant of each per rule.
_SATISFIED = {r: RuleVerdict(r, SATISFIED) for r in RULE_ORDER}
_INAPPLICABLE = {r: RuleVerdict(r, INAPPLICABLE) for r in RULE_ORDER}


def check_rule_ids(rule_ids) -> None:
    """Raise KeyError naming every id that is not in the catalog."""
    unknown = [r for r in rule_ids if r not in RULES]
    if unknown:
        raise KeyError(f"unknown rule ids: {unknown}")


def evaluate_all(candidate: Candidate, ablate: tuple[str, ...] = ()) -> dict[str, RuleVerdict]:
    check_rule_ids(ablate)
    return {rule_id: check(candidate) for rule_id, _, _, _, check in RULES.values()
            if rule_id not in ablate}


# ---------------------------------------------------------------------------
# Evidence replay (soundness hook for proof traces)


def _rederive(rule_id: str, e: dict) -> Optional[Evidence]:
    """The rule's predicate re-run on the inputs that the evidence records,
    each number taken as the int the engine writes; ValueError for a value
    outside the engine's domain."""

    def ints(key: str) -> list[int]:
        return [int(v) for v in e[key]]

    def optional(key: str) -> Optional[int]:
        return None if e.get(key) is None else int(e[key])

    def within(value: int, domain) -> int:
        if value not in domain:
            raise ValueError(f"{value} is outside {domain}")
        return value

    def zone(first: int) -> int:
        """The k of "Tk": corners 1..3, or any triangle 0..3."""
        return within(int(e["zone"][1:]), range(first, 4))

    if rule_id == "rm":
        return _rm_violation(int(e["residual"]))
    if rule_id == "lemma10":
        if "residuals" in e:
            return _identities_violation(ints("residuals"))
        if "deficit_required" in e:
            return _deficit_identity_violation(int(e["deficit_required"]), int(e["deficit_forced"]))
        if "required_budget" in e:
            # beta = 25 - sum(alpha) with every alpha_i >= 1, and seven lambdas
            budget = within(int(e["budget"]), range(EMPTY_OVALS - 2))
            lam = ints("lambda")
            if len(lam) != 7:
                raise ValueError(f"{len(lam)} lambda values, not 7")
            return _budget_violation(int(e["required_budget"]), budget, lam)
        return _unreachable_violation(zone(1), int(e["required"]), ints("reachable"))
    if rule_id == "lambda0_bound":
        reason = e.get("reason")
        return _lambda0_violation(
            int(e["lambda0"]),
            False if reason == "non-separating nest" else None,
            optional("epsilon_sum"),
            () if reason == "no empty quadrangle" else None,
        )
    if rule_id == "triangle_bound":
        return _triangle_violation(int(e["lambda"]), optional("deficit"), zone(1))
    if rule_id == "exterior_zone":
        return _exterior_zone_violation(zone(0), int(e["e_value"]), int(e["population"]))
    if rule_id == "separating":
        nest = within(int(e["nest"]), range(1, 4))
        return _separating_violation(nest, int(e["f"]), int(e["g_sum"]))
    if rule_id == "empty_triangles":
        if not all(type(s) is str for s in e["schemes"]):
            raise TypeError("a scheme is not a string")
        return _empty_triangles_violation(tuple(_parse_short_scheme(s) for s in e["schemes"]))
    # jump: |Pi_delta| <= 4, as |diff| <= 2 in the jumped nest and <= 1
    # elsewhere; the open cases, never none, are those of one sign of nu3
    pd = within(int(e["pi_delta"]), range(-4, 5))
    if "open_cases" not in e:
        crossing = e["crossing"]  # by identity: 0 == False
        if not any(crossing is v for v in (None, True, False)):
            raise ValueError(f"crossing {crossing!r} is not None, True or False")
        return _jump_stage_violation(pd, within(int(e["nu3"]), (PLUS, MINUS)), crossing)
    open_cases = ints("open_cases")
    if not open_cases or open_cases not in [jump_cases_open(pd, s, None) for s in (PLUS, MINUS)]:
        return None
    return _jump_violation(
        pd, open_cases, int(e["deficit"]), int(e["lambda045"]), int(e["lambda6"])
    )


def replay_violation(rule_id: str, evidence: dict) -> bool:
    """True when the rule's predicate, re-run on the inputs the evidence
    records, returns that evidence byte for byte as JSON, so that -8.0 for
    -8 or 1 for True does not pass; malformed evidence, or a value outside
    the engine's domain, is False."""
    import json  # replay only; the search does not pay for the import

    check_rule_ids([rule_id])
    if not isinstance(evidence, dict):
        return False
    try:
        return json.dumps(_rederive(rule_id, evidence)) == json.dumps(evidence)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return False
