"""Elimination engine: candidate spaces, traces, theorem drivers."""

import copy
import gc
import hashlib
import itertools
import json
import weakref

import pytest

from nestprohibitor import engine
from nestprohibitor.engine import (
    EngineError,
    _jump_repartition,
    eliminate,
    jump_candidates,
    no_jump_candidates,
    prove_proposition2,
    prove_theorem1,
    _free_assignments,
)
from nestprohibitor.ledger import lambda_deficit
from nestprohibitor.orevkov import allowed_zones, e_values, f_value, g_value
from nestprohibitor.rules import (
    RULES,
    SATISFIED,
    VIOLATED,
    Candidate,
    Evidence,
    replay_violation,
    rule_jump,
    rule_separating,
)
from nestprohibitor.schemes import (
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    Jump,
    NestScheme,
    RealScheme,
    enumerate_nest_schemes,
    enumerate_three_nest_schemes,
    nest_complex_types,
    parse_real_scheme,
    pi_delta,
)


def ns(nu, a_plus, a_minus):
    return NestScheme(nu, a_plus, a_minus)


def balanced_type(nu, alpha, tag):
    return ComplexType(ns(nu, alpha // 2, alpha // 2), tag)


def figure20_candidate(row, scheme):
    """Instantiate a (sign, tag) row pattern on a concrete all-even scheme."""
    nests = tuple(
        balanced_type(nu, alpha, tag)
        for (nu, tag), alpha in zip(row, scheme.alpha)
    )
    return CurveType(nests)


FIG20_ROWS = (
    ((PLUS, "n"), (PLUS, "n"), (PLUS, "n")),
    ((MINUS, "n"), (PLUS, "n"), (PLUS, "n")),
    ((MINUS, "n"), (MINUS, "n"), (PLUS, "n")),
    ((MINUS, "n"), (MINUS, "n"), (PLUS, "d")),
    ((MINUS, "n"), (MINUS, "n"), (MINUS, "n")),
    ((MINUS, "d"), (MINUS, "n"), (MINUS, "n")),
    ((MINUS, "d"), (MINUS, "d"), (MINUS, "n")),
    ((MINUS, "d"), (MINUS, "d"), (MINUS, "d")),
)

SCHEME_2_2_20 = RealScheme((2, 2, 20), 1)


def candidates(scheme):
    """The candidate list every scheme's traces cover."""
    return no_jump_candidates(scheme) + jump_candidates(scheme)


def first_witness(scheme, pd, nu3=None):
    """The first surviving jump candidate with the given Pi_delta (and
    nu_3, unless None), with its witness ledger."""
    for candidate in jump_candidates(scheme):
        schemes = candidate.schemes
        if pi_delta(schemes) == pd and nu3 in (None, schemes[2].nu):
            ledger = eliminate(candidate, scheme).witness
            if ledger is not None:
                return candidate, ledger
    return None, None


def reference_fit(nests):
    """Reference of the enumerator's separating filter: each separating
    nest requires the G sum of the other two, 0 for a u/d tag, else F."""
    for i, ct in enumerate(nests):
        if not ct.separating:
            continue
        j, k = (x for x in range(3) if x != i)
        required = 0 if ct.tag in ("u", "d") else f_value(ct)
        if g_value(nests[j].scheme) + g_value(nests[k].scheme) != required:
            return False
    return True


def reference_no_jump_candidates(scheme):
    """Every triple of unjumped complex types that fits, sorted by text."""
    options = [nest_complex_types(a) for a in scheme.alpha]
    fitting = [CurveType(t) for t in itertools.product(*options) if reference_fit(t)]
    return sorted(fitting, key=str)


def reference_jump_candidates(scheme):
    """Every jumped nest tried in turn, the candidates deduplicated by text."""
    seen = {}
    for jumped in range(3):
        others = [x for x in range(3) if x != jumped]
        a_jump = scheme.alpha[jumped]
        if a_jump < 2:
            continue
        options = [nest_complex_types(scheme.alpha[o]) for o in others]
        for js in enumerate_nest_schemes(a_jump, jump_allowed=True):
            jumped_ct = ComplexType(js, "n")
            jump = _jump_repartition(a_jump, js.diff)
            for c1, c2 in itertools.product(*options):
                if reference_fit((c1, c2, jumped_ct)):
                    candidate = CurveType((c1, c2, jumped_ct), jump)
                    seen.setdefault(str(candidate), candidate)
    return [seen[k] for k in sorted(seen)]


def canonical_candidates():
    """Each of the 458 canonical schemes with its candidates, one at a time."""
    for scheme in enumerate_three_nest_schemes():
        yield scheme, candidates(scheme)


def reference_pi_delta(triple):
    """Positive minus negative injective pairs, counted: a pair joins a
    nest's non-empty oval with an oval inside it and is positive when the
    two signs differ."""
    positive = sum(s.a_minus if s.nu == PLUS else s.a_plus for s in triple)
    negative = sum(s.a_plus if s.nu == PLUS else s.a_minus for s in triple)
    return positive - negative


def reference_terms(s):
    """(pi, pi', N, M) of one nest: a positive non-empty oval has N = 1 and
    pi = a_minus - a_plus, a negative one M = 1 and pi' = a_plus - a_minus."""
    if s.nu == PLUS:
        return s.a_minus - s.a_plus, 0, 1, 0
    return 0, s.a_plus - s.a_minus, 0, 1


def reference_e_values(triple):
    """E_0..E_3 summed in full: pi - N over the nests, with nest i's
    pi' - M in its place when the exterior oval sits in T_i."""
    terms = [reference_terms(s) for s in triple]
    return tuple(
        sum(pp - m if i == zone else pi - n for i, (pi, pp, n, m) in enumerate(terms, 1))
        for zone in range(4)
    )


class TestCandidateEnumeration:
    def test_no_jump_count_for_all_even(self):
        assert len(no_jump_candidates(SCHEME_2_2_20)) == 40

    def test_all_even_rows_modulo_permutation(self):
        groups = {
            tuple(sorted(str(n) for n in c.nests))
            for c in no_jump_candidates(SCHEME_2_2_20)
        }
        down_rows = {
            tuple(
                sorted(
                    str(balanced_type(nu, 2, tag))
                    for nu, tag in row
                )
            )
            for row in FIG20_ROWS
        }
        assert down_rows <= groups
        # every extra group only swaps d-tags for u-tags
        for g in groups - down_rows:
            assert any("u)" in t for t in g)
            assert tuple(sorted(t.replace(", u)", ", d)") for t in g)) in down_rows

    def test_filtered_out_triples_violate_separating(self):
        options = nest_complex_types(2, jump_allowed=False)
        for triple in itertools.product(options, repeat=3):
            if reference_fit(triple):
                continue
            # the full rule must reject what the structural filter skipped
            verdict = rule_separating(Candidate(curve_type=CurveType(triple)))
            assert verdict.status == VIOLATED

    def test_jump_candidates_exist_for_all_even(self):
        assert len(jump_candidates(SCHEME_2_2_20)) > 0

    def test_parity_dead_jumps_are_stage_closed(self):
        # for an all-even scheme every jump candidate fails the parity
        # screen: its trace is one jump stage closure
        traces = [eliminate(c, SCHEME_2_2_20) for c in candidates(SCHEME_2_2_20)]
        no_jump = len(no_jump_candidates(SCHEME_2_2_20))
        assert no_jump == 40 and len(traces) > no_jump
        for trace in traces[no_jump:]:
            assert [c.rule_id for c in trace.stage_closures] == ["jump"]
            assert not trace.branches

    def test_open_jumps_reach_the_branches_for_odd_schemes(self):
        scheme = RealScheme((1, 2, 22), 0)
        assert any(
            not eliminate(c, scheme).stage_closures for c in jump_candidates(scheme)
        )

    def test_jump_candidates_equal_the_reference_on_repeated_sizes(self):
        # a jumped nest whose companion sizes were done is skipped; in the
        # stored nest order (2, 1, 2) nests 1 and 3 have the same size, but
        # their companion sizes, (1, 2) and (2, 1), differ
        schemes = [
            s for s in enumerate_three_nest_schemes() if len(set(s.alpha)) < 3
        ] + [RealScheme((2, 1, 2), 20)]
        for scheme in schemes:
            assert jump_candidates(scheme) == reference_jump_candidates(scheme), scheme

    def test_candidates_equal_the_reference(self):
        for scheme, found in canonical_candidates():
            expected = reference_no_jump_candidates(scheme) + reference_jump_candidates(scheme)
            assert found == expected, scheme
            assert [c.schemes for c in found] == [c.schemes for c in expected], scheme

    def test_enumerated_candidates_pass_the_public_check(self):
        # the enumerator builds each candidate with the public constructor,
        # so its check ran; rebuilding a candidate gives it back unchanged
        for scheme, found in canonical_candidates():
            for c in found:
                checked = CurveType(c.nests, c.jump)
                assert c == checked and str(c) == str(checked), (scheme, c)
                assert c.schemes == checked.schemes == tuple(n.scheme for n in c.nests)

    def test_per_nest_options_for_alpha_one(self):
        assert len(nest_complex_types(1)) == 8

    def test_fit_runs_once_per_companion_terms_and_jumped_g(self, monkeypatch):
        # the jumped nest is non-separating, so it enters the fit test only
        # through its G; a companion enters only through what its tag
        # requires and its G.  So the test runs at most once per such pair
        # of companion terms and distinct jumped G, not per jumped scheme.
        def terms(ct):
            required = (0 if ct.tag in ("u", "d") else f_value(ct)) if ct.separating else None
            return required, g_value(ct.scheme)

        calls = []
        fit = engine._structural_fit
        monkeypatch.setattr(engine, "_structural_fit", lambda t: calls.append(t) or fit(t))
        for scheme in enumerate_three_nest_schemes(lambda s: s.all_even):
            calls.clear()
            assert jump_candidates(scheme)
            per_g = per_scheme = 0
            for companions, a_jump in {
                (scheme.alpha[:x] + scheme.alpha[x + 1:], a) for x, a in enumerate(scheme.alpha)
            }:
                pairs = 1
                for a in companions:
                    pairs *= len({terms(ct) for ct in nest_complex_types(a)})
                jumped = enumerate_nest_schemes(a_jump, jump_allowed=True)
                per_g += pairs * len({g_value(js) for js in jumped})
                per_scheme += pairs * len(jumped)
            assert 0 < len(calls) <= per_g < per_scheme, scheme


class TestFieldReaders:
    def test_triples_equal_the_reference(self):
        # every nest-scheme triple of the candidates of the 458 canonical
        # schemes, in the order of its candidate's nests
        triples = {c.schemes for _, found in canonical_candidates() for c in found}
        for triple in triples:
            expected = reference_e_values(triple)
            assert e_values(*triple) == expected, triple
            assert allowed_zones(*triple) == tuple(z for z in range(4) if expected[z] == 0)
            assert pi_delta(triple) == reference_pi_delta(triple), triple


class TestEliminateFigure20:
    @pytest.mark.parametrize("row", FIG20_ROWS[:2], ids=("row1", "row2"))
    def test_first_two_rows_cite_the_empty_triangle_list(self, row):
        trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
        assert trace.outcome == "eliminated"
        assert trace.headline_rule == "empty_triangles"

    @pytest.mark.parametrize("row", FIG20_ROWS[2:4], ids=("row3", "row4"))
    def test_corner_rows_cite_the_corner_bound(self, row):
        trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
        assert trace.outcome == "eliminated"
        values = {
            c.evidence["lambda"]
            for b in trace.branches
            for c in b.closures
            if c.rule_id == "triangle_bound"
        }
        assert trace.cited_rules == ("triangle_bound",)
        assert values <= {4, 5} and 4 in values

    def test_row4_realizes_both_corner_values(self):
        trace = eliminate(figure20_candidate(FIG20_ROWS[3], SCHEME_2_2_20), SCHEME_2_2_20)
        values = {
            c.evidence["lambda"]
            for b in trace.branches
            for c in b.closures
            if c.rule_id == "triangle_bound"
        }
        assert values == {4, 5}

    @pytest.mark.parametrize("row", FIG20_ROWS[4:], ids=("row5", "row6", "row7", "row8"))
    def test_last_four_rows_cite_the_central_bound(self, row):
        trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
        assert trace.outcome == "eliminated"
        assert trace.cited_rules == ("lambda0_bound",)
        values = [
            c.evidence["lambda0"]
            for b in trace.branches
            for c in b.closures
        ]
        assert values and all(v <= -4 for v in values)

    def test_zone_column_matches_reference_table(self):
        expected = [(), (), (3,), (3,), (0,), (0,), (0,), (0,)]
        for row, zones in zip(FIG20_ROWS, expected):
            trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
            assert trace.zones_allowed == zones

    def test_up_variants_cite_the_separating_rule(self):
        up = CurveType(
            (
                balanced_type(MINUS, 2, "u"),
                balanced_type(MINUS, 2, "n"),
                balanced_type(MINUS, 20, "n"),
            )
        )
        trace = eliminate(up, SCHEME_2_2_20)
        assert trace.outcome == "eliminated"
        assert trace.headline_rule == "separating"
        assert trace.stage_closures[0].evidence["residual"] == -1


class TestJumpExclusion:
    def test_every_all_even_jump_candidate_dies_by_the_trichotomy(self):
        for scheme in (SCHEME_2_2_20, RealScheme((2, 2, 2), 19), RealScheme((2, 4, 6), 13)):
            for candidate in jump_candidates(scheme):
                trace = eliminate(candidate, scheme)
                assert trace.outcome == "eliminated"
                assert trace.headline_rule == "jump"
                assert trace.stage_closures[0].evidence["pi_delta"] in (-2, 0, 2)

    def test_case2_witness_exists_on_an_odd_scheme(self):
        # Pi_delta 3 with nu_3 = + leaves only the crossing case open
        candidate, ledger = first_witness(RealScheme((1, 2, 2), 20), 3, PLUS)
        assert ledger is not None
        assert ledger.pi_delta == 3
        assert ledger.lam[0] - ledger.lam[4] - ledger.lam[5] == -1
        assert rule_jump(Candidate(curve_type=candidate, ledger=ledger)).status == SATISFIED

    def test_case3_witness_exists_on_the_sanity_scheme(self):
        # Pi_delta 3 with nu_3 = - leaves only the non-crossing case open
        _, ledger = first_witness(RealScheme((1, 2, 22), 0), 3, MINUS)
        assert ledger is not None, "no non-crossing witness found"
        assert ledger.pi_delta == 3
        assert ledger.lam[6] == 1


class TestSanitySurvivor:
    def test_odd_scheme_has_a_surviving_candidate(self):
        scheme = RealScheme((1, 2, 22), 0)
        survivors = [
            t
            for t in (eliminate(c, scheme) for c in candidates(scheme))
            if t.outcome == "survives"
        ]
        assert survivors
        for trace in survivors:
            trace.witness.validate(total_pairs=25)


class TestSatisfiability:
    def test_contradictory_forced_central_value(self):
        # the all-negative row forces lambda_0 = -4 on every net
        candidate = figure20_candidate(FIG20_ROWS[4], SCHEME_2_2_20)
        trace = eliminate(candidate, SCHEME_2_2_20)
        assert trace.outcome == "eliminated"
        closures = [c for b in trace.branches for c in b.closures]
        assert len(closures) == 64
        for closure in closures:
            assert closure.rule_id == "lambda0_bound"
            assert closure.evidence["lambda0"] == -4

    def test_case1_witness_exists(self):
        # Pi_delta 4 leaves only the deficit-0 case open
        _, ledger = first_witness(RealScheme((1, 1, 22), 1), 4)
        assert ledger is not None
        assert ledger.pi_delta == 4
        assert lambda_deficit(ledger) == 0

    def test_scheme_without_25_empty_ovals_is_refused(self):
        scheme = parse_real_scheme("<J + 1<2> + 1<2> + 1<2> + 1>", strict=False)
        with pytest.raises(EngineError):
            prove_theorem1(schemes=[scheme])

    def test_population_over_25_fails_the_oval_count(self):
        scheme = parse_real_scheme("<J + 1<1> + 1<1> + 1<1> + 26>", strict=False)
        with pytest.raises(EngineError, match="the scheme does not have 25 empty ovals"):
            prove_theorem1(schemes=[scheme])

    def test_candidate_of_another_scheme_is_refused(self):
        with pytest.raises(EngineError, match="candidate nests do not match the scheme"):
            eliminate(
                figure20_candidate(FIG20_ROWS[4], SCHEME_2_2_20),
                RealScheme((1, 1, 1), 22),
            )


def _chain_model(ct, jumped):
    """Reference: the chain branches of the interior-chain model in the
    engine's docstring, as rows (label, share of lambda_0, share of the
    corner, nu + base sign, nets into the low and high quadrangle, interior
    ovals parked in the T0 sector and in the corner sector).

    A nest has alpha - 1 interior ovals beside its base.  A separating even
    nest straddles T0 with a central run of k = 1 or 2 of them, the rest in
    its corner: the odd run adds sigma to lambda_0 under base sign -sigma,
    the even run -sigma to the corner under base sign +sigma.  A separating
    odd nest parks its chain in the corner, its base carrying the imbalance
    sign.  A non-separating chain splits the imbalance left by its base
    between its two quadrangles, one net oval at most each, and a jumped one
    also puts at most one net oval in T0 and one in its corner."""
    s = ct.scheme
    inner = s.alpha - 1
    if ct.tag in ("u", "d"):
        sigma = ct.sigma
        runs = (("straddle-odd", 1, (sigma, 0), -sigma), ("straddle-even", 2, (0, -sigma), sigma))
        return [(label, *shares, s.nu + base, 0, 0, k, inner - k)
                for label, k, shares, base in runs if k <= inner]
    if ct.tag == "s":
        return [("chain", 0, 0, s.nu + s.mu, 0, 0, 0, inner)]
    signs = [sign for sign, count in ((PLUS, s.a_plus), (MINUS, s.a_minus)) if count]
    one = (-1, 0, 1)
    loose = one if jumped else (0,)
    rows = []
    for base, t0, t, w_low, w_high in itertools.product(signs, loose, loose, one, one):
        nets = (t0, t, w_low, w_high)
        if sum(nets) != s.diff - base or sum(map(abs, nets)) > inner:
            continue
        label = f"eps={base:+d},w=({w_low:+d},{w_high:+d})"
        if jumped:
            label = f"jump,{label},t0={t0:+d},t={t:+d}"
        rows.append((label, t0, t, s.nu + base, w_low, w_high, abs(t0), abs(t)))
    return rows


class TestNestBranches:
    @pytest.mark.parametrize("alpha", range(1, 10))
    def test_rows_follow_the_chain_model(self, alpha):
        tags = set()
        for ct in nest_complex_types(alpha, jump_allowed=True):
            for jumped in (False, True):
                rows = engine.nest_branches(ct, jumped)
                assert type(rows) is tuple and list(rows) == _chain_model(ct, jumped), (ct, jumped)
            tags.add(ct.tag)
        assert tags == ({"n", "u", "d"} if alpha % 2 == 0 else {"n", "s"})


def _eager_free_assignments(free, budget, deficit_rhs):
    """Reference: build the whole net product, sort it by (total, values)."""

    def coeff(z):
        return 1 if z == 0 else -1

    if not free:
        if deficit_rhs is None or deficit_rhs == 0:
            yield ()
        return
    rest, last = free[:-1], free[-1]
    combos = []
    for values in itertools.product(*(range(-budget, budget + 1) for _ in rest)):
        used = sum(abs(v) for v in values)
        if used > budget:
            continue
        if deficit_rhs is None:
            for v_last in range(-(budget - used), budget - used + 1):
                combos.append((used + abs(v_last), values + (v_last,)))
        else:
            v_last = (deficit_rhs - sum(coeff(z) * v for z, v in zip(rest, values))) * coeff(last)
            combos.append((used + abs(v_last), values + (v_last,)))
    combos.sort(key=lambda item: (item[0], item[1]))
    for _, values in combos:
        yield values


def _record(free, values):
    """The record (x0, x1, x2, x3, ovals) of a net aligned with `free`."""
    by_zone = dict(zip(free, values))
    return (*(by_zone.get(z, 0) for z in range(4)), sum(map(abs, values)))


class TestFreeAssignments:
    # The engine passes sorted zone tuples; the reversed ones put zone 0,
    # the only zone with deficit coefficient +1, in the solved last place.
    FREE = sorted(
        {
            order
            for k in range(5)
            for zones in itertools.combinations((0, 1, 2, 3), k)
            for order in (zones, zones[::-1])
        }
    )

    @pytest.mark.parametrize("free", FREE, ids=str)
    def test_lazy_order_equals_the_eager_sort(self, free):
        for budget in range(7):
            for deficit_rhs in (None, *range(-8, 9)):
                key = (free, budget, deficit_rhs)
                eager = [_record(free, v) for v in _eager_free_assignments(*key)]
                assert list(_free_assignments(*key)) == eager, key

    def test_first_net_at_a_large_budget(self):
        free = (0, 1, 2, 3)
        first = list(itertools.islice(_free_assignments(free, 25, 1), 1))
        assert first == [_record(free, next(_eager_free_assignments(free, 25, 1)))]


def assert_replays(closure):
    """The closure's evidence is a read-only `Evidence` that holds no list,
    and it replays both as it is and from its JSON text."""
    evidence = closure.evidence
    assert type(evidence) is Evidence, closure
    assert not any(type(v) is list for v in evidence.values()), closure
    assert replay_violation(closure.rule_id, evidence), closure
    assert replay_violation(closure.rule_id, json.loads(json.dumps(evidence))), closure


# Every mutator of a dict, with arguments.
DICT_EDITS = (
    ("__setitem__", "zone", 9),
    ("__delitem__", "zone"),
    ("__ior__", {}),
    ("clear",),
    ("pop", "zone"),
    ("popitem",),
    ("setdefault", "zone"),
    ("update", {}),
)


class TestTraceProperties:
    def test_determinism(self):
        candidate = figure20_candidate(FIG20_ROWS[3], SCHEME_2_2_20)
        a = eliminate(candidate, SCHEME_2_2_20).to_json_dict()
        b = eliminate(candidate, SCHEME_2_2_20).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize(
        "row, rule_id", [(FIG20_ROWS[0], "empty_triangles"), (FIG20_ROWS[2], "triangle_bound")]
    )
    def test_json_evidence_is_shared_and_read_only(self, row, rule_id):
        trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
        expected = json.dumps(trace.to_json_dict())
        data = trace.to_json_dict()
        branch = data["branches"][0]
        closure = branch["closures"][0]
        assert closure["rule"] == rule_id
        # the evidence is the closure's own value, which refuses every edit
        assert closure["evidence"] is trace.branches[0].closures[0].evidence
        for name, *args in DICT_EDITS:
            with pytest.raises(TypeError):
                getattr(closure["evidence"], name)(*args)
        # the dicts around it are fresh
        closure["count"] += 1
        closure["rule"] = "lemma99"
        branch["solutionsChecked"] += 1
        branch["closures"].append(closure)
        data["branches"].clear()
        assert json.dumps(trace.to_json_dict()) == expected
        # a deep copy is a plain dict that may be edited
        copied = copy.deepcopy(trace.to_json_dict())
        assert json.dumps(copied) == expected
        evidence = copied["branches"][0]["closures"][0]["evidence"]
        assert type(evidence) is dict
        evidence["zone"] = 9
        evidence.clear()
        assert json.dumps(trace.to_json_dict()) == expected

    def test_soundness_replay(self):
        for row in FIG20_ROWS:
            trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
            closures = list(trace.stage_closures)
            for branch in trace.branches:
                closures.extend(branch.closures)
            assert closures
            for closure in closures:
                assert_replays(closure)

    def test_permutation_invariance_of_outcomes(self):
        scheme = RealScheme((2, 4, 6), 13)
        patterns = [FIG20_ROWS[3], FIG20_ROWS[6], FIG20_ROWS[1]]
        for row in patterns:
            outcomes = set()
            for perm in itertools.permutations(range(3)):
                permuted_scheme = RealScheme(
                    tuple(scheme.alpha[p] for p in perm), scheme.beta
                )
                nests = tuple(
                    balanced_type(row[p][0], permuted_scheme.alpha[i], row[p][1])
                    for i, p in enumerate(perm)
                )
                trace = eliminate(CurveType(nests), permuted_scheme)
                outcomes.add(trace.outcome)
            assert outcomes == {"eliminated"}

    def test_survivor_permutation_invariance(self):
        scheme = RealScheme((1, 2, 22), 0)
        base_survivors = sum(
            1
            for c in candidates(scheme)
            if eliminate(c, scheme).outcome == "survives"
        )
        permuted = RealScheme((2, 1, 22), 0)
        permuted_survivors = sum(
            1
            for c in candidates(permuted)
            if eliminate(c, permuted).outcome == "survives"
        )
        assert (base_survivors > 0) == (permuted_survivors > 0)


class TestAblation:
    def test_dropping_the_central_bound_revives_the_all_negative_row(self):
        scheme = RealScheme((2, 2, 2), 19)
        candidate = figure20_candidate(FIG20_ROWS[4], scheme)
        assert eliminate(candidate, scheme).outcome == "eliminated"
        trace = eliminate(candidate, scheme, ablate=("lambda0_bound",))
        assert trace.outcome == "survives"
        trace.witness.validate(total_pairs=6)
        assert trace.witness.lam[0] == -4

    @pytest.mark.parametrize("rule_id", list(RULES))
    def test_monotone_in_every_single_rule(self, rule_id):
        # dropping one rule never converts a surviving candidate to eliminated
        scheme = RealScheme((1, 2, 22), 0)
        for candidate in candidates(scheme):
            full = eliminate(candidate, scheme).outcome
            if full == "survives":
                ablated = eliminate(candidate, scheme, ablate=(rule_id,)).outcome
                assert ablated == "survives"


# SHA-256 of json.dumps of every theorem-1 trace, in scheme order (the
# theorem1 reference of bench/README.md).
THEOREM1_TRACE_SHA256 = "9521f039953ad3eb69d61f0e24b9c88a1414f51b21ffcc5f0ea74a4d8496dd87"

# One scheme's traces: (scheme, ablated rules, traces, nets checked, SHA-256
# of json.dumps of the traces).  The first checks the most nets of the
# lowbeta benchmark, the second is its beta = 22 scheme, where witnesses
# stop early; in the third, with the deficit identity ablated, closures whose
# predicate inputs differ (the deficit) carry the same evidence and merge.
# The next two ablate a rule of the stage screen, so candidates it would
# close reach the branch search instead.  The last ablates the exterior-zone
# rule, so every candidate's nets range over all four triangles.
SCHEME_TRACES = [
    pytest.param(
        "<J + 1<5> + 1<5> + 1<9> + 6>", (), 386, 110608,
        "70988cbd96db3fab371713d6cf1e5d991101eeedc38ada618ee882a4af7c24e4",
        id="most-nets",
    ),
    pytest.param(
        "<J + 1<1> + 1<1> + 1<1> + 22>", (), 162, 728,
        "14c6039395833081b7f529088ecc89d4b30435c946ff5869ae2e47b3ecafc159",
        id="beta-22",
    ),
    pytest.param(
        "<J + 1<1> + 1<2> + 1<8> + 14>", ("lemma10",), 282, 5736,
        "319db22c47d380945eb9368dd19e41b8c50ae0806a84d3434eb9c7270a9d77b2",
        id="lemma10-ablated",
    ),
    pytest.param(
        "<J + 1<1> + 1<2> + 1<8> + 14>", ("jump",), 282, 16339,
        "b4deb33d01e7e0db361d3cc6dcf47d276ab004b4899c4ea5a430064168c24825",
        id="jump-ablated",
    ),
    pytest.param(
        "<J + 1<2> + 1<2> + 1<20> + 1>", ("separating",), 184, 608,
        "f78dabe82bc9a00d04bd5798edd84dd4e3ddc835a5da57009b057c489e40a187",
        id="separating-ablated",
    ),
    pytest.param(
        "<J + 1<2> + 1<2> + 1<20> + 1>", ("exterior_zone",), 184, 4634,
        "a81a2d57e60dee73645717d7e8c5cc7a8a1437fdbb970a8b43d51c7aa5ac973c",
        id="exterior-zone-ablated",
    ),
    pytest.param(
        "<J + 1<5> + 1<5> + 1<9> + 6>", ("lambda0_bound",), 386, 110608,
        "b6a536e476c70a66fe5ef474d54e662cfd2a3d536683d5ec28d377834cf05146",
        id="lambda0-ablated",
    ),
    pytest.param(
        "<J + 1<5> + 1<5> + 1<9> + 6>", ("triangle_bound",), 386, 109852,
        "416f655a62d3bb87ab9653a09b9522d967e3dbf790b96ee632eff6db6a9304e0",
        id="triangle-ablated",
    ),
    pytest.param(
        "<J + 1<2> + 1<2> + 1<20> + 1>", ("empty_triangles",), 184, 406,
        "b4f29926aea5f44802a6938644e677fdbb0e2c95c4bb45b93a87a2f2ae2b4bbd",
        id="empty-triangles-ablated",
    ),
    pytest.param(
        "<J + 1<1> + 1<2> + 1<8> + 14>", ("lambda0_bound", "triangle_bound"), 282, 115,
        "2bd2970869a95ee84c54c70318b45ed4033f8d5c28808a4f4060e6928efc11f1",
        id="both-bounds-ablated",
    ),
]


@pytest.fixture(scope="module")
def theorem1_report():
    return prove_theorem1()


@pytest.fixture(scope="module")
def prop2_report():
    return prove_proposition2()


class TestTheorem1:
    @pytest.fixture()
    def report(self, theorem1_report):
        return theorem1_report

    def test_counts(self, report):
        assert len(report.results) == 53
        assert report.excluded_count == 53
        assert report.known_count == 12
        assert report.new_count == 41
        assert report.all_excluded

    def test_every_candidate_eliminated(self, report):
        for result in report.results:
            assert result.traces
            for trace in result.traces:
                assert trace.outcome == "eliminated"

    def test_report_json_shape(self, report):
        data = report.to_json_dict()
        assert data["excludedCount"] == 53
        assert data["newCount"] == 41
        assert data["knownCount"] == 12
        assert len(data["schemes"]) == 53
        assert all(not row["surviving"] for row in data["schemes"])

    def test_ablated_run_reports_survivors(self):
        report = prove_theorem1(ablate=("lambda0_bound",))
        assert not report.all_excluded

    def test_trace_hash_is_pinned(self, report):
        traces = [t.to_json_dict() for r in report.results for t in r.traces]
        digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
        assert digest == THEOREM1_TRACE_SHA256

    @pytest.mark.parametrize("scheme, ablate, count, checked, sha256", SCHEME_TRACES)
    def test_scheme_trace_hash_is_pinned(self, scheme, ablate, count, checked, sha256):
        report = prove_theorem1(ablate=ablate, schemes=[parse_real_scheme(scheme)])
        traces = [t.to_json_dict() for t in report.results[0].traces]
        assert len(traces) == count
        assert sum(b["solutionsChecked"] for t in traces for b in t["branches"]) == checked
        assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() == sha256

    def test_every_closure_replays(self, report):
        for result in report.results:
            for trace in result.traces:
                closures = list(trace.stage_closures)
                for branch in trace.branches:
                    closures.extend(branch.closures)
                for closure in closures:
                    assert_replays(closure)


# The pinned schemes, each unablated and with one of seven rules ablated; the
# most-nets scheme is left out with lemma10 or jump ablated, where one run of
# it takes 24 s or 6 s.  The two bound ablations come last, so that the ids
# of the earlier cases stay as they were.
CONTEXT_CASES = [
    (scheme, ablate)
    for ablations in [
        [(), ("exterior_zone",), ("empty_triangles",), ("lemma10",), ("jump",), ("separating",)],
        [("lambda0_bound",), ("triangle_bound",)],
    ]
    for scheme in dict.fromkeys(p.values[0] for p in SCHEME_TRACES)
    for ablate in ablations
    if scheme != "<J + 1<5> + 1<5> + 1<9> + 6>" or ablate not in [("lemma10",), ("jump",)]
]


class TestSeparatingStage:
    # The stage takes each nest type's (separating, F, G) and the closure key
    # of each (nest, F, G_j + G_k) from the scheme's memos; it must close
    # what the registry's rule closes, with the one shared closure and
    # evidence, on odd ("s") and even ("u"/"d") separating nests alike.
    @pytest.mark.parametrize("ablate", [(), ("separating",)])
    @pytest.mark.parametrize(
        "scheme",
        [
            "<J + 1<2> + 1<2> + 1<20> + 1>",  # all even: u/d
            "<J + 1<3> + 1<5> + 1<9> + 8>",  # all odd: s
            "<J + 1<1> + 1<2> + 1<4> + 18>",  # both
        ],
    )
    def test_stage_closes_as_the_rule(self, scheme, ablate):
        real = parse_real_scheme(scheme)
        tables = engine._SchemeTables(real, ablate)
        tags, closed = set(), 0
        for ct in no_jump_candidates(real):
            pd, _ = tables.triples[ct.schemes]
            stage = engine._stage_closures(ct, pd, tables)
            verdict = RULES["separating"](Candidate(curve_type=ct))
            key = tables.key_of("separating", verdict.evidence)
            expected = (tables.closure_of[key, 1],) if key else ()
            assert stage == expected, str(ct)
            if stage:
                (closure,) = stage
                assert closure is expected[0] and type(closure.evidence) is Evidence
                assert closure.evidence == verdict.evidence
                closed += 1
            tags.update(nest.tag for nest in ct.nests)
        assert tags & {"s", "u", "d"}
        # the enumerator's filter decides an odd nest's formula exactly, and
        # leaves only the up/down variants of even nests to the rule
        assert bool(closed) == (not ablate and bool(tags & {"u", "d"}))


class TestSettle:
    # prove_theorem1 settles a scheme's candidates in one _settle call,
    # against one _SchemeTables that holds the per-triple entries, the chain
    # branches, the closures, the rule memos, the net screens and the
    # eliminated branches; eliminate settles one candidate alone.
    @pytest.mark.parametrize("scheme, ablate", CONTEXT_CASES)
    def test_scheme_run_equals_standalone_eliminate(self, scheme, ablate):
        real = parse_real_scheme(scheme)
        report = prove_theorem1(ablate=ablate, schemes=[real])
        shared = [json.dumps(t.to_json_dict()) for t in report.results[0].traces]
        standalone = [eliminate(c, real, ablate) for c in candidates(real)]
        assert [json.dumps(t.to_json_dict()) for t in standalone] == shared
        # filling the shared tables in the reverse order changes no trace
        reverse = engine._settle(real, candidates(real)[::-1], ablate)[::-1]
        assert [json.dumps(t.to_json_dict()) for t in reverse] == shared

    @pytest.mark.parametrize("ablate", [(), ("lemma10",)])
    def test_search_is_freed_without_the_cycle_collector(self, monkeypatch, ablate):
        # The scheme's shared tables hold the memos and the net sequences, and
        # nothing in them refers back to the tables, so they are freed as
        # soon as the scheme is settled.
        tables = []
        build = engine._SchemeTables.__init__

        def tracked_tables(self, *args):
            tables.append(weakref.ref(self))
            build(self, *args)

        monkeypatch.setattr(engine._SchemeTables, "__init__", tracked_tables)
        gc.disable()
        try:
            prove_theorem1(ablate=ablate, schemes=[SCHEME_2_2_20])
            assert tables and all(ref() is None for ref in tables)
        finally:
            gc.enable()

    @pytest.mark.parametrize("ablate", [(), ("lemma10",)])
    def test_each_screen_key_builds_its_nets_once(self, monkeypatch, ablate):
        # A screen builds the nets of its key, and the branches of the key
        # replay the screen, so no branch builds nets of its own.
        tables, calls = [], []
        build = engine._SchemeTables.__init__
        net_levels = engine._net_levels

        def tracked_tables(self, *args):
            tables.append(self)
            build(self, *args)

        def counted_net_levels(*args):
            calls.append(args)
            return net_levels(*args)

        monkeypatch.setattr(engine._SchemeTables, "__init__", tracked_tables)
        monkeypatch.setattr(engine, "_net_levels", counted_net_levels)
        scheme = parse_real_scheme("<J + 1<5> + 1<5> + 1<9> + 6>")
        report = prove_theorem1(ablate=ablate, schemes=[scheme])
        assert sum(len(t.branches) for t in report.results[0].traces) > 4 * len(calls) > 0
        (scheme_tables,) = tables
        assert len(calls) <= len(scheme_tables.screens)

    def test_branches_share_the_screens_and_the_eliminated_branches(self, monkeypatch):
        # Screens and eliminated branches are keyed by branch offsets, never
        # by a label: the scheme's 4,240 branches replay 63 screens, and
        # 1,180 eliminated-branch entries (28 of whole screens closed, 1,152
        # of problems no ledger was built for) hold what they closed.
        tables = []
        build = engine._SchemeTables.__init__

        def tracked_tables(self, *args):
            tables.append(self)
            build(self, *args)

        monkeypatch.setattr(engine._SchemeTables, "__init__", tracked_tables)
        report = prove_theorem1(schemes=[parse_real_scheme("<J + 1<5> + 1<5> + 1<9> + 6>")])
        assert sum(len(t.branches) for t in report.results[0].traces) == 4240
        (scheme_tables,) = tables
        assert len(scheme_tables.screens) <= 63
        assert len(scheme_tables.eliminated) <= 1180

    @pytest.mark.parametrize("ablate", [(), ("exterior_zone",), ("lemma10",), ("separating",)])
    def test_a_recorded_branch_reads_as_searched(self, monkeypatch, ablate):
        # A branch that takes an eliminated branch's record must read as if
        # it were searched: settling with nothing recorded moves no byte.
        schemes = [
            parse_real_scheme(s)
            for s in ("<J + 1<6> + 1<6> + 1<10> + 3>", "<J + 1<4> + 1<4> + 1<4> + 13>")
        ]
        def traces():
            report = prove_theorem1(ablate=ablate, schemes=schemes)
            dicts = [t.to_json_dict() for r in report.results for t in r.traces]
            return hashlib.sha256(json.dumps(dicts).encode()).hexdigest()

        recorded = traces()
        build = engine._SchemeTables.__init__

        class Unrecorded(dict):
            def __setitem__(self, key, value):
                pass

        def unrecorded_tables(self, *args):
            build(self, *args)
            self.eliminated = Unrecorded()

        monkeypatch.setattr(engine._SchemeTables, "__init__", unrecorded_tables)
        assert traces() == recorded


class TestProposition2:
    @pytest.fixture()
    def report(self, prop2_report):
        return prop2_report

    def test_all_rows_closed(self, report):
        assert report.all_closed
        assert len(report.rows) == 6

    def test_e0_column(self, report):
        assert [row.e0 for row in report.rows] == [0, 0, 0, -4, -5, -6]

    def test_three_rows_killed_by_central_residual(self, report):
        killed = [row for row in report.rows if row.e0 != 0]
        assert len(killed) == 3
        for row in killed:
            assert {c.rule_id for c in row.closures} == {"exterior_zone"}

    def test_survivor_rows_use_the_separating_contradiction(self, report):
        rows = [row for row in report.rows if row.e0 == 0]
        assert len(rows) == 3
        for row in rows:
            rules = {c.rule_id for c in row.closures}
            assert rules <= {"separating", "lemma10"}
        # the two rows with an even nest show the residual -1 explicitly
        for row in rows[:2]:
            residuals = [
                c.evidence["residual"]
                for c in row.closures
                if c.rule_id == "separating"
            ]
            assert residuals and set(residuals) == {-1}
        # the all-odd row is closed purely by unreachable corner values
        assert {c.rule_id for c in rows[2].closures} == {"lemma10"}

    def test_unknown_ablation_raises(self):
        with pytest.raises(KeyError):
            prove_proposition2(ablate=("bogus",))

    def test_row4_annotation(self, report):
        row4 = report.rows[3]
        assert row4.e0 == -4
        assert "printed -2" in row4.note

    def test_json(self, report):
        data = report.to_json_dict()
        assert data["allClosed"] is True
        assert len(data["rows"]) == 6


def _closures(report):
    for result in report.results:
        for trace in result.traces:
            yield from trace.stage_closures
            for branch in trace.branches:
                yield from branch.closures


def _shape(closure):
    return closure.rule_id, tuple(closure.evidence), closure.evidence.get("reason")


class TestExactReplay:
    # Between them these two schemes emit all 11 evidence shapes of the
    # unablated 458-scheme sweep.
    SCHEMES = ("<J + 1<1> + 1<2> + 1<8> + 14>", "<J + 1<1> + 1<1> + 1<18> + 5>")

    def test_every_sweep_shape(self):
        report = prove_theorem1(schemes=[parse_real_scheme(s) for s in self.SCHEMES])
        closures = list(_closures(report))
        assert len({_shape(c) for c in closures}) == 11
        for closure in closures:
            assert_replays(closure)

    def test_deficit_identity_shape(self):
        report = prove_theorem1(
            ablate=("empty_triangles",),
            schemes=[parse_real_scheme("<J + 1<1> + 1<1> + 1<22> + 1>")],
        )
        closures = list(_closures(report))
        assert any("deficit_required" in c.evidence for c in closures)
        for closure in closures:
            assert_replays(closure)

    def test_proposition2(self, prop2_report):
        closures = [c for row in prop2_report.rows for c in row.closures]
        assert {c.rule_id for c in closures} == {"exterior_zone", "lemma10", "separating"}
        for closure in closures:
            assert_replays(closure)
