"""Candidate enumeration and the exhaustive elimination engine.

For a real scheme the engine enumerates the admissible curve complex
types, then explores each candidate's finite constraint space: chain
branches of the three nests (how a separating chain straddles the central
triangle, base-oval signs, quadrangle shares of non-separating chains),
exterior-oval placements limited to the triangles with vanishing
first-formula residual, and the orientation identities, which pin the
quadrangle contributions.  A candidate survives exactly when some ledger
satisfies every active rule; otherwise each branch is closed by a named
rule with numeric evidence, and the whole record replays
deterministically.

Each value is computed once at the level where it varies, and no shortcut
changes a trace.  The enumerator is `no_jump_candidates` and
`jump_candidates`.  `_settle` settles a list of one scheme's candidates,
all of them for `prove_theorem1` and one for `eliminate`, against one
`_SchemeTables` of what depends on the scheme and the ablation alone.
`_stage_closures` screens each candidate, `_search` walks the chain
branches of one it leaves open, `_screen` checks a screen key's nets, in
`_free_assignments` order, and `_feasible_ledger` builds and confirms the
witness; each docstring describes its own step.  An ablated rule gets no
closure key (`_closure_key`), so every memo is built as for no ablation;
only the rules that change the search space (exterior_zone's zones,
lemma10's identities, which pin the quadrangle values) read the ablated
ids.

Interior-chain model (the engine's central commitment, validated against
the reproduced intermediate values): a separating even nest either
straddles with an odd central run, contributing (sigma, 0) to
(lambda_0, lambda_{i+3}) with base sign -sigma, or with an even central
run, contributing (0, -sigma) with base sign +sigma; a separating odd
nest does not straddle and contributes nothing, its base carrying the
imbalance sign; a non-separating unjumped chain is quadrangular; only a
jumped chain may place single ovals in the triangles.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from typing import Iterator, Optional

from .ledger import OrientationLedger
from .orevkov import allowed_zones, e_values, f_value, g_value
from .rules import (
    Candidate,
    VIOLATED,
    _budget_violation,
    _deficit_identity_violation,
    _empty_triangles_violation,
    _exterior_zone_violation,
    _jump_stage_violation,
    _jump_violation,
    _lambda0_violation,
    _rm_violation,
    _separating_inputs,
    _separating_terms,
    _separating_violation,
    _triangle_violation,
    _unreachable_violation,
    check_rule_ids,
    evaluate_all,
    jump_cases_open,
)
from .schemes import (
    EMPTY_OVALS,
    MINUS,
    OVALS,
    PLUS,
    ComplexType,
    CurveType,
    Jump,
    NestScheme,
    RealScheme,
    enumerate_nest_schemes,
    enumerate_three_nest_schemes,
    nest_complex_types,
    pi_delta,
    total_pairs,
)


class EngineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Chain branches


def nest_branches(ct: ComplexType, jumped: bool) -> tuple[tuple, ...]:
    """The resolutions of a nest's interior chain, as the plain rows
    `_search` reads: (label, net contribution to T0, net contribution to
    the nest's corner triangle, nu + the base-oval sign, the nets into the
    low and the high adjacent quadrangle, the interior ovals parked in the
    T0 sector and in the corner sector)."""
    s = ct.scheme
    alpha, nu = s.alpha, s.nu
    if ct.tag in ("u", "d"):
        sigma = ct.sigma
        out = [("straddle-odd", sigma, 0, nu - sigma, 0, 0, 1, alpha - 2)]
        if alpha >= 4:
            out.append(("straddle-even", 0, -sigma, nu + sigma, 0, 0, 2, alpha - 3))
        return tuple(out)
    if ct.tag == "s":
        return (("chain", 0, 0, nu + s.mu, 0, 0, 0, alpha - 1),)
    branches = []
    triangle_shares = ((-1, 0, 1), (-1, 0, 1)) if jumped else ((0,), (0,))
    for eps in s.available_base_signs():
        target = s.diff - eps
        for s0 in triangle_shares[0]:
            for st in triangle_shares[1]:
                for wj in (-1, 0, 1):
                    for wk in (-1, 0, 1):
                        if s0 + st + wj + wk != target:
                            continue
                        if abs(s0) + abs(st) + abs(wj) + abs(wk) > alpha - 1:
                            continue
                        label = f"eps={eps:+d},w=({wj:+d},{wk:+d})"
                        if jumped:
                            label = f"jump,{label},t0={s0:+d},t={st:+d}"
                        branches.append((label, s0, st, nu + eps, wj, wk, abs(s0), abs(st)))
    return tuple(branches)


# ---------------------------------------------------------------------------
# Candidate enumeration


def _fit_terms(ct: ComplexType) -> tuple[Optional[int], int]:
    """What `_structural_fit` needs of one nest: the G sum of the other two
    that its separating tag requires (None for a non-separating nest), and
    its own G."""
    required = None
    if ct.separating:
        required = 0 if ct.tag in ("u", "d") else f_value(ct)
    return required, g_value(ct.scheme)


def _structural_fit(terms: tuple[tuple[Optional[int], int], ...]) -> bool:
    """Cheap separating-compatibility filter used by the enumerator, on the
    `_fit_terms` of the three nests.

    The sign-refined residual check stays with the separating rule; here
    the u/d distinction is projected out, so up-variants appear alongside
    the down rows and are left for the rules to kill.
    """
    (r1, g1), (r2, g2), (r3, g3) = terms
    return r1 in (None, g2 + g3) and r2 in (None, g1 + g3) and r3 in (None, g1 + g2)


def _typed_options(scheme: RealScheme) -> dict[int, dict[tuple, list[ComplexType]]]:
    """Per nest size of the scheme, its unjumped complex types by `_fit_terms`."""
    by_size = {a: {} for a in set(scheme.alpha)}
    for alpha, options in by_size.items():
        for ct in nest_complex_types(alpha, jump_allowed=False):
            options.setdefault(_fit_terms(ct), []).append(ct)
    return by_size


def no_jump_candidates(scheme: RealScheme) -> list[CurveType]:
    return _no_jump_candidates(scheme, _typed_options(scheme))


def _no_jump_candidates(scheme: RealScheme, by_size: dict) -> list[CurveType]:
    options = [by_size[a] for a in scheme.alpha]
    out = []
    for terms in itertools.product(*options):
        if _structural_fit(terms):
            groups = (o[t] for o, t in zip(options, terms))
            out.extend(CurveType(nests) for nests in itertools.product(*groups))
    return sorted(out, key=str)


def _jump_repartition(alpha: int, diff: int) -> Jump:
    if abs(diff) == 2:
        return Jump((1, 1, alpha - 1))  # all odd: forces the imbalance 2
    return Jump((1, 2, alpha - 1))  # even middle group: imbalance stays small


def jump_candidates(scheme: RealScheme) -> list[CurveType]:
    """Jump-bearing candidates, the jumped nest relabeled into slot 3.

    The candidates of one jumped nest depend only on the sizes of its two
    companions, in order, so a jumped nest whose companion sizes were
    already done is skipped.  The jumped nest, never separating, enters
    the fit test only through its G: each pair of companion groups is
    tested once per distinct G, and its pairs serve every jumped nest
    scheme with that G.  The text of a candidate does not record the nest
    sizes, and candidates of different jumped nests can read alike: the
    list keeps the first of each text, sorted by text.
    """
    return _jump_candidates(scheme, _typed_options(scheme))


def _jump_candidates(scheme: RealScheme, options: dict) -> list[CurveType]:
    seen = {}
    done = set()
    for jumped in range(3):
        a_jump = scheme.alpha[jumped]
        companions = tuple(a for x, a in enumerate(scheme.alpha) if x != jumped)
        if a_jump < 2 or companions in done:
            continue  # a jump needs two interior groups; or these are listed
        done.add(companions)
        o1, o2 = (options[a] for a in companions)
        fitting = {}  # the jumped nest's fit terms -> the companion pairs that fit
        for js in enumerate_nest_schemes(a_jump, jump_allowed=True):
            jumped_ct = ComplexType(js, "n")
            jump = _jump_repartition(a_jump, js.diff)
            t3 = _fit_terms(jumped_ct)
            if t3 not in fitting:
                fitting[t3] = [pair for t1, t2 in itertools.product(o1, o2)
                               if _structural_fit((t1, t2, t3))
                               for pair in itertools.product(o1[t1], o2[t2])]
            for c1, c2 in fitting[t3]:
                candidate = CurveType((c1, c2, jumped_ct), jump)
                seen.setdefault(candidate._text, candidate)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Proof traces


class Closure(namedtuple("Closure", "rule_id evidence count", defaults=(1,))):
    """A rule closing `count` assignments.  `to_json_dict` returns a fresh
    dict; its `evidence` is the shared, read-only value, uncopied."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"rule": self.rule_id, "evidence": self.evidence, "count": self.count}


class BranchRecord(namedtuple("BranchRecord", "nests closures solutions_checked")):
    """The chain-branch labels of the three nests, the closures of their
    nets and the number of nets checked."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "assignments": list(self.nests),
            "closures": [c.to_json_dict() for c in self.closures],
            "solutionsChecked": self.solutions_checked,
        }


class ProofTrace(namedtuple(
    "ProofTrace",
    "candidate scheme outcome zones_allowed stage_closures branches witness",
    defaults=(None,),
)):
    """One candidate's record: its text and its scheme's, the outcome
    ("eliminated" or "survives"), the allowed zones, the stage closures,
    the branch records and the witness ledger, or None."""

    __slots__ = ()

    @property
    def cited_rules(self) -> tuple[str, ...]:
        rules = [c.rule_id for c in self.stage_closures]
        for b in self.branches:
            rules.extend(c.rule_id for c in b.closures)
        seen = []
        for r in rules:
            if r not in seen:
                seen.append(r)
        return tuple(seen)

    @property
    def headline_rule(self) -> Optional[str]:
        if self.stage_closures:
            return self.stage_closures[0].rule_id
        for b in self.branches:
            if b.closures:
                return b.closures[0].rule_id
        return None

    def to_json_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "scheme": self.scheme,
            "outcome": self.outcome,
            "zonesAllowed": list(self.zones_allowed),
            "stageClosures": [c.to_json_dict() for c in self.stage_closures],
            "branches": [b.to_json_dict() for b in self.branches],
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


# ---------------------------------------------------------------------------
# The exhaustive search of one candidate


def _signed_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Integer k-tuples whose absolute values sum to exactly n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield from ((-n,), (n,)) if n else ((0,),)
        return
    for head in range(-n, n + 1):
        for tail in _signed_compositions(n - abs(head), k - 1):
            yield (head,) + tail


def _net_levels(
    free: tuple[int, ...], budget: int, deficit_rhs: Optional[int]
) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """The nets of `_free_assignments`, aligned with `free`, one sorted run
    per finished total, yielded with that total.

    The non-last zones are enumerated level by level of their L1 norm
    `used`, each net goes to the bucket of its total `used + |v_last|`, and
    bucket `used` is sorted and yielded as soon as level `used` is done,
    since no later level reaches that total.
    """

    def coeff(z: int) -> int:
        return 1 if z == 0 else -1

    if not free:
        if deficit_rhs is None or deficit_rhs == 0:
            yield 0, [()]
        return
    rest, last = free[:-1], free[-1]
    signs = tuple(coeff(z) for z in rest)
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for used in range(budget + 1):
        for values in _signed_compositions(used, len(rest)):
            if deficit_rhs is None:
                spare = budget - used
                for v_last in range(-spare, spare + 1):
                    buckets.setdefault(used + abs(v_last), []).append(values + (v_last,))
            else:
                v_last = (deficit_rhs - sum(c * v for c, v in zip(signs, values))) * coeff(last)
                buckets.setdefault(used + abs(v_last), []).append(values + (v_last,))
        if used in buckets:
            yield used, sorted(buckets.pop(used))
        if not rest:
            break  # the last zone alone: every net is on level 0
    for total in sorted(buckets):
        yield total, sorted(buckets[total])


def _free_assignments(
    free: tuple[int, ...], budget: int, deficit_rhs: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """Exterior triangle nets over the free zones, deficit equation applied.

    Each net is one record (x0, x1, x2, x3, ovals): the values of T0..T3,
    0 off `free`, and the exterior ovals they place.  Zone 0 enters the
    deficit with +1, zones 1..3 with -1.  All but the last free zone range
    over the oval budget; the last is solved from the deficit equation and
    deliberately NOT budget-capped, so that bound rules get to fire on
    identity-forced values (budget feasibility is re-checked when a
    witness is built).

    Nets are ordered by total absolute value, then by the values in the
    order of `free`.  The sequence is lazy, one sorted run of `_net_levels`
    at a time: a consumer that stops at a witness never builds the later
    runs.
    """
    # a net padded with (0, its total) gives its record through `spread`
    spread = operator.itemgetter(
        *(free.index(z) if z in free else len(free) for z in range(4)), len(free) + 1
    )
    levels = _net_levels(free, budget, deficit_rhs)
    return (spread((*net, 0, total)) for total, run in levels for net in run)


def _closure_key(
    evidence: dict, ablate: tuple[str, ...], rule_id: str, violation: Optional[dict]
) -> Optional[tuple]:
    """None for no violation or an ablated rule, else the key that merges
    equal evidence; the evidence is kept in `evidence` under its key."""
    if violation is None or rule_id in ablate:
        return None
    key = (rule_id, repr(sorted(violation.items())))
    evidence.setdefault(key, violation)
    return key


class _Memo(dict):
    """input -> value, each computed by `fill` on first use."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, args):
        key = self[args] = self.fill(args)
        return key


def _jump_tables(key_of, closure_of, pd: int, nu3: int, crossing: Optional[bool]):
    """The jump stage closures of one (Pi_delta, nu3, crossing), and its
    numeric tier: (deficit, lambda_0 - lambda_4 - lambda_5, lambda_6) ->
    closure key."""
    key = key_of("jump", _jump_stage_violation(pd, nu3, crossing))
    cases = jump_cases_open(pd, nu3, crossing)
    tier = _Memo(lambda a: key_of("jump", _jump_violation(pd, cases, *a)))
    return ((closure_of[key, 1],) if key else ()), tier


class _SchemeTables:
    """The value tables of one `_settle` call, shared by all the scheme's
    candidates: what they hold depends on the scheme and the ablation, not
    on the candidate.

    `triples` maps a nest-scheme triple to its (Pi_delta, allowed zones),
    its nest sizes checked, and `branch_rows` a (complex type, jumped) pair
    to its `nest_branches`.  `key_of` keeps a violation's evidence under
    its closure key, None for no violation or an ablated rule, and
    `closure_of` maps a (closure key, count) to one shared `Closure`: every
    closure `_settle` emits comes from these two.  Each rule maps its input
    to a closure key, or None, through a memo, so its predicate runs once
    per distinct input in the scheme: `jumps` gives the jump stage closures
    and the numeric jump tier per (Pi_delta, nu3, crossing);
    `separating_terms` each nest type's (separating, F, G), and
    `separating_of` the closure key of each (nest, F, G_j + G_k);
    `lambda0_of` is keyed by lambda_0, which decides the bound unless
    |lambda_0| = 3, `lambda0_refined` by the refinements' inputs at
    |lambda_0| = 3, and `corner_of` by (value, deficit, zone).  `screens`
    holds the net screens per screen key, and `eliminated` the (closures,
    nets checked) of each eliminated branch key (see `_search`).
    No memo refers to the tables, so they need no cycle collector to be
    freed: a screen gets the memos it reads, not the tables.
    """

    def __init__(self, scheme: RealScheme, ablate: tuple[str, ...]):
        self.ablate = ablate
        beta = self.beta = scheme.beta
        self.pairs = total_pairs(scheme)
        self.identities = "lemma10" not in ablate
        alphas = sorted(scheme.alpha)
        all_zones = "exterior_zone" in ablate

        def triple(schemes):
            if sorted([p + m for _, p, m in schemes]) != alphas:
                raise EngineError("candidate nests do not match the scheme")
            return pi_delta(schemes), (0, 1, 2, 3) if all_zones else allowed_zones(*schemes)

        self.triples = _Memo(triple)
        self.branch_rows = _Memo(lambda a: nest_branches(*a))
        evidence = {}  # closure key -> evidence
        key_of = self.key_of = functools.partial(_closure_key, evidence, ablate)
        closure_of = self.closure_of = _Memo(lambda kn: Closure(kn[0][0], evidence[kn[0]], kn[1]))
        self.separating_terms = _Memo(_separating_terms)
        self.separating_of = _Memo(lambda a: key_of("separating", _separating_violation(*a)))
        self.empty_of = _Memo(lambda t: key_of("empty_triangles", _empty_triangles_violation(t)))
        self.jumps = _Memo(lambda a: _jump_tables(key_of, closure_of, *a))
        self.lambda0_of = _Memo(lambda v: key_of(
            "lambda0_bound", _lambda0_violation(v, None, None, None)))
        # (lambda_0, all separating, epsilon sum, Q1..Q3 left empty) at
        # magnitude 3
        self.lambda0_refined = _Memo(lambda a: key_of("lambda0_bound", _lambda0_violation(
            a[0], a[1], a[2], tuple(q for q, empty in zip((1, 2, 3), a[3:]) if empty))))
        self.corner_of = _Memo(lambda a: key_of("triangle_bound", _triangle_violation(*a)))
        self.over_budget = _Memo(lambda a: key_of("lemma10", _budget_violation(a[0], beta, a[1:])))
        self.rm_of = _Memo(lambda r: key_of("rm", _rm_violation(r)))
        self.screens: dict[tuple, Iterator[tuple]] = {}
        self.eliminated: dict[tuple, tuple[tuple[Closure, ...], int]] = {}

    def screen(self, key: tuple) -> Iterator[tuple]:
        """A copy of the `_screen` of `key` (free zones, Pi_delta, deficit rhs,
        sh0, t4..t6, jump key, empty key), built from the key alone."""
        if key not in self.screens:
            zones, _, deficit_rhs, sh0, t4, t5, t6, jump, empty_key = key
            screen = _screen(
                _free_assignments(zones, self.beta, deficit_rhs), sh0, t4, t5, t6,
                self.jumps[jump][1] if jump else None, empty_key, self.lambda0_of, self.corner_of,
            )
            self.screens[key] = itertools.tee(screen, 1)[0]
        return self.screens[key].__copy__()


def _screen(nets, sh0, t4, t5, t6, jump_of, empty_key, lambda0_of, corner_of):
    """`_search`'s checks of the nets of one screen key that read only the
    net and the key: empty triangles, the jump tier, lambda_0, the corners.

    A net none of them closes is left open, and so is a net that reaches
    the lambda_0 check at |lambda_0| = 3, whose bound reads the branch.
    Yields (runs, seen, net, corner) at each open net and at the end: the
    (closure key, count) pairs of the nets closed since the last yield, in
    first-net order; the nets read; the open net's record and corner
    closure key, or None and None at the end.
    """
    runs: dict[tuple, int] = {}
    seen = 0
    for seen, net in enumerate(nets, 1):
        x0, x1, x2, x3, ovals = net
        lam0, lam4, lam5, lam6 = x0 + sh0, x1 + t4, x2 + t5, x3 + t6
        deficit = lam0 - lam4 - lam5 - lam6
        key = None if ovals else empty_key  # the list rule on genuinely empty nets
        if not key and jump_of is not None:
            key = jump_of[deficit, lam0 - lam4 - lam5, lam6]
        refined = False
        if not key:
            refined = lam0 in (3, -3)  # lambda0_of gives these no key
            key = (lambda0_of[lam0] or corner_of[lam4, deficit, 1]
                   or corner_of[lam5, deficit, 2] or corner_of[lam6, deficit, 3])
        if key and not refined:
            runs[key] = runs.get(key, 0) + 1
        else:
            yield tuple(runs.items()), seen, net, key
            runs.clear()
    yield tuple(runs.items()), seen, None, None


def _stage_closures(curve_type: CurveType, pd: int, tables: _SchemeTables) -> tuple[Closure, ...]:
    """The stage screen: the jump trichotomy, then the separating formula.

    Both read the scheme's memos: the jump stage closures per (Pi_delta,
    nu3, crossing), each nest type's (separating, F, G), and the closure
    key per (nest, F, G_j + G_k).  The first separating nest whose formula
    fails closes the candidate, as in `rule_separating`.
    """
    jump = curve_type.jump
    if jump is not None:
        closures, _ = tables.jumps[pd, curve_type.schemes[2].nu, jump.crossing]
        if closures:
            return closures
    terms = tables.separating_terms
    c1, c2, c3 = curve_type.nests
    for args in _separating_inputs((terms[c1], terms[c2], terms[c3])):
        key = tables.separating_of[args]
        if key:
            return (tables.closure_of[key, 1],)
    return ()


def _search(
    curve_type: CurveType, tables: _SchemeTables, pd: int, zones: tuple[int, ...]
) -> tuple[tuple[BranchRecord, ...], Optional[OrientationLedger]]:
    """The branch search of one candidate that the stage screen leaves
    open.  Returns the branch records and the witness, or None.

    First the values that vary per candidate; then three nested loops over
    the `nest_branches` rows of nests 1, 2 and 3, each value bound at the
    loop of the nests it reads: the sums over nests 1 and 2 (lambda_0
    share, nu + epsilon, Q3's identity and chain net) in the second loop,
    the rest in the third; inside it, one loop over the branch's exterior
    nets, in `_free_assignments` order.  The first rule that fires closes
    a net, in the order empty triangles, jump, lambda_0, the corners
    T1..T3, then the oval budget of lemma10, or rm with lemma10 ablated;
    the first net none closes gives the witness and ends the search.  A branch
    replays the `_screen` of its key, built once per key, and checks only
    the nets it leaves open, unless an eliminated branch recorded its
    closures and count under its key: the screen key when the screen left
    no net open, else that and what the open nets read (the problem key,
    built only when the screen key misses).
    Closures merge by evidence, not by the predicate inputs that produced
    it: with `lemma10` ablated, nets of different deficits with lambda_4 = 5
    share one corner evidence, which records no deficit, and count as one
    closure.  Closures are listed in the order of their first net.
    """
    jump = curve_type.jump
    c1, c2, c3 = curve_type.nests
    rows1 = tables.branch_rows[c1, False]
    rows2 = tables.branch_rows[c2, False]
    rows3 = tables.branch_rows[c3, jump is not None]  # the jumped nest is third
    schemes = curve_type.schemes
    all_sep = c1.separating and c2.separating and c3.separating
    beta = tables.beta
    # The closures of every branch with no interior oval in a triangle,
    # when no exterior oval can reach one either.
    empty_key = tables.empty_of[schemes]
    empty_closed = None
    if empty_key and (not zones or beta == 0):
        empty_closed = (tables.closure_of[empty_key, 1],)
    jump_key = (pd, schemes[2].nu, jump.crossing) if jump is not None else None
    identities = tables.identities
    eliminated = tables.eliminated
    closure_of = tables.closure_of.__getitem__

    records = []
    for b1 in rows1:
        label1, sh1, t4, ne1, lo1, hi1, in01, in1 = b1
        for b2 in rows2:
            label2, sh2, t5, ne2, lo2, hi2, in02, in2 = b2
            sh12 = sh1 + sh2
            ne12 = ne1 + ne2
            rhs3 = -ne12 // 2  # right-hand side of Q3's identity
            w3 = hi1 + hi2  # the chains' net into Q3
            pop12 = in01 or in1 or in02 or in2  # interior ovals parked in a triangle
            for b3 in rows3:
                label3, sh3, t6, ne3, lo3, hi3, in03, in3 = b3
                labels = (label1, label2, label3)
                no_pop = not (pop12 or in03 or in3)

                # Triangles forced empty: the list rule applies before any solving.
                if no_pop and empty_closed:
                    records.append(BranchRecord(labels, empty_closed, 0))
                    continue

                sh0 = sh12 + sh3
                deficit_rhs = pd - 4 - (sh0 - t4 - t5 - t6) if identities else None
                screen_key = (
                    zones, pd, deficit_rhs, sh0, t4, t5, t6, jump_key,
                    empty_key if no_pop else None,
                )
                hit = eliminated.get(screen_key)
                if not hit:
                    eps_sum = ne12 + ne3
                    rhs1, rhs2 = -(ne3 + ne2) // 2, -(ne3 + ne1) // 2
                    w1, w2 = lo2 + lo3, lo1 + hi3
                    problem_key = (screen_key, rhs1, rhs2, rhs3, w1, w2, w3, all_sep, eps_sum)
                    hit = eliminated.get(problem_key)
                if hit:
                    records.append(BranchRecord(labels, *hit))
                    continue

                memo_key = screen_key  # what the branch's closures read so far
                tally: dict[tuple, int] = {}  # closure key -> nets closed, first net first
                for runs, checked, net, key in tables.screen(screen_key):
                    for run_key, count in runs:
                        tally[run_key] = tally.get(run_key, 0) + count
                    if net is None:
                        break
                    x0, x1, x2, x3, ovals = net
                    lam0, lam4, lam5, lam6 = x0 + sh0, x1 + t4, x2 + t5, x3 + t6
                    memo_key = memo_key and problem_key  # an open net reads the branch

                    # The quadrangle values the identities pin, and the oval
                    # budget they need.  The cost always has the parity of
                    # beta: mod 2 it is the sum of the branch shares, alpha_i
                    # + 1 per nest, and sum(alpha) + beta = 25 (checked in
                    # _settle).  So the budget test is the bound alone.
                    p1, p2, p3 = rhs1 - lam0 + lam4, rhs2 - lam0 + lam5, rhs3 - lam0 + lam6
                    required = ovals + abs(p1 - w1) + abs(p2 - w2) + abs(p3 - w3)

                    # At magnitude 3 the central-triangle bound's refinements
                    # read the branch and which quadrangles the witness leaves
                    # empty; else the screen's corner closure applies.
                    if lam0 in (3, -3):
                        if identities:
                            empty = (w1 == p1 == 0, w2 == p2 == 0, w3 == p3 == 0)
                        else:
                            memo_key = None  # the problem key does not record the parking
                            parks1, parks2, parks3 = _chain_parking(schemes, (b1, b2, b3))
                            empty = (parks1 == 0 and ovals == beta, parks2 == 0, parks3 == 0)
                        key = tables.lambda0_refined[lam0, all_sep, eps_sum, *empty] or key

                    # Without the identities Q1 takes the sum rm needs, which
                    # has the parity of beta - ovals alike, or the nearest.
                    if not identities:
                        need = 8 - 2 * pd - eps_sum - lam0 - lam4 - lam5 - lam6 - w1 - w2 - w3
                        reach = _quadrangle_sum(need, beta - ovals)
                        p1, p2, p3 = w1 + reach, w2, w3
                        key = key or tables.rm_of[reach - need]
                    elif not key and required > beta:
                        key = tables.over_budget[required, lam0, p1, p2, p3, lam4, lam5, lam6]
                    if key:
                        tally[key] = tally.get(key, 0) + 1
                        continue

                    witness = _feasible_ledger(
                        curve_type, tables, pd, (b1, b2, b3), net, (w1, w2, w3),
                        (lam0, p1, p2, p3, lam4, lam5, lam6),
                    )
                    closures = tuple(map(closure_of, tally.items()))
                    return (BranchRecord(labels, closures, checked),), witness
                if not checked:
                    # only possible with no free zone at all: the deficit
                    # identity fails on the forced values
                    key = tables.key_of(
                        "lemma10", _deficit_identity_violation(pd - 4, sh0 - t4 - t5 - t6)
                    )
                    tally[key] = tally.get(key, 0) + 1
                closures = tuple(map(closure_of, tally.items()))
                if memo_key:
                    eliminated[memo_key] = closures, checked
                records.append(BranchRecord(labels, closures, checked))
    return tuple(records), None


def _quadrangle_sum(need: int, spare: int) -> int:
    """The sum nearest `need` (of the parity of `spare`) that `spare` ovals of
    +-1 reach."""
    return max(-spare, min(spare, need))


def _chain_parking(schemes, branches) -> tuple[int, int, int]:
    """The interior ovals that the chains of three `nest_branches` rows park
    in Q1..Q3: less the base oval and those in triangles, |high net| in the
    high one (Q3, Q3, Q2 for nests 1..3), the rest in the low (Q2, Q1, Q1)."""
    a1, a2, a3 = (s.alpha for s in schemes)
    (*_, hi1, in01, in1), (*_, hi2, in02, in2), (*_, hi3, in03, in3) = branches
    h1, h2, h3 = abs(hi1), abs(hi2), abs(hi3)
    return a2 + a3 - 2 - in02 - in2 - in03 - in3 - h2 - h3, a1 - 1 - in01 - in1 - h1 + h3, h1 + h2


def _feasible_ledger(curve_type, tables, pd, branches, net, quad_net, lam) -> OrientationLedger:
    """The witness of a net record `net` the search leaves open, in closed
    form: `lam` its lambdas, `quad_net` the chain nets into Q1..Q3, and Q1
    holds the exterior ovals left over.  The search decides every rule, so
    a rule that rejects the ledger raises EngineError."""
    (_, _, _, ne1, _, _, in01, in1), (_, _, _, ne2, _, _, in02, in2), (
        _, _, _, ne3, _, _, in03, in3) = branches
    (nu1, _, _), (nu2, _, _), (nu3, _, _) = curve_type.schemes
    x0, x1, x2, x3, ovals = net
    y2, y3 = abs(lam[2] - quad_net[1]), abs(lam[3] - quad_net[2])
    parks1, parks2, parks3 = _chain_parking(curve_type.schemes, branches)
    t0, t1, t2, t3 = abs(x0) + in01 + in02 + in03, abs(x1) + in1, abs(x2) + in2, abs(x3) + in3
    zone_pop = (t0, parks1 + tables.beta - ovals - y2 - y3, parks2 + y2, parks3 + y3, t1, t2, t3)
    lambda_delta = sum(lam) + ne1 + ne2 + ne3
    pairs = tables.pairs
    ledger = OrientationLedger(
        lam, (nu1, nu2, nu3, ne1 - nu1, ne2 - nu2, ne3 - nu3),
        (OVALS + lambda_delta) // 2, (OVALS - lambda_delta) // 2,
        (pairs + pd) // 2, (pairs - pd) // 2, zone_pop,
    )
    ledger.validate(pairs)
    candidate = Candidate(
        curve_type, ledger, True, (True, True, True), t0 == t1 == t2 == t3 == 0,
        (abs(x0), abs(x1), abs(x2), abs(x3)),
    )
    for rule_id, verdict in evaluate_all(candidate, tables.ablate).items():
        if verdict.status == VIOLATED:
            raise EngineError(f"{rule_id} rejects the search's witness: {verdict.evidence}")
    return ledger


def _settle(
    scheme: RealScheme, candidates: list[CurveType], ablate: tuple[str, ...]
) -> tuple[ProofTrace, ...]:
    """The trace of each candidate of one scheme: the stage screen, then
    `_search` of each candidate the screen leaves open, all against one
    `_SchemeTables`.
    """
    if sum(scheme.alpha) + scheme.beta != EMPTY_OVALS:
        raise EngineError(f"the scheme does not have {EMPTY_OVALS} empty ovals")
    check_rule_ids(ablate)
    scheme_text = str(scheme)
    tables = _SchemeTables(scheme, ablate)
    traces = []
    for ct in candidates:
        pd, zones = tables.triples[ct.schemes]
        stage = _stage_closures(ct, pd, tables)
        branches, witness = (), None
        if not stage:
            branches, witness = _search(ct, tables, pd, zones)
        outcome = "eliminated" if witness is None else "survives"
        traces.append(
            ProofTrace(ct._text, scheme_text, outcome, zones, stage, branches, witness)
        )
    return tuple(traces)


def eliminate(
    candidate: CurveType, scheme: RealScheme, ablate: tuple[str, ...] = ()
) -> ProofTrace:
    """Exhaustively explore one candidate; eliminated or survives-with-witness."""
    return _settle(scheme, [candidate], ablate)[0]


# ---------------------------------------------------------------------------
# Theorem-level drivers


class SchemeResult(namedtuple("SchemeResult", "scheme traces")):
    __slots__ = ()

    @property
    def surviving(self) -> tuple[ProofTrace, ...]:
        return tuple(t for t in self.traces if t.outcome == "survives")

    @property
    def excluded(self) -> bool:
        return not self.surviving

    def to_json_dict(self) -> dict:
        return {
            "scheme": str(self.scheme),
            "alpha": list(self.scheme.alpha),
            "beta": self.scheme.beta,
            "candidates": len(self.traces),
            "eliminated": sum(1 for t in self.traces if t.outcome == "eliminated"),
            "surviving": [t.candidate for t in self.surviving],
            "known": self.scheme.beta == 1,
        }


class ExclusionReport(namedtuple("ExclusionReport", "results")):
    __slots__ = ()

    @property
    def excluded_count(self) -> int:
        return sum(1 for r in self.results if r.excluded)

    @property
    def known_count(self) -> int:
        return sum(1 for r in self.results if r.excluded and r.scheme.beta == 1)

    @property
    def new_count(self) -> int:
        return sum(1 for r in self.results if r.excluded and r.scheme.beta != 1)

    @property
    def all_excluded(self) -> bool:
        return all(r.excluded for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schemes": [r.to_json_dict() for r in self.results],
            "excludedCount": self.excluded_count,
            "knownCount": self.known_count,
            "newCount": self.new_count,
        }


def prove_theorem1(
    ablate: tuple[str, ...] = (), schemes: Optional[list[RealScheme]] = None
) -> ExclusionReport:
    """Eliminate every candidate for the all-even three-nest schemes."""
    if schemes is None:
        schemes = enumerate_three_nest_schemes(lambda s: s.all_even)
    results = []
    for s in schemes:
        options = _typed_options(s)  # shared by both halves of the enumeration
        candidates = _no_jump_candidates(s, options) + _jump_candidates(s, options)
        results.append(SchemeResult(s, _settle(s, candidates, ablate)))
    return ExclusionReport(tuple(results))


# ---------------------------------------------------------------------------
# The bound-3 branch analysis (central triangle only exterior)


class Prop2Row(namedtuple("Prop2Row", "schemes e0 closed closures note", defaults=("",))):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "schemes": [str(s) for s in self.schemes],
            "e0": self.e0,
            "closed": self.closed,
            "closures": [c.to_json_dict() for c in self.closures],
            "note": self.note,
        }


class Prop2Report(namedtuple("Prop2Report", "rows")):
    __slots__ = ()

    @property
    def all_closed(self) -> bool:
        return all(r.closed for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "allClosed": self.all_closed,
            "mirror": "the magnitude-3 value of opposite sign follows by "
            "orientation reversal",
        }


# The published reference tables that `figures` regenerates.  They are
# listed here, so that the CLI offers them without loading the renderer.
FIGURE_IDS = (16, 17, 18, 19, 20, 21, 22)

# The a-priori scheme rows of the bound-3 analysis, in table 21's order.
FIG21_TRIPLES = (
    (NestScheme(MINUS, 1, 1), NestScheme(MINUS, 1, 1), NestScheme(MINUS, 0, 1)),
    (NestScheme(MINUS, 1, 1), NestScheme(MINUS, 0, 1), NestScheme(MINUS, 0, 1)),
    (NestScheme(MINUS, 0, 1), NestScheme(MINUS, 0, 1), NestScheme(MINUS, 0, 1)),
    (NestScheme(PLUS, 1, 1), NestScheme(PLUS, 1, 1), NestScheme(PLUS, 1, 0)),
    (NestScheme(PLUS, 1, 1), NestScheme(PLUS, 1, 0), NestScheme(PLUS, 1, 0)),
    (NestScheme(PLUS, 1, 0), NestScheme(PLUS, 1, 0), NestScheme(PLUS, 1, 0)),
)

# Published table 21 lists -2 in this row; the formulas give -4.
FIG21_DISCREPANT_ROW = "(+, +, (+, +))"
FIG21_PRINTED_VALUE = -2


def prove_proposition2(ablate: tuple[str, ...] = ()) -> Prop2Report:
    """Close every branch of the |lambda_0| = 3 analysis.

    Assumes the central triangle holds only exterior ovals, the bound-3
    refinements (all nests separating, base and nest signs all equal to
    the opposite of lambda_0's sign, one quadrangle empty), and walks the
    a-priori scheme rows: rows with nonzero central residual force an
    exterior oval into a forbidden triangle; the rest force one corner
    contribution to 1, which only an up-tagged even nest can supply, and
    the separating-formula residual -1 closes it.
    """
    check_rule_ids(ablate)
    evidence = {}  # closure key -> evidence

    def closure(rule_id, violation):
        # None for no violation or an ablated rule, as in the search
        key = _closure_key(evidence, ablate, rule_id, violation)
        return key and Closure(rule_id, evidence[key])

    rows = []
    for triple in FIG21_TRIPLES:
        e = e_values(*triple)
        e0 = e[0]
        lam0 = 3 if triple[0].nu == MINUS else -3
        key = "(" + ", ".join(str(s) for s in triple) + ")"
        note = (
            f"computed {e0}; printed {FIG21_PRINTED_VALUE}"
            if key == FIG21_DISCREPANT_ROW
            else ""
        )
        if e0 != 0:
            # Chain shares move lambda_0 by at most 1 per even nest, so
            # exterior ovals must populate T0, against the residual.
            max_share = sum(1 for s in triple if s.alpha % 2 == 0)
            found = [closure(
                "exterior_zone", _exterior_zone_violation(0, e0, abs(lam0) - max_share))]
        else:
            target = 1 if lam0 > 0 else -1  # identity q with lambda_0 = +-3 and empty Q_q
            found = []
            for q in (1, 2, 3):
                if e[q] == 0:
                    found.append(None)  # corner would admit exterior ovals
                    continue
                nest = triple[q - 1]
                if nest.alpha % 2:
                    # an odd nest contributes nothing to its corner
                    found.append(closure("lemma10", _unreachable_violation(q, target, (0,))))
                    continue
                # Only the straddle-even branch of tag sign -target reaches
                # the corner value; its base sign matches the refinement.
                tag = "u" if target > 0 else "d"
                ct = ComplexType(nest, tag)
                j, k = (x for x in range(3) if x != q - 1)
                found.append(closure("separating", _separating_violation(
                    q, f_value(ct), g_value(triple[j]) + g_value(triple[k]))))
        closures = tuple(c for c in found if c)
        rows.append(Prop2Row(tuple(triple), e0, all(found), closures, note))
    return Prop2Report(tuple(rows))
