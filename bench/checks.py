"""Correctness checks on the serialised proof traces of one scheme.

The checks come from the paper and from properties the method must have,
not from recorded output.  They read only the canonical JSON form of the
traces and recompute every ledger identity from its numbers, so a fault in
the engine's own validators cannot hide a fault here.
"""

from __future__ import annotations

# The axiom registry of the paper: every citation must be one of these.
REGISTRY = frozenset(
    {
        "rm",
        "lemma10",
        "lambda0_bound",
        "triangle_bound",
        "exterior_zone",
        "separating",
        "empty_triangles",
        "jump",
    }
)
OVALS = 28  # an M-curve of degree 9 has genus-many ovals
RM_RHS = 8  # Rokhlin-Mishachev: 2(Pi+ - Pi-) + (Lambda+ - Lambda-) = 8


def ledger_errors(ledger: dict, alpha_sum: int) -> list[str]:
    """Identities a witness ledger of the scheme must satisfy."""
    errors = []
    lam, pop = ledger["lambda"], ledger["zonePop"]
    lp, lm = ledger["LambdaPlus"], ledger["LambdaMinus"]
    pp, pm = ledger["PiPlus"], ledger["PiMinus"]
    if 2 * (pp - pm) + (lp - lm) != RM_RHS:
        errors.append("2(Pi+ - Pi-) + (Lambda+ - Lambda-) != 8")
    if lp + lm != OVALS:
        errors.append(f"Lambda+ + Lambda- != {OVALS}")
    if pp + pm != alpha_sum:
        errors.append("Pi+ + Pi- != sum of alpha")
    for z, (l, p) in enumerate(zip(lam, pop)):
        if abs(l) > p or (l - p) % 2:
            errors.append(f"zone {z}: lambda {l} against population {p}")
    return errors


def trace_errors(trace: dict, alpha_sum: int) -> list[str]:
    """Faults of one serialised trace; an empty list means it passes."""
    where = f"{trace['scheme']} {trace['candidate']}"
    errors = []
    closures = list(trace["stageClosures"])
    for b in trace["branches"]:
        closures.extend(b["closures"])
    for c in closures:
        if c["rule"] not in REGISTRY:
            errors.append(f"{where}: unknown rule {c['rule']!r}")
    outcome = trace["outcome"]
    if outcome == "eliminated":
        if trace["witness"] is not None:
            errors.append(f"{where}: eliminated with a witness")
        for b in trace["branches"]:
            total = sum(c["count"] for c in b["closures"])
            checked = b["solutionsChecked"]
            closed_early = checked == 0 and len(b["closures"]) == 1
            if total != checked and not closed_early:
                errors.append(
                    f"{where}: branch {b['assignments']} closes {total} "
                    f"of {checked} assignments"
                )
        if not trace["stageClosures"] and not trace["branches"]:
            errors.append(f"{where}: eliminated without a closure")
    elif outcome == "survives":
        # The search stops at the first witness: one branch, whose closures
        # cover every assignment it checked except the witness itself.
        branches = trace["branches"]
        if len(branches) != 1 or sum(
            c["count"] for c in branches[0]["closures"]
        ) != branches[0]["solutionsChecked"] - 1:
            errors.append(f"{where}: closures do not cover the survivor's branch")
        if trace["witness"] is None:
            errors.append(f"{where}: survives without a witness")
        else:
            errors.extend(
                f"{where}: {e}" for e in ledger_errors(trace["witness"], alpha_sum)
            )
    else:
        errors.append(f"{where}: unknown outcome {outcome!r}")
    return errors


def scheme_errors(scheme, traces: list[dict]) -> list[str]:
    """Faults of the traces of one scheme, including the theorem's claim
    that every all-even scheme is excluded."""
    alpha_sum = sum(scheme.alpha)
    errors = []
    for t in traces:
        errors.extend(trace_errors(t, alpha_sum))
    excluded = all(t["outcome"] == "eliminated" for t in traces)
    if scheme.all_even and not excluded:
        errors.append(f"{scheme}: all-even scheme not excluded")
    return errors


def theorem1_errors(excluded: list) -> list[str]:
    """Theorem 1: 53 all-even schemes excluded, 12 with beta = 1, 41 new."""
    known = sum(1 for s in excluded if s.beta == 1)
    counts = (len(excluded), known, len(excluded) - known)
    if counts != (53, 12, 41):
        return [f"theorem1 excludes {counts[0]}/{counts[1]}/{counts[2]}, not 53/12/41"]
    return []
