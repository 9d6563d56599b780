"""Survivors outside the even family, and jump-case witnesses.

The engine certifies eliminations only.  On a scheme with an odd nest the
jump trichotomy's arithmetic is satisfiable, and the search produces a
concrete witness ledger for the surviving candidate.
"""

import json

from nestprohibitor import (
    RealScheme,
    eliminate,
    jump_candidates,
    no_jump_candidates,
    pi_delta,
)
from nestprohibitor.schemes import PLUS

scheme = RealScheme((1, 2, 22), 0)
print(f"scheme {scheme}:")
candidates = no_jump_candidates(scheme) + jump_candidates(scheme)
survivors = []
for candidate in candidates:
    trace = eliminate(candidate, scheme)
    if trace.outcome == "survives":
        survivors.append(trace)
print(f"  candidates: {len(candidates)}, survivors: {len(survivors)}")
for trace in survivors:
    print(f"  survives: {trace.candidate}")
print()

trace = survivors[0]
print("witness ledger for the first survivor:")
print(json.dumps(trace.witness.to_json_dict(), indent=2))
print()

# Pi_delta 3 with nu_3 = + leaves only the crossing case open.
print("direct satisfiability query, crossing case of the trichotomy:")
case2_scheme = RealScheme((1, 2, 2), 20)
for candidate in jump_candidates(case2_scheme):
    if pi_delta(candidate.schemes) != 3 or candidate.schemes[2].nu != PLUS:
        continue
    ledger = eliminate(candidate, case2_scheme).witness
    if ledger is not None:
        print(f"  {candidate}")
        print(f"  pair delta {ledger.pi_delta}, lambda = {list(ledger.lam)}")
        break
