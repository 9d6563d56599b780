"""Quick self-test of the benchmark, outside the tier-1 test paths.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import checks
import worker
import workloads
from nestprohibitor import parse_real_scheme

BENCH = os.path.dirname(os.path.abspath(__file__))
EVEN = parse_real_scheme("<J + 1<2> + 1<2> + 1<20> + 1>")
OPEN = parse_real_scheme("<J + 1<1> + 1<2> + 1<2> + 20>")


@pytest.fixture(scope="module")
def traces():
    return {s: worker.settle(s)[1] for s in (EVEN, OPEN)}


def test_workloads_are_seeded_and_stratified():
    assert len(workloads.build("theorem1", 1)) == 53
    for name, strata in (("lowbeta", workloads.LOWBETA_STRATA),
                         ("highbeta", workloads.HIGHBETA_STRATA)):
        first = workloads.build(name, 7)
        assert first == workloads.build(name, 7)
        assert len(first) == len(strata)
        assert sorted(map(workloads.stratum, first)) == sorted(k for k, _ in strata)
        assert any(workloads.build(name, seed) != first for seed in range(8))
    assert all(s.beta <= 6 for s in workloads.build("lowbeta", 3))
    assert all(s.beta >= 14 for s in workloads.build("highbeta", 3))


def test_checks_pass_on_engine_output(traces):
    for scheme, dicts in traces.items():
        assert checks.scheme_errors(scheme, dicts) == []
    assert any(t["witness"] for t in traces[OPEN])


def first(dicts, predicate):
    return next(t for t in dicts if predicate(t))


@pytest.mark.parametrize("fault", ["rule", "count", "ledger", "survivor"])
def test_checks_catch_faults(traces, fault):
    even, opened = copy.deepcopy(traces[EVEN]), copy.deepcopy(traces[OPEN])
    if fault == "rule":
        t = first(even, lambda t: t["branches"] and t["branches"][0]["closures"])
        t["branches"][0]["closures"][0]["rule"] = "lemma99"
    elif fault == "count":
        t = first(even, lambda t: any(b["solutionsChecked"] for b in t["branches"]))
        next(b for b in t["branches"] if b["solutionsChecked"])["solutionsChecked"] += 1
    elif fault == "ledger":
        first(opened, lambda t: t["witness"])["witness"]["LambdaPlus"] += 2
    else:
        even[0]["outcome"] = "survives"
    errors = checks.scheme_errors(EVEN, even) + checks.scheme_errors(OPEN, opened)
    assert errors


def test_reference_speed_scales_by_the_median_kernel_time():
    ref, half = calibrate.REF_S, 0.5 ** calibrate.ELASTICITY
    assert calibrate.reference_s(2.0, [ref]) == pytest.approx(2.0)
    assert calibrate.reference_s(2.0, [ref, 3 * ref]) == pytest.approx(2.0 * half)
    assert calibrate.reference_s(2.0, [ref / 2, 2 * ref, 9 * ref]) == pytest.approx(2.0 * half)
    assert calibrate.kernel() == calibrate.kernel()


def test_pass_hash_equals_hash_of_whole_list(traces):
    digest = worker.PassJSON()
    for dicts in traces.values():
        digest.add(json.dumps(dicts))
    whole = json.dumps([t for dicts in traces.values() for t in dicts])
    assert digest.close() == hashlib.sha256(whole.encode()).hexdigest()


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theorem1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
