"""End-to-end acceptance checks.

Each test covers one numbered contract item and prints a single PASS/FAIL
line so a transcript of this module reads as a checklist. Items 1-9 drive
the built-in certificate suites at the seed from FREEUTIL_SEED (default 0);
item 10 exercises the command-line interface end to end.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from freeutil import verify
from freeutil.problemio import dumps, load, loads

GOLDEN = Path(__file__).parent / "golden"

SEED = verify.resolve_seed(verify.seed_text())


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d}: {description} ({detail})", flush=True)


def _run_suite_criterion(number: int, description: str, suite: str, budget: float | None = None):
    start = time.perf_counter()
    certs = verify.run_suite(suite, SEED)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in certs) and (budget is None or elapsed < budget)
    worst = max(c.gap - c.tolerance for c in certs)
    _report(number, description, ok, f"{len(certs)} certificates, worst margin {worst:.3g}, {elapsed:.2f}s")
    assert ok, [c for c in certs if not c.passed]


def test_criterion_01_soft_policy_never_beaten_by_lattice():
    _run_suite_criterion(
        1, "lattice oracle never beats the soft policy by more than 1e-5",
        "gibbs-optimality", budget=10.0,
    )


def test_criterion_02_log_partition_identity():
    _run_suite_criterion(
        2, "achieved objective equals the log-partition value within 1e-9",
        "log-partition",
    )


def test_criterion_03_prior_anchored_control_optimality():
    _run_suite_criterion(
        3, "prior-anchored control certified against the lattice, support preserved",
        "control-optimality",
    )


def test_criterion_04_temperature_limit_recovery():
    _run_suite_criterion(
        4, "limits recover argmax, prior, expected-utility and worst-case choices",
        "limit-recovery",
    )


def test_criterion_05_two_stage_objective_optimality():
    _run_suite_criterion(
        5, "nested solution passes the lattice check at every node within 1e-5",
        "two-stage-optimality",
    )


def test_criterion_06_tree_recursion_matches_path_enumeration():
    _run_suite_criterion(
        6, "tree recursion matches path enumeration (1e-9) and hard backup (1e-2)",
        "value-recursion",
    )


def test_criterion_07_certainty_equivalent_monotone_and_bounded():
    _run_suite_criterion(
        7, "certainty equivalent is monotone in mu and bounded by supported utilities",
        "ce-monotonicity",
    )


def test_criterion_08_small_mu_curvature():
    _run_suite_criterion(
        8, "small-mu expansion error scales quadratically (ratio within factor 4)",
        "cumulant-expansion",
    )


def test_criterion_09_risk_aversion_reaches_worst_case():
    _run_suite_criterion(
        9, "a finite mu threshold always reaches the worst-case action",
        "minimax-convergence",
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "freeutil", *[str(a) for a in args]],
        capture_output=True, text=True, env=dict(os.environ),
    )


def test_criterion_10_cli_contract():
    problems = []
    valid = sorted(
        p for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_")
    )
    round_trips = 0
    for path in valid:
        text = dumps(load(str(path)))
        if dumps(loads(text)) == text:
            round_trips += 1
    exits = {
        0: _cli("solve", GOLDEN / "control_basic.json").returncode,
        2: _cli("solve", GOLDEN / "invalid_notnormalized.json").returncode,
        3: _cli("solve", GOLDEN / "two_stage_lambda_zero.json").returncode,
        4: _cli("verify", "--suite", "control-optimality", "--perturb", "0.001").returncode,
    }
    start = time.perf_counter()
    full = _cli("verify", "--suite", "all")
    elapsed = time.perf_counter() - start
    suite_ok = full.returncode == 0 and json.loads(full.stdout)["passed"] is True

    ok = (
        round_trips == len(valid) == 20
        and all(want == got for want, got in exits.items())
        and suite_ok
        and elapsed < 60.0
    )
    _report(
        10, "round-trip identity, exit codes 0/2/3/4, full suite end to end",
        ok, f"{round_trips}/20 files, exits {exits}, suite {elapsed:.2f}s",
    )
    assert ok
