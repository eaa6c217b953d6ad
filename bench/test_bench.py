"""Tests of the benchmark's reference solver and output checks.

    PYTHONPATH=src python -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import freeutil as fu  # noqa: E402
import freeutil.cli as cli  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def main(*argv, env=None) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("FREEUTIL_SEED", raising=False)
        for k, v in (env or {}).items():
            mp.setenv(k, v)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# reference solver on hand-computed cases


def test_control_basic():
    # prior (1/2, 1/2) tilted by exp(u) with u = (0, ln 2): weights 1 : 2
    sol = ref.solve_control([0.5, 0.5], [0.0, math.log(2.0)], 1.0)
    np.testing.assert_allclose(sol.policy, [1 / 3, 2 / 3], rtol=1e-15)
    assert sol.value == pytest.approx(math.log(1.5), rel=1e-15)


def test_zero_limit_keeps_prior_and_values_expectation():
    res = ref.segment_tilt([0.25, 0.75], [4.0, 0.0], [0], "zero")
    assert list(res.policy) == [0.25, 0.75]
    assert res.value[0] == 1.0


def test_infinite_limits_filter_support_and_split_ties():
    prior = [0.0, 0.2, 0.3, 0.5]
    gains = [9.0, 1.0, 1.0, -2.0]  # the best gain has no prior mass
    best = ref.segment_tilt(prior, gains, [0], "inf")
    assert list(best.policy) == [0.0, 0.5, 0.5, 0.0]
    assert best.value[0] == 1.0
    worst = ref.segment_tilt(prior, gains, [0], "-inf")
    assert list(worst.policy) == [0.0, 0.0, 0.0, 1.0]
    assert worst.value[0] == -2.0


def test_constant_gains_keep_prior_exactly():
    for t in (0.7, "inf", "-inf", "zero"):
        res = ref.segment_tilt([0.2, 0.8, 0.0], [3.0, 3.0, 5.0], [0], t)
        assert list(res.policy) == [0.2, 0.8, 0.0]
        assert res.value[0] == 3.0


def test_max_shift_keeps_huge_exponents_finite():
    res = ref.segment_tilt([0.5, 0.5], [1000.0, 999.0], [0], 2.0)
    assert res.policy[0] == pytest.approx(1 / (1 + math.exp(-2.0)))
    assert res.value[0] == pytest.approx(1000.0 + math.log(0.5 * (1 + math.exp(-2.0))) / 2.0)


def test_segments_are_independent():
    both = ref.segment_tilt([0.5, 0.5, 0.1, 0.9], [0.0, math.log(2.0), 1.0, 1.0], [0, 2], 1.0)
    np.testing.assert_allclose(both.policy, [1 / 3, 2 / 3, 0.1, 0.9], rtol=1e-15)
    np.testing.assert_allclose(both.value, [math.log(1.5), 1.0], rtol=1e-15)


def test_two_stage_safe_or_risky():
    # safe pays 2 or 2.5, risky 0 or 6, each with probability 1/2
    args = ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0], [[2.0, 2.5], [0.0, 6.0]])
    robust = ref.solve_two_stage(*args, "inf", "-inf")
    assert list(robust.action_policy) == [1.0, 0.0] and robust.value == 2.0
    neutral = ref.solve_two_stage(*args, "inf", "zero")
    assert list(neutral.action_policy) == [0.0, 1.0] and neutral.value == 3.0
    assert neutral.achieved_c2 == 0.0
    assert neutral.achieved_c1 == pytest.approx(math.log(2.0))


def test_tree_backup_matches_path_sum():
    # root -> x (p 0.4, u 1) -> {x1 (0.5, 0), x2 (0.5, 2)}; root -> y (0.6, u 0), a leaf
    payload = {
        "name": "root",
        "children": [
            {"prior": 0.4, "utility": 1.0, "node": {"name": "x", "children": [
                {"prior": 0.5, "utility": 0.0, "node": {"name": "x1"}},
                {"prior": 0.5, "utility": 2.0, "node": {"name": "x2"}},
            ]}},
            {"prior": 0.6, "utility": 0.0, "node": {"name": "y"}},
        ],
    }
    tree = ref.flatten_tree(payload)
    assert tree.paths() == ["root", "root/x", "root/y", "root/x/x1", "root/x/x2"]
    lam = 0.7
    sol = ref.solve_tree(tree, lam, 1.0)
    paths = [(0.4 * 0.5, 1.0), (0.4 * 0.5, 3.0), (0.6, 0.0)]
    expect = math.log(sum(p * math.exp(lam * u) for p, u in paths)) / lam
    assert sol.values[0] == pytest.approx(expect, rel=1e-14)
    hard = ref.solve_tree(tree, "inf", 1.0)
    assert hard.values[0] == 3.0 and list(hard.policy[1:3]) == [1.0, 0.0]


def test_flat_tree_layout_matches_the_constructed_tree():
    data = wl.tree_arrays(5, depth=3)
    flat = wl.flat_tree(data)
    pf = wl.build_tree(fu, data)
    nested = ref.flatten_tree(json.loads(fu.dumps(pf))["payload"])
    assert nested.paths() == flat.paths()
    # the program renormalises each prior row once, which moves the last bit
    np.testing.assert_allclose(nested.prior, flat.prior, rtol=1e-15)
    np.testing.assert_array_equal(nested.utility, flat.utility)
    internal = flat.n_children > 0
    assert list(np.asarray(nested.tags)[internal]) == list(np.asarray(flat.tags)[internal])


# ---------------------------------------------------------------------------
# each workload check accepts the program's output and rejects a perturbed copy


def perturb_number(text: str, old: str) -> str:
    assert old in text
    return text.replace(old, repr(float(old) * (1 + 1e-6) + 1e-6), 1)


def test_tree_check(tmp_path):
    data = wl.tree_arrays(3, depth=4)
    path = tmp_path / "tree.json"
    fu.dump(wl.build_tree(fu, data), str(path))
    code, out, _ = main("solve", path)
    assert code == 0
    flat = wl.flat_tree(data)
    wl.check_tree_doc(json.loads(out), flat, data["lam"], data["mu"])

    doc = json.loads(out)
    doc["node_values"]["r/b/a"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_tree_doc(doc, flat, data["lam"], data["mu"])
    doc = json.loads(out)
    doc["node_policies"]["r/c"]["a"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_tree_doc(doc, flat, data["lam"], data["mu"])


def test_sweep_check(tmp_path):
    data = wl.two_stage_data(3, 6, 5)
    path = tmp_path / "two_stage.json"
    fu.dump(wl.build_two_stage(fu, data), str(path))
    code, out, _ = main("sweep", path, "--param", "mu", "--grid=" + ",".join(wl.SWEEP_GRID))
    assert code == 0
    wl.check_sweep_csv(out, data)

    lines = out.splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2] = perturb_number(cells[2], cells[2])
    lines[3] = ",".join(cells)
    with pytest.raises(wl.CheckFailed):
        wl.check_sweep_csv("".join(lines), data)


@pytest.mark.parametrize("name", wl.GOLDEN_VERIFIED)
def test_verify_file_check(name):
    raw = json.loads((GOLDEN / name).read_text())
    code, out, _ = main("verify", GOLDEN / name)
    assert code == 0
    wl.check_verify_file(out, raw)

    doc = json.loads(out)
    doc["certificates"][0]["analytic"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_verify_file(json.dumps(doc), raw)
    doc = json.loads(out)
    doc["certificates"][-1]["gap"] = doc["certificates"][-1]["tolerance"] + 1.0
    with pytest.raises(wl.CheckFailed):
        wl.check_verify_file(json.dumps(doc), raw)


@pytest.mark.parametrize(
    "name", ["control_basic.json", "two_stage_temps.json", "tree_mixed_tags.json"]
)
def test_golden_solve_check(name):
    raw = json.loads((GOLDEN / name).read_text())
    code, out, _ = main("solve", GOLDEN / name)
    assert code == 0
    wl.check_golden_solve(out, raw)

    value = str(json.loads(out)["value"])
    with pytest.raises(wl.CheckFailed):
        wl.check_golden_solve(out.replace(f'"value": {value}', f'"value": {float(value) + 1e-6!r}', 1), raw)


def test_golden_regimes_check():
    raw = json.loads((GOLDEN / "two_stage_basic.json").read_text())
    code, out, _ = main("regimes", GOLDEN / "two_stage_basic.json")
    assert code == 0
    wl.check_regimes_doc(json.loads(out), raw["payload"])

    doc = json.loads(out)
    doc["sections"][2]["value"] += 1e-6
    with pytest.raises(wl.CheckFailed):
        wl.check_regimes_doc(doc, raw["payload"])


def test_every_golden_op_passes_and_a_wrong_error_is_caught(tmp_path):
    ops = wl.golden_ops(ROOT, seed=0)
    assert len(ops) == 36
    checker = run.Checker()
    for i, op in enumerate(ops):
        code, out, err = main(*op.argv)
        checker.add(ops, run.Call(i, 0.0, 0.0, code, out, err))
    assert checker.problems == [] and checker.failures == [] and checker.attempted == 36

    i = next(i for i, op in enumerate(ops) if op.error == "NotNormalized")
    wrong = run.Checker()
    wrong.add(ops, run.Call(i, 0.0, 0.0, 2, "", "DomainError: probabilities sum to 1.1\n"))
    assert not wrong.correct and wrong.failed == 0


def test_golden_round_trip(tmp_path):
    built = wl.GoldenCliWorkload().build(fu, 0, tmp_path, ROOT)
    assert len(built.files) == 20
    for path, pf in built.files.items():
        fu.dump(pf, str(path))
    built.check_files()
    path = tmp_path / "control_basic.json"
    path.write_text(perturb_number(path.read_text(), "0.6931471805599453"))
    with pytest.raises(wl.CheckFailed):
        built.check_files()


def test_changed_output_between_calls_is_caught():
    ops = [wl.Op(["solve", "x.json"], check=lambda s: None)]
    checker = run.Checker()
    checker.add(ops, run.Call(0, 0.0, 0.0, 0, "a", ""))
    checker.add(ops, run.Call(0, 0.0, 0.0, 0, "b", ""))
    assert not checker.correct


def test_unexpected_exit_counts_as_failed_not_incorrect():
    ops = [wl.Op(["solve", "x.json"], check=lambda s: None)]
    checker = run.Checker()
    checker.add(ops, run.Call(0, 0.0, 0.0, 1, "", "Traceback ...\n"))
    assert checker.failed == 1 and checker.correct


def test_speed_gauge_scales_by_the_mean_probe():
    gauge = run.SpeedGauge(launcher=None)
    gauge.probes = [0.35, 0.35, 0.7]
    assert gauge.scale == pytest.approx(0.35 / (1.4 / 3))
