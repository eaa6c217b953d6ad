"""The benchmark's workloads: seeded inputs, the CLI calls of one round, and
the checks that every output must pass.

A workload builds its problems from seeded numpy arrays through the public
constructors of ``freeutil`` (the package module is passed in, never imported
here), writes them with ``freeutil.dump``, and lists the operations of one
round. An operation is one CLI call with its expected exit code; the checks
recompute every number from the raw arrays with ``reference`` and raise
``CheckFailed`` on the first disagreement.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Printed numbers carry 12 significant digits; compare with room for the
# rounding of a long chain of float operations, and no more.
RTOL = 1e-9
ATOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with the reference or breaks a required property."""


@dataclass
class Op:
    """One CLI call. ``check`` receives the decoded stdout of a call that
    exited with ``exit_code``; a call expected to fail names its error."""

    argv: list
    exit_code: int = 0
    error: str | None = None
    check: Callable[[str], None] | None = None
    reads: list = field(default_factory=list)  # problem files the call parses


@dataclass
class Built:
    """What a set-up pass produced: the problem files to write (path ->
    ProblemFile), the operations of one round, and a check of the written
    files, if the workload has one."""

    files: dict
    ops: list
    check_files: Callable[[], None] | None = None


def close(out, expect, what: str) -> None:
    out = np.asarray(out, dtype=float)
    expect = np.asarray(expect, dtype=float)
    if out.shape != expect.shape:
        raise CheckFailed(f"{what}: shape {out.shape} != {expect.shape}")
    bad = ~np.isclose(out, expect, rtol=RTOL, atol=ATOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(
            f"{what}: entry {i} is {float(out.ravel()[i])!r}, reference {float(expect.ravel()[i])!r}"
        )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def regime_label(lam, mu) -> str:
    """The program's name for a (lambda, mu) pair, from its documented rules."""
    if mu == "zero":
        base = "risk-neutral"
    elif mu == "-inf":
        base = "robust"
    elif mu == "inf":
        base = "optimistic"
    else:
        base = "risk-seeking" if mu > 0 else "risk-averse"
    return base if isinstance(lam, str) else base + "-bounded"


def log_partition(value: float, t):
    """log Z of a tilt from its value: t·value, 0 at the zero limit, none at ±inf."""
    if t == "zero":
        return 0.0
    if isinstance(t, str):
        return None
    return t * value


def _close_or_null(out, expect, what: str) -> None:
    if expect is None:
        _require(out is None, f"{what}: expected null, got {out!r}")
    else:
        close(out, expect, what)


# ---------------------------------------------------------------------------
# document checks shared by the workloads


def check_tree_doc(doc: dict, tree: ref.FlatTree, lam, mu) -> None:
    """Every node value agrees with the level-wise reference backup, and every
    node policy sums to 1, is exactly zero where the prior is, and agrees."""
    lam, mu = ref.temperature(lam), ref.temperature(mu)
    sol = ref.solve_tree(tree, lam, mu)
    paths = tree.paths()
    _require(doc.get("command") == "solve" and doc.get("kind") == "tree", "not a tree solve")
    _require(doc.get("regime") == regime_label(lam, mu), f"regime {doc.get('regime')!r}")
    node_values = doc["node_values"]
    _require(
        len(node_values) == len(paths),
        f"{len(node_values)} node values for {len(paths)} nodes",
    )
    try:
        out = [node_values[p] for p in paths]
    except KeyError as e:
        raise CheckFailed(f"no value for node {e}") from None
    close(out, sol.values, "node values")
    close(doc["value"], sol.values[0], "root value")

    policies = doc["node_policies"]
    internal = np.flatnonzero(tree.n_children > 0)
    _require(len(policies) == internal.size, "one policy per internal node")
    out_policy = np.zeros(len(paths))
    for i in internal:
        first, count = tree.first_child[i], tree.n_children[i]
        row = policies.get(paths[i])
        _require(row is not None and len(row) == count, f"policy of {paths[i]!r}")
        try:
            out_policy[first : first + count] = [row[tree.names[k]] for k in range(first, first + count)]
        except KeyError as e:
            raise CheckFailed(f"policy of {paths[i]!r} misses {e}") from None
    starts = tree.first_child[internal]
    sums = np.add.reduceat(out_policy, starts)
    _require(np.all(np.abs(sums - 1.0) <= 1e-9), "a node policy does not sum to 1")
    _require(np.all(out_policy[1:][tree.prior[1:] == 0.0] == 0.0), "mass on a zero-prior child")
    close(out_policy[1:], sol.policy[1:], "node policies")


def check_two_stage_doc(doc: dict, raw: dict, lam, mu) -> None:
    """A ``solve`` document of a two-stage problem against the reference."""
    lam, mu = ref.temperature(lam), ref.temperature(mu)
    arrays = two_stage_arrays(raw)
    sol = ref.solve_two_stage(*arrays[2:], lam, mu)
    actions, outcomes = arrays[0], arrays[1]
    _require(doc.get("command") == "solve" and doc.get("kind") == "two_stage", "not a two-stage solve")
    _require(doc.get("regime") == regime_label(lam, mu), f"regime {doc.get('regime')!r}")
    _require(list(doc["action_policy"]) == actions, "action order")
    close(list(doc["action_policy"].values()), sol.action_policy, "action policy")
    for i, a in enumerate(actions):
        row = doc["outcome_beliefs"][a]
        _require(list(row) == outcomes, f"outcome order of {a!r}")
        close(list(row.values()), sol.beliefs[i], f"beliefs of {a!r}")
        close(doc["values"][a], sol.values[i], f"value of {a!r}")
        ce = sol.values[i] - float(raw["action_utility"][i])
        _close_or_null(doc["log_z2"][a], log_partition(ce, mu), f"log_z2 of {a!r}")
    close(doc["value"], sol.value, "value")
    _close_or_null(doc["log_z1"], log_partition(sol.value, lam), "log_z1")
    close(doc["achieved_c1"], sol.achieved_c1, "achieved_c1")
    close(doc["achieved_c2"], sol.achieved_c2, "achieved_c2")


def check_control_doc(doc: dict, raw: dict, alpha) -> None:
    """A ``solve`` document of a control problem against the reference."""
    alpha = ref.temperature(alpha)
    sol = ref.solve_control(raw["prior"], raw["utility"], alpha)
    t = {"zero": "inf", "inf": "zero"}.get(alpha) if isinstance(alpha, str) else 1.0 / alpha
    _require(doc.get("command") == "solve" and doc.get("kind") == "control", "not a control solve")
    _require(list(doc["policy"]) == raw["outcomes"], "outcome order")
    close(list(doc["policy"].values()), sol.policy, "policy")
    close(doc["value"], sol.value, "value")
    _close_or_null(doc["log_partition"], log_partition(sol.value, t), "log_partition")
    close(doc["expected_utility"], sol.expected_utility, "expected utility")
    close(doc["achieved_kl"], sol.achieved_kl, "achieved_kl")
    cost = alpha * sol.achieved_kl if not isinstance(alpha, str) else 0.0
    close(doc["information_cost"], cost, "information cost")
    close(doc["total"], sol.expected_utility - cost, "total")


def check_regimes_doc(doc: dict, raw: dict, mu_risk: float = -1.0) -> None:
    """The four sections of ``regimes``: soft (1, 1), expected utility,
    risk-averse at mu_risk, and worst case, each against the reference."""
    arrays = two_stage_arrays(raw)
    actions = arrays[0]
    points = [(1.0, 1.0), ("inf", "zero"), ("inf", mu_risk), ("inf", "-inf")]
    sections = doc["sections"]
    _require(len(sections) == len(points), f"{len(sections)} regime sections")
    for section, (lam, mu) in zip(sections, points):
        sol = ref.solve_two_stage(*arrays[2:], lam, mu)
        label = regime_label(ref.temperature(lam), ref.temperature(mu))
        _require(section["regime"] == label, f"regime {section['regime']!r}, expected {label!r}")
        _require(list(section["policy"]) == actions, "action order")
        close(list(section["policy"].values()), sol.action_policy, f"{label} policy")
        close(section["value"], sol.value, f"{label} value")
        # the most probable action, first listed on exact ties
        probs = list(section["policy"].values())
        _require(
            section["chosen_action"] == actions[probs.index(max(probs))],
            f"{label} chose {section['chosen_action']!r}",
        )


def two_stage_arrays(raw: dict):
    actions, outcomes = list(raw["actions"]), list(raw["outcomes"])
    return (
        actions,
        outcomes,
        np.asarray(raw["prior_action"], dtype=float),
        np.asarray([raw["channel"][a] for a in actions], dtype=float),
        np.asarray(raw["action_utility"], dtype=float),
        np.asarray([raw["outcome_utility"][a] for a in actions], dtype=float),
    )


# ---------------------------------------------------------------------------
# tree-88k


def tree_arrays(seed: int, depth: int = 10, fan: int = 3) -> dict:
    """A complete ``fan``-ary tree of the given depth in breadth-first arrays.

    Tags alternate by level (lambda at even depths, mu at odd), lambda is
    finite positive and mu finite negative. About 6 % of internal nodes give
    one child zero prior.
    """
    rng = np.random.default_rng([seed, 1])
    n_internal = (fan**depth - 1) // (fan - 1)
    prior = rng.uniform(0.1, 1.0, (n_internal, fan))
    zero = rng.uniform(size=n_internal) < 0.06
    prior[zero, rng.integers(0, fan, n_internal)[zero]] = 0.0
    prior /= prior.sum(axis=1, keepdims=True)
    utility = rng.uniform(-1.0, 1.0, (n_internal, fan))
    return {
        "depth": depth,
        "fan": fan,
        "prior": prior,
        "utility": utility,
        "lam": float(rng.uniform(0.5, 2.0)),
        "mu": -float(rng.uniform(0.5, 2.0)),
    }


def child_names(fan: int) -> list:
    return [chr(ord("a") + i) for i in range(fan)]


def flat_tree(data: dict) -> ref.FlatTree:
    depth, fan = data["depth"], data["fan"]
    n_internal = data["prior"].shape[0]
    n = n_internal * fan + 1
    ids = np.arange(n)
    node_depth = np.zeros(n, dtype=np.intp)
    for d in range(1, depth + 1):
        node_depth[(fan**d - 1) // (fan - 1):] = d
    names = ["r"] + child_names(fan) * n_internal
    n_children = np.where(ids < n_internal, fan, 0)
    return ref.FlatTree(
        names=names,
        depth=node_depth,
        parent=np.concatenate([[-1], (ids[1:] - 1) // fan]),
        first_child=ids * fan + 1,
        n_children=n_children,
        prior=np.concatenate([[0.0], data["prior"].ravel()]),
        utility=np.concatenate([[0.0], data["utility"].ravel()]),
        tags=["lambda" if d % 2 == 0 else "mu" for d in node_depth],
    )


def build_tree(fu, data: dict):
    """The same tree through the public constructors, deepest level first."""
    fan, depth = data["fan"], data["depth"]
    names = child_names(fan)
    level = [fu.TreeNode(name=names[i % fan]) for i in range(fan**depth)]
    for d in range(depth - 1, -1, -1):
        first = (fan**d - 1) // (fan - 1)
        tag = "lambda" if d % 2 == 0 else "mu"
        level = [
            fu.TreeNode(
                name=names[i % fan] if d else "r",
                children=tuple(level[fan * i : fan * i + fan]),
                child_prior=fu.FiniteDistribution(names, data["prior"][first + i]),
                child_utility=fu.UtilityTable(names, data["utility"][first + i]),
                temperature_tag=tag,
            )
            for i in range(fan**d)
        ]
    return fu.ProblemFile(
        "1",
        "tree",
        fu.DecisionTree(level[0]),
        lam=fu.Temperature.finite(data["lam"]),
        mu=fu.Temperature.finite(data["mu"]),
    )


class TreeWorkload:
    name = "tree-88k"
    why = "solve on an 88,573-node ternary tree: problemio parsing, per-node tilts and rendering 88k keys"

    def build(self, fu, seed: int, workdir: Path, root: Path) -> Built:
        data = tree_arrays(seed)
        path = workdir / "tree.json"
        tree = flat_tree(data)

        def check(stdout: str) -> None:
            check_tree_doc(json.loads(stdout), tree, data["lam"], data["mu"])

        return Built({path: build_tree(fu, data)}, [Op(["solve", str(path)], check=check, reads=[path])])


# ---------------------------------------------------------------------------
# staged-sweep

SWEEP_GRID = ("-inf", "-4", "-1", "-0.25", "zero", "0.25", "1", "4", "inf")


def two_stage_data(seed: int, n_actions: int, n_outcomes: int) -> dict:
    """A two-stage problem with about 3 % zero channel entries; lambda finite."""
    rng = np.random.default_rng([seed, 2])
    prior = rng.uniform(0.1, 1.0, n_actions)
    channel = rng.uniform(0.1, 1.0, (n_actions, n_outcomes))
    channel[rng.uniform(size=channel.shape) < 0.03] = 0.0
    channel[:, 0] = rng.uniform(0.1, 1.0, n_actions)  # every row keeps support
    return {
        "actions": [f"a{i}" for i in range(n_actions)],
        "outcomes": [f"o{j}" for j in range(n_outcomes)],
        "prior_action": prior / prior.sum(),
        "channel": channel / channel.sum(axis=1, keepdims=True),
        "action_utility": rng.uniform(-1.0, 1.0, n_actions),
        "outcome_utility": rng.uniform(-2.0, 2.0, (n_actions, n_outcomes)),
        "lam": float(rng.uniform(1.0, 3.0)),
    }


def build_two_stage(fu, data: dict):
    actions, outcomes = data["actions"], data["outcomes"]
    problem = fu.TwoStageProblem(
        actions,
        outcomes,
        fu.FiniteDistribution(actions, data["prior_action"]),
        {a: fu.FiniteDistribution(outcomes, row) for a, row in zip(actions, data["channel"])},
        fu.UtilityTable(actions, data["action_utility"]),
        {a: fu.UtilityTable(outcomes, row) for a, row in zip(actions, data["outcome_utility"])},
    )
    return fu.ProblemFile("1", "two_stage", problem, lam=fu.Temperature.finite(data["lam"]))


def check_sweep_csv(stdout: str, data: dict, grid=SWEEP_GRID) -> None:
    """Every row agrees with the reference, the value is non-decreasing in mu
    and both KL columns are non-negative."""
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["mu"] + [f"p[{a}]" for a in data["actions"]] + ["value", "achieved_c1", "achieved_c2"]
    _require(rows[0] == header, "sweep header")
    _require(len(rows) == len(grid) + 1, f"{len(rows) - 1} sweep rows for {len(grid)} grid points")
    values = []
    for token, row in zip(grid, rows[1:]):
        mu = ref.temperature(token)
        _require(ref.temperature(row[0]) == mu, f"row for {token!r} reads {row[0]!r}")
        cells = np.asarray(row[1:], dtype=float)
        sol = ref.solve_two_stage(
            data["prior_action"], data["channel"], data["action_utility"],
            data["outcome_utility"], data["lam"], mu,
        )
        close(cells[:-3], sol.action_policy, f"policy at mu={token}")
        close(cells[-3:], [sol.value, sol.achieved_c1, sol.achieved_c2], f"value and KL at mu={token}")
        _require(cells[-2] >= 0.0 and cells[-1] >= 0.0, f"negative KL at mu={token}")
        values.append(cells[-3])
    for lo, hi, token in zip(values, values[1:], grid[1:]):
        _require(hi >= lo - ATOL, f"value decreases at mu={token}: {lo!r} -> {hi!r}")


class StagedSweepWorkload:
    name = "staged-sweep"
    why = "sweep of mu from -inf through zero to inf on a 300x300 two-stage problem: row-wise tilts, KL and limit branches"
    size = (300, 300)

    def build(self, fu, seed: int, workdir: Path, root: Path) -> Built:
        data = two_stage_data(seed, *self.size)
        path = workdir / "two_stage.json"
        argv = ["sweep", str(path), "--param", "mu", "--grid=" + ",".join(SWEEP_GRID)]
        op = Op(argv, check=lambda stdout: check_sweep_csv(stdout, data), reads=[path])
        return Built({path: build_two_stage(fu, data)}, [op])


# ---------------------------------------------------------------------------
# golden-cli

# Golden files the CLI must reject, with the exit code and error it documents.
GOLDEN_REJECTED = {
    "control_alpha_negative.json": (2, "DomainError"),
    "invalid_bad_kind.json": (2, "DomainError"),
    "invalid_negative_prob.json": (2, "NegativeProbability"),
    "invalid_notnormalized.json": (2, "NotNormalized"),
    "invalid_unknown_field.json": (2, "DomainError"),
    "two_stage_lambda_zero.json": (3, "UnsupportedRegime"),
}


def check_golden_solve(stdout: str, raw: dict) -> None:
    temps = raw.get("temperatures", {})
    payload = raw["payload"]
    if raw["kind"] == "control":
        check_control_doc(json.loads(stdout), payload, temps.get("alpha", 1.0))
    elif raw["kind"] == "two_stage":
        check_two_stage_doc(json.loads(stdout), payload, temps.get("lambda", 1.0), temps.get("mu", 1.0))
    else:
        tree = ref.flatten_tree(payload)
        check_tree_doc(json.loads(stdout), tree, temps.get("lambda", 1.0), temps.get("mu", 1.0))


def check_verify_file(stdout: str, raw: dict) -> None:
    """A file ``verify`` report: the certificates the file's kind and
    temperatures call for, every one passed within tolerance, and every
    analytic value equal to the reference."""
    doc = json.loads(stdout)
    _require(doc.get("command") == "verify" and doc.get("passed") is True, "report not passed")
    certs = {c["name"]: c for c in doc["certificates"]}
    for name, cert in certs.items():
        _require(cert["passed"] is True and cert["gap"] <= cert["tolerance"], f"certificate {name} failed")
    temps, payload = raw.get("temperatures", {}), raw["payload"]
    lam, mu = ref.temperature(temps.get("lambda", 1.0)), ref.temperature(temps.get("mu", 1.0))
    analytic = {}
    if raw["kind"] == "control":
        alpha = ref.temperature(temps.get("alpha", 1.0))
        sol = ref.solve_control(payload["prior"], payload["utility"], alpha)
        analytic["file/control/objective-gap"] = sol.expected_utility - alpha * sol.achieved_kl
        if 0.0 in payload["prior"]:
            analytic["file/control/support-preservation"] = None
    elif raw["kind"] == "two_stage":
        arrays = two_stage_arrays(payload)[2:]
        analytic["file/two-stage/minimax-agreement"] = ref.solve_two_stage(*arrays, "inf", "-inf").value
        if not isinstance(lam, str) and not isinstance(mu, str):
            analytic["file/two-stage/objective-gap"] = ref.solve_two_stage(*arrays, lam, mu).value
    else:
        tree = ref.flatten_tree(payload)
        tags = {t for t, n in zip(tree.tags, tree.n_children) if n}
        if tags == {"lambda"} and not isinstance(lam, str):
            analytic["file/tree/path-identity"] = ref.solve_tree(tree, lam, mu).values[0]
        analytic["file/tree/hard-max-consistency"] = ref.solve_tree(tree, "inf", "inf").values[0]
    _require(list(certs) == list(analytic), f"certificates {list(certs)}")
    for name, value in analytic.items():
        if value is not None:
            close(certs[name]["analytic"], value, name)


# ``verify`` runs on these files, one of each oracle: the simplex lattice
# (with and without a zero prior), the staged grid and minimax enumeration,
# and path enumeration with the hard-max backup.
GOLDEN_VERIFIED = ("control_basic.json", "control_zero_prior.json", "two_stage_basic.json", "tree_binary.json")


def golden_ops(root: Path, seed: int) -> list:
    """``solve`` on every golden file, ``regimes`` on every two-stage one and
    ``verify`` on GOLDEN_VERIFIED, in an order shuffled by the seed."""
    ops = []
    for path in sorted((root / "tests" / "golden").glob("*.json")):
        raw = json.loads(path.read_text())
        rel = str(path.relative_to(root))
        code, error = GOLDEN_REJECTED.get(path.name, (0, None))
        ops.append(
            Op(
                ["solve", rel],
                code,
                error,
                check=None if code else (lambda s, raw=raw: check_golden_solve(s, raw)),
                reads=[path],
            )
        )
        if path.name.startswith("two_stage_"):
            ops.append(
                Op(
                    ["regimes", rel],
                    check=lambda s, raw=raw: check_regimes_doc(json.loads(s), raw["payload"]),
                    reads=[path],
                )
            )
        if path.name in GOLDEN_VERIFIED:
            ops.append(
                Op(["verify", rel], check=lambda s, raw=raw: check_verify_file(s, raw), reads=[path])
            )
    order = np.random.default_rng([seed, 4]).permutation(len(ops))
    return [ops[i] for i in order]


def round_trip(fu, files: dict) -> None:
    """load -> dump -> load is an identity on every file written."""
    for path, pf in files.items():
        again = fu.load(str(path))
        _require(again == pf, f"{path.name}: reloaded problem differs")
        _require(fu.dumps(again) == path.read_text(), f"{path.name}: text differs")


class GoldenCliWorkload:
    name = "golden-cli"
    why = "solve on the 24 golden files, regimes on the 8 two-stage ones, verify on 4: tiny calls dominated by start-up and import"

    def build(self, fu, seed: int, workdir: Path, root: Path) -> Built:
        """Load every golden file that loads, to be written in canonical form."""
        files = {}
        for path in sorted((root / "tests" / "golden").glob("*.json")):
            try:
                pf = fu.load(str(path))
            except fu.FreeUtilError:
                _require(path.name.startswith("invalid_"), f"{path.name} does not load")
                continue
            files[workdir / path.name] = pf
        return Built(files, golden_ops(root, seed), lambda: round_trip(fu, files))


WORKLOADS = {w.name: w for w in (TreeWorkload(), StagedSweepWorkload(), GoldenCliWorkload())}
