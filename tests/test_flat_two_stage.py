"""The flat two-stage store: A×O arrays from parse to solve.

A two-stage file is read straight into TwoStageProblem's channel and utility
arrays; the labelled reader it replaced (a FiniteDistribution and a
UtilityTable per row through the public constructors), kept here as the
reference, says what it must give. Problems, solutions, errors and written
files must match it bit for bit."""
import json
import math
import pickle
import random
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import cli, problemio, sequential
from freeutil.model import (
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TwoStageProblem,
    UtilityTable,
    kl_divergence,
)
from freeutil.problemio import (
    ProblemFile,
    _as_label_list,
    _as_number_list,
    _problem_file,
    _Refused,
    _TreeArrays,
    _require_keys,
    _row_arrays,
    dump,
    dumps,
    load,
    loads,
)
from freeutil.sequential import TwoStageSolution, outer_policy, regime_label
from freeutil.variational import exponential_tilt
from test_cli_snapshot import SNAPSHOT, run as run_cli

GOLDEN = Path(__file__).parent / "golden"
TWO_STAGE_GOLDENS = sorted(p.name for p in GOLDEN.glob("two_stage_*.json"))
VALID_GOLDENS = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_"))


def reference_two_stage(payload) -> TwoStageProblem:
    """The payload read row by row into labelled objects, the way loads read
    every two-stage file before."""
    keys = {"actions", "outcomes", "prior_action", "channel", "action_utility", "outcome_utility"}
    _require_keys(payload, keys, keys, "two_stage payload")
    actions = _as_label_list(payload["actions"], "actions")
    outcomes = _as_label_list(payload["outcomes"], "outcomes")
    prior = FiniteDistribution(actions, _as_number_list(payload["prior_action"], "prior_action"))
    if not isinstance(payload["channel"], dict):
        raise DomainError("channel must be an object keyed by action")
    if not isinstance(payload["outcome_utility"], dict):
        raise DomainError("outcome_utility must be an object keyed by action")
    channel = {
        a: FiniteDistribution(outcomes, _as_number_list(row, f"channel[{a!r}]"))
        for a, row in payload["channel"].items()
    }
    action_utility = UtilityTable(
        actions, _as_number_list(payload["action_utility"], "action_utility")
    )
    outcome_utility = {
        a: UtilityTable(outcomes, _as_number_list(row, f"outcome_utility[{a!r}]"))
        for a, row in payload["outcome_utility"].items()
    }
    return TwoStageProblem(actions, outcomes, prior, channel, action_utility, outcome_utility)


def rows_of(payload):
    """The payload's rows as loads reads them, decoded by the hook into
    tables that _row_arrays reads: their arrays, or None if refused."""
    decoded = json.loads(json.dumps(payload), object_hook=_TreeArrays().hook)
    try:
        return _row_arrays(
            decoded["actions"], decoded["outcomes"], decoded["channel"], decoded["outcome_utility"]
        )
    except _Refused:
        return None


def bits(values) -> list[str]:
    """Floats as hex strings, so that -0.0 and 0.0 differ."""
    return [float.hex(float(v)) for v in values]


def same_problem(a: TwoStageProblem, b: TwoStageProblem) -> None:
    """Equal, with the same labels, row order and bits in every row."""
    assert a == b and hash(a) == hash(b)
    assert (a.actions, a.outcomes) == (b.actions, b.outcomes)
    assert list(a.channel) == list(b.channel) and list(a.outcome_utility) == list(b.outcome_utility)
    assert bits(a.prior_action.probs) == bits(b.prior_action.probs)
    assert bits(a.action_utility.values) == bits(b.action_utility.values)
    for x in a.actions:
        assert a.channel[x].outcomes == b.channel[x].outcomes == a.outcomes
        assert bits(a.channel[x].probs) == bits(b.channel[x].probs)
        assert bits(a.outcome_utility[x].values) == bits(b.outcome_utility[x].values)
    for field in ("channel_matrix", "utility_matrix"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def document(payload, temperatures=None) -> str:
    doc = {"schema_version": "1", "kind": "two_stage", "payload": payload}
    if temperatures:
        doc["temperatures"] = temperatures
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Reading: the array reader against the labelled path.

# Labels need escaping: quotes, backslashes, control and non-ASCII characters;
# or they are the keys of a tree node or edge, which the decode hook tests first.
labels = st.one_of(
    st.text(alphabet=st.sampled_from('ab"\\\n é€😀'), max_size=3),
    st.sampled_from(["name", "children", "prior", "utility", "node", "temperature_tag"]),
)
utilities = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 2**53 + 1, -(2**60) - 3, 10**20, 7]),
    st.floats(-1e3, 1e3),
    st.integers(-5, 5),
)
weights = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 2, 0.5]), st.floats(0.01, 10.0))


@st.composite
def shapes(draw):
    actions = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    outcomes = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    return actions, outcomes


def weight_row(draw, k):
    """k nonnegative numbers summing to 1 within the tolerance: zero entries,
    ints and floats, most rows off an exact 1.0 in the last bits."""
    row = draw(st.lists(weights, min_size=k, max_size=k))
    if not any(row):
        row[0] = 1
    total = math.fsum(row)
    if total == 1 and draw(st.booleans()):
        return row  # kept as drawn, ints included
    return [w / total for w in row]


@st.composite
def payloads(draw):
    actions, outcomes = draw(shapes())
    k = len(outcomes)
    return {
        "actions": actions,
        "outcomes": outcomes,
        "prior_action": weight_row(draw, len(actions)),
        "channel": {a: weight_row(draw, k) for a in actions},
        "action_utility": draw(st.lists(utilities, min_size=len(actions), max_size=len(actions))),
        "outcome_utility": {
            a: draw(st.lists(utilities, min_size=k, max_size=k)) for a in actions
        },
    }


@settings(max_examples=150, deadline=None)
@given(payloads(), st.integers(1, 8))
def test_array_reader_equals_the_labelled_path(payload, block):
    """With the rows checked `block` entries at a time: several rows to a
    block, or a row longer than a block alone."""
    assert rows_of(payload) is not None
    with patch.object(problemio, "_BLOCK_EDGES", block):
        problem = loads(document(payload)).problem
    assert problem.channel._dict is None  # read through the arrays
    same_problem(problem, reference_two_stage(payload))


# ---------------------------------------------------------------------------
# Writing: rows from the arrays through render_json; the reference is the
# stdlib's layout of a dict built here.


@st.composite
def exact_problems(draw):
    """A problem whose rows are multiples of 2**-20 that sum to exactly 1:
    the canonical form, which loads keeps bit for bit."""
    actions, outcomes = draw(shapes())

    def exact_row(k):
        row = [float(w) for w in draw(st.lists(weights, min_size=k, max_size=k))]
        if not any(row):
            row[0] = 1.0
        probs = [round(w / sum(row) * 2**20) / 2**20 for w in row]
        top = probs.index(max(probs))
        probs[top] += 1.0 - math.fsum(probs)
        return probs

    def utility_row(k):
        return [float(u) for u in draw(st.lists(utilities, min_size=k, max_size=k))]

    k = len(outcomes)
    return {
        "actions": actions,
        "outcomes": outcomes,
        "prior_action": exact_row(len(actions)),
        "channel": {a: exact_row(k) for a in actions},
        "action_utility": utility_row(len(actions)),
        "outcome_utility": {a: utility_row(k) for a in actions},
    }


@settings(max_examples=100, deadline=None)
@given(
    exact_problems(),
    st.one_of(st.none(), st.sampled_from([0.5, 2.0, "inf", "zero"])),
    st.one_of(st.none(), st.sampled_from([-1.5, 0.7, "-inf", "inf", "zero"])),
)
def test_dumps_is_the_stdlib_layout_of_the_rows(payload, lam, mu):
    actions, outcomes = payload["actions"], payload["outcomes"]
    problem = TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution(actions, payload["prior_action"]),
        {a: FiniteDistribution(outcomes, row) for a, row in payload["channel"].items()},
        UtilityTable(actions, payload["action_utility"]),
        {a: UtilityTable(outcomes, row) for a, row in payload["outcome_utility"].items()},
    )
    temps = {key: raw for key, raw in (("lambda", lam), ("mu", mu)) if raw is not None}
    as_temperature = {
        key: Temperature.parse(raw) if isinstance(raw, str) else Temperature.finite(raw)
        for key, raw in temps.items()
    }
    pf = ProblemFile("1", "two_stage", problem, lam=as_temperature.get("lambda"),
                     mu=as_temperature.get("mu"))
    text = dumps(pf)
    assert text == json.dumps(json.loads(document(payload, temps)), indent=2) + "\n"
    again = loads(text)
    assert again == pf and hash(again) == hash(pf)
    same_problem(again.problem, problem)


# ---------------------------------------------------------------------------
# Errors: a faulty file fails as the labelled path fails, in the CLI too.

TABLES = ("channel", "outcome_utility")


def mutate(raw: dict, fault: str) -> None:
    """Put fault into raw, a two-stage document: most faults into its rows,
    some into its labels, and two replace the document with one of another
    kind whose payload holds a table of number lists."""
    payload = raw["payload"]
    actions = payload["actions"]
    first = actions[0]
    if fault == "last row summing to 1.1":
        payload["channel"][actions[-1]][0] += 0.1
    elif fault == "actions named name, children, prior; a row summing to 1.1":
        names = dict(zip(actions, ["name", "children", "prior"]))
        payload["actions"] = [names.get(a, a) for a in actions]
        for table in TABLES:
            payload[table] = {names.get(a, a): row for a, row in payload[table].items()}
        payload["channel"]["name"][-1] += 0.1
    elif fault == "row keyed by another label":
        payload["outcome_utility"]["other"] = payload["outcome_utility"].pop(first)
    elif fault == "control payload of number lists":
        raw["kind"] = "control"
        raw["payload"] = {"outcomes": [1, 2], "prior": [0.5, 0.5], "utility": [3, 4]}
    elif fault == "number-list table under an unknown key of a tree node":
        raw["kind"] = "tree"
        edges = zip(actions, payload["prior_action"], payload["action_utility"])
        raw["payload"] = {"name": "root", "children": [
            {"prior": p, "utility": u, "node": {"name": a}} for a, p, u in edges]}
        raw["payload"]["children"][0]["node"]["rows"] = payload["channel"]
    elif fault == "row one entry short":
        payload["channel"][first] = payload["channel"][first][:-1]
    elif fault == "utility row one entry short":
        payload["outcome_utility"][first] = payload["outcome_utility"][first][:-1]
    elif fault == "negative entry":
        payload["channel"][first][0] = -0.25
    elif fault == "row summing to 1.1":
        payload["channel"][first][-1] += 0.1
    elif fault.startswith("entry "):  # entry true / "x" / null, in either table
        table, value = fault.split(" ")[1], json.loads(fault.split(" ")[2])
        payload[table][first][-1] = value
    elif fault == "integer of 400 digits":
        payload["outcome_utility"][first][0] = 10**399
    elif fault == "missing action row":
        del payload["channel"][payload["actions"][-1]]
    elif fault == "extra action row":
        payload["outcome_utility"]["extra"] = payload["outcome_utility"][first]
    elif fault == "channel given as a list":
        payload["channel"] = list(payload["channel"].values())
    elif fault == "outcome_utility given as a list":
        payload["outcome_utility"] = list(payload["outcome_utility"].values())
    else:
        raise AssertionError(fault)


FAULTS = (
    "row one entry short", "utility row one entry short", "negative entry",
    "row summing to 1.1", "integer of 400 digits", "missing action row",
    "extra action row", "channel given as a list", "outcome_utility given as a list",
    "last row summing to 1.1", "actions named name, children, prior; a row summing to 1.1",
    "row keyed by another label",
    "control payload of number lists", "number-list table under an unknown key of a tree node",
) + tuple(f"entry {t} {v}" for t in TABLES for v in ("true", '"x"', "null"))


@pytest.mark.parametrize("block", [1, problemio._BLOCK_EDGES], ids=["row blocks", "whole table"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_a_faulty_file_fails_as_the_labelled_path_fails(tmp_path, capsys, monkeypatch, name, fault, block):
    """A two-stage document fails as the labelled reader fails; one that
    the fault made of another kind, as loads' plain reader fails. The rows
    are checked a row at a time, or the table at once."""
    monkeypatch.setattr(problemio, "_BLOCK_EDGES", block)
    raw = json.loads((GOLDEN / name).read_text())
    mutate(raw, fault)
    text = json.dumps(raw)
    with pytest.raises(FreeUtilError) as expected:
        if raw["kind"] == "two_stage":
            reference_two_stage(json.loads(text)["payload"])
        else:
            _problem_file(json.loads(text))()
    with pytest.raises(FreeUtilError) as raised:
        loads(text)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{type(expected.value).__name__}: {expected.value}\n"


def test_named_errors_of_faulty_rows():
    """The messages the labelled path raises, spelled out."""
    raw = json.loads((GOLDEN / "two_stage_basic.json").read_text())
    cases = {
        "row one entry short": "2 labels but 1 probabilities",
        "negative entry": "probability of 'low' is -0.25",
        "row summing to 1.1": "probabilities sum to 1.1, expected 1",
        "entry channel true": "channel['safe'][1] must be a number, got True",
        "entry outcome_utility null": "outcome_utility['safe'][1] must be a number, got None",
        "integer of 400 digits": "outcome_utility['safe'][0] is an integer too large for a float",
        "missing action row": "channel must have exactly one row per action",
        "extra action row": "outcome_utility must have exactly one row per action",
        "channel given as a list": "channel must be an object keyed by action",
        "outcome_utility given as a list": "outcome_utility must be an object keyed by action",
        "actions named name, children, prior; a row summing to 1.1":
            "probabilities sum to 1.1, expected 1",
        "row keyed by another label": "outcome_utility must have exactly one row per action",
        "control payload of number lists": "outcomes must be an array of strings",
        "number-list table under an unknown key of a tree node":
            "unknown field 'rows' in tree payload/children[0].node",
    }
    for fault, message in cases.items():
        doc = json.loads(json.dumps(raw))
        mutate(doc, fault)
        with pytest.raises(FreeUtilError) as raised:
            loads(json.dumps(doc))
        assert str(raised.value) == message, fault


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_rows_keyed_in_any_order_load_into_the_arrays(tmp_path, monkeypatch, name, order):
    """A copy of a golden file with its rows keyed in another order is read
    by action into the arrays, is the same problem, and every recorded CLI
    call on the file prints the same bytes on the copy."""
    raw = json.loads((GOLDEN / name).read_text())
    payload = raw["payload"]
    for table in TABLES:
        keys = list(payload[table])
        rng = random.Random(name + table)
        while keys == list(payload[table]):  # every golden file has two or more actions
            if order == "reversed":
                keys.reverse()
            else:
                rng.shuffle(keys)
        payload[table] = {a: payload[table][a] for a in keys}
    assert rows_of(payload) is not None
    copy_path = tmp_path / "golden" / name
    copy_path.parent.mkdir()
    copy_path.write_text(json.dumps(raw, indent=2))
    original, copy = load(str(GOLDEN / name)), load(str(copy_path))
    assert copy.problem.channel._dict is None  # read through the arrays
    assert copy == original and hash(copy) == hash(original)
    assert dumps(copy) == dumps(original)
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    calls = [r for r in recorded if r["argv"][1:2] == [f"golden/{name}"]]
    assert len(calls) == 6  # solve and sweep, each in nats and bits, verify, regimes
    for want in calls:
        assert run_cli(want["argv"]) == want


# ---------------------------------------------------------------------------
# Solving: the arrays give the bits the labelled rows give.

LAMS = [0.5, "inf"]
MUS = ["-inf", -4.0, -1e-3, "zero", 1e-3, 4.0, "inf"]


def solution_bits(sol) -> tuple:
    return (
        sol.action_policy.outcomes,
        bits(sol.action_policy.probs),
        {a: (d.outcomes, bits(d.probs)) for a, d in sol.outcome_beliefs.items()},
        list(sol.outcome_beliefs),
        sol.log_z1,
        dict(sol.log_z2),
        {a: float.hex(v) for a, v in sol.values.items()},
        float.hex(sol.value),
        float.hex(sol.achieved_c1),
        float.hex(sol.achieved_c2),
        sol.regime,
    )


def assert_same_solutions(loaded: TwoStageProblem, built: TwoStageProblem) -> None:
    for lam in LAMS:
        for mu in MUS:
            sols = [outer_policy(p, lam, mu) for p in (loaded, built)]
            assert solution_bits(sols[0]) == solution_bits(sols[1])
            for problem, sol in zip((loaded, built), sols):
                for a in problem.actions:
                    row, util = problem.channel[a], problem.outcome_utility[a]
                    if exponential_tilt(row, util, mu).policy is row:
                        assert sol.outcome_beliefs[a] is problem.channel[a]


@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_outer_policy_on_the_arrays_equals_the_labelled_problem(name):
    text = (GOLDEN / name).read_text()
    loaded = loads(text).problem
    built = reference_two_stage(json.loads(text)["payload"])
    assert_same_solutions(loaded, built)


def per_row_solution(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """The nested solve written out on the labelled rows: one
    exponential_tilt per channel row, one over the actions, and
    kl_divergence on the FiniteDistributions they return. An outcome is a
    leaf of value 0.0, so its gain is its utility plus 0.0, as in every
    tree backup: a utility of -0.0 gains 0.0. Each row raises its fault,
    a log-partition past the float range included, as it is solved, so
    the first fault is met in post-order: the channel rows, then the
    action row."""
    temps = TemperatureSpec(lam, mu)
    actions = problem.actions
    inner = {
        a: exponential_tilt(problem.channel[a], problem.outcome_utility[a].shifted(0.0), mu)
        for a in actions
    }
    values = {a: u + inner[a].value for a, u in zip(actions, problem.action_utility.values)}
    gains = UtilityTable(actions, list(values.values()))
    outer = exponential_tilt(problem.prior_action, gains, temps.lam)
    kls = [kl_divergence(inner[a].policy, problem.channel[a]) for a in actions]
    return TwoStageSolution(
        action_policy=outer.policy,
        outcome_beliefs={a: tilt.policy for a, tilt in inner.items()},
        log_z1=outer.log_partition,
        log_z2={a: tilt.log_partition for a, tilt in inner.items()},
        values=values,
        value=outer.value,
        achieved_c1=kl_divergence(outer.policy, problem.prior_action),
        achieved_c2=math.fsum(p * kl for p, kl in zip(outer.policy.probs, kls) if p > 0.0),
        regime=regime_label(temps),
    )


def outcome_of(solve, *args):
    try:
        return "ok", solve(*args)
    except (FreeUtilError, ArithmeticError, ValueError) as e:
        return type(e), str(e)


lams = st.one_of(st.just("inf"), st.floats(0.01, 50.0))
mus = st.one_of(
    st.sampled_from(["inf", "-inf", "zero"]), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3)
)


@settings(max_examples=200, deadline=None)
@given(payloads(), lams, mus, st.integers(1, 8))
def test_outer_policy_equals_the_per_row_tilts(payload, lam, mu, block):
    """Every field has the bits of the per-row solve, and every fault its
    error, with blocks of `block` edges: several rows to a block, or a row
    longer than a block alone."""
    problem = reference_two_stage(payload)
    expected = outcome_of(per_row_solution, problem, lam, mu)
    with patch.object(sequential, "_BLOCK_EDGES", block):
        got = outcome_of(outer_policy, problem, lam, mu)
    assert got[0] == expected[0]
    if got[0] != "ok":
        assert got == expected
        return
    sol, ref = got[1], expected[1]
    assert solution_bits(sol) == solution_bits(ref)
    for a in problem.actions:
        if ref.outcome_beliefs[a] is problem.channel[a]:
            assert sol.outcome_beliefs[a] is problem.channel[a]


@settings(max_examples=60, deadline=None)
@given(payloads(), lams, st.sampled_from(["mu", "lambda"]))
def test_sweep_rows_equal_the_per_row_solves(payload, fixed, param):
    """The staged sweep of a two-stage problem: the header, then per grid
    point its spelling, the action policy, the value, achieved_c1 and
    achieved_c2 of the per-row solve, bit for bit; a point the per-row solve
    cannot solve raises its error."""
    problem = reference_two_stage(payload)
    grid = [Temperature.coerce(t) for t in (MUS if param == "mu" else [0.25, 4.0, "inf"])]
    temps = TemperatureSpec(fixed, 1.0) if param == "mu" else TemperatureSpec(1.0, fixed)
    expected = []
    for point in grid:
        lam = point if param == "lambda" else temps.lam
        mu = point if param == "mu" else temps.mu
        expected.append(outcome_of(per_row_solution, problem, lam, mu))
    faults = [e for e in expected if e[0] != "ok"]
    got = outcome_of(cli._sweep_rows_staged, problem, param, grid, temps)
    if faults:
        assert got == faults[0]
        return
    header, rows = got[1]
    assert header == (
        [param] + [f"p[{a}]" for a in problem.actions] + ["value", "achieved_c1", "achieved_c2"]
    )
    for point, row, (_, ref) in zip(grid, rows, expected, strict=True):
        want = [*ref.action_policy.probs, ref.value, ref.achieved_c1, ref.achieved_c2]
        assert row[0] == point.spell() and all(type(cell) is float for cell in row[1:])
        assert bits(row[1:]) == bits(want)


def random_problem(rng, n_actions, n_outcomes) -> TwoStageProblem:
    actions = [f"a{i}" for i in range(n_actions)]
    outcomes = [f"o{j}" for j in range(n_outcomes)]
    channel = rng.uniform(0.1, 1.0, (n_actions, n_outcomes))
    channel[rng.uniform(size=channel.shape) < 0.2] = 0.0
    channel[:, 0] += 0.1
    return TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution(actions, np.full(n_actions, 1.0 / n_actions)),
        {a: FiniteDistribution(outcomes, row / row.sum()) for a, row in zip(actions, channel)},
        UtilityTable(actions, rng.normal(size=n_actions)),
        {a: UtilityTable(outcomes, row) for a, row in zip(actions, rng.normal(size=channel.shape))},
    )


def test_outer_policy_over_several_blocks_equals_the_labelled_problem(tmp_path):
    path = tmp_path / "problem.json"
    dump(ProblemFile("1", "two_stage", random_problem(np.random.default_rng(8), 70, 300)), str(path))
    loaded = load(str(path)).problem
    built = reference_two_stage(json.loads(path.read_text())["payload"])
    same_problem(loaded, built)
    assert_same_solutions(loaded, built)


# ---------------------------------------------------------------------------
# The store itself: laziness, immutability, hashing and pickling.


def test_views_are_built_only_when_read(monkeypatch, tmp_path, capsys):
    """A sweep (its CSV held by capsys), dumps and a solve build no labelled
    row; reading kept beliefs builds the channel view alone."""
    kept = []
    monkeypatch.setattr(cli, "load", lambda path: kept.append(load(path)) or kept[-1])
    path = tmp_path / "problem.json"
    dump(ProblemFile("1", "two_stage", random_problem(np.random.default_rng(3), 5, 7)), str(path))
    grid = "--grid=" + ",".join(map(str, MUS))
    assert cli.main(["sweep", str(path), "--param", "mu", grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = ",".join(f"p[a{i}]" for i in range(5))
    assert lines[0] == f"mu,{labels},value,achieved_c1,achieved_c2"
    assert len(lines) == 1 + len(MUS)
    problem = kept[0].problem
    assert problem.channel._dict is None and problem.outcome_utility._dict is None
    dumps(kept[0])
    sol = outer_policy(problem, 1.0, "zero")  # every row kept
    assert problem.channel._dict is None
    assert all(sol.outcome_beliefs[a] is problem.channel[a] for a in problem.actions)
    assert problem.outcome_utility._dict is None
    assert len(problem.outcome_utility) == 5


def test_the_arrays_are_read_only_and_the_problem_immutable():
    problem = load(str(GOLDEN / "two_stage_3x4.json")).problem
    assert problem.channel_matrix.shape == problem.utility_matrix.shape == (3, 4)
    with pytest.raises(ValueError):
        problem.channel_matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        problem.utility_matrix[0, 0] = 1.0
    with pytest.raises(AttributeError):
        problem.actions = ()
    rebuilt = TwoStageProblem(
        problem.actions, problem.outcomes, problem.prior_action, problem.channel,
        problem.action_utility, problem.outcome_utility,
    )
    assert rebuilt == problem
    with pytest.raises(ValueError):
        rebuilt.utility_matrix[0, 0] = 1.0


def test_a_built_problem_is_the_problem_its_file_loads(tmp_path):
    """The constructor keeps no mapping it is given: a built problem and the
    same problem loaded from its file agree on ==, hash, repr, pickling and
    dumps without building a row view, and a view, once read, carries the
    caller's bits in new objects. The channel rows are in the canonical form
    (dyadic, summing to exactly 1), which loads keeps bit for bit."""
    rng = np.random.default_rng(11)
    actions, outcomes = ["a0", "a1", "a2"], ["o0", "o1", "o2", "o3"]
    weights = rng.integers(0, 2**20, (3, 4)) / 2**22
    weights[:, 0] = 1.0 - weights[:, 1:].sum(axis=1)
    channel = {a: FiniteDistribution(outcomes, row) for a, row in zip(actions, weights)}
    utility = {a: UtilityTable(outcomes, [-0.0, 5e-324, *rng.normal(size=2)]) for a in actions}
    built = TwoStageProblem(actions, outcomes, FiniteDistribution.uniform(actions), channel,
                            UtilityTable(actions, rng.normal(size=3)), utility)
    path = tmp_path / "problem.json"
    dump(ProblemFile("1", "two_stage", built), str(path))
    loaded = load(str(path)).problem
    for problem in (built, loaded):
        copy = pickle.loads(pickle.dumps(problem))
        assert problem == loaded == built == copy
        assert hash(problem) == hash(loaded) == hash(copy)
        assert repr(problem) == repr(loaded) == repr(copy)
        assert dumps(ProblemFile("1", "two_stage", problem)) == path.read_text()
        assert problem.channel._dict is None and problem.outcome_utility._dict is None
    for a in actions:
        assert built.channel[a] == channel[a] and built.channel[a] is not channel[a]
        assert bits(built.channel[a].probs) == bits(channel[a].probs)
        assert bits(built.outcome_utility[a].values) == bits(utility[a].values)
    same_problem(built, loaded)


@pytest.mark.parametrize("name", VALID_GOLDENS)
def test_problem_files_hash_and_pickle(name):
    pf = load(str(GOLDEN / name))
    again = load(str(GOLDEN / name))
    assert hash(pf) == hash(again) and pf == again
    copy = pickle.loads(pickle.dumps(pf))
    assert copy == pf and hash(copy) == hash(pf)
    assert dumps(copy) == dumps(pf)
    assert {pf, again, copy} == {pf}
