"""The flat two-stage store: A×O arrays from parse to solve.

A two-stage file is read straight into TwoStageProblem's channel and utility
arrays; the labelled reader it replaced (a FiniteDistribution and a
UtilityTable per row through the public constructors), kept here as the
reference, says what it must give. Problems, solutions, errors and written
files must match it bit for bit."""
import json
import math
import pickle
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import cli, sequential
from freeutil.model import (
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TwoStageProblem,
    UtilityTable,
    _WHOLE,
    kl_divergence,
)
from freeutil.problemio import (
    ProblemFile,
    _as_label_list,
    _as_number_list,
    _require_keys,
    _row_arrays,
    dump,
    dumps,
    load,
    loads,
)
from freeutil.sequential import TwoStageSolution, outer_policy, regime_label
from freeutil.variational import TiltResult, _tilt_segments, exponential_tilt

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
    """_row_arrays on a payload's rows: their arrays, or None."""
    return _row_arrays(
        payload["actions"], payload["outcomes"], payload["channel"], payload["outcome_utility"]
    )


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

# Labels need escaping: quotes, backslashes, control and non-ASCII characters.
labels = st.text(alphabet=st.sampled_from('ab"\\\n é€😀'), max_size=3)
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
@given(payloads())
def test_array_reader_equals_the_labelled_path(payload):
    assert rows_of(payload) is not None
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


def mutate(payload: dict, fault: str) -> None:
    first = payload["actions"][0]
    if fault == "row one entry short":
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
    else:
        raise AssertionError(fault)


FAULTS = (
    "row one entry short", "utility row one entry short", "negative entry",
    "row summing to 1.1", "integer of 400 digits", "missing action row",
    "extra action row", "channel given as a list",
) + tuple(f"entry {t} {v}" for t in TABLES for v in ("true", '"x"', "null"))


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_a_faulty_file_fails_as_the_labelled_path_fails(tmp_path, capsys, name, fault):
    raw = json.loads((GOLDEN / name).read_text())
    mutate(raw["payload"], fault)
    text = json.dumps(raw)
    with pytest.raises(FreeUtilError) as expected:
        reference_two_stage(json.loads(text)["payload"])
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
    }
    for fault, message in cases.items():
        payload = json.loads(json.dumps(raw["payload"]))
        mutate(payload, fault)
        with pytest.raises(FreeUtilError) as raised:
            loads(document(payload))
        assert str(raised.value) == message, fault


@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_rows_keyed_in_another_order_load_through_the_labelled_path(name):
    raw = json.loads((GOLDEN / name).read_text())
    payload = raw["payload"]
    for table in TABLES:
        payload[table] = dict(reversed(payload[table].items()))
    assert rows_of(payload) is None
    problem = loads(json.dumps(raw)).problem
    assert isinstance(problem.channel, dict)  # built row by row
    same_problem(problem, reference_two_stage(payload))
    assert list(problem.channel) == list(reversed(problem.actions))
    assert problem == load(str(GOLDEN / name)).problem


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


def solver_tilt(prior: FiniteDistribution, gains: UtilityTable, inv_temp) -> TiltResult:
    """exponential_tilt with its log-partition unchecked, as the staged
    backup carries it: the public function refuses a log-partition past the
    float range at once, outer_policy only after the whole backup. Anywhere
    else the two are the same."""
    t = Temperature.coerce(inv_temp)
    flat, value, log_z, kept = _tilt_segments(prior.array, gains.aligned_to(prior.outcomes), _WHOLE, t)
    policy = prior if kept.item() else FiniteDistribution(prior.outcomes, flat)
    # The kernel's NaN at ±inf is no log-partition; a NaN at finite t stays.
    log_z = None if t.is_pos_inf or t.is_neg_inf else log_z.item()
    tilt = TiltResult(policy, value.item(), log_z)
    if tilt.log_partition is None or math.isfinite(tilt.log_partition):
        assert exponential_tilt(prior, gains, inv_temp) == tilt
    return tilt


def per_row_solution(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """The nested solve written out on the labelled rows: one
    solver_tilt per channel row, one over the actions, and
    kl_divergence on the FiniteDistributions they return. An outcome is a
    leaf of value 0.0, so its gain is its utility plus 0.0, as in every
    tree backup: a utility of -0.0 gains 0.0. A log-partition past the
    float range, the outer one first, raises DomainError."""
    temps = TemperatureSpec(lam, mu)
    actions = problem.actions
    inner = {
        a: solver_tilt(problem.channel[a], problem.outcome_utility[a].shifted(0.0), mu)
        for a in actions
    }
    values = {a: u + inner[a].value for a, u in zip(actions, problem.action_utility.values)}
    gains = UtilityTable(actions, list(values.values()))
    outer = solver_tilt(problem.prior_action, gains, temps.lam)
    kls = [kl_divergence(inner[a].policy, problem.channel[a]) for a in actions]
    for tilt in [outer, *inner.values()]:
        if tilt.log_partition is not None and not math.isfinite(tilt.log_partition):
            raise DomainError(f"the log-partition is not a finite number: {tilt.log_partition!r}")
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
    assert rebuilt.channel[problem.actions[0]] is problem.channel[problem.actions[0]]
    with pytest.raises(ValueError):
        rebuilt.utility_matrix[0, 0] = 1.0


@pytest.mark.parametrize("name", VALID_GOLDENS)
def test_problem_files_hash_and_pickle(name):
    pf = load(str(GOLDEN / name))
    again = load(str(GOLDEN / name))
    assert hash(pf) == hash(again) and pf == again
    copy = pickle.loads(pickle.dumps(pf))
    assert copy == pf and hash(copy) == hash(pf)
    assert dumps(copy) == dumps(pf)
    assert {pf, again, copy} == {pf}
