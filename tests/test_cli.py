import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from freeutil import cli, oracle
from freeutil.model import (
    DecisionTree,
    FiniteDistribution,
    FreeUtilError,
    TemperatureSpec,
    TreeNode,
    UtilityTable,
)
from freeutil.problemio import ProblemFile, _parse_tree, dump, dumps, load, loads, render_json
from freeutil.sequential import regime_label, value_recursion
from freeutil.verify import resolve_seed

GOLDEN = Path(__file__).parent / "golden"
LN2 = math.log(2.0)

VALID_GOLDENS = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_"))
INVALID_GOLDENS = sorted(p.name for p in GOLDEN.glob("invalid_*.json"))


def run_process(*args, seed=None):
    """Run ``python -m freeutil`` in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("FREEUTIL_SEED", None)
    if seed is not None:
        env["FREEUTIL_SEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "freeutil", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*args, seed=None):
    """Run the CLI in this process through cli.main, with stdout, stderr and
    FREEUTIL_SEED swapped in for the call; returns what run_process would."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("FREEUTIL_SEED", None)
        if seed is not None:
            os.environ["FREEUTIL_SEED"] = seed
        code = cli.main([str(a) for a in args])
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def solve_doc(*args):
    result = run_cli("solve", *args)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# file format


@pytest.mark.parametrize("name", VALID_GOLDENS)
def test_load_serialize_load_is_identity(name):
    first = dumps(load(str(GOLDEN / name)))
    assert dumps(loads(first)) == first


@pytest.mark.parametrize("name", INVALID_GOLDENS)
def test_malformed_files_rejected_at_load(name):
    with pytest.raises(FreeUtilError):
        load(str(GOLDEN / name))


@pytest.mark.parametrize("name", INVALID_GOLDENS)
def test_malformed_files_exit_2(name):
    result = run_cli("solve", GOLDEN / name)
    assert result.returncode == 2
    assert result.stdout == ""
    # diagnostic names the violated invariant, e.g. "NegativeProbability: ..."
    assert ":" in result.stderr.strip()


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_json_nonfinite_constants_exit_2(tmp_path, constant):
    text = (GOLDEN / "control_basic.json").read_text()
    path = tmp_path / "alpha.json"
    path.write_text(text.replace('"alpha": 1.0', f'"alpha": {constant}'))
    result = run_cli("solve", path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith(f"DomainError: JSON constant {constant} ")


@pytest.mark.parametrize("field", ["utility", "alpha"])
def test_integer_too_large_for_a_float_exits_2(tmp_path, field):
    doc = json.loads((GOLDEN / "control_basic.json").read_text())
    huge = 10**400
    if field == "utility":
        doc["payload"]["utility"][1] = huge
        where = "utility[1]"
    else:
        doc["temperatures"]["alpha"] = huge
        where = "alpha"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = run_cli("solve", path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"DomainError: {where} is an integer too large for a float\n"


def test_priors_summing_past_the_float_range_exit_2(tmp_path):
    doc = json.loads((GOLDEN / "control_basic.json").read_text())
    doc["payload"]["prior"] = [1e308, 1e308]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    result = run_cli("solve", path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "NotNormalized: probabilities sum to inf, expected 1\n"


def test_integer_past_the_digit_limit_exits_2(tmp_path):
    text = (GOLDEN / "control_basic.json").read_text()
    path = tmp_path / "digits.json"
    path.write_text(text.replace('"alpha": 1.0', '"alpha": 1' + "0" * (sys.get_int_max_str_digits() + 1)))
    result = run_cli("solve", path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "DomainError: problem file holds an integer too large for a float\n"


def test_missing_fields_name_the_same_field_in_every_process(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"schema_version": "1", "kind": "control", "payload": {"outcomes": ["a"]}}')
    errors = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "freeutil", "solve", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 2
        errors.add(result.stderr)
    assert errors == {"DomainError: missing field 'prior' in control payload\n"}


def test_slash_in_tree_node_name_exits_2(tmp_path):
    # a leaf "a/b" and a node "a" -> "b" under one root: both are path "r/a/b"
    doc = {
        "schema_version": "1",
        "kind": "tree",
        "payload": {
            "name": "r",
            "children": [
                {"prior": 0.5, "utility": 1.0, "node": {"name": "a/b"}},
                {"prior": 0.5, "utility": 0.0, "node": {
                    "name": "a",
                    "children": [{"prior": 1.0, "utility": 2.0, "node": {"name": "b"}}],
                }},
            ],
        },
    }
    path = tmp_path / "slash.json"
    path.write_text(json.dumps(doc))
    result = run_cli("solve", path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("DomainError: node name 'a/b'")


def chain_file(tmp_path, depth):
    """A tree file whose nodes form one chain ``depth`` edges long; written
    as text because json.dumps recurses once per nested container."""
    opening = "".join(
        f'{{"name": "n{i}", "children": [{{"prior": 1.0, "utility": 0.5, "node": '
        for i in range(depth)
    )
    payload = opening + f'{{"name": "n{depth}"}}' + "}]}" * depth
    path = tmp_path / f"chain{depth}.json"
    path.write_text(f'{{"schema_version": "1", "kind": "tree", "payload": {payload}}}')
    return path


def test_tree_nested_past_the_parser_exits_2(tmp_path):
    result = run_cli("solve", chain_file(tmp_path, 600))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("DomainError: problem file is nested 1802 levels deep")


def test_deep_tree_within_the_parser_solves(tmp_path):
    doc = solve_doc(chain_file(tmp_path, 300))
    assert len(doc["node_values"]) == 301
    assert doc["value"] == pytest.approx(150.0)


def test_missing_file_exits_2():
    result = run_process("solve", "/no/such/problem.json")
    assert result.returncode == 2
    assert "No such file" in result.stderr


def test_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": "1", \xff}')
    result = run_process("solve", path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "DomainError: problem file is not UTF-8: byte 0xff at offset 24\n"


# ---------------------------------------------------------------------------
# solve: control


def test_solve_control_document():
    result = run_process("solve", GOLDEN / "control_basic.json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli("solve", GOLDEN / "control_basic.json").stdout
    doc = json.loads(result.stdout)
    assert list(doc) == [
        "command", "kind", "alpha", "policy", "value", "log_partition",
        "expected_utility", "information_cost", "achieved_kl", "total", "units",
    ]
    assert doc["command"] == "solve" and doc["kind"] == "control"
    assert doc["alpha"] == "1" and doc["units"] == "nats"
    assert doc["policy"]["a"] == pytest.approx(1 / 3, abs=1e-12)
    assert doc["policy"]["b"] == pytest.approx(2 / 3, abs=1e-12)
    assert doc["value"] == pytest.approx(math.log(1.5), abs=1e-12)
    assert doc["total"] == pytest.approx(doc["value"], abs=1e-12)


def test_control_solve_and_sweep_tilt_once(monkeypatch):
    """Each alpha costs one value_recursion, the one tilt of the problem's
    depth-1 tree; bounded_control is not called."""
    calls = []
    recursion = cli.value_recursion
    monkeypatch.setattr(cli, "value_recursion", lambda *a: calls.append(a) or recursion(*a))
    monkeypatch.setattr(cli, "bounded_control", None)
    before = solve_doc(GOLDEN / "control_basic.json")
    assert len(calls) == 1
    result = run_cli("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "0.5,1,inf,zero")
    assert result.returncode == 0 and len(calls) == 5
    monkeypatch.undo()
    assert solve_doc(GOLDEN / "control_basic.json") == before


def test_solve_alpha_flag_overrides_file():
    doc = solve_doc(GOLDEN / "control_basic.json", "--alpha", "2")
    assert doc["alpha"] == "2"
    assert doc["value"] == pytest.approx(2 * math.log((1 + math.sqrt(2)) / 2), abs=1e-12)


def test_solve_infinite_alpha_returns_prior():
    doc = solve_doc(GOLDEN / "control_alpha_inf.json")
    assert doc["alpha"] == "inf"
    assert doc["policy"] == {"up": 0.25, "down": 0.75}
    assert doc["value"] == -2.5
    assert doc["achieved_kl"] == 0.0 and doc["information_cost"] == 0.0


def test_solve_constant_utility_returns_prior():
    doc = solve_doc(GOLDEN / "control_constants.json")
    assert doc["policy"] == {"a": 0.2, "b": 0.3, "c": 0.5}
    assert doc["value"] == pytest.approx(3.0, abs=1e-12)


def test_solve_keeps_prior_zeros():
    doc = solve_doc(GOLDEN / "control_zero_prior.json")
    assert doc["policy"]["c"] == 0.0


def test_solve_control_rejects_mu_flag():
    result = run_cli("solve", GOLDEN / "control_basic.json", "--mu", "1")
    assert result.returncode == 2


def test_solve_control_rejects_alpha_and_lambda_together():
    result = run_cli("solve", GOLDEN / "control_basic.json", "--alpha", "1", "--lambda", "1")
    assert result.returncode == 2


def test_solve_negative_alpha_is_input_error():
    assert run_cli("solve", GOLDEN / "control_alpha_negative.json").returncode == 2
    assert run_cli("solve", GOLDEN / "control_basic.json", "--alpha=-1").returncode == 2


# ---------------------------------------------------------------------------
# solve: two-stage


def test_solve_two_stage_document():
    doc = solve_doc(GOLDEN / "two_stage_basic.json")
    assert list(doc) == [
        "command", "kind", "lambda", "mu", "regime", "action_policy",
        "outcome_beliefs", "values", "value", "log_z1", "log_z2",
        "achieved_c1", "achieved_c2", "units",
    ]
    assert doc["lambda"] == "1" and doc["mu"] == "1"
    assert doc["regime"] == "risk-seeking-bounded"
    assert doc["achieved_c1"] >= 0.0 and doc["achieved_c2"] >= 0.0
    assert sum(doc["action_policy"].values()) == pytest.approx(1.0, abs=1e-12)


def test_solve_file_temperatures_match_flags():
    from_file = run_cli("solve", GOLDEN / "two_stage_temps.json")
    from_flags = run_cli(
        "solve", GOLDEN / "two_stage_basic.json", "--lambda", "2", "--mu", "0.7"
    )
    assert from_file.returncode == from_flags.returncode == 0
    assert from_file.stdout == from_flags.stdout


def test_solve_robust_limit_from_file_temperatures():
    doc = solve_doc(GOLDEN / "two_stage_mu_neginf.json")
    assert doc["regime"] == "robust"
    assert doc["action_policy"] == {"safe": 1.0, "risky": 0.0}
    assert doc["value"] == 2.0


def test_solve_lambda_zero_is_solver_error():
    result = run_process("solve", GOLDEN / "two_stage_lambda_zero.json")
    assert result.returncode == 3
    assert "UnsupportedRegime" in result.stderr


# ---------------------------------------------------------------------------
# solve: trees


def test_solve_tree_chain_adds_edge_utilities():
    doc = solve_doc(GOLDEN / "tree_chain.json")
    assert doc["kind"] == "tree"
    assert doc["value"] == pytest.approx(6.0, abs=1e-12)
    assert doc["node_values"]["root/a/b/c"] == 0.0


def test_solve_tree_hard_max_limit():
    doc = solve_doc(GOLDEN / "tree_binary.json", "--lambda", "inf", "--mu", "inf")
    assert doc["regime"] == "optimistic"
    assert doc["value"] == pytest.approx(4.0, abs=1e-12)
    assert doc["node_policies"]["root"] == {"a": 0.5, "b": 0.5}  # exact tie


TREE_GOLDENS = sorted(p.name for p in GOLDEN.glob("tree_*.json"))


def old_tree_document(path, units) -> str:
    """The tree document as a dict in its old layout, built from the
    labelled results in depth-first order over the file's TreeNodes, then
    rendered as a whole."""
    pf = load(str(path))
    temps = TemperatureSpec(pf.lam or 1.0, pf.mu or 1.0)
    tv = value_recursion(pf.problem, temps)
    node_values, node_policies = {}, {}
    root = _parse_tree(json.loads(Path(path).read_text())["payload"])
    stack = [(root.name, root)]
    while stack:
        node_path, node = stack.pop()
        stack.extend((f"{node_path}/{c.name}", c) for c in reversed(node.children))
        node_values[node_path] = tv.values[node_path]
        if node.children:
            policy = tv.policies[node_path]
            node_policies[node_path] = dict(zip(policy.outcomes, policy.probs))
    doc = {
        "command": "solve",
        "kind": "tree",
        "lambda": temps.lam.spell(),
        "mu": temps.mu.spell(),
        "regime": regime_label(temps),
        "value": tv.root_value,
        "node_values": node_values,
        "node_policies": node_policies,
        "units": units,
    }
    return render_json(doc, cli._fmt_float) + "\n"


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("name", TREE_GOLDENS)
def test_solve_tree_prints_the_old_document_byte_for_byte(name, units):
    result = run_cli("solve", GOLDEN / name, "--units", units)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == old_tree_document(GOLDEN / name, units)


def test_solve_tree_single_leaf_document():
    tree, temps = DecisionTree(TreeNode("ré\"x")), TemperatureSpec(1.0, 1.0)
    doc = json.loads("".join(cli._solve_tree_doc(tree, temps, "bits", "%r")))
    assert doc["node_values"] == {"ré\"x": 0.0} and doc["node_policies"] == {}
    assert doc["units"] == "bits"


def test_solve_tree_bits_rescale_no_node_named_like_a_relative_entropy(tmp_path):
    names = ["achieved_kl", "information_cost"]
    root = TreeNode("achieved_c1", (TreeNode(names[0]), TreeNode(names[1])),
                    FiniteDistribution(names, [0.25, 0.75]), UtilityTable(names, [1.0, 2.0]))
    path = tmp_path / "tree.json"
    dump(ProblemFile("1", "tree", DecisionTree(root)), str(path))
    nats, bits = (solve_doc(path, "--units", units) for units in ("nats", "bits"))
    assert bits.pop("units") == "bits" and nats.pop("units") == "nats"
    assert bits == nats


def test_solve_tree_lambda_zero_is_solver_error():
    result = run_cli("solve", GOLDEN / "tree_chain.json", "--lambda", "zero")
    assert result.returncode == 3


def test_overflowing_tilt_prints_one_error_line_and_no_warning(tmp_path):
    """Utilities of ±1e308 at alpha 0.1 make the log-weights overflow. The
    kernel computes under np.errstate, so the NaN policy is reported as the
    one error line, with no numpy RuntimeWarning before it."""
    doc = json.loads((GOLDEN / "control_basic.json").read_text())
    doc["payload"] = {"outcomes": ["a", "b"], "prior": [0.5, 0.5], "utility": [1e308, -1e308]}
    doc["temperatures"] = {"alpha": 0.1}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = run_process("solve", path)
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == "DomainError: probability of 'a' is not finite: nan\n"


# ---------------------------------------------------------------------------
# output handling


def test_output_flag_writes_stdout_bytes_to_file(tmp_path):
    target = tmp_path / "doc.json"
    direct = run_cli("solve", GOLDEN / "control_basic.json")
    routed = run_cli("solve", GOLDEN / "control_basic.json", "--output", target)
    assert routed.returncode == 0 and routed.stdout == ""
    assert target.read_text() == direct.stdout


@pytest.mark.parametrize("command", [
    ("solve", GOLDEN / "control_basic.json"),
    ("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1"),
    ("regimes", GOLDEN / "two_stage_basic.json"),
    ("verify", GOLDEN / "control_basic.json"),
], ids=lambda command: command[0])
def test_unwritable_output_exits_2(tmp_path, command):
    result = run_cli(*command, "--output", tmp_path / "no_such_dir" / "out")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("FileNotFoundError: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("solve", "control_basic.json"),
    ("sweep", "control_basic.json", "--param", "alpha", "--grid", "1"),
    ("regimes", "two_stage_basic.json"),
    ("verify", "control_basic.json"),
], ids=lambda command: command[0])
@pytest.mark.parametrize("via_link", [False, True], ids=["same-name", "link"])
def test_output_naming_the_input_file_is_refused(tmp_path, command, via_link):
    """--output that is the input file, by its own name or through a link to
    it, exits 2 with one DomainError line before solving, and leaves the
    file as it was."""
    verb, name, *flags = command
    source = tmp_path / name
    source.write_bytes((GOLDEN / name).read_bytes())
    target = source
    if via_link:
        target = tmp_path / "link.json"
        target.symlink_to(source)
    result = run_cli(verb, source, *flags, "--output", target)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"DomainError: --output {target} is the input file; it would be overwritten\n"
    )
    assert source.read_bytes() == (GOLDEN / name).read_bytes()


def test_solver_errors_exit_3_in_every_command(tmp_path):
    """A regime the solvers reject, or values that overflow, is a solver
    error wherever a command meets it: exit 3, one line, nothing written."""
    doc = json.loads((GOLDEN / "two_stage_basic.json").read_text())
    doc["payload"]["action_utility"] = [1e308, -1e308]
    doc["payload"]["outcome_utility"]["risky"] = [1e308, -1e308]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    unsupported = (
        "UnsupportedRegime: lambda at the zero limit pins the policy to its prior; "
        "use a finite lambda or the inf limit\n"
    )
    overflow = "DomainError: utility of 'risky' is not finite: -inf\n"
    for command, stderr in [
        (("solve", GOLDEN / "two_stage_lambda_zero.json"), unsupported),
        (("sweep", GOLDEN / "two_stage_basic.json", "--param", "mu", "--grid", "1",
          "--lambda", "zero"), unsupported),
        (("regimes", huge), overflow),
        (("verify", huge), overflow),
    ]:
        result = run_cli(*command, "--output", tmp_path / "out")
        assert (result.returncode, result.stdout, result.stderr) == (3, "", stderr)
        assert not (tmp_path / "out").exists()


def test_repeated_runs_are_byte_identical():
    for args in (
        ("solve", GOLDEN / "two_stage_basic.json"),
        ("regimes", GOLDEN / "two_stage_basic.json"),
        ("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "0.5,1,2"),
    ):
        first, second = run_process(*args), run_process(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# sweep


def test_sweep_control_csv_shape_and_kl_monotone():
    result = run_cli(
        "sweep", GOLDEN / "control_basic.json",
        "--param", "alpha", "--grid", "0.25,0.5,1,2,inf",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "alpha,p[a],p[b],value,achieved_kl"
    assert len(lines) == 6
    assert [row.split(",")[0] for row in lines[1:]] == ["0.25", "0.5", "1", "2", "inf"]
    kls = [float(row.split(",")[4]) for row in lines[1:]]
    assert all(a >= b - 1e-15 for a, b in zip(kls, kls[1:]))
    assert kls[-1] == 0.0


def test_sweep_single_point_matches_solve():
    doc = solve_doc(GOLDEN / "control_basic.json")
    result = run_cli(
        "sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1"
    )
    row = result.stdout.strip().split("\n")[1].split(",")
    assert float(row[1]) == doc["policy"]["a"]
    assert float(row[2]) == doc["policy"]["b"]
    assert float(row[3]) == doc["value"]
    assert float(row[4]) == doc["achieved_kl"]


def test_sweep_mu_value_nondecreasing():
    result = run_cli(
        "sweep", GOLDEN / "two_stage_basic.json",
        "--param", "mu", "--grid=-inf,-2,-0.5,zero,0.5,2,inf",
        "--lambda", "inf",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "mu,p[safe],p[risky],value,achieved_c1,achieved_c2"
    values = [float(row.split(",")[3]) for row in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_tree_lambda():
    result = run_cli(
        "sweep", GOLDEN / "tree_binary.json",
        "--param", "lambda", "--grid", "0.5,1,inf", "--mu", "inf",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "lambda,p[a],p[b],value,achieved_kl"
    assert float(lines[-1].split(",")[3]) == pytest.approx(4.0, abs=1e-12)


def test_sweep_single_leaf_tree(tmp_path):
    path = tmp_path / "leaf.json"
    path.write_text('{"schema_version": "1", "kind": "tree", "payload": {"name": "only"}}')
    result = run_cli("sweep", path, "--param", "mu", "--grid", "1,inf")
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout == "mu,value,achieved_kl\n1,0,0\ninf,0,0\n"


@pytest.mark.parametrize("label", ["x,y", 'say "hi"', "two\nlines", "cr\r"])
def test_sweep_quotes_a_label_as_rfc_4180(tmp_path, label):
    """A header cell holding a comma, a quote, CR or LF is quoted, so that a
    CSV reader sees one cell per column; the rows are as for plain labels."""
    doc = json.loads((GOLDEN / "control_basic.json").read_text())
    doc["payload"]["outcomes"][0] = label
    path = tmp_path / "control.json"
    path.write_text(json.dumps(doc))
    flags = ("--param", "alpha", "--grid", "0.5,1,inf")
    result = run_cli("sweep", path, *flags)
    assert result.returncode == 0 and result.stderr == ""
    header, *rows = csv.reader(io.StringIO(result.stdout, newline=""))
    assert header == ["alpha", f"p[{label}]", "p[b]", "value", "achieved_kl"]
    assert [len(row) for row in rows] == [5, 5, 5]
    plain = run_cli("sweep", GOLDEN / "control_basic.json", *flags).stdout
    assert result.stdout.split("\n")[-4:] == plain.split("\n")[-4:]


def test_unknown_leaf_tag_exits_2_naming_the_node(tmp_path):
    """A leaf's tag is checked as an internal node's is: the first bad one in
    pre-order is named."""
    kids = [
        {"prior": 0.5, "utility": 1.0, "node": {"name": "a", "temperature_tag": 5}},
        {"prior": 0.5, "utility": 0.0, "node": {"name": "b", "temperature_tag": "beta"}},
    ]
    doc = {"schema_version": "1", "kind": "tree", "payload": {"name": "r", "children": kids}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    for command in (["solve"], ["sweep", "--param", "mu", "--grid", "1"], ["verify"]):
        result = run_cli(command[0], path, *command[1:])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "UnknownTemperatureTag: node 'a' has temperature tag 5; "
            "expected one of ('lambda', 'mu')\n"
        )


def test_sweep_parameter_mismatches_exit_2():
    assert run_cli(
        "sweep", GOLDEN / "two_stage_basic.json", "--param", "alpha", "--grid", "1"
    ).returncode == 2
    assert run_cli(
        "sweep", GOLDEN / "control_basic.json", "--param", "mu", "--grid", "1"
    ).returncode == 2


@pytest.mark.parametrize("command, stderr", [
    (("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1,2", "--mu", "5"),
     "--mu does not apply to a sweep of alpha"),
    (("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1,2", "--mu", "5",
      "--lambda", "3"), "--lambda does not apply to a sweep of alpha"),
    (("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1,2", "--alpha", "7"),
     "--alpha does not apply to a sweep of alpha"),
    (("sweep", GOLDEN / "two_stage_basic.json", "--param", "mu", "--grid", "1,2", "--mu", "5"),
     "--mu does not apply to a sweep of mu"),
    (("sweep", GOLDEN / "two_stage_basic.json", "--param", "lambda", "--grid", "1,2",
      "--lambda", "5"), "--lambda does not apply to a sweep of lambda"),
    (("sweep", GOLDEN / "tree_binary.json", "--param", "lambda", "--grid", "1,2", "--alpha", "5"),
     "--alpha does not apply to a sweep of lambda"),
    (("verify", "--suite", "log-partition", "--alpha", "5", "--mu", "3"),
     "--alpha does not apply to --suite"),
])
def test_temperature_flags_a_command_does_not_read_exit_2(command, stderr):
    """A flag that would set the swept temperature, or any temperature for a
    suite, is refused rather than ignored."""
    result = run_cli(*command)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"DomainError: {stderr}\n")


def test_sweep_invalid_grid_values_exit_2():
    assert run_cli(
        "sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "1,-1"
    ).returncode == 2
    assert run_cli(
        "sweep", GOLDEN / "two_stage_basic.json", "--param", "lambda", "--grid", "-3"
    ).returncode == 2
    assert run_cli(
        "sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", ","
    ).returncode == 2


# ---------------------------------------------------------------------------
# regimes


def test_regimes_sections_in_canonical_order():
    result = run_cli("regimes", GOLDEN / "two_stage_basic.json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["mu_risk"] == "-1"
    labels = [s["regime"] for s in doc["sections"]]
    assert labels == ["risk-seeking-bounded", "risk-neutral", "risk-averse", "robust"]
    chosen = [s["chosen_action"] for s in doc["sections"]]
    assert chosen == ["risky", "risky", "safe", "safe"]
    assert doc["sections"][1]["value"] == pytest.approx(3.0, abs=1e-12)
    assert doc["sections"][3]["value"] == pytest.approx(2.0, abs=1e-12)


def test_regimes_custom_risk_point():
    result = run_cli("regimes", GOLDEN / "two_stage_basic.json", "--mu", "-2")
    doc = json.loads(result.stdout)
    averse = doc["sections"][2]
    assert averse["mu"] == "-2"
    assert averse["value"] == pytest.approx(2.1899426, abs=1e-6)


def test_regimes_rejects_bad_targets():
    assert run_cli("regimes", GOLDEN / "control_basic.json").returncode == 2
    assert run_cli("regimes", GOLDEN / "two_stage_basic.json", "--mu", "zero").returncode == 2
    assert run_cli("regimes", GOLDEN / "two_stage_basic.json", "--mu", "1").returncode == 2
    assert run_cli("regimes", GOLDEN / "two_stage_basic.json", "--mu", "-inf").returncode == 2


# ---------------------------------------------------------------------------
# units


def test_bits_rescale_only_relative_entropy_fields():
    nats = solve_doc(GOLDEN / "control_basic.json")
    bits = solve_doc(GOLDEN / "control_basic.json", "--units", "bits")
    assert bits["units"] == "bits"
    assert bits["achieved_kl"] == pytest.approx(nats["achieved_kl"] / LN2, rel=1e-12)
    assert bits["information_cost"] == pytest.approx(nats["information_cost"] / LN2, rel=1e-12)
    for key in ("policy", "value", "expected_utility", "log_partition"):
        assert bits[key] == nats[key]


def test_bits_rescale_sweep_kl_column():
    base = ("sweep", GOLDEN / "control_basic.json", "--param", "alpha", "--grid", "0.5")
    nats_row = run_cli(*base).stdout.strip().split("\n")[1].split(",")
    bits_row = run_cli(*base, "--units", "bits").stdout.strip().split("\n")[1].split(",")
    assert float(bits_row[4]) == pytest.approx(float(nats_row[4]) / LN2, rel=1e-12)
    assert bits_row[3] == nats_row[3]


def test_bits_rescale_no_label_named_like_a_relative_entropy(tmp_path):
    """Only a document's top-level relative-entropy fields are rescaled; an
    outcome or action named like one keeps its probability and values."""
    control = tmp_path / "control.json"
    control.write_text(json.dumps({
        "schema_version": "1", "kind": "control",
        "payload": {"outcomes": ["achieved_kl", "b"], "prior": [0.5, 0.5], "utility": [0, 1]},
    }))
    nats, bits = (solve_doc(control, "--units", units) for units in ("nats", "bits"))
    assert bits["policy"] == nats["policy"]
    assert math.fsum(bits["policy"].values()) == pytest.approx(1.0, abs=1e-12)
    assert bits["achieved_kl"] == pytest.approx(nats["achieved_kl"] / LN2, rel=1e-12)

    actions, outcomes = ["achieved_c1", "b"], ["achieved_kl", "y"]
    staged = tmp_path / "two_stage.json"
    staged.write_text(json.dumps({
        "schema_version": "1", "kind": "two_stage",
        "payload": {
            "actions": actions, "outcomes": outcomes, "prior_action": [0.5, 0.5],
            "channel": {a: [0.5, 0.5] for a in actions},
            "action_utility": [0.0, 1.0],
            "outcome_utility": {a: [2.0, 0.5] for a in actions},
        },
    }))
    nats, bits = (solve_doc(staged, "--units", units) for units in ("nats", "bits"))
    for key in ("action_policy", "outcome_beliefs", "values", "log_z2"):
        assert bits[key] == nats[key]
    assert bits["achieved_c1"] == pytest.approx(nats["achieved_c1"] / LN2, rel=1e-12)
    nats, bits = (
        json.loads(run_cli("regimes", staged, "--units", units).stdout) for units in ("nats", "bits")
    )
    assert bits["sections"] == nats["sections"]


# ---------------------------------------------------------------------------
# argument parsing


@pytest.mark.parametrize("args", [
    ("solve", GOLDEN / "two_stage_basic.json", "--mu", "-inf"),
    ("solve", GOLDEN / "two_stage_basic.json", "--mu", "-1e-3"),
    ("solve", GOLDEN / "two_stage_basic.json", "--lambda", "-inf"),
    ("solve", GOLDEN / "control_basic.json", "--alpha", "-1e-3"),
    ("sweep", GOLDEN / "two_stage_basic.json", "--param", "mu", "--grid", "-inf,-1,zero"),
    ("sweep", GOLDEN / "two_stage_basic.json", "--param", "lambda", "--grid", "1",
     "--mu", "-1e-3"),
    ("regimes", GOLDEN / "two_stage_basic.json", "--mu", "-1e-3"),
    ("verify", GOLDEN / "two_stage_basic.json", "--mu", "-1e-3"),
    ("verify", "--suite", "log-partition", "--perturb", "-1e-3"),
])
def test_dash_leading_flag_values_parse(args):
    """'--flag -value' reads the value as '--flag=-value' does."""
    *head, flag, value = args
    spaced, joined = run_cli(*args), run_cli(*head, f"{flag}={value}")
    assert "ArgumentError" not in spaced.stderr
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (
        joined.returncode, joined.stdout, joined.stderr
    )


@pytest.mark.parametrize("args, message", [
    ((), "the following arguments are required: command"),
    (("solve",), "the following arguments are required: file"),
    (("solve", GOLDEN / "two_stage_basic.json", "--mu"), "argument --mu: expected one argument"),
    (("solve", GOLDEN / "two_stage_basic.json", "--mu", "-x"),
     "argument --mu: expected one argument"),
    (("solve", GOLDEN / "two_stage_basic.json", "--bogus"), "unrecognized arguments: --bogus"),
    (("solve", GOLDEN / "two_stage_basic.json", "--units", "furlongs"),
     "argument --units: invalid choice: 'furlongs' (choose from 'nats', 'bits')"),
    (("sweep", GOLDEN / "two_stage_basic.json", "--param", "nu", "--grid", "1"),
     "argument --param: invalid choice: 'nu' (choose from 'lambda', 'mu', 'alpha')"),
    (("verify", "--suite", "log-partition", "--perturb", "abc"),
     "argument --perturb: invalid float value: 'abc'"),
])
def test_usage_faults_exit_2_with_one_line(args, message):
    result = run_cli(*args)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"ArgumentError: {message}\n")


def test_usage_fault_and_help_in_a_fresh_process():
    fault = run_process("solve", GOLDEN / "two_stage_basic.json", "--mu")
    assert (fault.returncode, fault.stdout) == (2, "")
    assert fault.stderr == "ArgumentError: argument --mu: expected one argument\n"
    help_ = run_process("solve", "-h")
    assert (help_.returncode, help_.stderr) == (0, "")
    assert help_.stdout.startswith("usage: freeutil solve")


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_passes_and_repeats_bytes():
    first = run_process("verify", "--suite", "control-optimality", seed="7")
    second = run_cli("verify", "--suite", "control-optimality", seed="7")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["seed"] == "7"
    assert doc["passed"] is True
    assert all(c["passed"] and c["gap"] <= c["tolerance"] for c in doc["certificates"])


def test_verify_seed_defaults_to_zero():
    doc = json.loads(run_cli("verify", "--suite", "limit-recovery").stdout)
    assert doc["seed"] == "0"


HASHED_SEED_LOG_PARTITION = (
    '{\n'
    '  "command": "verify",\n'
    '  "seed": "abc",\n'
    '  "suite": "log-partition",\n'
    '  "units": "nats",\n'
    '  "perturbation": 0,\n'
    '  "certificates": [\n'
    '    {\n'
    '      "name": "log-partition/alpha-0.1",\n'
    '      "analytic": 4.97137692079,\n'
    '      "oracle": 4.97137692079,\n'
    '      "gap": 8.881784197e-16,\n'
    '      "tolerance": 1e-09,\n'
    '      "passed": true,\n'
    '      "note": "worst of 50 random tables, direct summation reference"\n'
    '    },\n'
    '    {\n'
    '      "name": "log-partition/alpha-1",\n'
    '      "analytic": 4.75624701424,\n'
    '      "oracle": 4.75624701424,\n'
    '      "gap": 8.881784197e-16,\n'
    '      "tolerance": 1e-09,\n'
    '      "passed": true,\n'
    '      "note": "worst of 50 random tables, direct summation reference"\n'
    '    },\n'
    '    {\n'
    '      "name": "log-partition/alpha-10",\n'
    '      "analytic": 8.89616746362,\n'
    '      "oracle": 8.89616746362,\n'
    '      "gap": 3.5527136788e-15,\n'
    '      "tolerance": 1e-09,\n'
    '      "passed": true,\n'
    '      "note": "worst of 50 random tables, direct summation reference"\n'
    '    }\n'
    '  ],\n'
    '  "passed": true\n'
    '}\n'
)


def test_verify_hashed_seed_keeps_its_stream():
    """A non-decimal FREEUTIL_SEED is hashed to the same integer, and so the
    same instances, however the hash is loaded."""
    assert resolve_seed("abc") == 13436514500253700074
    result = run_process("verify", "--suite", "log-partition", seed="abc")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == HASHED_SEED_LOG_PARTITION


def test_verify_perturbation_trips_every_certificate():
    result = run_process("verify", "--suite", "control-optimality", "--perturb", "0.001")
    assert result.returncode == 4
    doc = json.loads(result.stdout)
    assert doc["passed"] is False
    assert doc["perturbation"] == 0.001
    assert all(not c["passed"] for c in doc["certificates"])


@pytest.mark.parametrize("eps, code", [("1e-6", 0), ("1e-3", 4)])
def test_verify_perturbation_fails_a_certificate_past_its_slack(eps, code):
    """--perturb adds |EPS| to every gap: control_basic.json's node
    certificate (tolerance 1e-5) still passes at 1e-6 and fails at 1e-3."""
    result = run_cli("verify", GOLDEN / "control_basic.json", "--perturb", eps)
    assert (result.returncode, result.stderr) == (code, "")
    (cert,) = json.loads(result.stdout)["certificates"]
    assert cert["tolerance"] == 1e-5 and cert["gap"] == float(eps)


def test_verify_file_control():
    result = run_cli("verify", GOLDEN / "control_basic.json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["file"].endswith("control_basic.json")
    assert doc["passed"] is True
    assert [c["name"] for c in doc["certificates"]] == ["file/control/objective-gap"]
    for cert in doc["certificates"]:
        assert list(cert) == [
            "name", "analytic", "oracle", "gap", "tolerance", "passed", "note"
        ]


def test_verify_file_control_with_dead_outcomes():
    result = run_cli("verify", GOLDEN / "control_zero_prior.json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    names = [c["name"] for c in doc["certificates"]]
    assert names == [
        "file/control/objective-gap",
        "file/control/support-preservation",
    ]
    assert doc["passed"] is True


def test_verify_file_two_stage():
    result = run_cli("verify", GOLDEN / "two_stage_basic.json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True


def test_verify_file_tree():
    result = run_cli("verify", GOLDEN / "tree_chain.json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True


def subnormal_prior_file(tmp_path):
    """Prior [5e-324, 1], utility [1000, 0], alpha 1: the policy moves almost
    all mass to the outcome the prior holds at the smallest subnormal."""
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "kind": "control",
        "payload": {"outcomes": ["a", "b"], "prior": [5e-324, 1], "utility": [1000, 0]},
        "temperatures": {"alpha": 1},
    }))
    return path


def test_solve_against_a_subnormal_prior_is_finite(tmp_path):
    result = run_cli("solve", subnormal_prior_file(tmp_path))
    assert (result.returncode, result.stderr) == (0, "")
    doc = json.loads(result.stdout, parse_constant=lambda name: pytest.fail(name))
    # mpmath: KL 744.440071921381, total 255.559928078619
    assert doc["achieved_kl"] == pytest.approx(744.440071921381, abs=1e-9)
    assert doc["total"] == doc["value"] == pytest.approx(255.559928078619, abs=1e-9)


def test_verify_against_a_subnormal_prior_passes(tmp_path):
    result = run_cli("verify", subnormal_prior_file(tmp_path))
    assert (result.returncode, result.stderr) == (0, "")
    (cert,) = json.loads(result.stdout)["certificates"]
    assert cert["passed"] is True
    assert abs(cert["oracle"] - cert["analytic"]) <= 1e-5
    assert cert["analytic"] == pytest.approx(255.559928078619, abs=1e-9)


def test_verify_passes_a_policy_row_with_a_subnormal_entry(tmp_path):
    """Prior [0.5, 0.5], utility [0, -744.3], alpha 1: the policy's second
    entry is about 5.7e-324, which the solver can only round to the
    smallest subnormal. Its log is off by a sizeable fraction of ln 2, so
    the certificate must treat it as underflowed, not as a logged entry."""
    path = tmp_path / "subnormal_row.json"
    path.write_text(json.dumps({
        "schema_version": "1",
        "kind": "control",
        "payload": {"outcomes": ["a", "b"], "prior": [0.5, 0.5], "utility": [0, -744.3]},
        "temperatures": {"alpha": 1},
    }))
    result = run_cli("verify", path)
    assert (result.returncode, result.stderr) == (0, "")
    (cert,) = json.loads(result.stdout)["certificates"]
    assert cert["passed"] is True and cert["gap"] <= 1e-12
    assert cert["analytic"] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_verify_oversized_problems_exit_2(monkeypatch):
    """An oracle's size cap is an input error: exit 2 and one line naming it."""
    monkeypatch.setattr(oracle, "MAX_PATHS", 1)
    result = run_cli("verify", GOLDEN / "tree_binary.json")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("TooManyPaths: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [(), ("--mu", "-2")])
def test_verify_certifies_a_two_stage_file_wider_than_2x2(flags):
    """3 actions x 4 outcomes: the file gets the node certificate at either
    sign of mu."""
    result = run_cli("verify", GOLDEN / "two_stage_3x4.json", *flags)
    assert (result.returncode, result.stderr) == (0, "")
    certs = json.loads(result.stdout)["certificates"]
    assert [c["name"] for c in certs if c["passed"]] == [
        "file/two-stage/minimax-agreement", "file/two-stage/objective-gap"
    ]


def test_verify_failure_still_writes_its_document(tmp_path):
    command = ("verify", GOLDEN / "control_basic.json", "--perturb", "1e-3")
    target = tmp_path / "report.json"
    result = run_cli(*command, "--output", target)
    assert (result.returncode, result.stdout, result.stderr) == (4, "", "")
    assert target.read_text() == run_cli(*command).stdout
    assert json.loads(target.read_text())["passed"] is False


def test_verify_infinite_alpha_file_exit_2():
    assert run_cli("verify", GOLDEN / "control_alpha_inf.json").returncode == 2


def test_verify_lambda_zero_file_runs_applicable_certs():
    # The lattice check needs finite temperatures; only the worst-case
    # certificate applies here, and it does not touch lambda.
    result = run_cli("verify", GOLDEN / "two_stage_lambda_zero.json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert [c["name"] for c in doc["certificates"]] == [
        "file/two-stage/minimax-agreement"
    ]


def test_verify_needs_exactly_one_target():
    assert run_cli("verify").returncode == 2
    assert run_cli(
        "verify", GOLDEN / "control_basic.json", "--suite", "control-optimality"
    ).returncode == 2
