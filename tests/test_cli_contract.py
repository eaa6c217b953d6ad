"""The CLI's input contract, on mutated golden files.

A case takes one golden file, changes one to three of its fields (to huge
integers, ±1e308, 5e-324, -0.0, strings, null, booleans, empty containers or
the limit spellings; or drops, duplicates or reorders them) and may then
corrupt the bytes (an invalid UTF-8 byte, a byte-order mark, a truncation).
Every command on it must keep the contract:

- the exit code is 0, 2, 3 or 4;
- stderr is empty on exits 0 and 4, and one ``Name: message`` line on
  exits 2 and 3, where stdout is empty;
- no warning is raised;
- stdout is strict JSON (CSV for ``sweep``) holding no nan or inf;
- a second run prints the same bytes.

Pinned cases hold the same commands to the same rules at extreme flag
values: temperatures at the ends of the float range, subnormal and
negative zero, sweep grids holding them or nan, and non-finite
perturbations.
"""
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil import cli

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_DOCS = {p.name: json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))}


class Raw(str):
    """A JSON number written as this text: past what json.dumps writes."""


class Pairs(tuple):
    """An object's members as (key, value) pairs, so that a key may repeat."""


def encode(obj) -> str:
    if isinstance(obj, Raw):
        return str(obj)
    if isinstance(obj, (dict, Pairs)):
        members = obj.items() if isinstance(obj, dict) else obj
        return "{" + ", ".join(json.dumps(k) + ": " + encode(v) for k, v in members) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(encode, obj)) + "]"
    return json.dumps(obj)


def paths(obj, prefix=()):
    """The path of every value in the decoded document, the root first."""
    yield prefix
    if isinstance(obj, dict):
        members = obj.items()
    elif isinstance(obj, list):
        members = enumerate(obj)
    else:
        return
    for key, value in members:
        yield from paths(value, prefix + (key,))


def apply(doc, edit):
    """doc with one edit applied: ("set", path, value), ("drop", path),
    ("dup", path, value) or ("reverse", path)."""
    op, path, *value = edit
    value = copy.deepcopy(value[0]) if value else None
    if not path:
        return value if op == "set" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "set":
        parent[key] = value
    elif op == "drop":
        del parent[key]
    elif op == "reverse" and isinstance(parent[key], list):
        parent[key].reverse()
    elif op == "dup" and isinstance(parent, dict):
        duplicated = Pairs([*parent.items(), (key, value)])
        if len(path) == 1:
            return duplicated
        grand = doc
        for step in path[:-2]:
            grand = grand[step]
        grand[path[-2]] = duplicated
    return doc


def file_bytes(name, edits, fault) -> bytes:
    doc = copy.deepcopy(GOLDEN_DOCS[name])
    for edit in edits:
        doc = apply(doc, edit)
    data = encode(doc).encode("utf-8")
    if fault is None:
        return data
    kind, *where = fault
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    at = where[0] % (len(data) + 1)
    return data[:at] if kind == "truncate" else data[:at] + bytes([where[1]]) + data[at:]


values = st.one_of(
    st.sampled_from([
        10**400, -(10**30), Raw("1" + "0" * 5000), Raw("1e400"), 1e308, -1e308, 5e-324,
        -0.0, 0, 1, -1, 0.5, 1e-12, None, True, False, {}, [], "", "inf", "-inf", "zero", "nan",
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(GOLDEN_DOCS)))
    doc, edits = copy.deepcopy(GOLDEN_DOCS[name]), []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        op = draw(st.sampled_from(["set", "set", "set", "drop", "dup", "reverse"]))
        edit = (op, path, draw(values)) if op in ("set", "dup") else (op, path)
        edits.append(edit)
        doc = apply(doc, edit)
        if not isinstance(doc, (dict, list)):
            break
    fault = draw(st.one_of(
        st.none(),
        st.tuples(st.just("byte"), st.integers(0, 10**6), st.sampled_from([0x80, 0xC3, 0xFF])),
        st.just(("bom",)),
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    ))
    return name, tuple(edits), fault


def run(argv):
    """(exit code, stdout, stderr, warnings) of cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.environ.pop("FREEUTIL_SEED", None)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def reject_constant(name):
    raise ValueError(f"JSON constant {name} in the output")


def check_csv(text):
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    for cells in rows:
        assert len(cells) == len(header)
        assert cells[0] in ("inf", "-inf", "zero") or math.isfinite(float(cells[0]))
        assert all(math.isfinite(float(cell)) for cell in cells[1:]), cells


def commands(path, kind):
    sweep = ["--param", "alpha", "--grid=zero,0.5,1,inf"] if kind == "control" else \
        ["--param", "mu", "--grid=-inf,-1,zero,1,inf"]
    return [
        ["solve", path],
        ["solve", path, "--units", "bits"],
        ["sweep", path, *sweep],
        ["regimes", path],
        ["verify", path],
    ]


@settings(max_examples=120, deadline=None)
@given(cases())
# Relative entropy against a subnormal reference probability.
@example(("control_basic.json", (
    ("set", ("payload", "prior", 0), 5e-324),
    ("set", ("payload", "prior", 1), 1),
    ("set", ("payload", "utility", 0), 1000),
), None))
@example(("two_stage_basic.json", (
    ("set", ("payload", "channel", "risky"), [5e-324, 1]),
    ("set", ("payload", "outcome_utility", "risky"), [1000, 0]),
), None))
# Bytes that are not UTF-8.
@example(("control_basic.json", (), ("byte", 24, 0xFF)))
@example(("tree_binary.json", (("set", ("payload", "name"), "é"),), ("truncate", 37)))
# A log-partition past the float range: refused, never written as inf.
@example(("control_basic.json", (
    ("set", ("payload", "utility"), [1e308, 1e308]),
    ("set", ("temperatures",), {"alpha": 0.1}),
), None))
@example(("two_stage_basic.json", (
    ("set", ("payload", "outcome_utility", "risky"), [1e308, 1e308]),
    ("set", ("temperatures",), {"mu": 10}),
), None))
# A tiny finite mu: the lattice check may fail (exit 4), within the contract.
@example(("two_stage_basic.json", (("set", ("temperatures",), {"mu": 1e-12}),), None))
# Child names that a CSV header must quote, or that str.splitlines breaks.
@example(("tree_binary.json", (("set", ("payload", "children", 0, "node", "name"), "x,y"),), None))
@example(("tree_binary.json", (("set", ("payload", "children", 0, "node", "name"), "\x1e"),), None))
def test_every_command_keeps_the_contract(case):
    name, edits, fault = case
    kind = GOLDEN_DOCS[name].get("kind")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        Path(path).write_bytes(file_bytes(name, edits, fault))
        for argv in commands(path, kind):
            assert_contract(argv)


def assert_contract(argv):
    code, out, err, caught = run(argv)
    assert (code, out, err, caught) == run(argv), argv
    assert caught == [], (argv, caught)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (2, 3):
        assert re.fullmatch(r"[A-Za-z]\w*: [^\n]*\n", err), (argv, err)
        assert out == ""
        return
    assert err == "", (argv, err)
    if argv[0] == "sweep":
        check_csv(out)
    else:
        json.loads(out, parse_constant=reject_constant)


EXTREME_FLAGS = ["=5e-324", "=1e-310", "=1e308", "=-1e308", "=-0.0"]
EXTREME_GRIDS = ["5e-324", "1e308", "-1e308", "nan", "-1e308,-5e-324,zero,5e-324,1e308"]
NON_FINITE_PERTURB = [["--perturb", "nan"], ["--perturb", "inf"], ["--perturb=-inf"],
                      ["--perturb", "1e400"]]


def flag_cases():
    """(golden file, command and flags): extreme temperatures and grids on
    one file of each solvable kind, and non-finite perturbations."""
    for name in ("control_basic.json", "two_stage_basic.json", "tree_mixed_tags.json"):
        kind = GOLDEN_DOCS[name]["kind"]
        for flag in ("--alpha", "--lambda", "--mu"):
            for value in EXTREME_FLAGS:
                yield name, ["solve", flag + value]
                yield name, ["verify", flag + value]
                if kind == "two_stage" and flag == "--mu":
                    yield name, ["regimes", flag + value]
        for param in ("alpha",) if kind == "control" else ("lambda", "mu"):
            for grid in EXTREME_GRIDS:
                yield name, ["sweep", "--param", param, "--grid=" + grid]
        for perturb in NON_FINITE_PERTURB:
            yield name, ["verify", *perturb]
    yield "two_stage_basic.json", ["regimes", "--mu=-5e-324"]


@pytest.mark.parametrize("name, argv", list(flag_cases()),
                         ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_flag_values_keep_the_contract(name, argv):
    command, *flags = argv
    assert_contract([command, str(GOLDEN / name), *flags])


@pytest.mark.parametrize("perturb", NON_FINITE_PERTURB, ids=" ".join)
def test_verify_rejects_a_non_finite_perturbation(perturb):
    code, out, err, _ = run(["verify", str(GOLDEN / "two_stage_basic.json"), *perturb])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"DomainError: perturbation must be a finite number, got [-a-z]+\n", err)


def test_verify_keeps_a_large_finite_perturbation():
    argv = ["verify", str(GOLDEN / "two_stage_basic.json"), "--perturb", "1.7e308"]
    assert_contract(argv)
    assert run(argv)[0] == 4
