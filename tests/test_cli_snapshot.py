"""Byte identity of the command line: each call recorded in cli_snapshot.json
gives the same exit code, stdout and stderr today.

The calls: for every golden file, ``solve`` and one ``sweep`` across the
limits, each in nats and in bits, then ``verify`` and ``regimes``; last
``verify --suite all``. They run in process through ``cli.main`` from this
directory, so each path is recorded relative to it and no machine path is
written, and with FREEUTIL_SEED unset.

After a deliberate change of output, regenerate the snapshot with

    PYTHONPATH=src python tests/test_cli_snapshot.py

which prints the argv of every call whose exit code, stdout or stderr
differs from the old snapshot (or that it did not hold), for review.
"""
import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from freeutil import cli
from test_cli_contract import check_csv, reject_constant

HERE = Path(__file__).parent
SNAPSHOT = HERE / "cli_snapshot.json"


def snapshot_calls() -> list[list[str]]:
    calls = []
    for path in sorted(HERE.glob("golden/*.json")):
        name = path.relative_to(HERE).as_posix()
        if path.name.startswith("control_"):
            sweep = ["sweep", name, "--param", "alpha", "--grid=zero,0.5,1,inf"]
        else:
            sweep = ["sweep", name, "--param", "mu", "--grid=-inf,-1,zero,0.5,1,inf"]
        for call in (["solve", name], sweep):
            calls += [call, call + ["--units", "bits"]]
        calls += [["verify", name], ["regimes", name]]
    return calls + [["verify", "--suite", "all"]]


def run(argv: list[str]) -> dict:
    """One call through cli.main, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("FREEUTIL_SEED", None)
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_calls_match_the_snapshot(monkeypatch):
    monkeypatch.chdir(HERE)
    recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == snapshot_calls()
    for want in recorded:
        assert run(want["argv"]) == want


def test_snapshot_holds_only_finite_numbers():
    """Every recorded stdout is strict JSON, or for sweep a CSV whose data
    cells after the first column are finite numbers, so that a re-record
    cannot bring in inf or nan unnoticed."""
    for record in json.loads(SNAPSHOT.read_text(encoding="utf-8")):
        if not record["stdout"]:
            continue
        if record["argv"][0] == "sweep":
            check_csv(record["stdout"])
        else:
            json.loads(record["stdout"], parse_constant=reject_constant)


if __name__ == "__main__":
    os.chdir(HERE)
    old = {}
    if SNAPSHOT.exists():
        old = {tuple(r["argv"]): r for r in json.loads(SNAPSHOT.read_text(encoding="utf-8"))}
    records = [run(argv) for argv in snapshot_calls()]
    SNAPSHOT.write_text(
        "[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n", encoding="utf-8"
    )
    changed = [r["argv"] for r in records if old.get(tuple(r["argv"])) != r]
    for argv in changed:
        print("changed:", " ".join(argv))
    print(f"wrote {len(records)} calls to {SNAPSHOT.name}, {len(changed)} changed")
