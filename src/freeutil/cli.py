"""Command-line front end.

Four commands: ``solve`` runs the appropriate solver for a problem file and
emits a solution document; ``sweep`` re-solves across a grid of temperature
values and emits a CSV table; ``regimes`` compares the canonical decision
attitudes side by side on a two-stage problem; ``verify`` runs oracle
certificates, either on a file or as a named built-in suite.

Output discipline: every number is rendered with 12 significant digits, key
order is fixed, and nothing nondeterministic (timestamps, paths, machine
info) is emitted, so two runs on the same input are byte-identical — for
randomized suites, given the same FREEUTIL_SEED. Exit codes are a stable
contract: 0 success, 2 input error, 3 solver error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .model import (
    ControlProblem,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TooLarge,
    TooManyOutcomes,
    TooManyPaths,
    TwoStageProblem,
    expectation,
    kl_divergence,
)
from .problemio import ProblemFile, load, render_json
from .sequential import regime_label, solve_regime, value_recursion
# bounded_control stays bound here: the benchmark's traced run wraps it.
from .variational import bounded_control, control_temperature, exponential_tilt  # noqa: F401
from . import verify as verify_mod

LN2 = math.log(2.0)

# Keys holding relative-entropy quantities; these are the only numbers the
# bits/nats toggle rescales.
KL_KEYS = {"achieved_kl", "information_cost", "achieved_c1", "achieved_c2"}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _fmt_float(x: float) -> str:
    return format(x + 0.0, ".12g")  # -0.0 + 0.0 is 0.0; every other float is kept


def _convert_units(obj, units: str):
    """Rescale relative-entropy fields in place-free fashion for bits output."""
    if units == "nats":
        return obj
    if isinstance(obj, dict):
        return {
            k: (v / LN2 if k in KL_KEYS and isinstance(v, float) else _convert_units(v, units))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_convert_units(v, units) for v in obj]
    return obj


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_temp_arg(text: str | None, what: str) -> Temperature | None:
    if text is None:
        return None
    try:
        return Temperature.parse(text)
    except FreeUtilError:
        raise
    except Exception:
        raise DomainError(f"cannot parse {what} value {text!r}")


def _resolve_control_alpha(pf: ProblemFile, args) -> Temperature:
    flag_alpha = _parse_temp_arg(args.alpha, "alpha")
    flag_lam = _parse_temp_arg(getattr(args, "lam", None), "lambda")
    if getattr(args, "mu", None) is not None:
        raise DomainError("mu does not apply to a control problem")
    if flag_alpha is not None and flag_lam is not None:
        raise DomainError("give either alpha or lambda for a control problem, not both")
    if flag_alpha is not None:
        return control_temperature(flag_alpha)
    if flag_lam is not None:
        return control_temperature(flag_lam.reciprocal())
    if pf.alpha is not None:
        return control_temperature(pf.alpha)
    return Temperature.finite(1.0)


def _resolve_staged_temps(pf: ProblemFile, args) -> TemperatureSpec:
    flag_alpha = _parse_temp_arg(getattr(args, "alpha", None), "alpha")
    flag_lam = _parse_temp_arg(getattr(args, "lam", None), "lambda")
    flag_mu = _parse_temp_arg(getattr(args, "mu", None), "mu")
    if flag_alpha is not None and flag_lam is not None:
        raise DomainError("give either lambda or alpha, not both")
    lam = flag_lam
    if lam is None and flag_alpha is not None:
        lam = flag_alpha.reciprocal()
    if lam is None:
        lam = pf.lam
    if lam is None:
        lam = Temperature.finite(1.0)
    mu = flag_mu if flag_mu is not None else pf.mu
    if mu is None:
        mu = Temperature.finite(1.0)
    return TemperatureSpec(lam, mu)


def _solve_control_doc(problem: ControlProblem, alpha: Temperature) -> dict:
    # alpha is resolved, so this tilt is the one bounded_control would run.
    tilt = exponential_tilt(problem.prior, problem.utility, alpha.reciprocal())
    policy = tilt.policy
    expected = expectation(policy, problem.utility)
    kl = kl_divergence(policy, problem.prior)
    cost = alpha.value * kl if alpha.is_finite else 0.0
    return {
        "command": "solve",
        "kind": "control",
        "alpha": alpha.spell(),
        "policy": policy.as_mapping(),
        "value": tilt.value,
        "log_partition": tilt.log_partition,
        "expected_utility": expected,
        "information_cost": cost,
        "achieved_kl": kl,
        "total": expected - cost,
    }


def _solve_two_stage_doc(problem: TwoStageProblem, temps: TemperatureSpec) -> dict:
    sol = solve_regime(problem, temps)
    return {
        "command": "solve",
        "kind": "two_stage",
        "lambda": temps.lam.spell(),
        "mu": temps.mu.spell(),
        "regime": sol.regime,
        "action_policy": sol.action_policy.as_mapping(),
        "outcome_beliefs": {a: d.as_mapping() for a, d in sol.outcome_beliefs.items()},
        "values": dict(sol.values),
        "value": sol.value,
        "log_z1": sol.log_z1,
        "log_z2": dict(sol.log_z2),
        "achieved_c1": sol.achieved_c1,
        "achieved_c2": sol.achieved_c2,
    }


def _solve_tree_doc(tree: DecisionTree, temps: TemperatureSpec, units: str,
                    conversion: str = "%.12g") -> str:
    """The tree solve document without its final newline: the header through
    render_json, node_values and node_policies (keyed by path, in pre-order)
    each filled by one % from an object array of the flat results, so no
    Python loop runs per node. Floats are written by the % conversion, -0.0
    as 0.0; paths and names are always % arguments, never template text.
    No key is a relative entropy; units is a label."""
    tv = value_recursion(tree, temps)
    pre = tree.orders()[0]
    paths = np.array(list(map(encode_basestring_ascii, tree.paths())), dtype=object)
    names = np.array(list(map(encode_basestring_ascii, tree.names)), dtype=object)
    # node_values: a path and a value per node.
    values = np.empty(2 * len(pre), dtype=object)
    values[0::2], values[1::2] = paths[pre], (tv.flat_values + 0.0)[pre]
    values_text = "{" + ",".join(["\n    %s: " + conversion] * len(pre)) % tuple(values) + "\n  }"
    # node_policies: a row per internal node, its path then a name and a
    # probability per child; the edge into node j > 0 is flat_policy[j - 1].
    internal = pre[tree.n_children[pre] > 0]
    counts = tree.n_children[internal]
    starts = np.cumsum(counts) - counts  # the edges before each row
    rank = np.arange(len(tree.names) - 1) - np.repeat(starts, counts)
    children = np.repeat(tree.first_child[internal], counts) + rank
    row_at = np.arange(len(internal)) + 2 * starts
    name_at = np.repeat(row_at + 1, counts) + 2 * rank
    policies = np.empty(len(internal) + 2 * len(children), dtype=object)
    policies[row_at], policies[name_at] = paths[internal], names[children]
    policies[name_at + 1] = (tv.flat_policy + 0.0)[children - 1]
    rows = {k: "\n    %s: {" + ",".join(["\n      %s: " + conversion] * k) + "\n    }"
            for k in set(counts.tolist())}
    template = ",".join(map(rows.__getitem__, counts.tolist()))
    policies_text = "{" + template % tuple(policies) + "\n  }" if template else "{}"
    header = render_json({
        "command": "solve",
        "kind": "tree",
        "lambda": temps.lam.spell(),
        "mu": temps.mu.spell(),
        "regime": regime_label(temps),
        "value": tv.root_value,
        "node_values": None,
        "node_policies": None,
        "units": units,
    }, lambda x: conversion % (x + 0.0))
    head, middle, tail = header.split(": null")  # the two placeholders are the only nulls
    return f"{head}: {values_text}{middle}: {policies_text}{tail}"


def _cmd_solve(args) -> int:
    try:
        pf = load(args.file)
        if pf.kind == "control":
            alpha = _resolve_control_alpha(pf, args)
        else:
            temps = _resolve_staged_temps(pf, args)
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if pf.kind == "control":
            doc = _solve_control_doc(pf.problem, alpha)
        elif pf.kind == "two_stage":
            doc = _solve_two_stage_doc(pf.problem, temps)
        else:
            text = _solve_tree_doc(pf.problem, temps, args.units)
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER

    if pf.kind != "tree":
        text = render_json(_convert_units({**doc, "units": args.units}, args.units), _fmt_float)
    _emit(text + "\n", args.output)
    return EXIT_OK


def _sweep_rows_control(problem: ControlProblem, grid: list[Temperature]):
    header = ["alpha"] + [f"p[{o}]" for o in problem.outcomes] + ["value", "achieved_kl"]
    rows = []
    for alpha in grid:
        tilt = exponential_tilt(problem.prior, problem.utility, alpha.reciprocal())
        kl = kl_divergence(tilt.policy, problem.prior)
        rows.append([alpha.spell()] + list(tilt.policy.probs) + [tilt.value, kl])
    return header, rows


def _sweep_rows_two_stage(
    problem: TwoStageProblem, param: str, grid: list[Temperature], temps: TemperatureSpec
):
    header = (
        [param]
        + [f"p[{a}]" for a in problem.actions]
        + ["value", "achieved_c1", "achieved_c2"]
    )
    rows = []
    for point in grid:
        lam = point if param == "lambda" else temps.lam
        mu = point if param == "mu" else temps.mu
        sol = solve_regime(problem, TemperatureSpec(lam, mu))
        rows.append(
            [point.spell()]
            + list(sol.action_policy.probs)
            + [sol.value, sol.achieved_c1, sol.achieved_c2]
        )
        # Free the solution before the next one is built: it keeps the
        # tilted channel, from which it builds its outcome beliefs.
        del sol
    return header, rows


def _sweep_rows_tree(
    tree: DecisionTree, param: str, grid: list[Temperature], temps: TemperatureSpec
):
    k = int(tree.n_children[0])
    root_children = tree.names[1 : 1 + k]
    root_prior = FiniteDistribution._trusted(root_children, tree.prior[:k].tolist())
    header = [param] + [f"p[{c}]" for c in root_children] + ["value", "achieved_kl"]
    rows = []
    for point in grid:
        lam = point if param == "lambda" else temps.lam
        mu = point if param == "mu" else temps.mu
        tv = value_recursion(tree, TemperatureSpec(lam, mu))
        root_policy = FiniteDistribution._trusted(root_children, tv.flat_policy[:k].tolist())
        kl = kl_divergence(root_policy, root_prior)
        rows.append([point.spell()] + list(root_policy.probs) + [tv.root_value, kl])
    return header, rows


def _render_csv(header: list[str], rows: list[list], units: str) -> str:
    kl_cols = {i for i, name in enumerate(header) if name in KL_KEYS}
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                if i in kl_cols and units == "bits":
                    cell = cell / LN2
                cells.append(_fmt_float(cell))
            else:
                cells.append(str(cell))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _cmd_sweep(args) -> int:
    try:
        pf = load(args.file)
        tokens = [t for t in args.grid.split(",") if t.strip()]
        if not tokens:
            raise DomainError("grid must list at least one value")
        grid = [Temperature.parse(t) for t in tokens]
        if pf.kind == "control":
            if args.param != "alpha":
                raise DomainError(
                    f"control problems sweep alpha, not {args.param!r}"
                )
            for point in grid:
                try:
                    control_temperature(point)
                except DomainError:
                    raise DomainError(
                        f"alpha grid value {point.spell()} is not a valid temperature"
                    ) from None
        else:
            if args.param not in ("lambda", "mu"):
                raise DomainError(
                    f"{pf.kind} problems sweep lambda or mu, not {args.param!r}"
                )
            if args.param == "lambda":
                for point in grid:
                    TemperatureSpec(point, 1.0)  # domain check only
            temps = _resolve_staged_temps(pf, args)
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if pf.kind == "control":
            header, rows = _sweep_rows_control(pf.problem, grid)
        elif pf.kind == "two_stage":
            header, rows = _sweep_rows_two_stage(pf.problem, args.param, grid, temps)
        else:
            header, rows = _sweep_rows_tree(pf.problem, args.param, grid, temps)
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER

    _emit(_render_csv(header, rows, args.units), args.output)
    return EXIT_OK


REGIME_POINTS = (
    (Temperature.finite(1.0), Temperature.finite(1.0)),
    (Temperature.pos_inf(), Temperature.zero()),
    (Temperature.pos_inf(), None),  # mu filled from --mu
    (Temperature.pos_inf(), Temperature.neg_inf()),
)


def _cmd_regimes(args) -> int:
    try:
        pf = load(args.file)
        if pf.kind != "two_stage":
            raise DomainError(f"regime comparison needs a two_stage problem, got {pf.kind!r}")
        mu_risk = Temperature.parse(args.mu)
        if not (mu_risk.is_finite and mu_risk.value < 0.0):
            raise DomainError(
                f"the risk-averse point needs a finite negative mu, got {mu_risk.spell()}"
            )
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT

    try:
        sections = []
        for lam, mu in REGIME_POINTS:
            temps = TemperatureSpec(lam, mu if mu is not None else mu_risk)
            sol = solve_regime(pf.problem, temps)
            sections.append(
                {
                    "regime": sol.regime,
                    "lambda": temps.lam.spell(),
                    "mu": temps.mu.spell(),
                    "chosen_action": sol.chosen_action(),
                    "policy": sol.action_policy.as_mapping(),
                    "value": sol.value,
                }
            )
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER

    doc = {
        "command": "regimes",
        "kind": "two_stage",
        "units": args.units,
        "mu_risk": mu_risk.spell(),
        "sections": sections,
    }
    doc = _convert_units(doc, args.units)
    _emit(render_json(doc, _fmt_float) + "\n", args.output)
    return EXIT_OK


def _cert_doc(cert: verify_mod.Certificate) -> dict:
    return {
        "name": cert.name,
        "analytic": cert.analytic,
        "oracle": cert.oracle,
        "gap": cert.gap,
        "tolerance": cert.tolerance,
        "passed": cert.passed,
        "note": cert.note,
    }


def _cmd_verify(args) -> int:
    if (args.file is None) == (args.suite is None):
        print("DomainError: give exactly one of a problem file or --suite", file=sys.stderr)
        return EXIT_INPUT

    seed_str = verify_mod.seed_text()
    seed = verify_mod.resolve_seed(seed_str)
    target: dict = {"seed": seed_str}

    pf = None
    try:
        if not math.isfinite(args.perturb):
            raise DomainError(f"perturbation must be a finite number, got {args.perturb!r}")
        if args.suite is not None:
            target["suite"] = args.suite
        else:
            target["file"] = args.file
            pf = load(args.file)
            if pf.kind == "control":
                alpha = _resolve_control_alpha(pf, args)
                if not alpha.is_finite:
                    raise DomainError(
                        "file verification needs a finite alpha for the lattice oracle"
                    )
            else:
                temps = _resolve_staged_temps(pf, args)
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.suite is not None:
            certs = verify_mod.run_suite(args.suite, seed)
        elif pf.kind == "control":
            certs = verify_mod.verify_control(
                pf.problem.prior, pf.problem.utility, alpha.value
            )
        elif pf.kind == "two_stage":
            certs = verify_mod.verify_two_stage(pf.problem, temps.lam, temps.mu)
        else:
            certs = verify_mod.verify_tree(pf.problem, temps.lam, temps.mu)
    except (TooManyOutcomes, TooLarge, TooManyPaths) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT
    except FreeUtilError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER

    certs = verify_mod.apply_perturbation(certs, args.perturb)
    passed = all(c.passed for c in certs)
    doc = {
        "command": "verify",
        **target,
        "units": args.units,
        "perturbation": args.perturb,
        "certificates": [_cert_doc(c) for c in certs],
        "passed": passed,
    }
    doc = _convert_units(doc, args.units)
    _emit(render_json(doc, _fmt_float) + "\n", args.output)
    return EXIT_OK if passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--units",
        choices=("nats", "bits"),
        default="nats",
        help="display unit for relative-entropy quantities (default: nats)",
    )
    common.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the document to PATH instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="freeutil",
        description=(
            "Bounded-rational decision policies: soft KL-regularized control, "
            "risk-sensitive and worst-case solvers, and oracle verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[common], help="solve one problem file"
    )
    p_solve.add_argument("file", help="problem file (JSON)")
    p_solve.add_argument("--lambda", dest="lam", default=None, metavar="V",
                         help="chooser inverse temperature (number, 'inf', or 'zero')")
    p_solve.add_argument("--mu", default=None, metavar="V",
                         help="environment inverse temperature (number, 'inf', '-inf', or 'zero')")
    p_solve.add_argument("--alpha", default=None, metavar="V",
                         help="temperature (reciprocal of lambda; number, 'inf', or 'zero')")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="solve across a grid of temperatures (CSV)"
    )
    p_sweep.add_argument("file", help="problem file (JSON)")
    p_sweep.add_argument("--param", required=True, choices=("lambda", "mu", "alpha"),
                         help="which temperature the grid varies")
    p_sweep.add_argument("--grid", required=True, metavar="V1,V2,...",
                         help="comma-separated grid values (numbers and limit spellings)")
    p_sweep.add_argument("--lambda", dest="lam", default=None, metavar="V",
                         help="fixed lambda while sweeping mu")
    p_sweep.add_argument("--mu", default=None, metavar="V",
                         help="fixed mu while sweeping lambda")
    p_sweep.add_argument("--alpha", default=None, metavar="V", help=argparse.SUPPRESS)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_regimes = sub.add_parser(
        "regimes", parents=[common],
        help="compare decision attitudes on a two-stage problem",
    )
    p_regimes.add_argument("file", help="two-stage problem file (JSON)")
    p_regimes.add_argument("--mu", default="-1", metavar="V",
                           help="mu for the risk-averse section (finite, negative; default -1)")
    p_regimes.set_defaults(fn=_cmd_regimes)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run oracle certificates"
    )
    p_verify.add_argument("file", nargs="?", default=None,
                          help="problem file to certify (omit when using --suite)")
    p_verify.add_argument("--suite", default=None, choices=verify_mod.suite_names(),
                          help="built-in certificate suite to run")
    p_verify.add_argument("--perturb", type=float, default=0.0, metavar="EPS",
                          help="bias analytic values by EPS (harness self-test)")
    p_verify.add_argument("--lambda", dest="lam", default=None, metavar="V",
                          help="lambda for file certificates")
    p_verify.add_argument("--mu", default=None, metavar="V",
                          help="mu for file certificates")
    p_verify.add_argument("--alpha", default=None, metavar="V",
                          help="alpha for control-file certificates")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        # Unreadable input and unwritable --output are both caller mistakes.
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
