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

Each command runs in two phases. Its ``_cmd_*`` function only reads and
checks the inputs (file, flags, grid, seed, perturbation) and returns a
zero-argument solve that gives the output, as str pieces (a list, or for a
tree's solve an iterator that makes each as it is written), and the exit
code. ``main`` alone keeps the contract: a usage fault, a
``FreeUtilError`` while reading, an oracle's size cap or an ``OSError``
anywhere exits 2, any other ``FreeUtilError`` from the solve exits 3, each
with one ``Name: message`` line on stderr; otherwise the pieces go to stdout
or ``--output``.
"""
from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import re
import sys
from itertools import chain
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
    TooManyPaths,
    TwoStageProblem,
    _finite,
    expectation,
    kl_divergence,  # noqa: F401
)
from .problemio import ProblemFile, load, render_json
from .sequential import _achieved_c2, regime_label, solve_regime, value_recursion
# bounded_control, exponential_tilt and kl_divergence stay bound for the traced benchmark.
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


# The % conversion of every float the CLI writes, by _fmt_float or a template.
_TREE_FLOAT = "%.12g"


def _fmt_float(x: float) -> str:
    return _TREE_FLOAT % (x + 0.0)  # -0.0 + 0.0 is 0.0; every other float is kept


def _fmt_finite(x: float) -> str:
    """_fmt_float of a float that JSON and CSV readers can hold: a result
    past the float range, or NaN, raises DomainError (exit 3) instead."""
    return _fmt_float(_finite(x, "a result"))


def _convert_units(doc: dict, units: str) -> dict:
    """A copy of a document or CSV row with its relative-entropy fields in
    the given units. Only top-level keys are read: that is where every such
    field sits, and below them keys are labels from the problem file."""
    if units == "nats":
        return doc
    return {k: v / LN2 if k in KL_KEYS and isinstance(v, float) else v for k, v in doc.items()}


def _render(doc: dict, units: str) -> str:
    return render_json(_convert_units(doc, units), _fmt_finite)


def _refuse_overwriting_input(args) -> None:
    """Refuse an --output that is the input file, under its name or another
    link to it, which writing the document would silently replace."""
    if args.file is None or args.output is None:
        return
    try:
        same = os.path.samefile(args.file, args.output)
    except OSError:  # a path that does not exist (yet)
        return
    if same:
        raise DomainError(f"--output {args.output} is the input file; it would be overwritten")


def _emit(pieces, output: str | None) -> None:
    """Write the output's pieces, a list or an iterator, to stdout or to the
    --output file, each as it is made, so no copy of the whole text is made
    and a piece is dropped once written."""
    if output is None:
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _parse_temp_arg(text: str | None) -> Temperature | None:
    return None if text is None else Temperature.parse(text)


def _flag_or_file(flag: Temperature | None, from_file: Temperature | None) -> Temperature:
    """The flag's temperature, else the file's, else 1."""
    for t in (flag, from_file):
        if t is not None:
            return t
    return Temperature.finite(1.0)


def _resolve_control_alpha(pf: ProblemFile, args) -> Temperature:
    flag_alpha, flag_lam = _parse_temp_arg(args.alpha), _parse_temp_arg(args.lam)
    if args.mu is not None:
        raise DomainError("mu does not apply to a control problem")
    if flag_alpha is not None and flag_lam is not None:
        raise DomainError("give either alpha or lambda for a control problem, not both")
    if flag_lam is not None:
        flag_alpha = flag_lam.reciprocal()
    return control_temperature(_flag_or_file(flag_alpha, pf.alpha))


def _resolve_staged_temps(pf: ProblemFile, args) -> TemperatureSpec:
    flag_alpha, flag_lam, flag_mu = map(_parse_temp_arg, (args.alpha, args.lam, args.mu))
    if flag_alpha is not None and flag_lam is not None:
        raise DomainError("give either lambda or alpha, not both")
    if flag_alpha is not None:
        flag_lam = flag_alpha.reciprocal()
    return TemperatureSpec(_flag_or_file(flag_lam, pf.lam), _flag_or_file(flag_mu, pf.mu))


def _solve_control_doc(problem: ControlProblem, alpha: Temperature, units: str) -> list[str]:
    tv = value_recursion(problem._tree, TemperatureSpec(1, alpha.reciprocal()))
    policy = FiniteDistribution._trusted(problem.outcomes, tv.flat_policy.tolist())
    expected = expectation(policy, problem.utility)
    kl, log_z = tv.flat_kl[0].item(), tv.flat_log_z[0].item()
    cost = alpha.value * kl if alpha.is_finite else 0.0
    return [_render({
        "command": "solve",
        "kind": "control",
        "alpha": alpha.spell(),
        "policy": policy.as_mapping(),
        "value": tv.root_value,
        "log_partition": None if math.isnan(log_z) else log_z,
        "expected_utility": expected,
        "information_cost": cost,
        "achieved_kl": kl,
        "total": expected - cost,
        "units": units,
    }, units)]


def _solve_two_stage_doc(problem: TwoStageProblem, temps: TemperatureSpec,
                         units: str) -> list[str]:
    sol = solve_regime(problem, temps)
    return [_render({
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
        "units": units,
    }, units)]


def _solve_tree_doc(tree: DecisionTree, temps: TemperatureSpec, units: str):
    """The tree solve document without its final newline, as an iterator of
    its chunks. The backup and the header through _render run first, so
    every FreeUtilError is raised before the iterator is returned. Reading
    it makes node_values and node_policies (keyed by path, in pre-order) a
    chunk of 1,024 nodes at a time, each filled by one %, in two walks of
    the pre-order, the second for the internal nodes' paths alone; no chunk
    is held once it is read, and no list or array of text spans the tree.
    Floats are written by _TREE_FLOAT, -0.0 as 0.0, the header's through
    _fmt_finite; paths and names are always % arguments, never template
    text. No key is a relative entropy; units is a label."""
    tv = value_recursion(tree, temps)
    header = _render({
        "command": "solve",
        "kind": "tree",
        "lambda": temps.lam.spell(),
        "mu": temps.mu.spell(),
        "regime": regime_label(temps),
        "value": tv.root_value,
        "node_values": None,
        "node_policies": None,
        "units": units,
    }, units)
    head, middle, tail = header.split(": null")  # the two placeholders are the only nulls

    def chunks():
        pre = tree.pre_order()
        starts = tree.level_starts()
        depth = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        escaped = {name: encode_basestring_ascii(name)[1:-1] for name in set(tree.names)}
        value_row, child_row = (f'\n{pad}"%s": {_TREE_FLOAT}' for pad in ("    ", "      "))
        rows = {k: '\n    "%s": {' + ",".join([child_row] * k) + "\n    }"  # per child count
                for k in np.flatnonzero(np.bincount(tree.n_children)).tolist()}
        yield head + ": {"
        # node_values: a path and a value per node.
        sep = ""
        for nodes, _, paths in _path_chunks(tree, pre, depth, escaped, False):
            fill = tuple(chain.from_iterable(zip(paths, (tv.flat_values[nodes] + 0.0).tolist())))
            yield sep + ",".join([value_row] * len(paths)) % fill
            sep = ","
        yield "\n  }" + middle
        if not tree.n_children[0]:
            yield ": {}" + tail
            return
        yield ": {"
        # node_policies: a row per internal node, its path then a name and a
        # probability per child; the edge into node j > 0 is flat_policy[j - 1].
        sep = ""
        for nodes, counts, paths in _path_chunks(tree, pre, depth, escaped, True):
            if not paths:
                continue
            first = np.cumsum(counts) - counts  # the children before each row
            edge = np.arange(first[-1] + counts[-1])
            children = np.repeat(tree.first_child[nodes] - first, counts) + edge
            name_at = np.repeat(np.arange(1, len(counts) + 1), counts) + 2 * edge
            fill = np.empty(len(counts) + 2 * len(children), dtype=object)
            fill[np.arange(len(counts)) + 2 * first] = paths
            fill[name_at] = [escaped[tree.names[c]] for c in children.tolist()]
            fill[name_at + 1] = (tv.flat_policy[children - 1] + 0.0).tolist()
            template = ",".join(map(rows.__getitem__, counts.tolist()))
            yield sep + template % tuple(fill)
            sep = ","
        yield "\n  }" + tail

    return chunks()


def _path_chunks(tree: DecisionTree, pre, depth, escaped: dict, internal: bool):
    """The pre-order in chunks of 1,024 nodes, each as its nodes (with
    internal true, its internal nodes alone), their child counts and their
    paths. A path is the path last met one level up, a '/' and the node's
    escaped name."""
    prefixes = [""] * (int(depth[-1]) + 2)  # per depth, the path one level up and a '/'
    for lo in range(0, len(pre), 1024):
        nodes = pre[lo:lo + 1024]
        counts = tree.n_children[nodes]
        if internal:
            nodes, counts = nodes[counts > 0], counts[counts > 0]
        paths = []
        for name, d, k in zip(map(tree.names.__getitem__, nodes.tolist()), depth[nodes].tolist(),
                              counts.tolist()):
            paths.append(prefixes[d] + escaped[name])
            if k:
                prefixes[d + 1] = paths[-1] + "/"
        yield nodes, counts, paths


def _cmd_solve(args):
    pf = load(args.file)
    if pf.kind == "control":
        temps = _resolve_control_alpha(pf, args)
    else:
        temps = _resolve_staged_temps(pf, args)
    doc = {"control": _solve_control_doc, "two_stage": _solve_two_stage_doc,
           "tree": _solve_tree_doc}[pf.kind]
    return lambda: (chain(doc(pf.problem, temps, args.units), ["\n"]), EXIT_OK)


def _sweep_rows_staged(
    problem: TwoStageProblem | DecisionTree, param: str, grid: list[Temperature],
    temps: TemperatureSpec,
):
    """Rows of the root's policy and value per grid point, then the relative
    entropies, each point one value_recursion on the problem's tree: a
    two-stage problem's achieved_c1 and achieved_c2 as outer_policy reads
    them off its depth-2 tree; a tree's achieved_kl, its root row's (0 for a
    single leaf), a control problem's on its tree at mu = 1/alpha."""
    two_stage = isinstance(problem, TwoStageProblem)
    tree = problem._tree if two_stage else problem
    k = int(tree.n_children[0])
    kl_keys = ["achieved_c1", "achieved_c2"] if two_stage else ["achieved_kl"]
    header = [param] + [f"p[{c}]" for c in tree.names[1 : 1 + k]] + ["value"] + kl_keys

    def row(point):  # a backup's arrays are freed as its row is made, before the next
        lam = point if param == "lambda" else temps.lam
        mu = point if param == "mu" else point.reciprocal() if param == "alpha" else temps.mu
        tv = value_recursion(tree, TemperatureSpec(lam, mu))
        probs = tv.flat_policy[:k].tolist()
        kls = tv.flat_kl[:1].tolist() or [0.0]
        if two_stage:
            kls.append(_achieved_c2(probs, tv))
        return [point.spell()] + probs + [tv.root_value] + kls

    return header, [row(point) for point in grid]


def _csv_cell(cell: str) -> str:
    """cell as RFC 4180 writes it: quoted, with its quotes doubled, when it
    holds a comma, a quote, CR or LF; else as it is."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _render_csv(header: list[str], rows: list[list], units: str) -> str:
    lines = [header]
    for row in rows:
        row = _convert_units(dict(zip(header, row)), units)
        lines.append([_fmt_finite(c) if isinstance(c, float) else str(c) for c in row.values()])
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in lines)


# The temperature flags a sweep reads no value from: the grid sets the swept
# temperature (alpha = 1/lambda), and a control problem has no other.
SWEEP_UNREAD = {"alpha": ("alpha", "lam", "mu"), "lambda": ("alpha", "lam"), "mu": ("mu",)}


def _reject_flags(args, dests: tuple[str, ...], where: str) -> None:
    """Refuse the first of these temperature flags that was given, which the
    command would otherwise ignore."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise DomainError(f"--{'lambda' if dest == 'lam' else dest} does not apply to {where}")


def _cmd_sweep(args):
    pf = load(args.file)
    tokens = [t for t in args.grid.split(",") if t.strip()]
    if not tokens:
        raise DomainError("grid must list at least one value")
    grid = [Temperature.parse(t) for t in tokens]
    if pf.kind == "control":
        if args.param != "alpha":
            raise DomainError(f"control problems sweep alpha, not {args.param!r}")
        for point in grid:
            try:
                control_temperature(point)
            except DomainError:
                raise DomainError(
                    f"alpha grid value {point.spell()} is not a valid temperature"
                ) from None
    elif args.param == "alpha":
        raise DomainError(f"{pf.kind} problems sweep lambda or mu, not 'alpha'")
    elif args.param == "lambda":
        for point in grid:
            TemperatureSpec(point, 1.0)  # domain check only
    _reject_flags(args, SWEEP_UNREAD[args.param], f"a sweep of {args.param}")
    # A control file holds no lambda or mu; the alpha grid sets the tree's mu.
    problem = pf.problem._tree if pf.kind == "control" else pf.problem
    temps = _resolve_staged_temps(pf, args)
    rows = functools.partial(_sweep_rows_staged, problem, args.param, grid, temps)
    return lambda: ([_render_csv(*rows(), args.units)], EXIT_OK)


REGIME_POINTS = (
    (Temperature.finite(1.0), Temperature.finite(1.0)),
    (Temperature.pos_inf(), Temperature.zero()),
    (Temperature.pos_inf(), None),  # mu filled from --mu
    (Temperature.pos_inf(), Temperature.neg_inf()),
)


def _cmd_regimes(args):
    pf = load(args.file)
    if pf.kind != "two_stage":
        raise DomainError(f"regime comparison needs a two_stage problem, got {pf.kind!r}")
    mu_risk = Temperature.parse(args.mu)
    if not (mu_risk.is_finite and mu_risk.value < 0.0):
        raise DomainError(
            f"the risk-averse point needs a finite negative mu, got {mu_risk.spell()}"
        )

    def solve():
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
        doc = {
            "command": "regimes",
            "kind": "two_stage",
            "units": args.units,
            "mu_risk": mu_risk.spell(),
            "sections": sections,
        }
        return [_render(doc, args.units), "\n"], EXIT_OK

    return solve


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


def _cmd_verify(args):
    if (args.file is None) == (args.suite is None):
        raise DomainError("give exactly one of a problem file or --suite")
    seed_str = verify_mod.seed_text()
    if not math.isfinite(args.perturb):
        raise DomainError(f"perturbation must be a finite number, got {args.perturb!r}")
    if args.suite is not None:
        _reject_flags(args, ("alpha", "lam", "mu"), "--suite")
        target, seed = {"suite": args.suite}, verify_mod.resolve_seed(seed_str)
    else:
        target = {"file": args.file}
        pf = load(args.file)
        if pf.kind == "control":
            alpha = _resolve_control_alpha(pf, args)
            if not alpha.is_finite:
                raise DomainError("file verification needs a finite alpha for the node certificate")
        else:
            temps = _resolve_staged_temps(pf, args)

    def solve():
        if args.suite is not None:
            certs = verify_mod.run_suite(args.suite, seed)
        elif pf.kind == "control":
            certs = verify_mod.verify_control(pf.problem, alpha)
        elif pf.kind == "two_stage":
            certs = verify_mod.verify_two_stage(pf.problem, temps.lam, temps.mu)
        else:
            certs = verify_mod.verify_tree(pf.problem, temps.lam, temps.mu)
        certs = verify_mod.apply_perturbation(certs, args.perturb)
        passed = all(c.passed for c in certs)
        doc = {
            "command": "verify",
            "seed": seed_str,
            **target,
            "units": args.units,
            "perturbation": args.perturb,
            "certificates": [_cert_doc(c) for c in certs],
            "passed": passed,
        }
        return [_render(doc, args.units), "\n"], EXIT_OK if passed else EXIT_VERIFY

    return solve


# A token that float() or Temperature.parse reads as a negative number or
# limit, or a grid that starts with one.
_DASH_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with two changes. A flag's value may start with a dash when
    it spells a number or a limit ('--mu -inf', '--grid -1,zero'); argparse
    alone reads only plain decimals such as '-2' that way. A usage fault
    raises ArgumentError, which main reports on one line, in place of the
    usage text and an exit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _DASH_VALUE

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
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

    parser = _Parser(
        prog="freeutil",
        description=(
            "Bounded-rational decision policies: soft KL-regularized control, "
            "risk-sensitive and worst-case solvers, and oracle verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    temperatures = _Parser(add_help=False)
    temperatures.add_argument("--lambda", dest="lam", default=None, metavar="V",
                              help="chooser inverse temperature (number, 'inf', or 'zero')")
    temperatures.add_argument("--mu", default=None, metavar="V",
                              help="environment inverse temperature "
                                   "(number, 'inf', '-inf', or 'zero')")
    temperatures.add_argument("--alpha", default=None, metavar="V",
                              help="temperature (reciprocal of lambda; number, 'inf', or 'zero')")

    p_solve = sub.add_parser(
        "solve", parents=[common, temperatures], help="solve one problem file"
    )
    p_solve.add_argument("file", help="problem file (JSON)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, temperatures],
        help="solve across a grid of temperatures (CSV)",
    )
    p_sweep.add_argument("file", help="problem file (JSON)")
    p_sweep.add_argument("--param", required=True, choices=("lambda", "mu", "alpha"),
                         help="which temperature the grid varies")
    p_sweep.add_argument("--grid", required=True, metavar="V1,V2,...",
                         help="comma-separated grid values (numbers and limit spellings)")
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
        "verify", parents=[common, temperatures], help="run oracle certificates"
    )
    p_verify.add_argument("file", nargs="?", default=None,
                          help="problem file to certify (omit when using --suite)")
    p_verify.add_argument("--suite", default=None, choices=verify_mod.suite_names(),
                          help="built-in certificate suite to run")
    p_verify.add_argument("--perturb", type=float, default=0.0, metavar="EPS",
                          help="bias analytic values by EPS (harness self-test)")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    solve = None
    try:
        args = build_parser().parse_args(argv)
        _refuse_overwriting_input(args)
        solve = args.fn(args)
        pieces, code = solve()
        _emit(pieces, args.output)
        return code
    except (argparse.ArgumentError, OSError, TooManyPaths) as e:
        # A usage fault, unreadable input, unwritable --output and a problem
        # past an oracle's cap are all caller mistakes.
        error, code = e, EXIT_INPUT
    except FreeUtilError as e:
        error, code = e, EXIT_INPUT if solve is None else EXIT_SOLVER
    print(f"{type(error).__name__}: {error}", file=sys.stderr)
    return code


def run() -> int:
    """The process entry of ``python -m freeutil``, ``python -m
    freeutil.cli`` and the installed ``freeutil`` script: main's exit code.

    However main ends (an exit code, argparse's SystemExit, a traceback),
    the collector is frozen before the process exits, so the interpreter's
    final collections skip every object made so far, most of them by the
    imports of site, numpy and this package: 10-15 % of a small call.
    Frozen objects left in cycles are never finalized, so anything the
    process writes must be closed before main returns; --output is written
    under a with. main itself leaves the collector alone, because tests and
    the benchmark's traced run call it many times in one process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
