"""Command-line entry point: `opsys norm | cone | dual | tower | suite`.

Every invocation emits a run report (JSON with --json, a readable table
otherwise) listing named checks with pass/fail/undecided status and the
module operation that produced each one.  Exit codes: 0 all checks pass,
2 any failed, 3 only undecided or UndecidedError, 64 usage error, 65
malformed input file.

dual choi-effros checks that the trace state is faithful, then runs the
choi-effros and dual-equivalences suites' per-system checks on the given
system with --samples functionals each and lifts to --levels.

Each command has one handler and takes only the flags that handler reads:
--seed the seeded ones (dual choi-effros, tower verify-duality, suite;
the others report seed 0), --tol (or OPSYS_TOL) those that compare
against a tolerance (norm, cone, dual check-cp).  A suite flag that the
named suite does not take, and --spec with --depth on tower
verify-duality, are usage errors too.

Reports are deterministic for a fixed seed and configuration, with the
single exception of the elapsed_ms field (wall time); determinism tests
compare reports with that field normalized.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

import numpy as np

from . import linalg as la
from .dual import (Functional, MatrixFunctional, cp_choi_problem, cp_verdict,
                   faithful_state, positivity_minimum)
from .errors import HermitianError, OpsysError, ParseError, UndecidedError
from .norms import norm_report
from .suites import SUITES, Check, _archimedean_check, _order_unit_check, run_suite
from .systems import cone_member, named_system, system_from_json
from .towers import make_tower, verify_dual_cones, verify_gamma

SCHEMA = "opsys-report/1"

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    """A usage error, with the usage line of the (sub)command that failed."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message, self.format_usage())


def exit_code_for(statuses) -> int:
    statuses = list(statuses)
    if any(s == "fail" for s in statuses):
        return EXIT_FAIL
    if any(s == "undecided" for s in statuses):
        return EXIT_UNDECIDED
    return EXIT_OK


def _default_tol(args, default: float = 1e-8) -> float:
    """--tol, else OPSYS_TOL, else ``default``; a tolerance that is not
    positive and finite is malformed input."""
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get("OPSYS_TOL")
        if env is None:
            return default
        try:
            tol, source = float(env), "OPSYS_TOL"
        except ValueError:
            raise ParseError(f"OPSYS_TOL={env!r} is not a number") from None
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ParseError(f"{source}={tol!r} must be positive and finite")
    return tol


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_system(spec: str):
    if os.path.exists(spec):
        return system_from_json(_load_json_file(spec))
    return named_system(spec)


def _load_tower(spec: str):
    return make_tower(_load_json_file(spec) if os.path.exists(spec) else spec)


def _load_matrix(path: str) -> np.ndarray:
    return la.decode_matrix(_load_json_file(path))


def _sized(m: np.ndarray, side: int, what: str) -> np.ndarray:
    """m when it is side x side; any other shape is malformed input."""
    if m.shape != (side, side):
        raise ParseError(f"{what}: a {m.shape[0]}x{m.shape[1]} matrix, expected {side}x{side}")
    return m


def _load_matrix_functional(system, path: str) -> MatrixFunctional:
    obj = _load_json_file(path)

    def functional(cell) -> Functional:
        return Functional(system, _sized(la.decode_matrix(cell), system.d, path))

    if isinstance(obj, dict) and "grid" in obj:
        rows = obj["grid"]
        if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) for row in rows
        ):
            raise ParseError(f'{path}: "grid" must be a nonempty array of arrays')
        if any(len(row) != len(rows) for row in rows):
            raise ParseError(f'{path}: "grid" must be square')
        return MatrixFunctional.from_grid([[functional(cell) for cell in row] for row in rows])
    if isinstance(obj, dict) and "riesz" in obj:
        return functional(obj["riesz"])
    raise ParseError(f'{path}: expected an object with "grid" or "riesz"')


def _report(command: str, seed: int, config: dict, checks: list[Check], t0: float) -> dict:
    ordered = sorted(checks, key=lambda c: c.name)
    return {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "config": config,
        "checks": [c.to_json() for c in ordered],
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"# {report['command']} (seed {report['seed']})")
    width = max((len(c["name"]) for c in report["checks"]), default=10)
    for c in report["checks"]:
        print(f"{c['name']:<{width}}  {c['status']:<9}  {c['detail']}")
    counts = {}
    for c in report["checks"]:
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"-- {summary} in {report['elapsed_ms']} ms")


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``; anything else is a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:  # argparse turns a ValueError into a usage error
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return int(text)
    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="opsys", description=__doc__)
    sub = parser.add_subparsers(required=True)

    def command(subparsers, name, handler, help, *, seeded=False, tol=False):
        """The subcommand ``name``, run by ``handler``; it takes --seed and
        --tol only when the handler reads them."""
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        if seeded:
            p.add_argument("--seed", type=_int_at_least(0), default=0)
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance override (env OPSYS_TOL also honored)")
        return p

    p_norm = command(sub, "norm", _cmd_norm, "order norms of one element", tol=True)
    p_norm.add_argument("--system", required=True, help="file or built-in name")
    p_norm.add_argument("--element", required=True, help="matrix JSON file")
    p_norm.add_argument("--kind", choices=["h", "min", "max"], default=None,
                        help="print a single value instead of the full report")

    p_cone = command(sub, "cone", _cmd_cone, "cone membership of a level element", tol=True)
    p_cone.add_argument("--system", required=True)
    p_cone.add_argument("--element", required=True)

    dual_sub = sub.add_parser("dual", help="dual-space verifications").add_subparsers(
        required=True)
    p_cp = command(dual_sub, "check-cp", _cmd_check_cp, "complete positivity of a grid",
                   tol=True)
    p_cp.add_argument("--system", required=True)
    p_cp.add_argument("--functional", required=True,
                      help='JSON file with "grid" (or "riesz" for level 1)')
    p_cp.add_argument("--dump-problem", default=None, metavar="PATH",
                      help="write the Choi feasibility problem as JSON")
    p_ce = command(dual_sub, "choi-effros", _cmd_choi_effros, "dual order-unit equivalences",
                   seeded=True)
    p_ce.add_argument("--system", required=True)
    p_ce.add_argument("--levels", type=_int_at_least(1), default=3)
    p_ce.add_argument("--samples", type=_int_at_least(1), default=10)

    tower_sub = sub.add_parser("tower", help="tower construction and duality").add_subparsers(
        required=True)
    p_build = command(tower_sub, "build", _cmd_build, "build and validate a tower")
    p_build.add_argument("--spec", required=True, help="name or JSON file")
    p_verify = command(tower_sub, "verify-duality", _cmd_verify, "pairing/cone/Gamma checks",
                       seeded=True)
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--spec", default=None, help="name or JSON file")
    which.add_argument("--depth", type=_int_at_least(1), default=None,
                       help="depth of the matrix-doubling tower (default 4)")
    p_verify.add_argument("--levels", type=_int_at_least(1), default=2)
    p_verify.add_argument("--samples", type=_int_at_least(1), default=50)

    p_suite = command(sub, "suite", _cmd_suite, "named verification suites", seeded=True)
    p_suite.add_argument("name", choices=sorted(SUITES))
    p_suite.add_argument("--depth", type=_int_at_least(1), default=None)
    p_suite.add_argument("--levels", type=_int_at_least(1), default=None)
    p_suite.add_argument("--samples", type=_int_at_least(1), default=None)
    return parser


def _cmd_norm(args) -> tuple[list[Check], dict]:
    system = _load_system(args.system)
    element = _sized(_load_matrix(args.element), system.d, args.element)
    tol = _default_tol(args)
    rep = norm_report(system, element, tol=tol).to_json()
    if args.kind == "h" and rep["h"] is None:
        raise HermitianError("the order seminorm h is defined on Hermitian elements only")
    if args.kind is not None:
        keys = ("max_lower", "max_upper") if args.kind == "max" else (args.kind,)
        rep = {key: rep[key] for key in keys}
    check = Check(
        name=f"norm/{args.kind or 'report'}",
        op="norms.norm_report",
        status="pass",
        detail=json.dumps(rep, sort_keys=True),
        evidence=rep,
    )
    return [check], {"system": args.system, "element": args.element,
                     "kind": args.kind, "tol": tol}


def _cmd_cone(args) -> tuple[list[Check], dict]:
    system = _load_system(args.system)
    element = _load_matrix(args.element)
    # an element of M_n(S) for the level n its row count implies
    side = max(1, len(element) // system.d) * system.d
    element = _sized(element, side, args.element)
    tol = _default_tol(args)
    member = cone_member(system, element, tol)
    check = Check(
        name="cone/membership",
        op="systems.cone_member",
        status="pass" if member else "fail",
        detail=f"element is{'' if member else ' not'} in the matrix cone",
        evidence={"tol": tol},
    )
    return [check], {"system": args.system, "element": args.element, "tol": tol}


def _cmd_check_cp(args) -> tuple[list[Check], dict]:
    system = _load_system(args.system)
    mf = _load_matrix_functional(system, args.functional)
    tol = _default_tol(args, 1e-7)
    if args.dump_problem:
        with open(args.dump_problem, "w", encoding="utf-8") as fh:
            json.dump(cp_choi_problem(mf, tol).to_json(), fh, indent=2, sort_keys=True)
    verdict = cp_verdict(mf, tol)
    status = {"feasible": "pass", "infeasible": "fail"}.get(verdict.status, "undecided")
    checks = [Check(
        name="dual/check-cp",
        op="dual.cp_verdict",
        status=status,
        detail=f"level {mf.n} grid over d={system.d}, dim={system.dim}",
        # a feasible verdict carries its witness, an infeasible one its
        # certificate; an undecided one (or a non-Hermitian grid) neither
        evidence={"tol": tol, "iterations": verdict.iterations,
                  "certified": (verdict.witness if verdict.status == "feasible"
                                else verdict.certificate) is not None},
    )]
    return checks, {"system": args.system, "functional": args.functional, "tol": tol}


def _cmd_choi_effros(args) -> tuple[list[Check], dict]:
    system = _load_system(args.system)
    rng = np.random.default_rng(args.seed)
    min_on_section = positivity_minimum(faithful_state(system))[0]
    checks = [
        Check(
            name="dual/choi-effros/faithful",
            op="dual.positivity_minimum",
            status="pass" if min_on_section >= 1e-6 else "fail",
            detail="trace state is faithful on the section",
            evidence={"min_on_section": min_on_section},
        ),
        _order_unit_check(system, "dual/choi-effros/order-unit", args.samples,
                          args.levels, rng),
        _archimedean_check(system, "dual/choi-effros/archimedean", args.samples, rng),
    ]
    return checks, {"system": args.system, "levels": args.levels,
                    "samples": args.samples}


def _cmd_build(args) -> tuple[list[Check], dict]:
    tower = _load_tower(args.spec)
    checks = [Check(
        name="tower/build",
        op="towers.make_tower",
        status="pass",
        detail=f"depth {tower.depth}, stages "
               + " -> ".join(f"M_{s.d}(dim {s.dim})" for s in tower.systems),
        evidence={"depth": tower.depth},
    )]
    return checks, {"spec": args.spec}


def _cmd_verify(args) -> tuple[list[Check], dict]:
    spec = args.spec or f"matrix-doubling:{args.depth or 4}"
    tower = _load_tower(spec)
    rng = np.random.default_rng(args.seed)
    cones = verify_dual_cones(tower, samples=args.samples, rng=rng)
    gamma = verify_gamma(tower, samples=min(args.samples, 30),
                         max_level=args.levels, rng=rng)
    checks = [
        Check(
            name="tower/dual-cones",
            op="towers.verify_dual_cones",
            status="pass" if cones["passed"] else "fail",
            detail="pairings of positives nonnegative, witnesses constructed",
            evidence={"violations": cones["positive_pairs"]["violations"]},
        ),
        Check(
            name="tower/gamma",
            op="towers.verify_gamma",
            status="pass" if gamma["passed"] else "fail",
            detail="injectivity and complete order correspondence at truncation",
            evidence={"failures": gamma["failures"]},
        ),
    ]
    return checks, {"spec": spec, "depth": tower.depth, "levels": args.levels,
                    "samples": args.samples}


def _cmd_suite(args) -> tuple[list[Check], dict]:
    accepted = inspect.signature(SUITES[args.name]).parameters
    params = {flag: getattr(args, flag) for flag in ("depth", "levels", "samples")
              if getattr(args, flag) is not None}
    for flag in params:
        if flag not in accepted:
            args.parser.error(f"argument --{flag}: suite {args.name} does not take it")
    checks = run_suite(args.name, args.seed, **params)
    return checks, {"suite": args.name, **params}


def run(argv) -> int:
    """Parse arguments, run the command, emit the report, return exit code."""
    parser = _build_parser()
    t0 = time.monotonic()
    try:
        # parse_args would report unrecognized arguments against the
        # top-level parser; the command's own parser reports them here
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        checks, config = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(exc.usage, end="", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except OpsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    command = " ".join(["opsys"] + list(argv))
    report = _report(command, getattr(args, "seed", 0), config, checks, t0)
    _emit(report, args.json)
    return exit_code_for(c.status for c in checks)


def main() -> None:  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
