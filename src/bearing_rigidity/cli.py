"""Command-line interface.

Subcommands: analyze (full report for one framework), gen (emit framework
JSON from a recipe or named fixture), export-dot (graph drawing), batch
(analyze a directory).

Exit codes: 0 success, 2 bad arguments, parse/schema problems and
unusable paths, 3 validation problems, 4 numerical problems; each error
is one stderr line that starts with "error:". batch exits 1 when any file
fails.

Tolerance precedence, lowest to highest: built-in defaults, the profile
named by the BRL_TOLERANCE_PROFILE environment variable, the --config JSON
file, individual flags.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .errors import NumericalError, ParseError, ValidationError
from .formats import (analysis_report, dumps, export_dot, framework_to_json,
                      json_int, json_number, load_framework, load_json,
                      write_matrix_csv)
from .linalg import TOLERANCE_PROFILES, TolerancePolicy
from .scenarios import (FIXTURES, GeneratorSpec, augment_to_ibr, fixture,
                        random_framework)
from .spaces import Framework, MetricSpace
from . import engine

# --space name -> (kind, d) of its MetricSpace
SPACE_SHORTHAND = {"r2": ("rd", 2), "r3": ("rd", 3), "r2s1": ("rdxs1", 2),
                   "r3s1": ("rdxs1", 3), "se3": ("se3", 3)}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError, so that main
    reports them as it reports every other parse error: one "error:" line
    and exit 2. Sub-command parsers are of the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _tolerance_parent() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    p.add_argument("--rank-rtol", type=float, default=None,
                   help="relative singular-value threshold (default: adaptive)")
    p.add_argument("--subspace-tol", type=float, default=None,
                   help="subspace containment residual tolerance")
    p.add_argument("--fd-step", type=float, default=None,
                   help="finite-difference step")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized probes and generators")
    p.add_argument("--config", default=None,
                   help="JSON file with tolerance/seed settings")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The brl argument parser, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    tol = _tolerance_parent()
    parser = _Parser(prog="brl", description="bearing rigidity analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[tol],
                        help="analyze one framework (file path or fixture name)")
    pa.add_argument("input")
    pa.add_argument("--report", default=None, help="write the JSON report here "
                    "instead of stdout")
    pa.add_argument("--matrix-csv", default=None, metavar="PREFIX",
                    help="also write PREFIX.csv and PREFIX.blocks.json")
    pa.add_argument("--representation", choices=("auto", "per-space", "unified"),
                    default="auto", help="matrix form for --matrix-csv")
    pa.add_argument("--fd-trials", type=int, default=20)
    pa.add_argument("--timing", action="store_true",
                    help="fill timing_seconds (breaks byte-identical output)")

    pg = sub.add_parser("gen", parents=[tol], help="emit framework JSON")
    src = pg.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=sorted(FIXTURES))
    src.add_argument("--space", choices=sorted(SPACE_SHORTHAND))
    pg.add_argument("--n", type=int, default=4)
    pg.add_argument("--density", type=float, default=1.0)
    pg.add_argument("--placement", choices=("generic", "collinear"),
                    default="generic")
    pg.add_argument("--axis", default=None,
                    help="comma-separated heading axis for r3s1, e.g. 0,0,1")
    pg.add_argument("-o", "--output", default=None)

    pd = sub.add_parser("export-dot", parents=[tol],
                        help="DOT drawing of the sensing graph")
    pd.add_argument("input")
    pd.add_argument("--augment", action="store_true",
                    help="greedily rigidify first; added edges are styled")
    pd.add_argument("-o", "--output", default=None)

    pb = sub.add_parser("batch", parents=[tol],
                        help="analyze every *.json framework in a directory")
    pb.add_argument("directory")
    pb.add_argument("--fd-trials", type=int, default=20)
    return parser


def resolve_settings(args) -> tuple[TolerancePolicy, int]:
    """Fold defaults, environment profile, config file, and flags. Every
    setting is checked here, before any input is read."""
    profile_name = os.environ.get("BRL_TOLERANCE_PROFILE", "").strip()
    if profile_name:
        if profile_name not in TOLERANCE_PROFILES:
            raise ValidationError(
                f"unknown tolerance profile {profile_name!r}; "
                f"choices: {', '.join(sorted(TOLERANCE_PROFILES))}")
        base = TOLERANCE_PROFILES[profile_name]
    else:
        base = TOLERANCE_PROFILES["default"]
    vals = {"rank_rtol": base.rank_rtol, "subspace_tol": base.subspace_tol,
            "fd_step": base.fd_step}
    seed = 0
    if getattr(args, "config", None):
        try:
            doc = load_json(args.config, f"config {args.config}")
        except OSError as exc:
            raise ParseError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("config must be a JSON object")
        for key in vals:
            if key in doc and doc[key] is not None:
                vals[key] = json_number(doc[key], f"config {key!r}")
        if "seed" in doc:
            seed = json_int(doc["seed"], "config 'seed'")
    for key in vals:
        flag = getattr(args, key, None)
        if flag is not None:
            vals[key] = flag
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    trials = getattr(args, "fd_trials", None)
    if trials is not None and trials < 1:
        raise ValidationError(f"--fd-trials must be at least 1, got {trials}")
    return TolerancePolicy(**vals), seed


def _load_input(token: str) -> Framework:
    if os.path.exists(token):
        return load_framework(token)
    if token in FIXTURES:
        return fixture(token)
    raise ParseError(f"{token}: no such file and not a fixture name")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    pol, seed = resolve_settings(args)
    fw = _load_input(args.input)
    representation = args.representation.replace("-", "_")
    if args.matrix_csv:
        try:  # the layout is refused before any analysis runs
            engine._layout(fw, representation)
        except ValidationError:
            raise ValidationError("--representation per-space needs a homogeneous "
                                  "framework; use --representation unified") from None
    started = time.perf_counter()
    report = analysis_report(fw, pol, seed=seed, fd_trials=args.fd_trials)
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    if args.matrix_csv:
        write_matrix_csv(engine._measured(fw, representation), args.matrix_csv)
    _emit(dumps(report), args.report)
    return 0


def cmd_gen(args) -> int:
    _, seed = resolve_settings(args)
    if args.fixture:
        fw = fixture(args.fixture)
    else:
        axis = None
        if args.axis:
            try:
                axis = tuple(float(v) for v in args.axis.split(","))
            except ValueError as exc:
                raise ParseError(f"bad axis {args.axis!r}") from exc
        if axis is None and args.space == "r3s1":
            axis = (0.0, 0.0, 1.0)
        # MetricSpace refuses an axis where the space has none
        space = MetricSpace(*SPACE_SHORTHAND[args.space], axis)
        placement = "generic_random" if args.placement == "generic" else "collinear"
        spec = GeneratorSpec(space=space, n=args.n, graph_density=args.density,
                             seed=seed, placement=placement)
        fw = random_framework(spec)
    _emit(dumps(framework_to_json(fw)), args.output)
    return 0


def cmd_export_dot(args) -> int:
    pol, _ = resolve_settings(args)
    fw = _load_input(args.input)
    added: tuple = ()
    if args.augment:
        fw, added = augment_to_ibr(fw, pol)
    _emit(export_dot(fw, added), args.output)
    return 0


def cmd_batch(args) -> int:
    pol, seed = resolve_settings(args)
    if not os.path.isdir(args.directory):
        raise ParseError(f"{args.directory} is not a directory")
    names = sorted(f for f in os.listdir(args.directory) if f.endswith(".json"))
    if not names:
        sys.stdout.write("no framework files found\n")
        return 0
    header = f"{'file':<32} {'class':<5} {'rank':>5} {'nullity':>8}  note"
    sys.stdout.write(header + "\n")
    failures = 0
    for name in names:
        path = os.path.join(args.directory, name)
        try:
            fw = load_framework(path)
            report = analysis_report(fw, pol, seed=seed, fd_trials=args.fd_trials)
            v = report["verdict"]
            note = "degenerate" if v["degenerate"] else ""
            sys.stdout.write(f"{name:<32} {v['classification']:<5} "
                             f"{v['rank']:>5} {v['nullity']:>8}  {note}\n")
        except Exception as exc:  # per-file isolation; summary must finish
            failures += 1
            sys.stdout.write(f"{name:<32} {'ERROR':<5} {'-':>5} {'-':>8}  {exc}\n")
    return 1 if failures else 0


def main(argv=None) -> int:
    handlers = {
        "analyze": cmd_analyze,
        "gen": cmd_gen,
        "export-dot": cmd_export_dot,
        "batch": cmd_batch,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
