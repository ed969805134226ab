"""Command-line driver.

Subcommands:
    run <config.json> [--output-dir D]   run a configured case; print its JSON summary
    verify <suite>                       run invariant batteries (exit 0 iff all pass)
    converge <config.json> --levels L..  refinement study over the built-in mesh's cells
    mesh audit <path>                    per-element J range and metric residuals
    mesh write <out> [--cells C C C] ..  write the sine-warped unit cube as a mesh file

Every report goes to stdout.  `mesh write` takes `--degree N`, `--cells`
(three counts, each at least 1) and `--amplitude A`; `--amplitude 0` writes
the affine box.  A config's `boundary` belongs to the built-in mesh: a mesh
file (`mesh.path`) tags its own faces.
Exit codes: 0 ok, 1 check failure, 2 usage/config error (an unknown
`verify` suite too, naming the suites), 3 runtime abort (positivity loss).
"""

import argparse
import json
import sys

from splitdg import geometry, mesh as mesh_mod, physics, runner
from splitdg.config import ConfigError, RunConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args):
    config = RunConfig.from_file(args.config)
    summary = runner.run_case(config, output_dir=args.output_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_verify(args):
    from splitdg import verify  # the batteries and their decimal oracle stay off the run path

    checks = verify.run_suite(args.suite)
    print(verify.format_report(checks))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK_FAILED


def _cmd_converge(args):
    config = RunConfig.from_file(args.config)
    report = runner.convergence_study(config, args.levels)
    print(runner.format_convergence_report(report))
    return EXIT_OK


def _cmd_mesh_audit(args):
    mesh = mesh_mod.read_mesh_file(args.path)
    rows, summary = mesh_mod.audit(mesh)
    print("element,j_min,j_max,metric_residual,cross_residual")
    for r in rows:
        print(f"{r['element']},{r['j_min']!r},{r['j_max']!r},"
              f"{r['metric_residual']!r},{r['cross_residual']!r}")
    for key, val in summary.items():
        print(f"# {key}: {val}")
    return EXIT_OK


def _cmd_mesh_write(args):
    if min(args.cells) < 1:
        raise ConfigError(f"--cells: must be three integers >= 1, got {args.cells}")
    try:
        mesh = mesh_mod.warped_box_mesh(args.degree, tuple(args.cells), args.amplitude)
    except geometry.GeometryError as err:
        raise ConfigError(f"--amplitude: {args.amplitude!r} folds the box: {err}") from err
    mesh_mod.write_mesh_file(args.out, mesh)
    print(f"wrote {mesh.num_elements} elements at degree {args.degree} to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="splitdg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured case")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run an invariant battery")
    p_verify.add_argument("suite", help="a suite name or 'all'")
    p_verify.set_defaults(func=_cmd_verify)

    p_conv = sub.add_parser("converge", help="convergence study")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, nargs="+", required=True)
    p_conv.set_defaults(func=_cmd_converge)

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_audit = mesh_sub.add_parser("audit", help="print J range and metric residuals")
    p_audit.add_argument("path")
    p_audit.set_defaults(func=_cmd_mesh_audit)
    p_write = mesh_sub.add_parser("write", help="write a built-in mesh to a file")
    p_write.add_argument("out")
    p_write.add_argument("--degree", type=int, default=4)
    p_write.add_argument("--cells", type=int, nargs=3, default=(4, 4, 4))
    p_write.add_argument("--amplitude", type=float, default=0.05)
    p_write.set_defaults(func=_cmd_mesh_write)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except physics.PositivityError as err:  # subclasses ValueError: catch first
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, mesh_mod.MeshFileError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
