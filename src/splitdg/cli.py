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

import json
import sys
import types

from splitdg import geometry, mesh as mesh_mod, physics, runner
from splitdg.config import MESH_KEYS, ConfigError, RunConfig, _check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args):
    summary = runner.run_case(RunConfig.from_file(args.config), output_dir=args.output_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_verify(args):
    from splitdg import verify  # the batteries and their decimal oracle stay off the run path

    checks = verify.run_suite(args.suite)
    print(verify.format_report(checks))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK_FAILED


def _cmd_converge(args):
    report = runner.convergence_study(RunConfig.from_file(args.config), args.levels)
    print(runner.format_convergence_report(report))
    return EXIT_OK


def _cmd_mesh_audit(args):
    rows, summary = mesh_mod.audit(mesh_mod.read_mesh_file(args.path))
    print("element,j_min,j_max,metric_residual,cross_residual")
    for r in rows:
        print(f"{r['element']},{r['j_min']!r},{r['j_max']!r},"
              f"{r['metric_residual']!r},{r['cross_residual']!r}")
    for key, val in summary.items():
        print(f"# {key}: {val}")
    return EXIT_OK


def _cmd_mesh_write(args):
    _, cells_ok, what = MESH_KEYS["cells"]
    _check("--cells", args.cells, cells_ok(args.cells), what)
    try:
        mesh = mesh_mod.warped_box_mesh(args.degree, tuple(args.cells), args.amplitude)
    except geometry.GeometryError as err:
        raise ConfigError(f"--amplitude: {args.amplitude!r} folds the box: {err}") from err
    mesh_mod.write_mesh_file(args.out, mesh)
    print(f"wrote {mesh.num_elements} elements at degree {args.degree} to {args.out}")
    return EXIT_OK


REQUIRED = object()  # the default of an option that its command cannot run without

# Command words -> (handler, positional names, {option: (type, number of values, default)}).
# An option takes 1 or 3 values, or "+": one or more, up to the next "--" word.
COMMANDS = {
    "run": (_cmd_run, ("config",), {"--output-dir": (str, 1, None)}),
    "verify": (_cmd_verify, ("suite",), {}),
    "converge": (_cmd_converge, ("config",), {"--levels": (int, "+", REQUIRED)}),
    "mesh audit": (_cmd_mesh_audit, ("path",), {}),
    "mesh write": (_cmd_mesh_write, ("out",), {"--degree": (int, 1, 4), "--cells": (int, 3, MESH_KEYS["cells"][0]),
                                               "--amplitude": (float, 1, MESH_KEYS["amplitude"][0])}),
}


def _usage_error(message):
    print(f"usage: splitdg <command> [arguments] (see splitdg --help)\nsplitdg: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _parse(argv):
    """The handler of ``argv``'s command and a namespace of its arguments; usage errors exit 2."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        raise SystemExit(EXIT_OK)
    command = " ".join(argv[:2 if argv[:1] == ["mesh"] else 1])
    if command not in COMMANDS:
        _usage_error(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    handler, positionals, options = COMMANDS[command]
    words, free, extras, found = argv[command.count(" ") + 1:], [], [], {}
    while words:
        word = words.pop(0)
        name, *taken = word.split("=", 1)  # "--name=value" gives its value here
        if name not in options:
            (extras if word.startswith("--") or len(free) == len(positionals) else free).append(word)
            continue
        kind, count, _ = options[name]
        while words and not words[0].startswith("--") and len(taken) != count:
            taken.append(words.pop(0))
        if len(taken) < (1 if count == "+" else count):
            _usage_error(f"argument {name}: needs {'one or more' if count == '+' else count} value(s), got {taken}")
        try:
            found[name] = kind(taken[0]) if count == 1 else [kind(v) for v in taken]
        except ValueError as err:  # names the value, as in "invalid literal for int() ...: 'x'"
            _usage_error(f"argument {name}: {err}")
    found = {name: found.get(name, default) for name, (_, _, default) in options.items()}
    missing = positionals[len(free):] + tuple(name for name, val in found.items() if val is REQUIRED)
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    dests = {name[2:].replace("-", "_"): val for name, val in found.items()}
    return handler, types.SimpleNamespace(**dict(zip(positionals, free)), **dests)


def main(argv=None):
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args)
    except physics.PositivityError as err:  # subclasses ValueError: catch first
        print(f"runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, mesh_mod.MeshFileError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
