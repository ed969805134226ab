"""Batch execution: time loops with monitors, state dumps, convergence studies."""

import binascii
import collections
import os
import re
import time

import numpy as np

from splitdg import cases, physics, solver as solver_mod

MONITOR_HEADER = "t,dt,mass,momentum_x,momentum_y,momentum_z,energy,total_entropy,entropy_rate"
STATE_MAGIC = "splitdg-state 2"
# A node row of a state file: five fields of 16 hex digits, each followed by
# a separator byte, a space after the first four and a newline after the last.
_FIELD = 17
_SEPARATORS = np.frombuffer(b"    \n", np.uint8)
# Compiled on the first malformed file, not at import: set-up pays no regex.
_ROW = rb"[0-9a-fA-F]{16}(?: [0-9a-fA-F]{16}){4}"


def build_solver(config, mesh=None):
    """Assemble the DGSolver (+ case and gas model) described by a RunConfig."""
    gas = config.gas_model()
    case = config.flow_case()
    if mesh is None:
        mesh = config.build_mesh()
    dg = solver_mod.DGSolver(
        mesh, gas,
        volume_flux=config.volume_flux,
        surface_dissipation=config.surface_dissipation,
        boundary_state=case.state,
        source=getattr(case, "source", None),
    )
    return dg, case, gas


def _monitor_row(dg, u, t, dt, rhs):
    """The monitor row of the state (u, t) as Python floats, in MONITOR_HEADER's order."""
    return tuple(float(v) for v in (t, dt, *dg.totals(u), dg.total_entropy(u), dg.entropy_rate(u, rhs)))


# ``_time_loop``'s result: ``t`` is a Python float, ``rows`` the monitor
# rows of ``_monitor_row`` and the loop's start and end are
# ``time.perf_counter`` readings.
RunRecord = collections.namedtuple(
    "RunRecord", "u t mesh case gas rows max_residual steps residual_evals loop_start loop_end")


def _time_loop(config, mesh=None):
    """The solver's part of ``run_case`` and of each ``convergence_study`` level.

    Set-up on ``mesh`` (the config's own when None), the positivity check
    of the initial condition, the time loop with its monitors, and the
    final state's residual, the only check of the last step's update.
    Each step's dt is ``config.dt`` when set, else the CFL estimate,
    clipped so that the last step ends on ``final_time``; the loop stops
    once t is within 1e-12 * final_time of it.  A positivity failure in
    the estimate names the step and its time.  The monitor row of every
    ``monitor_interval``-th state, the initial one included, is taken
    inside the step that leaves that state: the step's callback gets its
    first RK stage, the state's residual, before the step reuses that
    array as its RK register, and a step without a row passes no
    callback.  The callback reads u, t and dt while the step runs, before
    the loop rebinds them.  Only the final row pays a residual of its
    own.  So a convergence study checks each level's initial and final
    states as a run does, at the cost of the run's monitors and one
    residual per level.  Returns a RunRecord; its ``rows`` are the
    monitor rows of ``_monitor_row``, numbers until ``run_case`` writes
    them.  The solver, its workspace and the final residual are released
    when this returns.
    """
    dg, case, gas = build_solver(config, mesh)
    # The initial state is not kept: it is sampled again for the summary's
    # deviation, since initial_condition is a pure function of the nodes.
    u = physics.in_phase("the initial condition", cases.initial_condition, case, dg, gas)
    t, dt, step, rows = 0.0, 0.0, 0, []
    loop_start = time.perf_counter()
    while config.final_time - t > 1e-12 * config.final_time:
        new_dt = config.dt if config.dt is not None else physics.in_phase(
            f"the time-step estimate of step {step + 1} at t = {t:.6g}",
            dg.timestep_estimate, u, config.cfl)
        new_dt = min(new_dt, config.final_time - t)
        first = None if step % config.monitor_interval else (
            lambda rhs: rows.append(_monitor_row(dg, u, t, dt, rhs)))
        u, t, dt, step = dg.step(u, t, new_dt, first), float(t + new_dt), new_dt, step + 1
    rhs = physics.in_phase(f"the final state after step {step} at t = {t:.6g}",
                           dg.residual, u, t)
    rows.append(_monitor_row(dg, u, t, dt, rhs))
    return RunRecord(u, t, dg.mesh, case, gas, rows, float(np.abs(rhs).max()), step,
                     dg.residual_evals, loop_start, time.perf_counter())


def run_case(config, output_dir=None):
    """Execute the configured time loop; write monitor CSV and final state.

    The loop, its monitors and the final residual are ``_time_loop``'s.
    Its RunRecord's final state u and time t (a Python float) feed the
    state file's header, the summary's ``final_time`` and the error
    norms; its monitor rows become the CSV, one ``repr`` per number, and
    the summary's ``max_entropy_rate`` is the largest of their entropy
    rates.  Returns a summary dict (printed by the CLI); raises
    PositivityError on a positivity abort.  The summary reports the run's
    cost: ``residual_evals`` (counted by the solver, 5S + 1 for S steps),
    ``loop_wall_s`` (the wall time of the time loop, monitors and final
    residual included), ``pid_us``, loop_wall_s in µs per DOF and residual
    evaluation (the PID of Krais et al., FLEXI, CAMWA 2021), ``wall_time_s``
    (the whole call) and ``phases``: the wall times of set-up (mesh, solver,
    initial condition), the loop, the output files and the error norms,
    which sum to at most wall_time_s.

    The solver lives only for set-up and the loop.  The epilogue (the
    state file, the deviation from the initial condition and the error
    norms) runs on the mesh once the solver, its workspace and the final
    residual are released, so the time loop sets the run's peak memory.
    """
    start = time.perf_counter()
    out_dir = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    run = _time_loop(config)
    mesh = run.mesh
    loop_wall_s = run.loop_end - run.loop_start

    monitor_path = os.path.join(out_dir, f"{config.case_name}_monitor.csv")
    with open(monitor_path, "w") as fh:
        fh.write(MONITOR_HEADER + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in run.rows)
    state_path = os.path.join(out_dir, f"{config.case_name}_final.state")
    write_state_file(state_path, mesh, run.u, run.t)

    error_start = time.perf_counter()
    summary = {
        "case": config.case_name,
        "steps": run.steps,
        "residual_evals": run.residual_evals,
        "loop_wall_s": loop_wall_s,
        "pid_us": loop_wall_s * 1e6 / (mesh.num_elements * (mesh.basis.n + 1)**3 * run.residual_evals),
        "final_time": run.t,
        "final_max_residual": run.max_residual,
        "max_deviation_from_initial": float(
            np.abs(run.u - cases.initial_condition(run.case, mesh, run.gas)).max()),
        "max_entropy_rate": max(row[-1] for row in run.rows),
        "monitor_csv": monitor_path,
        "final_state": state_path,
    }
    l2, linf = cases.error_norms(mesh, run.u, run.case, run.gas, run.t)
    summary["l2_error"] = l2.tolist()
    summary["linf_error"] = linf.tolist()
    end = time.perf_counter()
    summary["wall_time_s"] = end - start
    summary["phases"] = {"setup_s": run.loop_start - start, "loop_s": loop_wall_s,
                         "output_s": error_start - run.loop_end, "error_norms_s": end - error_start}
    return summary


def write_state_file(path, mesh, u, t):
    """Self-describing dump of the nodal solution ``u`` at time ``t`` (a float).

    Format ``splitdg-state 2``: five text header lines (magic, ``degree N``,
    ``elements K``, ``time {t!r}`` and the ordering line, which names the
    encoding), then one line per node, element-major with nodes (i,j,k)
    row-major, of the five conserved variables rho rhov1 rhov2 rhov3 rhoE.
    Each value is the 16-digit hex of its big-endian IEEE-754 binary64 bits,
    so the file round-trips bit for bit on every platform; one field decodes
    as ``struct.unpack(">d", bytes.fromhex(field))[0]``.  ``mesh`` gives the
    degree and element count (``basis``, ``num_elements``; a DGSolver has
    them too).  Streams one element at a time through one line buffer, so
    neither the text of the file nor a copy of ``u`` is held in memory.
    """
    nodes = (mesh.basis.n + 1)**3
    header = [
        STATE_MAGIC,
        f"degree {mesh.basis.n}",
        f"elements {mesh.num_elements}",
        f"time {t!r}",
        "ordering element-major; nodes (i,j,k) row-major; "
        "components rho rhov1 rhov2 rhov3 rhoE; big-endian binary64 hex",
    ]
    lines = np.empty((nodes, 5, _FIELD), np.uint8)
    lines[:, :, -1] = _SEPARATORS
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for e in range(mesh.num_elements):
            bits = np.ascontiguousarray(u[:, e].reshape(5, nodes).T, dtype=">f8")
            lines[:, :, :-1] = np.frombuffer(binascii.hexlify(bits), np.uint8).reshape(nodes, 5, 16)
            fh.write(lines)


def read_state_file(path):
    """Inverse of write_state_file: returns (degree, u, t), u of shape (5, K, n, n, n).

    The header lines are parsed as text; the body is decoded in one pass,
    without a Python float per value.

    Raises:
        ValueError: if the file is not a complete ``splitdg-state 2`` file;
            a malformed node row is named by its text.
    """
    with open(path, "rb") as fh:
        raw = [fh.readline() for _ in range(5)]
        body = fh.read()
    lines = [ln.decode("latin-1").strip() for ln in raw]
    if lines[0] != STATE_MAGIC:
        magic, _, version = lines[0].partition(" ")
        if magic == STATE_MAGIC.split()[0]:
            raise ValueError(f"{path}: state file version {version}, expected {STATE_MAGIC}")
        raise ValueError(f"{path}: not a splitdg state file")
    if b"" in raw:
        raise ValueError(f"{path}: truncated header, {raw.index(b'')} of 5 lines")

    def header(i, key, kind):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}: expected '{key} <value>', got '{lines[i]}'")
        try:
            return kind(parts[1])
        except ValueError:
            raise ValueError(f"{path}: expected {kind.__name__} values, got '{lines[i]}'") from None

    degree = header(1, "degree", int)
    num_elements = header(2, "elements", int)
    t = header(3, "time", float)
    n1 = degree + 1
    expected = num_elements * n1**3
    if body and not body.endswith(b"\n"):
        body += b"\n"
    data = _decode_rows(body, expected)
    if data is None:
        rows = body.split(b"\n")[:-1]
        for row in rows:
            if not re.fullmatch(_ROW, row):
                text = row.decode("latin-1")
                raise ValueError(f"{path}: expected 5 binary64 hex values, got '{text}'")
        raise ValueError(f"{path}: expected {expected} rows of 5 values, got ({len(rows)}, 5)")
    u = np.moveaxis(data.reshape(num_elements, n1, n1, n1, 5), -1, 0)
    return degree, u, t


def _decode_rows(body, expected):
    """The (expected, 5) float array of a state file body, or None if it is malformed."""
    if len(body) != expected * 5 * _FIELD:
        return None
    cells = np.frombuffer(body, np.uint8).reshape(expected, 5, _FIELD)
    if not (cells[:, :, -1] == _SEPARATORS).all():
        return None
    try:
        bits = bytes.fromhex(cells[:, :, :-1].tobytes().decode("ascii"))
    except ValueError:  # a non-hex digit; UnicodeDecodeError is a ValueError
        return None
    if len(bits) != expected * 5 * 8:  # fromhex skips whitespace inside a field
        return None
    return np.frombuffer(bits, ">f8").astype(float).reshape(expected, 5)


def convergence_study(config, levels):
    """Mesh-refinement study against the registered exact solution.

    Each level runs through ``run_case``'s driver, ``_time_loop``, on the
    built-in mesh with that many cells per direction, so it aborts as a
    run does: a non-positive initial condition, RK stage, time-step
    estimate or final state raises PositivityError naming the phase.  Each
    level pays the run's monitors at ``monitor_interval`` and one residual
    of its final state for these checks; the monitor rows are dropped.
    The level's solver is released before its error norms.

    Args:
        config: a RunConfig.
        levels: distinct positive cell counts per direction.

    Returns:
        dict with rows [{resolution, l2, linf}] sorted by resolution and
        "orders": observed L2 orders (per variable) between consecutive rows.

    Raises:
        ValueError: if there is no level, or a level repeats or is not positive.
    """
    if not levels or len(set(levels)) != len(levels) or min(levels) < 1:
        raise ValueError(f"levels must be distinct positive cell counts, got {list(levels)}")
    rows = []
    for level in sorted(levels):
        run = _time_loop(config, config.build_mesh(cells_override=(level,) * 3))
        l2, linf = cases.error_norms(run.mesh, run.u, run.case, run.gas, run.t)
        rows.append({"resolution": level, "l2": l2.tolist(), "linf": linf.tolist()})
    orders = []
    for a, b in zip(rows, rows[1:]):
        ratio = b["resolution"] / a["resolution"]
        orders.append([
            float(np.log(ea / eb) / np.log(ratio)) if eb > 0 else float("inf")
            for ea, eb in zip(a["l2"], b["l2"])
        ])
    return {"rows": rows, "orders": orders}


def format_convergence_report(report):
    lines = ["resolution," + ",".join(f"l2_{c}" for c in ("rho", "mom_x", "mom_y", "mom_z", "energy"))
             + "," + ",".join(f"linf_{c}" for c in ("rho", "mom_x", "mom_y", "mom_z", "energy"))]
    for row in report["rows"]:
        lines.append(",".join([str(row["resolution"])]
                              + [repr(v) for v in row["l2"]]
                              + [repr(v) for v in row["linf"]]))
    for pair, order in zip(zip(report["rows"], report["rows"][1:]), report["orders"]):
        lines.append(f"# observed L2 order {pair[0]['resolution']}->{pair[1]['resolution']}: "
                     + ",".join(f"{o:.3f}" for o in order))
    return "\n".join(lines)
