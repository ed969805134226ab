"""Batch execution: time loops with monitors, state dumps, convergence studies."""

import os
import time

import numpy as np

from splitdg import cases, physics, solver as solver_mod

MONITOR_HEADER = "t,dt,mass,momentum_x,momentum_y,momentum_z,energy,total_entropy,entropy_rate"
STATE_MAGIC = "splitdg-state 1"


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


def _monitor_row(dg, state, dt, rhs):
    """One monitor CSV line and the entropy rate it reports."""
    totals = dg.totals(state.u)
    sbar = dg.total_entropy(state.u)
    rate = dg.entropy_rate(state.u, rhs)
    vals = [state.t, dt, *totals.tolist(), sbar, rate]
    return ",".join(repr(float(v)) for v in vals), rate


def integrate(dg, state, config):
    """Advance ``state`` to ``config.final_time``, yielding (state, dt) per step.

    dt is ``config.dt`` when set, else the CFL estimate, clipped so that the
    last step ends on ``final_time``.  A positivity failure in the CFL
    estimate names the step and its time.
    """
    step = 0
    while state.t < config.final_time - 1e-12:
        step += 1
        try:
            dt = config.dt if config.dt is not None else dg.timestep_estimate(state.u, config.cfl)
        except physics.PositivityError as err:
            raise physics.PositivityError(
                f"positivity failure in the time-step estimate of step {step} "
                f"at t = {state.t:.6g}: {err}") from err
        dt = min(dt, config.final_time - state.t)
        state = dg.step(state, dt)
        yield state, dt


def _time_loop(config, rows, rates):
    """The solver's part of ``run_case``: set-up, the time loop, the final residual.

    Appends the monitor rows and entropy rates.  Returns the final state,
    its largest residual, the step and residual counts, the mesh, case and
    gas, and the loop's start and end times.  The solver, its workspace and
    the final residual are released when this returns.
    """
    dg, case, gas = build_solver(config)
    # The initial state is not kept: it is sampled again for the summary's
    # deviation, since initial_condition is a pure function of the nodes.
    try:
        state = solver_mod.SolutionField(cases.initial_condition(case, dg, gas), 0.0)
    except physics.PositivityError as err:
        raise physics.PositivityError(f"positivity failure in the initial condition: {err}") from err

    def monitor(field, dt, rhs):
        row, rate = _monitor_row(dg, field, dt, rhs)
        rows.append(row)
        rates.append(rate)

    # The row of a state is written once the next step has evaluated its
    # residual as the first RK stage (``state.rhs``); only the final row
    # pays a residual of its own.
    pending, dt, step = state, 0.0, 0
    loop_start = time.perf_counter()
    for step, (new, new_dt) in enumerate(integrate(dg, state, config), start=1):
        if pending is not None:
            monitor(pending, dt, pending.rhs)
        state, dt = new, new_dt
        pending = state if step % config.monitor_interval == 0 else None
    # The final monitor residual is the only check of the last step's update.
    try:
        rhs = dg.residual(state.u, state.t)
    except physics.PositivityError as err:
        raise physics.PositivityError(
            f"positivity failure in the final state after step {step} "
            f"at t = {state.t:.6g}: {err}") from err
    monitor(state, dt, rhs)
    return (state, float(np.abs(rhs).max()), step, dg.residual_evals, dg.mesh, case, gas,
            loop_start, time.perf_counter())


def run_case(config, output_dir=None):
    """Execute the configured time loop; write monitor CSV and final state.

    Returns a summary dict (printed by the CLI); raises PositivityError on a
    positivity abort.  The summary reports the run's cost: ``residual_evals``
    (counted by the solver, 5S + 1 for S steps), ``loop_wall_s`` (the wall
    time of the time loop, monitors and final residual included), ``pid_us``,
    loop_wall_s in µs per DOF and residual evaluation (the PID of Krais et
    al., FLEXI, CAMWA 2021), ``wall_time_s`` (the whole call) and ``phases``:
    the wall times of set-up (mesh, solver, initial condition), the loop,
    the output files and the error norms, which sum to at most wall_time_s.

    The solver lives only for set-up and the loop.  The epilogue (the
    state file, the deviation from the initial condition and the error
    norms) runs on the mesh once the solver, its workspace and the final
    residual are released, so the time loop sets the run's peak memory.
    """
    start = time.perf_counter()
    out_dir = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    rows, rates = [MONITOR_HEADER], []
    (state, max_residual, step, residual_evals, mesh, case, gas,
     loop_start, output_start) = _time_loop(config, rows, rates)
    loop_wall_s = output_start - loop_start

    monitor_path = os.path.join(out_dir, f"{config.case_name}_monitor.csv")
    with open(monitor_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    state_path = os.path.join(out_dir, f"{config.case_name}_final.state")
    write_state_file(state_path, mesh, state)

    error_start = time.perf_counter()
    summary = {
        "case": config.case_name,
        "steps": step,
        "residual_evals": residual_evals,
        "loop_wall_s": loop_wall_s,
        "pid_us": loop_wall_s * 1e6 / (mesh.num_elements * (mesh.basis.n + 1)**3 * residual_evals),
        "final_time": state.t,
        "final_max_residual": max_residual,
        "max_deviation_from_initial": float(
            np.abs(state.u - cases.initial_condition(case, mesh, gas)).max()),
        "max_entropy_rate": float(max(rates)),
        "monitor_csv": monitor_path,
        "final_state": state_path,
    }
    l2, linf = cases.error_norms(mesh, state.u, case, gas, state.t)
    summary["l2_error"] = l2.tolist()
    summary["linf_error"] = linf.tolist()
    end = time.perf_counter()
    summary["wall_time_s"] = end - start
    summary["phases"] = {"setup_s": loop_start - start, "loop_s": loop_wall_s,
                         "output_s": error_start - output_start, "error_norms_s": end - error_start}
    return summary


def write_state_file(path, mesh, state):
    """Self-describing text dump of the final nodal solution.

    ``mesh`` gives the degree and element count (``basis``,
    ``num_elements``; a DGSolver has them too).  Streams one element at a
    time, so the text of the whole file is never held in memory.
    """
    header = [
        STATE_MAGIC,
        f"degree {mesh.basis.n}",
        f"elements {mesh.num_elements}",
        f"time {state.t!r}",
        "ordering element-major; nodes (i,j,k) row-major; "
        "components rho rhov1 rhov2 rhov3 rhoE",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for e in range(mesh.num_elements):
            rows = state.u[:, e].reshape(5, -1).T.tolist()  # (n1^3, 5)
            fh.write("".join(" ".join(map(repr, row)) + "\n" for row in rows))


def read_state_file(path):
    """Inverse of write_state_file: returns (degree, u, t).

    Raises:
        ValueError: if the file is not a complete splitdg state file.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != STATE_MAGIC:
        raise ValueError(f"{path}: not a splitdg state file")
    if len(lines) < 5:
        raise ValueError(f"{path}: truncated header, {len(lines)} of 5 lines")

    def numbers(kind, fields, line):
        try:
            return [kind(v) for v in fields]
        except ValueError:
            raise ValueError(f"{path}: expected {kind.__name__} values, got '{line}'") from None

    def header(i, key, kind):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}: expected '{key} <value>', got '{lines[i]}'")
        return numbers(kind, parts[1:], lines[i])[0]

    degree = header(1, "degree", int)
    num_elements = header(2, "elements", int)
    t = header(3, "time", float)
    n1 = degree + 1
    data = np.array([numbers(float, ln.split(), ln) for ln in lines[5:]])
    expected = num_elements * n1**3
    if data.shape != (expected, 5):
        raise ValueError(f"{path}: expected {expected} rows of 5 values, got {data.shape}")
    u = np.moveaxis(data.reshape(num_elements, n1, n1, n1, 5), -1, 0)
    return degree, u, t


def convergence_study(config, levels):
    """Mesh-refinement study against the registered exact solution.

    Args:
        config: a RunConfig.
        levels: distinct positive cell counts per direction.

    Returns:
        dict with rows [{resolution, l2, linf}] sorted by resolution and
        "orders": observed L2 orders (per variable) between consecutive rows.

    Raises:
        ValueError: if a level repeats or is not positive.
    """
    if len(set(levels)) != len(levels) or min(levels) < 1:
        raise ValueError(f"levels must be distinct positive cell counts, got {list(levels)}")
    rows = []
    for level in sorted(levels):
        dg, case, gas = build_solver(config, mesh=config.build_mesh(cells_override=(level,) * 3))
        state = solver_mod.SolutionField(cases.initial_condition(case, dg, gas), 0.0)
        for state, _ in integrate(dg, state, config):
            pass
        l2, linf = cases.error_norms(dg, state.u, case, gas, state.t)
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
