"""Batch execution: time loops with monitors, state dumps, convergence studies."""

import os

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
    boundary_states = {}
    if mesh.boundary:
        tags = {bf.tag for bf in mesh.boundary}
        boundary_states = {tag: (lambda x, t: case.state(x, t, gas)) for tag in tags}
    source = getattr(case, "source", None)
    src = (lambda x, t, g: case.source(x, t, g)) if callable(source) else None
    dg = solver_mod.DGSolver(
        mesh, gas,
        volume_flux=config.volume_flux,
        surface_dissipation=config.surface_dissipation,
        boundary_states=boundary_states,
        source=src,
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
    last step ends on ``final_time``.
    """
    while state.t < config.final_time - 1e-12:
        dt = config.dt if config.dt is not None else dg.timestep_estimate(state.u, config.cfl)
        dt = min(dt, config.final_time - state.t)
        state = dg.step(state, dt)
        yield state, dt


def run_case(config, output_dir=None):
    """Execute the configured time loop; write monitor CSV and final state.

    Returns a summary dict (also written as <case_name>_summary.json is left
    to the CLI); raises PositivityError on a positivity abort.
    """
    out_dir = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    dg, case, gas = build_solver(config)
    state = solver_mod.SolutionField(cases.initial_condition(case, dg, gas), 0.0)
    u_init = state.u.copy()

    rows, rates = [MONITOR_HEADER], []

    def monitor(field, dt, rhs):
        row, rate = _monitor_row(dg, field, dt, rhs)
        rows.append(row)
        rates.append(rate)

    # The row of a state is written once the next step has evaluated its
    # residual as the first RK stage (``state.rhs``); only the final row
    # pays a residual of its own.
    pending, dt, step = state, 0.0, 0
    for step, (new, new_dt) in enumerate(integrate(dg, state, config), start=1):
        if pending is not None:
            monitor(pending, dt, pending.rhs)
        state, dt = new, new_dt
        pending = state if step % config.monitor_interval == 0 else None
    rhs = dg.residual(state.u, state.t)
    monitor(state, dt, rhs)

    monitor_path = os.path.join(out_dir, f"{config.case_name}_monitor.csv")
    with open(monitor_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    state_path = os.path.join(out_dir, f"{config.case_name}_final.state")
    write_state_file(state_path, dg, state)

    summary = {
        "case": config.case_name,
        "steps": step,
        "final_time": state.t,
        "final_max_residual": float(np.abs(rhs).max()),
        "max_deviation_from_initial": float(np.abs(state.u - u_init).max()),
        "max_entropy_rate": float(max(rates)),
        "monitor_csv": monitor_path,
        "final_state": state_path,
    }
    if case.exact:
        l2, linf = cases.error_norms(dg, state.u, case, gas, state.t)
        summary["l2_error"] = l2.tolist()
        summary["linf_error"] = linf.tolist()
    return summary


def write_state_file(path, dg, state):
    """Self-describing text dump of the final nodal solution.

    Streams one element at a time, so the text of the whole file is never
    held in memory.
    """
    header = [
        STATE_MAGIC,
        f"degree {dg.basis.n}",
        f"elements {dg.num_elements}",
        f"time {state.t!r}",
        "ordering element-major; nodes (i,j,k) row-major; "
        "components rho rhov1 rhov2 rhov3 rhoE",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for e in range(dg.num_elements):
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

    def header(i, key):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}: expected '{key} <value>', got '{lines[i]}'")
        return parts[1]

    degree = int(header(1, "degree"))
    num_elements = int(header(2, "elements"))
    t = float(header(3, "time"))
    n1 = degree + 1
    data = np.array([[float(v) for v in ln.split()] for ln in lines[5:]])
    expected = num_elements * n1**3
    if data.shape != (expected, 5):
        raise ValueError(f"{path}: expected {expected} rows of 5 values, got {data.shape}")
    u = np.moveaxis(data.reshape(num_elements, n1, n1, n1, 5), -1, 0)
    return degree, u, t


def convergence_study(config, levels, refine="mesh"):
    """Error-vs-resolution study against the registered exact solution.

    Args:
        config: a RunConfig for a case with an exact solution.
        levels: mesh cell counts (refine="mesh") or polynomial degrees
            (refine="degree").
        refine: "mesh" or "degree".

    Returns:
        dict with rows [{resolution, l2, linf}] sorted by resolution and
        "orders": observed L2 orders (per variable) between consecutive rows
        (mesh refinement only; degree refinement reports errors alone).
    """
    case = config.flow_case()
    if not case.exact:
        raise ValueError(f"case '{config.case}' has no exact solution registered")
    rows = []
    for level in sorted(levels):
        if refine == "mesh":
            mesh = config.build_mesh(cells_override=(level,) * 3)
            resolution = level
        elif refine == "degree":
            mesh = config.build_mesh(degree_override=level)
            resolution = level
        else:
            raise ValueError("refine must be 'mesh' or 'degree'")
        dg, case, gas = build_solver(config, mesh=mesh)
        state = solver_mod.SolutionField(cases.initial_condition(case, dg, gas), 0.0)
        for state, _ in integrate(dg, state, config):
            pass
        l2, linf = cases.error_norms(dg, state.u, case, gas, state.t)
        rows.append({"resolution": resolution, "l2": l2.tolist(), "linf": linf.tolist()})
    orders = []
    if refine == "mesh":
        for a, b in zip(rows, rows[1:]):
            ratio = b["resolution"] / a["resolution"]
            orders.append([
                float(np.log(ea / eb) / np.log(ratio)) if eb > 0 else float("inf")
                for ea, eb in zip(a["l2"], b["l2"])
            ])
    return {"refine": refine, "rows": rows, "orders": orders}


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
