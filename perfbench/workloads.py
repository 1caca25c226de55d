"""The benchmark's workloads: seeded task lists and their correctness checks.

A workload is a fixed list of tasks.  A task is one CLI-style experiment run
(`parse_config`, `run(write=False)`, `payload_bytes`) on a generated config,
or one group of library calls at one generated point.  Every input of round
`r` under seed `s` is drawn from `anosovlab.rng.derive(s, workload, r, slot)`,
so the program only ever sees generated configs and points, and each round
gets fresh inputs that no earlier call has seen.

Why each workload exists:

- `transfer_perturbed`: one bilipschitz and one stopping-time task on the
  perturbed model, the only model whose splittings, leaf jets and growth
  profiles are all measured.  It does no `measures` work.
- `sampling_cat`: one correlation run (exact pair integrals plus the
  scalar-loop LLN percentile) beside one vectorised Birkhoff run of the
  equidistribution family on the toral suspension, with the parameters of
  `correlation_cat.cfg` and `equidistribution_cat.cfg`.  All of its time is in
  `systems` and `measures`.
- `charts_exact`: direct `leafgeom` calls on the chart-local matrix groups
  (order-4 unstable charts with their stable projection, and local Hausdorff
  distances that read fitted polynomials on a grid), plus the exact-oracle
  configs, where the `cocycle` splitting shortcut applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from anosovlab import expcli, factorize, leafgeom, rng, systems

from check import nonfinite, within

WORKLOADS = ("transfer_perturbed", "sampling_cat", "charts_exact")

LOG_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # unit of the ring lattice
WEIGHT_LADDER = (3, 2, 1, 0, -1, -2, -3)  # BorelSmale weights for a=3, b=-2


@dataclass
class Task:
    """One unit of timed work.

    `call` runs the program and returns its payload as bytes; it keeps no
    state, so a traced run can call it twice.  `check` gets the decoded
    payload and returns a list of problems."""

    slot: str
    call: Callable[[], bytes]
    check: Callable[[object], list]
    config: str | None = None


def _system(kind, **params):
    return systems.make_system(systems.SystemSpec(kind, params))


def _config_seed(gen):
    return int(gen.integers(0, 2**31 - 1))


def _config_text(experiment, seed, system_lines, params):
    lines = [f"experiment = {experiment}", f"seed = {seed}", "", "[system]"]
    lines += system_lines + ["", "[params]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def _config_task(slot, text, check):
    def call():
        report = expcli.run(expcli.parse_config(text), write=False)
        return expcli.payload_bytes(report)

    return Task(slot, call, lambda p: check(p["results"]), config=text)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# transfer_perturbed


PERTURBED_LINES = ["kind = BorelSmalePerturbed", "eps_pert = 0.01"]
PERTURBED_ELL_GRID = (6, 7, 8, 9, 10)  # the grids of bilipschitz_perturbed.cfg
PERTURBED_S_GRID = (2, 3, 4, 5, 6)


def _perturbed_window(beta):
    def check_stopping(res):
        problems = within("tau2", res["tau2"], 0.0, res["beta_bound"])
        problems += within("beta_bound", res["beta_bound"],
                           beta * res["ell"] * (1 - 1e-12), beta * res["ell"] * (1 + 1e-12))
        return problems

    def check_bilipschitz(res):
        problems = []
        for ell, tau in res["taus"].items():
            problems += within(f"taus[{ell}]", tau, 0.0, beta * float(ell) * (1 + 1e-12))
        return problems

    return check_stopping, check_bilipschitz


def transfer_perturbed(seed, r, oracles):
    check_stopping, check_bilipschitz = oracles
    tasks = []
    gen = rng.derive(seed, "transfer_perturbed", r, "bilipschitz")
    text = _config_text("bilipschitz", _config_seed(gen), PERTURBED_LINES, {
        "ell_grid": ", ".join(map(str, PERTURBED_ELL_GRID)),
        "s_grid": ", ".join(map(str, PERTURBED_S_GRID)),
        "epsilon": 0.02,
    })
    tasks.append(_config_task("bilipschitz", text, check_bilipschitz))
    ells = sorted({l + s for l in PERTURBED_ELL_GRID for s in PERTURBED_S_GRID}
                  | set(PERTURBED_ELL_GRID))
    gen = rng.derive(seed, "transfer_perturbed", r, "stopping")
    text = _config_text("stopping", _config_seed(gen), PERTURBED_LINES, {
        "ell": int(gen.choice(ells)),
        "epsilon": 0.02,
    })
    tasks.append(_config_task("stopping", text, check_stopping))
    return tasks


def transfer_perturbed_oracles():
    beta = factorize.apriori_beta(_system("BorelSmalePerturbed", eps_pert=0.01))
    return _perturbed_window(beta)


# ---------------------------------------------------------------------------
# sampling_cat


CAT_LINES = ["kind = CatSuspension"]


def _check_correlation(res):
    # the exact pair integrals carry no sampling error; the fit's r2 is a
    # property of the start point, not of the program, so it is not checked
    problems = [f"gap {p['gap']}: exact estimate has stderr {p['stderr']!r}"
                for p in res["pairs"] if p["stderr"] != 0.0]
    problems += within("gamma_hat", res["gamma_hat"], 1e-12, math.inf)
    problems += within("lln_percentile", res["lln_percentile"], 0.0, 0.05)
    return problems


def _check_equidistribution(res):
    problems = within("final discrepancy", res["discrepancy_curve"][-1][1], 0.0, 0.02)
    for name, avg, ref in res["test_values"]:
        if name == "const" and (avg != 1.0 or ref != 1.0):
            problems.append(f"constant test averages to {avg!r}, reference {ref!r}")
    return problems


def sampling_cat(seed, r, oracles):
    tasks = []
    gen = rng.derive(seed, "sampling_cat", r, "correlation")
    text = _config_text("correlation", _config_seed(gen), CAT_LINES, {
        "t0": 1.0,
        "gaps": ", ".join(str(g) for g in range(2, 21, 2)),
        "method": "auto",
        "lln_T": 1000,
        "lln_n_u": 64,
    })
    tasks.append(_config_task("correlation", text, _check_correlation))
    gen = rng.derive(seed, "sampling_cat", r, "equidistribution")
    text = _config_text("equidistribution", _config_seed(gen), CAT_LINES,
                        {"T": 10000, "dt": 0.5})
    tasks.append(_config_task("equidistribution", text, _check_equidistribution))
    return tasks


# ---------------------------------------------------------------------------
# charts_exact


BS_LINES = ["kind = BorelSmale"]
PROJECTION_TOL = 1e-10
HAUSDORFF_OMEGA = 0.05


def _generated_pair(system, gen):
    """A chart-local point x and a stably related x' near it."""
    x = systems.Point(0.2 * (gen.uniform(0.0, 1.0, size=system.dim) - 0.5))
    n_s = systems.leaf_dimension(system, "Stable")
    s = 3e-3 * gen.standard_normal(n_s)
    return x, systems.stable_translate(system, x, s)


def _projection_task(slot, system, gen):
    x, xp = _generated_pair(system, gen)
    ux = systems.strong_unstable_translate(system, x, [float(gen.uniform(2e-3, 6e-3))])

    def call():
        target = leafgeom.leaf_chart(system, xp, "Unstable", order=4)
        z, p_u, p_cs = leafgeom.stable_projection(system, ux, target, tol=PROJECTION_TOL,
                                                  return_params=True)
        return _dumps({"z": z.coords.tolist(), "p_u": p_u.tolist(), "p_cs": p_cs.tolist()})

    def check(payload):
        # closed-form oracle: the group factorisation of ux against xp
        w, _ = system.model.cs_u_factorize(ux.coords, xp.coords)
        oracle = systems.unstable_translate(system, xp, w).coords
        err = float(np.max(np.abs(np.asarray(payload["z"]) - oracle)))
        return within("projection error", err, 0.0, PROJECTION_TOL)

    return Task(slot, call, check)


def _hausdorff_task(slot, system, gen):
    x, xp = _generated_pair(system, gen)

    def call():
        cx = leafgeom.leaf_chart(system, x, "StrongUnstable", order=4)
        cy = leafgeom.leaf_chart(system, xp, "StrongUnstable", order=4)
        hd = leafgeom.local_hausdorff(system, x, cx, cy, omega=HAUSDORFF_OMEGA)
        return _dumps({"hausdorff": hd, "remainder_bounds": [cx.remainder_bound,
                                                             cy.remainder_bound]})

    def check(payload):
        # both omega-ball pieces lie in one ball of radius omega.  The charts'
        # remainder_bound has no oracle: it is the largest error on a 7-point
        # grid, and between grid points the error exceeds it (see README.md)
        return within("hausdorff", payload["hausdorff"], 0.0, 2.0 * HAUSDORFF_OMEGA)

    return Task(slot, call, check)


def _check_qni(res):
    problems = within("alpha_hat", res["alpha_hat"], 1.0 - 0.05, 1.0 + 0.05)  # SL3 order 1
    problems += within("r2", res["r2"], 0.98, 1.0)
    return problems


def _check_lyapunov(res):
    exact = sorted((w * LOG_LAMBDA for w in WEIGHT_LADDER), reverse=True)
    err = max(abs(a - b) for a, b in zip(res["exponents"], exact))
    return within("spectrum error", err, 0.0, 1e-6)


def _stopping_check(system, d0, eps):
    def check(res):
        expect = factorize.closed_form_tau2(system, d0, eps)
        problems = within("tau2 - closed form", res["tau2"] - expect, -0.05, 0.05)
        problems += within("tau2", res["tau2"], 0.0, res["beta_bound"] + 1e-12)
        if res["never_reaches"]:
            problems.append("stopping time never reached")
        return problems

    return check


def _check_yconfig(res):
    problems = within("tau_gap", res["tau_gap"], 0.0, 5.0)
    for key in ("config", "config_prime"):
        c = res[key]
        problems += within(f"{key} t2 - t", c["t2"] - c["t"], -1e-6, 1e-6)
    return problems


def charts_exact(seed, r, oracles):
    sl3, asl2, bs = oracles
    tasks = []
    for slot, system in (("sl3", sl3), ("asl2", asl2)):
        tasks.append(_projection_task(f"{slot}_projection", system,
                                      rng.derive(seed, "charts_exact", r, slot, "projection")))
        tasks.append(_hausdorff_task(f"{slot}_hausdorff", system,
                                     rng.derive(seed, "charts_exact", r, slot, "hausdorff")))
    gen = rng.derive(seed, "charts_exact", r, "qni")
    tasks.append(_config_task("qni", _config_text("qni", _config_seed(gen), ["kind = SL3Model"], {
        "u_scale": 0.01, "scale_min": 0.0001, "scale_max": 0.01, "n_scales": 8,
        "s_dir": "0.5, 0.7, -0.3", "u_dir": 1.0,
    }), _check_qni))
    gen = rng.derive(seed, "charts_exact", r, "stopping")
    ell = float(gen.uniform(6.0, 14.0))
    d0 = float(gen.uniform(0.3, 3.0)) * math.exp(-LOG_LAMBDA * ell)
    eps = float(10.0 ** gen.uniform(-1.7, -1.0))
    text = _config_text("stopping", _config_seed(gen), BS_LINES, {
        "ell": repr(ell), "epsilon": repr(eps), "u": 0.3, "d0": repr(d0),
    })
    tasks.append(_config_task("stopping", text, _stopping_check(bs, d0, eps)))
    gen = rng.derive(seed, "charts_exact", r, "yconfig")
    u, u_prime = (float(v) for v in gen.uniform(0.15, 0.45, size=2))
    tasks.append(_config_task("yconfig", _config_text("yconfig", _config_seed(gen), BS_LINES, {
        "ell": 20, "epsilon": 0.02, "u": repr(u), "u_prime": repr(u_prime),
    }), _check_yconfig))
    gen = rng.derive(seed, "charts_exact", r, "lyapunov")
    tasks.append(_config_task("lyapunov", _config_text(
        "lyapunov", _config_seed(gen), BS_LINES + ["a = 3", "b = -2"], {"T": 200, "dt_qr": 1.0}
    ), _check_lyapunov))
    return tasks


def charts_exact_oracles():
    return _system("SL3Model"), _system("ASL2Model"), _system("BorelSmale")


TASK_LISTS = {
    "transfer_perturbed": (transfer_perturbed, transfer_perturbed_oracles),
    "sampling_cat": (sampling_cat, lambda: None),
    "charts_exact": (charts_exact, charts_exact_oracles),
}


def build(workload, seed, r, oracles):
    """The task list of round `r` of `workload` under `seed`."""
    return TASK_LISTS[workload][0](seed, r, oracles)


def oracles(workload):
    """Systems and windows the checks need, built outside any timing."""
    return TASK_LISTS[workload][1]()


def check_payload(task, payload_bytes):
    """Decode a payload and run the generic and task-specific checks."""
    payload = json.loads(payload_bytes)
    return payload, nonfinite(payload) + task.check(payload)
