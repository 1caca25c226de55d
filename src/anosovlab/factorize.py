"""Transfer machinery between nearby strong-unstable leaves.

The pipeline mirrors the leaf-divergence construction: flow a stably-related
pair to the half-way level, project the fast-unstable displacement onto the
companion's unstable leaf, carry the transverse data forward on the
second-line bundle (the rank-one quotient of the unstable by its fast part),
and read off the magnitude trace.  Stopping times, their bilipschitz
behaviour in the excursion length, scalar holonomies and identification
maps, and synchronized Y-configurations all sit on top of the same pipeline.

The second-line separation seeded at the end of the excursion defaults to
the contracted stable separation itself; for linear models this makes every
trace an exact exponential, which is what the closed-form cross-checks pin
down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cocycle as comod
from . import leafgeom as lgmod
from . import systems as sysmod
from .errors import (
    ChartOverflow,
    IllConditioned,
    InvalidParams,
    NoRoot,
    NotStablyRelated,
    Unsupported,
)
from .systems import Point, System

DT_TRACE = 0.25
REFINEMENTS = 4
#: step of the growth profiles
PROFILE_DT = 0.5


# ---------------------------------------------------------------------------
# companion data


@dataclass(frozen=True)
class Companion:
    """Stably-related companion for the transfer pipeline.

    ``s_disp`` are stable-leaf parameters at the excursion start; ``r_seed``
    is the second-line separation at the end of the excursion (defaults to
    the contracted stable separation norm)."""

    s_disp: tuple
    r_seed: float | None = None


def default_companion(system: System, scale: float = 0.5) -> Companion:
    rates = system.model.leaf_rates("Stable")
    params = [0.0] * len(rates)
    params[int(np.argmax(rates))] = scale  # the slowest (least-negative) slot
    return Companion(s_disp=tuple(params))


def stable_params_between(system: System, q: Point, q_prime: Point) -> np.ndarray:
    """Leaf parameters of q' on the stable leaf of q (group models exact)."""
    model = system.model
    if hasattr(model, "stable_params_between"):
        return model.stable_params_between(q.coords, q_prime.coords)
    sol, *_ = np.linalg.lstsq(model.leaf_dirs("Stable"), q_prime.coords - q.coords, rcond=None)
    return sol


# ---------------------------------------------------------------------------
# second-line growth profile along an orbit


class _GrowthProfile:
    """Cumulative log growth of a frame vector along a reduced orbit.

    ``project="stable"`` restricts the transport to the measured stable
    blocks at every step (the restricted cocycle on the stable sub-bundle);
    without it, round-off leakage into the fastest direction eventually
    swamps a contracting vector.  Exact-splitting models have no leakage.
    Splittings, with those of the points in ``also`` (as ``self.also``), are
    built in one batch.  ``direction`` (norm ``norm0``) may be a function of
    the splitting at x, such as ``comod.second_line``.
    """

    def __init__(self, system, x, direction, t_max, project=None, also=()):
        steps = int(math.ceil(t_max / PROFILE_DT)) + 1
        walk = comod._Walk(system, x, PROFILE_DT)
        do_project = project == "stable" and system.exact_exponents is None
        self.also = comod._fill([walk], steps + 1 if do_project else 0, also)
        if callable(direction):
            direction = direction(walk.splitting)
        v = np.asarray(direction, dtype=float)
        self.norm0 = nv = np.linalg.norm(v)
        v = v / nv if nv > 0 else v
        logs = [0.0]
        vecs = [v.copy()]
        acc = 0.0
        for _ in range(steps):
            v = walk.step() @ v
            if do_project:
                exps = walk.splitting.exponents
                v = walk.project(v, [i for i, e in enumerate(exps) if e < -1e-9])
            n = float(np.linalg.norm(v))
            if n == 0.0:
                logs.extend([-math.inf] * (steps - len(logs) + 1))
                vecs.extend([v.copy()] * (steps - len(vecs) + 1))
                break
            acc += math.log(n)
            v = v / n
            logs.append(acc)
            vecs.append(v.copy())
        self.logs = np.array(logs)
        self.vecs = vecs
        self.t_max = steps * PROFILE_DT

    def vector_at(self, t):
        k = int(round(t / PROFILE_DT))
        return self.vecs[min(k, len(self.vecs) - 1)]

    def __call__(self, t):
        if t < 0 or t > self.t_max + 1e-9:
            raise InvalidParams("time outside the precomputed growth profile")
        s = min(t / PROFILE_DT, len(self.logs) - 1.000001)
        k = int(math.floor(s))
        frac = s - k
        return float((1 - frac) * self.logs[k] + frac * self.logs[k + 1])


# ---------------------------------------------------------------------------
# scalar holonomy and identification maps


@dataclass
class HolonomyResult:
    value: float
    tail_bound: float
    T_used: float
    increments: list = field(default_factory=list)


def _forward_convergence_ok(system, x, z, T):
    """Do the forward orbits of x and z approach each other over [0, T/2]?

    Both orbits are compared on the cover, unreduced: a converging pair can
    have its reduced half-way images on opposite sides of a fundamental-domain
    seam, a whole lattice period apart."""
    d0 = sysmod.dist(system, x, z)
    if d0 == 0.0:
        return True
    half = sysmod.flow(system, x, T / 2.0, reduce=False)
    halfz = sysmod.flow(system, z, T / 2.0, reduce=False)
    return sysmod.dist(system, half, halfz) <= 0.5 * d0 + 1e-12


def holonomy_limit(system: System, x: Point, z: Point, T_max: float = 30.0,
                   tol: float = 1e-12) -> HolonomyResult:
    """Limit of the ratio of second-line growth factors along two forward orbits.

    x and z must be stably related: their forward orbits must close in by
    half over [0, T_max/2] on the cover (the orbits are not reduced, so a
    pair whose reduced images straddle a fundamental-domain seam still
    passes), or NotStablyRelated is raised.  Increments are summed until they
    fall below tol; the tail bound comes from the fitted geometric decay of
    the increment sizes, guarded by the recent increment scale."""
    return _holonomy(system, comod._Walk(system, x, 1.0), z, T_max, tol)[0]


def _holonomy(system, walk_x, z, T_max, tol):
    """holonomy_limit from a unit-step walk at x, and the splittings at x and z.

    Each walk carries a second-line vector re-projected onto its block."""
    if not _forward_convergence_ok(system, walk_x.point, z, T_max):
        raise NotStablyRelated("forward orbits fail to converge")
    walks = [walk_x, comod._Walk(system, z, 1.0)]
    # the shortest run, to the k >= 2 stop, in one batch; later points build lazily
    comod._fill(walks, min(4, int(T_max) + 1))
    start = [w.splitting for w in walks]
    idx = comod._second_block_index(start[0])
    vecs = [comod.second_line(sp) for sp in start]
    total = 0.0
    increments = []
    T_used = 0.0
    for k in range(int(T_max)):
        growth = []
        for j, walk in enumerate(walks):
            c0 = float(np.linalg.norm(walk.project(vecs[j], [idx])))
            w = walk.project(walk.step() @ vecs[j], [idx])
            c1 = float(np.linalg.norm(w))
            if c0 <= 0.0 or c1 <= 0.0:
                raise IllConditioned("second-line component vanished")
            growth.append(math.log(c1 / c0))
            vecs[j] = w / c1
        d = growth[1] - growth[0]
        increments.append(d)
        total += d
        T_used = k + 1.0
        if abs(d) < tol and k >= 2:
            break
    # remaining-sum bound: geometric extrapolation guarded by the recent
    # increment scale (late increments sit at the measurement floor rather
    # than decaying forever)
    tail = 0.0
    mags = [abs(d) for d in increments if abs(d) > 0]
    if mags:
        recent = max(mags[-2:])
        ratios = [b / a for a, b in zip(mags[:-1], mags[1:]) if a > 0]
        r = float(np.median(ratios)) if ratios else 0.5
        geom = mags[-1] * r / (1.0 - r) if 0 < r < 1 else mags[-1]
        tail = max(geom, 3.0 * recent)
    return HolonomyResult(
        value=float(math.exp(total)), tail_bound=float(tail), T_used=T_used,
        increments=increments,
    ), start


def identification_map(system: System, p: Point, q_frame=None, r_frame=None) -> float:
    """Scalar identifying the forward-flag realisation of the second line
    with the backward-flag one, in the given unit frames.

    The canonical frames are the measured second-line direction itself, so
    linear models with orthogonal axes give exactly 1."""
    return _identification(comod.oseledets_splitting(system, p), q_frame, r_frame)


def _identification(sp, q_frame, r_frame) -> float:
    idx = comod._second_block_index(sp)
    e2 = sp.block(idx)[:, 0]
    qf = e2 if q_frame is None else np.asarray(q_frame, dtype=float)
    rf = e2 if r_frame is None else np.asarray(r_frame, dtype=float)
    cq = float(np.linalg.norm(comod.decompose(sp, qf)[idx]))
    cr = float(np.linalg.norm(comod.decompose(sp, rf)[idx]))
    if cq < 1e-12 or cr < 1e-12:
        raise IllConditioned("frame has no second-line component")
    return cq / cr


def operator_B(system: System, z: Point, x: Point, q_frame_x=None, r_frame_x=None,
               q_frame_z=None, r_frame_z=None, T_max: float = 30.0) -> float:
    """Compose the identification maps with the inverse holonomy.

    The clock mismatch between the two points contributes the second-line
    cocycle over the offset."""
    return _operator_B(system, z, comod._Walk(system, x, 1.0), T_max,
                       q_frame_x, r_frame_x, q_frame_z, r_frame_z)


def _operator_B(system, z, walk_x, T_max, q_frame_x=None, r_frame_x=None,
                q_frame_z=None, r_frame_z=None):
    """operator_B from a unit-step walk at x, which may hold x's splitting."""
    x = walk_x.point
    clock = system.model.theta_index
    s_off = float(z.coords[clock] - x.coords[clock])
    if s_off != 0.0:
        sp_x = walk_x.splitting
        walk_x = comod._Walk(system, sysmod.flow(system, x, s_off, reduce=False), 1.0)
    L, (sp_x1, sp_z) = _holonomy(system, walk_x, z, T_max, 1e-12)
    I_x1 = _identification(sp_x1, q_frame_x, r_frame_x)
    I_z = _identification(sp_z, q_frame_z, r_frame_z)
    flow_factor = math.exp(-comod._lambda2(system, sp_x, s_off)) if s_off else 1.0
    # recorded with the source-frame covariance: doubling the frame on the
    # backward-flag line at z halves the scalar
    return flow_factor * I_x1 * I_z / L.value


# ---------------------------------------------------------------------------
# a-priori bound


def apriori_beta(system: System, w_exponent: float | None = None,
                 lambda_C: float | None = None, lambda_1: float | None = None) -> float:
    """Stopping-window slope: order times slow-contraction over top expansion."""
    model = system.model
    w = model.qni_order if w_exponent is None else w_exponent
    if w is None:
        raise Unsupported(f"{system.kind} has no certified non-integrability order")
    lc = model.rate_slow_stable if lambda_C is None else lambda_C
    l1 = model.rate_top if lambda_1 is None else lambda_1
    if w <= 0 or lc <= 0 or l1 <= 0:
        raise InvalidParams("all rates must be positive")
    return w * lc / l1


# ---------------------------------------------------------------------------
# the transfer pipeline


@dataclass
class TransferData:
    q: Point
    q_half_prime: Point
    x: Point
    w_params: np.ndarray
    e2_slot: int
    e2_half: float
    B_scalar: float
    r_seed: float
    profile: _GrowthProfile
    #: contraction of the companion's stable vector from q, over [0, ell + 1]
    stable_profile: _GrowthProfile
    ell: float
    beta: float
    companion: Companion


def stable_frame_vector(system: System, q: Point, s_params) -> np.ndarray:
    """Chart vector of a stable displacement given by leaf parameters.

    Exact-splitting models use their leaf directions; measured systems take
    the unit vectors of the measured stable blocks (matched by rate), so the
    vector genuinely contracts under the cocycle."""
    return _stable_frame(system, comod.oseledets_splitting(system, q), s_params)


def _stable_frame(system, sp, s_params) -> np.ndarray:
    """stable_frame_vector from the splitting at q."""
    s_params = np.asarray(s_params, dtype=float)
    if system.exact_exponents is not None:
        return system.model.leaf_dirs("Stable") @ s_params
    v = np.zeros(system.dim)
    for val, rate in zip(s_params, system.model.leaf_rates("Stable")):
        v += val * sp.block(_block_at_rate(sp, rate))[:, 0]
    return v


def _block_at_rate(sp, rate) -> int:
    """Index of the measured block whose exponent is the given model rate."""
    for i, e in enumerate(sp.exponents):
        if abs(e - rate) < 1e-6:
            return i
    raise IllConditioned("no measured block at the requested rate")


def build_transfer(system: System, q1: Point, u: float, ell: float,
                   companion: Companion | None = None,
                   epsilon_chart: float = 1e-6) -> TransferData:
    """Assemble the half-way projection data and the forward growth profile.

    epsilon_chart is the admissible chart error for the projection step; the
    Taylor order is raised until the certified accuracy beats it, up to the
    configured cap.  The holonomy scalar is measured on models without exact
    exponents and is 1 on the others."""
    if ell <= 0:
        raise InvalidParams("ell must be positive")
    model = system.model
    if model.rate_second is None:
        raise Unsupported(f"{system.kind} has a one-dimensional unstable block")
    if companion is None:
        companion = default_companion(system)
    q = sysmod.flow(system, q1, -ell)
    q_half = sysmod.flow(system, q, ell / 2.0)

    u_half = float(u) * math.exp(-model.rate_top * ell / 2.0)
    x = sysmod.strong_unstable_translate(system, q_half, [u_half])

    s_params = np.asarray(companion.s_disp, dtype=float)
    stable_rates = model.leaf_rates("Stable")
    if s_params.shape != (len(stable_rates),):
        raise InvalidParams(f"s_disp needs {len(stable_rates)} stable-leaf parameters, "
                            f"got {s_params.size}")
    # contracted stable data at the half-way and full levels (restricted
    # cocycle on the stable sub-bundle); the splittings at q (for the stable
    # frame), q_half and x join the profile's batch
    s_prof = _GrowthProfile(system, q, lambda sp: _stable_frame(system, sp, s_params),
                            ell + 0.5, project="stable", also=[q_half, x])
    s_norm = float(s_prof.norm0)
    v_half = s_norm * math.exp(s_prof(ell / 2.0)) * s_prof.vector_at(ell / 2.0)
    r1 = companion.r_seed if companion.r_seed is not None else s_norm * math.exp(s_prof(ell))

    if system.exact_exponents is None:
        # measured splitting: read the parameters off the measured stable
        # blocks, and place the companion on the curved stable leaf chart
        sp_h = comod._read(s_prof.also[0])
        comps = comod.decompose(sp_h, v_half)
        blocks = [_block_at_rate(sp_h, rate) for rate in stable_rates]
        s_half_params = np.array([np.dot(comps[b], sp_h.block(b)[:, 0]) for b in blocks])
        chart_s = lgmod.leaf_chart(system, q_half, "Stable", order=4)
        q_half_prime = Point(chart_s.evaluate(s_half_params))
    else:
        # exact: each stable parameter contracts at its own rate
        s_half_params = np.array(
            [s * math.exp(r * ell / 2.0) for s, r in zip(s_params, stable_rates)]
        )
        q_half_prime = sysmod.stable_translate(system, q_half, s_half_params)

    # stable projection of x onto the unstable leaf of the companion
    if hasattr(model, "cs_u_factorize"):
        w_params, _ = model.cs_u_factorize(x.coords, q_half_prime.coords)
        z = sysmod.unstable_translate(system, q_half_prime, w_params)
    else:
        target = None
        for order in (4, 6, 8):
            target = lgmod.leaf_chart(system, q_half_prime, "Unstable", order=order)
            if target.evaluator_error <= epsilon_chart:
                break
        else:
            raise ChartOverflow(
                f"chart error {target.evaluator_error:g} above the target "
                f"{epsilon_chart:g} at the order cap"
            )
        z, w_params, _ = lgmod.stable_projection(
            system, x, target, tol=max(1e-10, 4.0 * target.evaluator_error),
            return_params=True,
        )

    # slot of the second-line direction among the unstable leaf parameters
    e2_slot = int(np.argsort(model.leaf_rates("Unstable"), kind="stable")[::-1][1])
    # growth profile of the second line along the orbit of x
    beta = apriori_beta(system)
    horizon = ell / 2.0 + beta * ell + 2.0
    walk_x = comod._Walk(system, x, 1.0, s_prof.also[1])
    profile = _GrowthProfile(system, x, comod.second_line(walk_x.splitting), horizon)

    B = (_operator_B(system, z, walk_x, min(20.0, max(6.0, ell)))
         if system.exact_exponents is None else 1.0)

    grow_half = math.exp(profile(ell / 2.0))
    e2_half = float(w_params[e2_slot]) + r1 / grow_half
    return TransferData(
        q=q, q_half_prime=q_half_prime, x=x, w_params=np.asarray(w_params, dtype=float),
        e2_slot=e2_slot, e2_half=e2_half, B_scalar=float(B), r_seed=float(r1),
        profile=profile, stable_profile=s_prof, ell=float(ell), beta=float(beta),
        companion=companion,
    )


def transfer_trace(data: TransferData, t: float) -> float:
    """Magnitude of the transferred second-line separation at time t."""
    growth = math.exp(data.profile(data.ell / 2.0 + t))
    return abs(data.B_scalar) * abs(data.e2_half) * growth


def transfer_magnitude(system: System, q: Point, q_prime: Point, u: float,
                       ell: float, t: float) -> float:
    """One-shot transfer magnitude for an explicitly given companion point."""
    q1 = sysmod.flow(system, q, ell)
    s_params = stable_params_between(system, q, q_prime)
    data = build_transfer(system, q1, u, ell, Companion(s_disp=tuple(s_params)))
    if t > data.beta * ell + 1e-9:
        raise InvalidParams("t exceeds the a-priori window")
    return transfer_trace(data, t)


# ---------------------------------------------------------------------------
# stopping times


@dataclass
class StoppingRecord:
    q1: Point
    u: float
    ell: float
    epsilon: float
    tau2: float
    A_trace: list
    beta_bound: float
    lambda2_at_stop: float
    never_reaches: bool
    B_scalar: float
    r_seed: float
    data: TransferData = field(repr=False, default=None)


def stopping_time(system: System, q1: Point, u: float, ell: float, epsilon: float,
                  companion: Companion | None = None) -> StoppingRecord:
    """Last time within the a-priori window at which the transfer magnitude
    is still below epsilon, with bracketing refinement at the crossing."""
    if epsilon <= 0 or ell <= 0:
        raise InvalidParams("epsilon and ell must be positive")
    data = build_transfer(system, q1, u, ell, companion)
    t_end = data.beta * ell
    grid = np.arange(0.0, t_end + DT_TRACE / 2.0, DT_TRACE)
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
    trace = [(float(t), transfer_trace(data, float(t))) for t in grid]
    below = [k for k, (_, a) in enumerate(trace) if a <= epsilon]
    if len(below) == len(trace):
        tau2 = t_end
        never = True
    elif not below:
        tau2 = 0.0
        never = False
    else:
        k = below[-1]
        never = False
        lo, hi = trace[k][0], trace[min(k + 1, len(trace) - 1)][0]
        for _ in range(REFINEMENTS):
            mid = 0.5 * (lo + hi)
            if transfer_trace(data, mid) <= epsilon:
                lo = mid
            else:
                hi = mid
        tau2 = 0.5 * (lo + hi)
    lam2 = data.profile(data.ell / 2.0 + tau2) - data.profile(data.ell / 2.0)
    return StoppingRecord(
        q1=q1.copy(), u=float(u), ell=float(ell), epsilon=float(epsilon),
        tau2=float(tau2), A_trace=trace, beta_bound=float(t_end),
        lambda2_at_stop=float(lam2), never_reaches=never,
        B_scalar=data.B_scalar, r_seed=data.r_seed, data=data,
    )


def closed_form_tau2(system: System, d0: float, epsilon: float) -> float:
    """Inversion of the exact exponential trace on constant-cocycle models."""
    lam2 = system.model.rate_second
    if lam2 is None:
        raise Unsupported("no second expanding direction")
    return math.log(epsilon / d0) / lam2


# ---------------------------------------------------------------------------
# synchronisation


def t2_solve(system: System, q1: Point, u: float, t: float,
             tol: float = 1e-8) -> float:
    """Solve the second-line cocycle matching equation by monotone bisection."""
    uq1 = sysmod.strong_unstable_translate(system, q1, [u])
    horizon = max(4.0, 2.5 * t + 2.0)
    target = _GrowthProfile(system, uq1, comod.second_line, horizon)(t)
    prof_q = _GrowthProfile(system, q1, comod.second_line, horizon)
    # monotonicity check over unit windows
    probes = np.arange(0.0, min(horizon, 2.0 * t + 1.0), 1.0)
    vals = [prof_q(p) for p in probes]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise NoRoot(f"cocycle not increasing on the window; trace {vals}")
    lo, hi = 0.0, min(horizon - 1e-6, 2.0 * t + 1.0)
    if prof_q(hi) < target:
        raise NoRoot("target growth outside the bisection window")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if prof_q(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * 0.5:
            break
    return 0.5 * (lo + hi)


@dataclass
class YConfiguration:
    q: Point
    q1: Point
    u_q1: Point
    q2: Point
    q3: Point
    ell: float
    t: float
    t2: float
    tau_gap: float | None = None
    synchronized_with: object = None


def y_configuration(system: System, q: Point, u: float, ell: float, epsilon: float,
                    companion: Companion | None = None) -> YConfiguration:
    """Five-point configuration with second-line-synchronised branch lengths."""
    q1 = sysmod.flow(system, q, ell)
    rec = stopping_time(system, q1, u, ell, epsilon, companion)
    u_q1 = sysmod.strong_unstable_translate(system, q1, [u])
    q2 = sysmod.flow(system, u_q1, rec.tau2)
    t2 = t2_solve(system, q1, u, rec.tau2)
    q3 = sysmod.flow(system, q1, t2)
    return YConfiguration(
        q=q.copy(), q1=q1, u_q1=u_q1, q2=q2, q3=q3, ell=float(ell),
        t=float(rec.tau2), t2=float(t2),
    )


def paired_y_configurations(system: System, q: Point, u: float, u_prime: float,
                            ell: float, epsilon: float,
                            companion: Companion | None = None):
    """Two Y-configurations from a stably-related pair; tau-gap recorded."""
    if companion is None:
        companion = default_companion(system)
    cfg = y_configuration(system, q, u, ell, epsilon, companion)
    q_prime = sysmod.stable_translate(system, q, np.asarray(companion.s_disp))
    back = Companion(s_disp=tuple(-np.asarray(companion.s_disp)), r_seed=companion.r_seed)
    cfg_p = y_configuration(system, q_prime, u_prime, ell, epsilon, back)
    gap = abs(cfg.t - cfg_p.t)
    cfg.tau_gap = gap
    cfg_p.tau_gap = gap
    cfg.synchronized_with = cfg_p
    return cfg, cfg_p


# ---------------------------------------------------------------------------
# bilipschitz verification


def bilipschitz_check(system: System, q1: Point, u: float, ell_grid, s_grid,
                      epsilon: float, companion: Companion | None = None):
    """Envelope check of stopping-time increments against measured rates.

    Returns (kappa1_hat, kappa2_hat, passed, details)."""
    ell_grid = sorted(float(v) for v in ell_grid)
    s_grid = sorted(float(v) for v in s_grid)
    if len(ell_grid) < 5 or len(s_grid) < 5:
        raise InvalidParams("grids need at least 5 values each")
    if companion is None:
        companion = default_companion(system)
    ells = sorted(set(ell_grid) | {l + s for l in ell_grid for s in s_grid})
    taus = {}
    for l in ells:
        rec = stopping_time(system, q1, u, l, epsilon, companion)
        taus[l] = rec.tau2

    # measured second-line rates along the fast-displacement orbit
    uq1 = sysmod.strong_unstable_translate(system, q1, [u])
    horizon = max(taus.values()) + 2.0
    prof = _GrowthProfile(system, uq1, comod.second_line, horizon)
    windows = np.arange(0.0, horizon - 1.0, 1.0)
    lam2_rates = [prof(w + 1.0) - prof(w) for w in windows]
    lam2_min, lam2_max = min(lam2_rates), max(lam2_rates)

    # measured contraction rates of the companion data, read off the stable
    # profile of the longest window's transfer (it starts at
    # q = flow(q1, -max(ells)) and covers [0, max(ells) + 1])
    vf_prof = rec.data.stable_profile
    vf_rates = [-(vf_prof(w + 1.0) - vf_prof(w)) for w in np.arange(0.0, max(ells), 1.0)]
    kvf_min, kvf_max = min(vf_rates), max(vf_rates)

    kappa1 = kvf_min / lam2_max
    kappa2 = kvf_max / lam2_min
    slack = 2.0 * DT_TRACE / (2**REFINEMENTS) + 1e-9

    slopes = []
    passed = True
    for l in ell_grid:
        for s in s_grid:
            inc = taus[l + s] - taus[l]
            slopes.append(inc / s)
            if not (kappa1 * s - slack <= inc <= kappa2 * s + slack):
                passed = False
    details = {
        "kappa1_pred": kappa1,
        "kappa2_pred": kappa2,
        "slopes": slopes,
        "taus": taus,
        "slack": slack,
    }
    return float(min(slopes)), float(max(slopes)), bool(passed), details


# ---------------------------------------------------------------------------
# leaf-divergence cross-check


def factorization_residual(system: System, q1: Point, u: float, ell: float,
                           t: float = 1.0, companion: Companion | None = None):
    """Local Hausdorff distance between the two fast leaves at time t versus
    the transfer magnitude.  Quotiented group models only (the companion
    translation is conjugated exactly)."""
    model = system.model
    if not hasattr(model, "group_displacement"):
        raise Unsupported("leaf-divergence cross-check runs on the nil quotient model")
    data = build_transfer(system, q1, u, ell, companion)
    A_t = transfer_trace(data, t)

    # seeded companion leaf point at the half-way level
    w_seed = data.w_params.copy()
    w_seed[data.e2_slot] = data.e2_half
    z_seeded = sysmod.unstable_translate(system, data.q_half_prime, w_seed)

    # group displacement from x, with the fast component removed (it moves
    # points inside the same fast leaf)
    delta = model.group_displacement(data.x.coords, z_seeded.coords)
    uu_idx = model._kind_indices("StrongUnstable")
    strip = np.zeros(6)
    strip[uu_idx] = -delta[uu_idx]
    delta = sysmod._pair_mult(strip, delta)

    T = ell / 2.0 + t
    delta_T = delta * np.exp(model.rates[:6] * T)
    P = sysmod.flow(system, data.x, T)
    Yc = P.coords.copy()
    Yc[:6] = sysmod._pair_mult(delta_T, P.coords[:6])
    Y = Point(Yc)

    cx = lgmod.leaf_chart(system, P, "StrongUnstable", order=2)
    cy = lgmod.leaf_chart(system, Y, "StrongUnstable", order=2)
    omega = max(6.0 * A_t, 1e-4)
    hd = lgmod.local_hausdorff(system, P, cx, cy, omega=omega)
    return hd, A_t, data


# ---------------------------------------------------------------------------
# singular-direction avoidance


def top_singular_avoidance(A: np.ndarray, rho: float):
    """Orthogonal complement of the leading singular direction(s).

    Unit vectors further than rho from the returned subspace satisfy
    ||A v|| >= rho ||A||."""
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        raise InvalidParams("map must be nonzero")
    _, s, vt = np.linalg.svd(A)
    top = s >= s[0] * (1.0 - 1e-12)
    k = int(np.sum(top))
    subspace = vt[k:].T  # complement of the top singular direction(s)
    return subspace, float(rho)
