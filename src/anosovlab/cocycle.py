"""Lyapunov data for the catalog systems.

Exponents via the QR recursion along an orbit, splittings from the
intersection of forward- and backward-propagated flags, truncated adapted
(Pesin-type) norms, regular-set densities, and the scalar growth cocycle on
the second expanding line used by the stopping-time machinery.  The cocycle
restricted to invariant sub-bundles is one orbit walk carrying its splitting;
it builds the splittings of a known run of its points in one batch, whose
flags step together as rows, bit-identical to one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import systems as sysmod
from .errors import DegenerateOrbit, IllConditioned, InvalidParams, NonFinite
from .systems import Point, System


@dataclass
class LyapunovReport:
    """QR-recursion estimates; exponents sorted descending."""

    exponents: list
    stderr: list
    T_total: float
    steps: int


@dataclass
class Splitting:
    point: Point
    subspaces: list  # [(exponent, orthonormal basis (dim, k))]
    theta: float  # minimal pairwise principal angle, radians

    def block(self, i):
        return self.subspaces[i][1]

    @property
    def exponents(self):
        return [e for e, _ in self.subspaces]


@dataclass(frozen=True)
class LyapunovNormParams:
    epsilon: float
    T_trunc: float = 20.0
    dtau: float = 0.5


# ---------------------------------------------------------------------------
# spectra


def lyapunov_spectrum(system: System, x0: Point, T: float, dt_qr: float = 1.0,
                      seed: int = 0) -> LyapunovReport:
    """Estimate the Lyapunov spectrum by QR reorthonormalisation.

    The first 10% of the orbit is discarded as burn-in; standard errors come
    from block means over 20 disjoint orbit segments.
    """
    if T < 100.0 * dt_qr:
        raise InvalidParams("T must be at least 100 reorthonormalisation intervals")
    n = system.dim
    steps = sysmod.step_count(T, dt_qr)
    burn = max(1, steps // 10)
    gen = rngmod.derive(seed, "lyapunov_spectrum")
    Q, _ = np.linalg.qr(np.eye(n) + 0.01 * gen.standard_normal((n, n)))
    walk = _Walk(system, x0, dt_qr)
    logs = np.zeros((steps - burn, n))
    bound = getattr(system.model, "chart_bound", np.inf)
    for k in range(steps):
        try:
            M = walk.step()
        except NonFinite as exc:
            raise DegenerateOrbit("orbit left the configured chart") from exc
        if not system.model.quotiented and np.max(np.abs(walk.point.coords)) > 0.99 * bound:
            raise DegenerateOrbit("orbit left the configured chart")
        Q, R = np.linalg.qr(M @ Q)
        d = np.abs(np.diag(R))
        sgn = np.sign(np.diag(R))
        Q = Q * sgn
        if k >= burn:
            logs[k - burn] = np.log(d)
    T_eff = (steps - burn) * dt_qr
    sums = logs.sum(axis=0)
    exps = sums / T_eff
    nblocks = min(20, steps - burn)
    block_means = np.array_split(logs, nblocks)
    means = np.array([b.mean(axis=0) / dt_qr for b in block_means])
    stderr = means.std(axis=0, ddof=1) / math.sqrt(nblocks)
    order = np.argsort(exps)[::-1]
    return LyapunovReport(
        exponents=[float(e) for e in exps[order]],
        stderr=[float(s) for s in stderr[order]],
        T_total=float(T),
        steps=steps,
    )


# ---------------------------------------------------------------------------
# splittings


def _subspace_intersection(A, B, k, tol=1e-6):
    """Orthonormal basis of the k-dimensional span(A) & span(B)."""
    n = A.shape[0]
    comp = []
    for M in (A, B):
        q, _ = np.linalg.qr(M)
        comp.append(np.eye(n) - q @ q.T)
    stack = np.vstack(comp)
    _, s, vt = np.linalg.svd(stack)
    if k <= 0 or s[n - k] > tol:
        raise IllConditioned("flag intersection has wrong dimension")
    return vt[n - k :].T


_FLAG_STEPS = 40  # unit flow steps over which a measured splitting's flags propagate


def _flags(system, X, sgn):
    """Orthonormal frames at the rows of X ordered by growth under the flow in
    the direction sgn (per row), accumulated along the stored orbit ending
    exactly at the row; or, for a row, the NonFinite it alone raises."""
    try:
        pts = [X]
        for _ in range(_FLAG_STEPS):
            pts.append(sysmod.flow_rows(system, pts[-1], -sgn))
        # generic initial frame; axis-aligned frames can sit on invariant subspaces
        gen = rngmod.derive(7, "propagated_flag")
        Q, _ = np.linalg.qr(gen.standard_normal((system.dim, system.dim)))
        Q = np.repeat(Q[None], len(X), axis=0)
        for k in range(_FLAG_STEPS, 0, -1):
            Q, R = np.linalg.qr(sysmod.tangent_flow_rows(system, pts[k], sgn) @ Q)
            Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        return list(Q)
    except NonFinite as exc:
        if len(X) == 1:
            return [exc]
        return [f for r in range(len(X)) for f in _flags(system, X[r:r + 1], sgn[r:r + 1])]


def _min_principal_angle(blocks):
    theta = math.pi / 2.0
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            s = np.linalg.svd(blocks[i].T @ blocks[j], compute_uv=False)
            smax = min(1.0, float(s.max(initial=0.0)))
            theta = min(theta, math.acos(smax))
    return theta


def _splittings(system: System, points) -> list:
    """Splittings at a batch of points from one stack of propagated flags;
    entry i is the Splitting at points[i], or the error that building it alone
    raises (`_read` raises it).  Constant exact frames short-circuit."""
    model, N = system.model, len(points)
    flags = [None] * 2 * N
    if system.exact_exponents is None and N:
        # rows 0..N-1 grow under the forward flow, rows N..N+N-1 backward
        X = np.array([x.coords for x in points])
        flags = _flags(system, np.vstack([X, X]), np.repeat([1.0, -1.0], N))
        # group target exponents from the declared weights (measured systems
        # carry reference rates; ties merge into one block)
        rates = sorted({round(float(r), 12) for r in model.rates}, reverse=True)
        dims = [int(np.sum(np.isclose(model.rates, r))) for r in rates]
    out = []
    for x, U, S in zip(points, flags[:N], flags[N:]):
        try:
            if U is None:
                subs = [(b.rate, b.basis.copy()) for b in model.blocks]
            else:
                U, S, subs, c = _read(U), _read(S), [], 0
                for r, k in zip(rates, dims):
                    E = _subspace_intersection(U[:, : c + k], S[:, : system.dim - c], k)
                    subs.append((float(r), E))
                    c += k
            theta = _min_principal_angle([b for _, b in subs])
            if theta < 1e-8:
                raise IllConditioned("splitting angle below threshold")
            out.append(Splitting(point=x.copy(), subspaces=subs, theta=theta))
        except (IllConditioned, NonFinite) as exc:
            out.append(exc)
    return out


def _read(entry) -> Splitting:
    """A `_splittings` entry: the splitting, or raise the error in its place."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def oseledets_splitting(system: System, x: Point) -> Splitting:
    """Splitting at x from intersecting the forward- and backward-propagated
    flags: the one-point batch of `_splittings`."""
    return _read(_splittings(system, [x])[0])


def decompose(splitting: Splitting, v: np.ndarray) -> list:
    """Components of v in the splitting blocks (sums back to v)."""
    basis = np.column_stack([b for _, b in splitting.subspaces])
    coef = np.linalg.solve(basis, v)
    ends = np.cumsum([b.shape[1] for _, b in splitting.subspaces])[:-1]
    return [b @ c for (_, b), c in zip(splitting.subspaces, np.split(coef, ends))]


class _Walk:
    """Orbit of x in flow steps of h carrying the derivative cocycle, and the
    splitting at its current point, built on first use or ahead by `_fill`
    (at most once per visited point; exact constant blocks once per walk)."""

    def __init__(self, system: System, x: Point, h: float, splitting=None):
        self.system, self.h, self.point = system, h, x
        self._ahead = []  # points already flowed to, after the current one
        self._built = [] if splitting is None else [splitting]  # from the point on

    @property
    def splitting(self) -> Splitting:
        if not self._built:
            self._built = _splittings(self.system, [self.point])
        return _read(self._built[0])

    def step(self) -> np.ndarray:
        """Move one step along the orbit; return the derivative over it."""
        D = sysmod.tangent_flow(self.system, self.point, self.h)
        self.point = (self._ahead or [sysmod.flow(self.system, self.point, self.h)]).pop(0)
        if self.system.exact_exponents is None:
            del self._built[:1]
        return D

    def project(self, v: np.ndarray, blocks) -> np.ndarray:
        """Component of v in the listed blocks of the current splitting."""
        comps = decompose(self.splitting, v)
        return sum((comps[i] for i in blocks[1:]), comps[blocks[0]])


def _fill(walks, n, also=()) -> list:
    """Build in one batch the missing splittings at the current and next n - 1
    points of walks (flowed to as `step` would) and at also; return also's."""
    system, runs = walks[0].system, []
    for w in walks if system.exact_exponents is None else ():
        while len(w._ahead) < n - 1:
            w._ahead.append(sysmod.flow(system, (w._ahead or [w.point])[-1], w.h))
        runs.append(([w.point] + w._ahead)[len(w._built):n])
    rows = [p for run in runs for p in run] + list(also)
    built = _splittings(system, rows) if rows else []
    for w, run in zip(walks, runs):
        w._built += built[: len(run)]
        del built[: len(run)]
    return built


def default_norm_params(system: System) -> LyapunovNormParams:
    exps = system.exact_exponents
    if exps is None:
        exps = sorted((float(r) for r in system.model.rates), reverse=True)
    gaps = [a - b for a, b in zip(exps, exps[1:]) if a - b > 1e-12]
    eps = min(gaps) / 10.0
    return LyapunovNormParams(epsilon=eps)


def lyapunov_norm(system: System, splitting: Splitting, v: np.ndarray,
                  params: LyapunovNormParams | None = None) -> float:
    """Truncated adapted norm: blockwise exponentially-weighted orbit sums.

    The sums use the cocycle restricted to each block.  With exact blocks a
    single derivative call suffices; measured blocks are re-projected at each
    step, otherwise round-off leakage into the fastest direction would
    dominate the window ends."""
    if params is None:
        params = default_norm_params(system)
    exps = splitting.exponents
    gaps = [a - b for a, b in zip(exps, exps[1:]) if a - b > 1e-12]
    if gaps and not (0.0 < params.epsilon < min(gaps) / 2.0):
        raise InvalidParams("epsilon must sit strictly inside half the minimal gap")
    if params.T_trunc < 1.0:
        raise InvalidParams("T_trunc must be at least 1")
    comps = decompose(splitting, np.asarray(v, dtype=float))
    taus = np.arange(-params.T_trunc, params.T_trunc + 1e-9, params.dtau)
    weights = np.full(taus.shape, params.dtau)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    x = splitting.point
    if system.exact_exponents is not None:
        total = 0.0
        for (lam, _), w in zip(splitting.subspaces, comps):
            if np.linalg.norm(w) == 0.0:
                continue
            acc = 0.0
            for tau, wt in zip(taus, weights):
                D = sysmod.tangent_flow(system, x, float(tau))
                acc += math.exp(
                    -2.0 * lam * tau - 2.0 * params.epsilon * abs(tau)
                ) * float(np.dot(D @ w, D @ w)) * wt
            total += acc
        return math.sqrt(total)
    return _restricted_norm(system, splitting, comps, taus, weights, params)


def _restricted_norm(system, splitting, comps, taus, weights, params):
    """Blockwise sums, each block's component carried unnormalised along one
    forward and one backward walk and re-projected onto its block."""
    dtau = params.dtau
    n_steps = int(round(params.T_trunc / dtau))
    weight_of = {round(float(t) / dtau): w for t, w in zip(taus, weights)}

    def sweep(direction):
        # returns per-block squared sums over tau = direction * (dtau .. T)
        sums = [0.0] * len(comps)
        vs = list(comps)
        walk = _Walk(system, splitting.point, direction * dtau, splitting)
        _fill([walk], n_steps + 1)
        for k in range(1, n_steps + 1):
            D = walk.step()
            tau = direction * k * dtau
            for i, (lam, _) in enumerate(splitting.subspaces):
                if np.linalg.norm(vs[i]) == 0.0:
                    continue
                vs[i] = walk.project(D @ vs[i], [i])
                sums[i] += (
                    math.exp(-2.0 * lam * tau - 2.0 * params.epsilon * abs(tau))
                    * float(np.dot(vs[i], vs[i]))
                    * weight_of[round(tau / dtau)]
                )
        return sums

    total = 0.0
    fwd = sweep(+1)
    bwd = sweep(-1)
    for i, c in enumerate(comps):
        base = float(np.dot(c, c)) * weight_of[0]
        total += base + fwd[i] + bwd[i]
    return math.sqrt(total)


def regular_set_density(system: System, x: Point, T: float, theta_min: float,
                        ds: float = 1.0) -> float:
    """Fraction of sample times whose splitting angle clears theta_min."""
    if T <= 0:
        raise InvalidParams("T must be positive")
    times = np.arange(0.0, T, ds)
    ys = [x.copy()]
    for _ in times[1:]:
        ys.append(sysmod.flow(system, ys[-1], ds))
    good = 0
    for sp in _splittings(system, ys):
        theta = 0.0 if isinstance(sp, IllConditioned) else _read(sp).theta
        if theta >= theta_min:
            good += 1
    return good / len(times)


# ---------------------------------------------------------------------------
# the scalar cocycle on the second expanding line


def _second_block_index(splitting: Splitting) -> int:
    """Index of the second expanding block (the rank-one quotient line)."""
    pos = [i for i, e in enumerate(splitting.exponents) if e > 1e-12]
    if len(pos) < 2:
        raise IllConditioned("system has no second expanding direction")
    return pos[1]


def second_line(splitting: Splitting) -> np.ndarray:
    """Unit frame of the second expanding block (the rank-one quotient line)."""
    B = splitting.block(_second_block_index(splitting))
    return B[:, 0] / np.linalg.norm(B[:, 0])


def cocycle_lambda2(system: System, x: Point, t: float) -> float:
    """log growth over [0, t] of the second-line frame under the cocycle."""
    return _lambda2(system, oseledets_splitting(system, x), t)


def _lambda2(system: System, splitting: Splitting, t: float) -> float:
    """cocycle_lambda2 at the point of a splitting already built there."""
    D = sysmod.tangent_flow(system, splitting.point, float(t))
    return float(np.log(np.linalg.norm(D @ second_line(splitting))))


def transport(system: System, x: Point, t: float, dt: float = 1.0):
    """Cocycle over [0, t] composed stepwise along the reduced orbit.

    On quotient models this keeps the tangent bookkeeping consistent with
    lattice reduction (single-call tangent_flow lives on the cover).
    Returns (matrix, endpoint).
    """
    steps = max(1, int(round(abs(t) / dt)))
    walk = _Walk(system, x, t / steps)
    D = np.eye(system.dim)
    for _ in range(steps):
        D = walk.step() @ D
    return D, walk.point

