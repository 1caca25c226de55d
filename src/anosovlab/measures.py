"""Empirical leafwise measures, Wasserstein distance, equidistribution
and correlation diagnostics on the quotiented models.

Test functions live on the suspension quotient through the section chart
(the fiber coordinate pulled back to the roof-zero section), so they are
genuinely deck-invariant.  Equidistribution tests carry a roof bump that
makes them continuous across the gluing; the leafwise tests used for the
correlation law drop the bump so each one is a single frequency along the
fast leaf, which is what makes exact pair integrals possible.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import systems as sysmod
from .errors import EmptyBox, InvalidParams, NonFinite, Unsupported
from .systems import Point, System


# ---------------------------------------------------------------------------
# empirical measures and the 1-d Wasserstein distance


@dataclass
class EmpiricalMeasure:
    """Weighted samples on a leaf parameter; positions sorted ascending."""

    samples: list  # [(position, weight)]
    total: float

    @staticmethod
    def from_arrays(positions, weights):
        positions = np.asarray(positions, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise InvalidParams("weights must be nonnegative")
        total = float(weights.sum())
        if total <= 0:
            raise InvalidParams("total weight must be positive")
        order = np.argsort(positions)
        return EmpiricalMeasure(
            samples=[(float(p), float(w)) for p, w in zip(positions[order], weights[order])],
            total=total,
        )

    @property
    def positions(self):
        return np.array([p for p, _ in self.samples])

    @property
    def weights(self):
        return np.array([w for _, w in self.samples])

    @property
    def support(self):
        ps = self.positions
        return float(ps.min()), float(ps.max())


def wasserstein_1d(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """L1 distance between normalised cumulative functions (exact in 1-d)."""
    p1, w1 = mu1.positions, mu1.weights / mu1.total
    p2, w2 = mu2.positions, mu2.weights / mu2.total
    grid = np.concatenate([p1, p2])
    order = np.argsort(grid, kind="mergesort")
    grid = grid[order]
    deltas = np.diff(grid)
    cdf1 = np.cumsum(np.concatenate([w1, np.zeros_like(w2)])[order])
    cdf2 = np.cumsum(np.concatenate([np.zeros_like(w1), w2])[order])
    return float(np.sum(np.abs(cdf1[:-1] - cdf2[:-1]) * deltas))


def _toral(system):
    """Does the model return to its section by a toral automorphism?"""
    return hasattr(system.model, "section_map")


def _section_samples(model, c, times):
    """The toral orbit of c at the given times, in section coordinates.

    The section point after n roof crossings is the orbit of the section
    point of c under u -> A u mod Z^2.  Returns the section points and roof
    heights at the times, and the roof height theta0 of c.

    The orbit steps in Python floats: each row of A u is two products and
    one sum, and ``% 1.0`` is exactly ``x - floor(x)``.  For integer entries
    that are 0 or a signed power of two (the default cat map) the products
    are exact, so the rows are those of a numpy ``A @ u`` loop bit for bit."""
    red = model.reduce(c)
    theta0 = red[2]
    a, b = (float(v) for v in model.power(-theta0) @ red[:2])
    p, q, r, s = (float(v) for v in model.section_map.ravel())
    rows = array("d", (a % 1.0, b % 1.0))
    for _ in range(int(math.floor(theta0 + times[-1])) + 1):
        a, b = (p * a + q * b) % 1.0, (r * a + s * b) % 1.0
        rows.append(a)
        rows.append(b)
    U = np.frombuffer(rows).reshape(-1, 2)
    tt = theta0 + times
    n_k = np.floor(tt).astype(int)
    return U[n_k], tt - n_k, theta0


def _orbit_sample_coords(system, x, times):
    """Reduced orbit samples at the given times."""
    pts = np.empty((len(times), system.dim))
    y = x.copy()
    prev = 0.0
    for i, t in enumerate(times):
        y = sysmod.flow(system, y, t - prev)
        prev = t
        pts[i] = y.coords
    return pts


def _cat_folded_displacements(model, base, x, times):
    """Chart displacements from base of the deck representative nearest it.

    Working in section coordinates keeps the conditioning cell seam-free."""
    sections, th_k, _ = _section_samples(model, x.coords, times)
    theta_b = base[2]
    w_b = model.power(-theta_b) @ base[:2]
    dw = sections - w_b
    dw -= np.round(dw)
    dth = th_k - theta_b
    dth -= np.round(dth)
    theta_near = theta_b + dth
    # v-coordinates of the folded representative at its own height
    W = model._Vinv @ (w_b[:, None] + dw.T)
    W = W * model._evals[:2, None] ** theta_near[None, :]
    v_near = (model._V @ W).T
    rel = np.empty((len(times), 3))
    rel[:, :2] = v_near - base[:2]
    rel[:, 2] = dth
    return rel


def empirical_leaf_measure(system: System, x: Point, n_samples: int, window,
                           seed: int = 0, T_orbit: float | None = None,
                           dt: float = 0.4, box_level: int = 1,
                           bins: int = 6) -> EmpiricalMeasure:
    """Uniform positions on the leaf window, weights from box conditioning.

    A long orbit is histogrammed inside a cell that is a product of the leaf
    window with a dyadic transverse box (equal slab volumes along the
    parameter); the visit profile reweights the uniform draw."""
    if not system.model.quotiented:
        raise Unsupported("leaf measures need a quotiented model")
    lo, hi = (float(window[0]), float(window[1]))
    if hi < lo:
        raise InvalidParams("window must be ordered")
    gen = rngmod.derive(seed, "leaf_measure")
    if hi == lo:
        return EmpiricalMeasure(samples=[(lo, 1.0)], total=1.0)
    positions = np.sort(gen.uniform(lo, hi, size=n_samples))

    if T_orbit is None:
        T_orbit = 1.0e6 if _toral(system) else 1.0e5
    e_leaf = system.model.leaf_dirs("StrongUnstable")[:, 0]
    base = sysmod.lattice_reduce(system, x).coords
    side = 2.0 ** (-box_level)

    times = np.arange(dt, T_orbit, dt)
    if _toral(system):
        rel = _cat_folded_displacements(system.model, base, x, times)
    else:
        pts = _orbit_sample_coords(system, x, times)
        rel = pts - base
    params = rel @ e_leaf
    trans = rel - np.outer(params, e_leaf)
    inside = (params >= lo) & (params < hi) & (np.max(np.abs(trans), axis=1) <= 0.5 * side)
    frac = (params[inside] - lo) / (hi - lo)
    idx = np.minimum((frac * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(float)
    if counts.sum() == 0:
        raise EmptyBox("orbit never visited the conditioning box")
    density = counts / counts.mean()
    idx = np.minimum(((positions - lo) / (hi - lo) * bins).astype(int), bins - 1)
    weights = density[idx]
    return EmpiricalMeasure.from_arrays(positions, weights)


# ---------------------------------------------------------------------------
# invariant test functions


@dataclass(frozen=True)
class TestFunction:
    name: str
    lip: float
    reference: float  # closed-form invariant (Haar) integral
    freq: tuple | None  # pair-frequency data for exact leaf integrals
    bump: bool

    def __call__(self, system, point: Point) -> float:
        return float(_eval_test_rows(system, self, point.coords[None])[0])


def _section_coords(system, c):
    """Fiber coordinates pulled back to the roof-zero section, plus theta,
    for every row of an (N, dim) batch."""
    c = system.model.reduce(c)
    return system.model.section_coords(c), c[:, system.model.theta_index]


def equidistribution_tests(system: System):
    """Five bump-weighted trigonometric tests plus the constant."""
    if not system.model.quotiented:
        raise Unsupported("equidistribution tests need a quotiented model")
    tests = [TestFunction("const", 1.0, 1.0, None, False)]
    for i, k in enumerate(system.model.equidistribution_freqs):
        tests.append(
            TestFunction(f"sin{i}_{'_'.join(str(a) for a in k)}", 1.0, 0.0,
                         ("sin", tuple(k), 0.0), True)
        )
    return tests


def leafwise_test(system: System, normalised: bool = True) -> TestFunction:
    """Single-frequency test for the correlation law; Lipschitz-normalised."""
    if not system.model.quotiented:
        raise Unsupported("leafwise tests need a quotiented model")
    k = system.model.equidistribution_freqs[0]
    lip = 2.0 * math.pi if normalised else 1.0
    return TestFunction("leafwise_sin", lip, 0.0, ("sin", k, 0.0), False)


# ---------------------------------------------------------------------------
# Birkhoff equidistribution


@dataclass
class EquidistributionReport:
    test_values: list  # [(name, birkhoff average, reference integral)]
    discrepancy_curve: list  # [(T', sup discrepancy)]
    T_final: float


def _eval_tests_batch(tests, sections, thetas):
    cols = []
    bump = 0.5 * (1.0 - np.cos(2.0 * math.pi * thetas))
    for tf in tests:
        if tf.name == "const":
            cols.append(np.ones(len(thetas)))
            continue
        _, k, phase = tf.freq
        vals = np.sin(2.0 * math.pi * (sections @ np.asarray(k, dtype=float)) + phase)
        if tf.bump:
            vals = vals * bump
        cols.append(vals / tf.lip if tf.lip != 1.0 else vals)
    return np.column_stack(cols)


def _eval_test_rows(system, tf, c):
    return _eval_tests_batch([tf], *_section_coords(system, c))[:, 0]


def _step_count(T, dt):
    """Number of dt steps in a run of length T; at least one."""
    if not dt > 0:
        raise InvalidParams(f"time step must be positive, got dt = {dt}")
    if not math.isfinite(T / dt):
        raise NonFinite("run length is not finite")
    steps = int(round(T / dt))
    if steps < 1:
        raise InvalidParams(f"T = {T} holds no time step of dt = {dt}")
    return steps


def birkhoff_equidistribution(system: System, x: Point, tests, T: float,
                              dt: float = 0.5, reference: str = "haar") -> EquidistributionReport:
    """Time averages along the orbit of x against the invariant integrals."""
    if not system.model.quotiented:
        raise Unsupported("equidistribution diagnostics need a quotiented model")
    if reference != "haar":
        raise InvalidParams(f"unknown reference measure {reference!r}")
    steps = _step_count(T, dt)
    times = np.arange(1, steps + 1) * dt
    refs = np.array([tf.reference for tf in tests])
    if _toral(system):
        sections, thetas, _ = _section_samples(system.model, x.coords, times)
    else:
        y = sysmod.lattice_reduce(system, x)
        orbit = np.empty((steps, system.dim))
        for n in range(steps):
            y = sysmod.flow(system, y, dt)
            orbit[n] = y.coords
        sections, thetas = _section_coords(system, orbit)
    cums = np.cumsum(_eval_tests_batch(tests, sections, thetas), axis=0)
    checkpoints = sorted({int(round(steps * k / 10.0)) for k in range(1, 11)} - {0})
    curve = [(n * dt, float(np.max(np.abs(cums[n - 1] / n - refs)))) for n in checkpoints]
    avgs = cums[-1] / steps
    return EquidistributionReport(
        test_values=[(tf.name, float(a), tf.reference) for tf, a in zip(tests, avgs)],
        discrepancy_curve=curve,
        T_final=float(T),
    )


# ---------------------------------------------------------------------------
# fast-leaf correlation law


def _leaf_frequency_data(system, tf, x, t):
    """Phase K and frequency w of  u -> phi(g_t h_u x)  along the fast leaf.

    phi(g_t h_u x) = sin(2 pi (K + w u)) for the single-frequency leafwise
    tests; exact on the toral suspension (phases iterated with reduction so
    they stay bounded)."""
    if not _toral(system):
        raise Unsupported("exact leaf frequencies implemented for CatSuspension")
    model = system.model
    sections, _, theta = _section_samples(model, x.coords, np.array([float(t)]))
    n = math.floor(theta + t)
    _, k, phase = tf.freq
    k = np.asarray(k, dtype=float)
    e_sec = model.power(-theta) @ model._V[:, 0]
    w = float(k @ (np.linalg.matrix_power(model.section_map, n) @ e_sec))
    K = float(k @ sections[0]) + phase / (2.0 * math.pi)
    return K, w


def _pair_integral(a, al, b, be):
    """Exact integral of cos(a u + al) cos(b u + be) over [0, 1]."""

    def I(k, m):
        if abs(k) < 1e-12:
            return math.cos(m)
        return (math.sin(k + m) - math.sin(m)) / k

    return 0.5 * (I(a - b, al - be) + I(a + b, al + be))


def _f_amp_phase(system, tf, x, t):
    """f_t(u) = A cos(2 pi w u + psi) for a single-frequency test."""
    model = system.model
    K, w = _leaf_frequency_data(system, tf, x, t)
    lam1 = model.rate_top
    alpha = math.exp(-lam1 * t)
    delta = w * alpha
    A = -2.0 * math.sin(math.pi * delta) / tf.lip
    psi = 2.0 * math.pi * K + math.pi * delta
    return A, 2.0 * math.pi * w, psi


def correlation_decay(system: System, x: Point, phi: TestFunction, t: float,
                      s: float, n_u: int = 4096, seed: int = 0,
                      method: str = "auto"):
    """Estimate of the pair integral of f_t f_s over the unit fast-leaf window.

    f_t(u) compares the test along the leaf against its self-similar
    translate by exp(-lambda_1 t).  Monte Carlo by default; `exact` uses the
    closed-form single-frequency integral on CatSuspension.

    Returns (estimate, standard error)."""
    if method not in ("auto", "exact", "mc"):
        raise InvalidParams(f"unknown correlation method {method!r}: use auto, exact or mc")
    if not system.model.quotiented:
        raise Unsupported("correlation diagnostics need a quotiented model")
    if not (math.isfinite(t) and math.isfinite(s)):
        raise NonFinite("correlation times are not finite")
    if method == "auto":
        method = "exact" if (_toral(system) and phi.freq is not None
                             and not phi.bump) else "mc"
    if method == "exact":
        At, wt, pt = _f_amp_phase(system, phi, x, t)
        As, ws, ps = _f_amp_phase(system, phi, x, s)
        val = At * As * _pair_integral(wt, pt, ws, ps)
        return float(val), 0.0
    if n_u < 2:
        raise InvalidParams(f"a Monte Carlo estimate needs n_u >= 2 samples, got {n_u}")
    gen = rngmod.derive(seed, "correlation", int(round(1000 * t)), int(round(1000 * s)))
    us = gen.uniform(0.0, 1.0, size=n_u)
    f_t, f_s = _f_eval_times(system, phi, x, sorted((t, s)), us)
    vals = f_t * f_s
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_u))


def _leaf_starts(system, x, us):
    """Reduced leaf points h_u x, one row per leaf parameter u."""
    c = np.broadcast_to(x.coords, (len(us), system.dim))
    return sysmod.reduce_rows(system, sysmod.unstable_shift_rows(system, c, us))


def _leaf_differences(system, phi, y):
    """phi(y) - phi(h_1 y) for every row y of a reduced batch."""
    shifted = sysmod.unstable_shift_rows(system, y, 1.0)
    return _eval_test_rows(system, phi, y) - _eval_test_rows(system, phi, shifted)


def _f_eval_times(system, phi, x, times, us):
    """f_t(u) at the requested (sorted) times, for every leaf parameter u.

    The translate comparison collapses to a unit fast-leaf shift of the same
    orbit point, so a single reduced orbit per u suffices; all u step
    together."""
    y = _leaf_starts(system, x, us)
    out = []
    t_cur = 0.0
    for t in times:
        if t > t_cur:
            y = sysmod.flow_rows(system, y, t - t_cur)
            t_cur = t
        out.append(_leaf_differences(system, phi, y))
    return out


def lln_average(system: System, x: Point, phi: TestFunction, T: float,
                n_u: int = 64, dt: float = 0.5, seed: int = 0) -> float:
    """95th percentile over the leaf parameter of |time average of f_t|."""
    if not system.model.quotiented:
        raise Unsupported("correlation diagnostics need a quotiented model")
    steps = _step_count(T, dt)
    if n_u < 1:
        raise InvalidParams(f"lln_average needs n_u >= 1 leaf samples, got {n_u}")
    gen = rngmod.derive(seed, "lln")
    y = _leaf_starts(system, x, gen.uniform(0.0, 1.0, size=n_u))
    acc = np.zeros(n_u)
    for _ in range(steps):
        acc += _leaf_differences(system, phi, y)
        y = sysmod.flow_rows(system, y, dt)
    return float(np.quantile(np.abs(acc / steps), 0.95))
