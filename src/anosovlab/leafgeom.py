"""Local leaf charts, projections between leaves, dynamical quadrilaterals.

A leaf chart maps leaf parameters to ambient chart coordinates.  For the
linear group models the evaluator is exact group arithmetic (affine in the
polarised Heisenberg coordinates, matrix-entry unipotents for the Lie
groups); the perturbed model builds its curved slow-fiber leaf by iterating
a graph transform on polynomial jets.  The chart also carries a truncated
polynomial with a certified remainder bound, which is what grid-based
consumers (local Hausdorff distance) sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from . import systems as sysmod
from .errors import (
    AnosovLabError,
    DegenerateFit,
    EmptyIntersection,
    InvalidParams,
    NoConvergence,
    NoIntersection,
)
from .systems import Point, System


# ---------------------------------------------------------------------------
# multivariate polynomial with vector coefficients


@dataclass
class PolyMap:
    """Sum of coeff * prod(params**exps) terms mapping R^p -> R^n."""

    param_dim: int
    out_dim: int
    terms: dict  # tuple(exponents) -> ndarray(out_dim)

    def evaluate(self, params):
        params = np.atleast_1d(np.asarray(params, dtype=float))
        out = np.zeros(self.out_dim)
        for exps, vec in self.terms.items():
            mono = 1.0
            for p, e in zip(params, exps):
                if e:
                    mono *= p**e
            out += mono * vec
        return out

    @staticmethod
    def fit(evaluator, param_dim, out_dim, order, radius, n_grid=5):
        """Least-squares polynomial fit of an exact evaluator.

        Full box grid in low parameter dimension, a fixed seeded sample above
        it (evaluator calls dominate the cost there)."""
        exps = [
            e
            for e in itertools.product(range(order + 1), repeat=param_dim)
            if sum(e) <= order
        ]
        pts = _box_points(param_dim, radius, n_grid, 4 * max(len(exps), 32),
                          20240301, max(3 * len(exps), 120))
        A = np.empty((len(pts), len(exps)))
        for j, e in enumerate(exps):
            A[:, j] = np.prod(pts**np.array(e), axis=1)
        Y = np.array([evaluator(p) for p in pts])
        coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
        terms = {tuple(e): coef[j] for j, e in enumerate(exps)}
        return PolyMap(param_dim, out_dim, terms)


@dataclass
class LeafChart:
    """Parameterised local leaf through `base`.

    ``evaluate`` is the authoritative chart map (``evaluator``: the model's
    group arithmetic, its left translation or its graph-transform jets; at
    order 0 the constant polynomial); ``coeffs`` is its polynomial truncation
    at ``order``, from ``fit()`` on its first read, and ``remainder_bound``
    the sup error of that truncation inside ``radius``, certified on its own
    first read.  Both are cached.  One builder, ``_chart``, makes every chart
    of order >= 1.  The projection path reads only ``evaluate``,
    ``jacobian``, ``param_dim`` and ``evaluator_error``, so
    ``stable_projection`` never fits its center-stable chart, on any model,
    nor a perturbed target, and certifies no remainder; ``leaf_chart`` still
    fits exact-evaluator charts when it builds them.
    """

    base: Point
    leaf_kind: str
    order: int
    param_dim: int
    out_dim: int
    radius: float
    fit: object = field(repr=False)
    evaluator: object = field(repr=False)
    #: accuracy of `evaluate` itself: 0 for exact group evaluators, the
    #: polynomial remainder when the polynomial is all there is
    evaluator_error: float = 0.0

    @cached_property
    def coeffs(self) -> PolyMap:
        return self.fit()

    @cached_property
    def remainder_bound(self) -> float:
        return max(_validate_remainder(self.evaluator, self.coeffs, self.radius),
                   self.evaluator_error)

    def evaluate(self, params):
        return self.evaluator(np.atleast_1d(np.asarray(params, dtype=float)))

    def evaluate_poly(self, params):
        return self.coeffs.evaluate(params)

    def jacobian(self, params):
        return _difference_jacobian(self.evaluate, np.atleast_1d(np.asarray(params, dtype=float)))


def _difference_jacobian(f, params, h=1e-6):
    """Central-difference Jacobian of f at params, one column per parameter."""
    cols = []
    for j in range(len(params)):
        dp = params.copy()
        dm = params.copy()
        dp[j] += h
        dm[j] -= h
        cols.append((f(dp) - f(dm)) / (2.0 * h))
    return np.column_stack(cols)


def _box_points(param_dim, radius, n_grid, max_grid, seed, n_sample):
    """Full grid of the parameter box, or a seeded sample of it when the grid
    would pass max_grid points (evaluator calls dominate the cost there)."""
    if n_grid**param_dim <= max_grid:
        axes = [np.linspace(-radius, radius, n_grid)] * param_dim
        return np.array(list(itertools.product(*axes)))
    gen = np.random.Generator(np.random.Philox(seed))
    return radius * (2.0 * gen.random((n_sample, param_dim)) - 1.0)


# ---------------------------------------------------------------------------
# series helpers for the graph transform (one variable, zero constant term)


def _ser_mul(a, b, order):
    """Product of two series with zero constant term (coeffs indexed from power 1).

    Row i adds a[i] * b into the coefficients from power i + 2 on, so every
    output coefficient sums its terms in ascending i, one by one."""
    out = np.zeros(order)
    for i, ai in enumerate(a[: order - 1]):
        if ai != 0.0:
            out[i + 1:] += ai * b[: order - i - 1]
    return out


def _ser_compose(outer, inner, order):
    """outer(inner(s)) for series with zero constant term, coeffs from power 1."""
    result = np.zeros(order)
    current = None
    for k, ck in enumerate(outer, start=1):
        current = inner[:order].copy() if current is None else _ser_mul(current, inner, order)
        if ck != 0.0:
            result += ck * current
    return result


def _ser_invert(a, order):
    """Series inverse of s' = a1 s + a2 s^2 + ... (a1 != 0).

    Row k of `pw` holds b^(k+1).  b_(m+1) makes the s'^(m+1) coefficient of
    a(b(s')) vanish; it reads column m of every power, which above the first
    needs only b_1 .. b_m, so each entry is summed once, with the terms and
    order of _ser_compose over _ser_mul."""
    if abs(a[0]) < 1e-14:
        raise NoConvergence("series not invertible")
    a = [float(v) for v in a]
    pw = [[0.0] * order for _ in a]
    b = pw[0]
    b[0] = 1.0 / a[0]
    for m in range(1, order):
        # b^(k+1) starts at power k+1, so column m of row k sums i = k-1 .. m-1
        for k in range(1, min(m + 1, len(a))):
            prev, acc = pw[k - 1], 0.0
            for i in range(k - 1, m):
                if prev[i] != 0.0:
                    acc += prev[i] * b[m - 1 - i]
            pw[k][m] = acc
        comp = 0.0
        for ak, row in zip(a, pw):
            if ak != 0.0:
                comp += ak * row[m]
        b[m] -= comp / a[0]
    return np.array(b)


# ---------------------------------------------------------------------------
# perturbed slow-fiber graph transform


#: nats of contraction beyond a double's 53 bits before no bit of a jet moves:
#: checked byte for byte against 80 steps, 5 left mismatches and 10 none
JET_MARGIN = 11.0


def _fiber_leaf_series(model, pair_vals, theta, rates, unstable, order, iters=None):
    """Graph-transform jet of the (un)stable curve of a sheared fiber pair.

    The unit-time return map at section height theta scales to the crossing,
    shears, then scales the rest: F = D^theta . S . D^(1-theta) on the pair
    (values in embedding order, diagonal rates `rates`).  The curve through p
    is a graph over the expanding slot (unstable case) or the contracting
    slot (stable case); transverse coefficients from power 1 up to `order`
    are iterated to their fixed point from a zero start `iters` steps back.

    Each step contracts the zero start's influence by exp(-gap), gap the
    pair's rate spread.  After (53 ln 2 + JET_MARGIN) / gap steps it is below
    half an ulp, so each later step rounds as in a longer run and the jet is
    byte-equal to the 80-step one (80 stays the cap).  Coefficient k reads
    only powers up to k: a truncated jet is the lower-order jet.
    """
    eps = model.eps
    Binv = sysmod.RING_BASIS_INV
    B = sysmod.RING_BASIS
    theta = float(theta)
    rates = np.asarray(rates, dtype=float)
    if iters is None:
        iters = min(80, math.ceil((53 * math.log(2.0) + JET_MARGIN) / (rates.max() - rates.min())))

    def scale_vec(z, duration):
        return z * np.exp(rates * duration)

    # the return map (sign +1) or its inverse (sign -1): scale, shear with the
    # sign, scale; `shear` moves a point (the model's) or a jet (shear_jet)
    legs = {+1: (1.0 - theta, theta), -1: (-theta, -(1.0 - theta))}

    def fmap(z, sign, shear):
        first, second = legs[sign]
        return scale_vec(shear(scale_vec(z, first), sign), second)

    sign = +1 if unstable else -1
    expand_slot = int(np.argmax(rates))
    graph_axis = expand_slot if unstable else 1 - expand_slot
    trans_axis = 1 - graph_axis

    # backward orbit of the base point under the section map, kept bounded by
    # reduction with the height-theta lattice D^theta . Lambda (the plain
    # ring lattice would shift the crossing phases)
    def reduce_at_height(z):
        w = Binv @ scale_vec(z, -theta)
        return scale_vec(B @ (w - np.floor(w)), theta)

    orbit = [np.asarray(pair_vals, dtype=float)]
    for _ in range(iters):
        orbit.append(reduce_at_height(fmap(orbit[-1], -sign, model._shear)))

    def shear_jet(z, shear_sign):
        # a jet is its base point (row 0) and its power-k coefficients (row
        # k); shear in lattice coordinates: n1 += sgn * eps * sin(2 pi n2)
        phase = 2.0 * math.pi * (Binv @ z[0])[1]
        n1 = Binv[0, 0] * z[1:, 0] + Binv[0, 1] * z[1:, 1]
        n2 = Binv[1, 0] * z[1:, 0] + Binv[1, 1] * z[1:, 1]
        scaled = 2.0 * math.pi * n2
        series = np.zeros(order)
        pw = None
        for k in range(1, order + 1):
            deriv = math.sin(phase + 0.5 * math.pi * k)  # k-th derivative of sin
            pw = scaled.copy() if pw is None else _ser_mul(pw, scaled, order)
            series += deriv / math.factorial(k) * pw
        n1 = n1 + shear_sign * eps * series
        out = np.empty_like(z)
        out[0] = model._shear(z[0], shear_sign)
        out[1:, 0], out[1:, 1] = B[0, 0] * n1 + B[0, 1] * n2, B[1, 0] * n1 + B[1, 1] * n2
        return out

    def push(h_prev, q):
        """Image jet at fmap(q) of the curve q + graph(h_prev)."""
        z = np.zeros((order + 1, 2))
        z[0], z[1, graph_axis], z[1:, trans_axis] = q, 1.0, h_prev
        z = fmap(z, sign, shear_jet)
        return _ser_compose(z[1:, trans_axis], _ser_invert(z[1:, graph_axis], order), order)

    h = np.zeros(order)
    for k in range(iters, 0, -1):
        h = push(h, orbit[k])
        if not np.all(np.isfinite(h)):
            raise NoConvergence("graph transform diverged")
    return h, graph_axis, trans_axis


# ---------------------------------------------------------------------------
# chart construction


def _orthonormalize_params(evaluator, pdim):
    """Wrap an evaluator so its first-order term is an isometric injection."""
    _, R = np.linalg.qr(_difference_jacobian(evaluator, np.zeros(pdim)))
    sgn = np.sign(np.diag(R))
    sgn[sgn == 0.0] = 1.0
    R = R * sgn[:, None]
    if np.max(np.abs(R - np.eye(pdim))) < 1e-9:
        return evaluator
    Rinv = np.linalg.inv(R)

    def wrapped(params):
        return evaluator(Rinv @ np.atleast_1d(np.asarray(params, dtype=float)))

    return wrapped


def _validate_remainder(evaluator, poly, radius, n=7):
    worst = 0.0
    for p in _box_points(poly.param_dim, radius, n, 400, 20240302, 80):
        worst = max(worst, float(np.linalg.norm(evaluator(p) - poly.evaluate(p))))
    return 0.0 if worst < 1e-13 else worst


def _default_radius(system):
    return 0.25 if system.model.quotiented else 0.2


def _leaf_map(system, base, kind, order):
    """(map, its own error, affine?) of the leaf: the model's exact evaluator,
    the graph-transform jets of its sheared pairs, or its left translation."""
    model = system.model
    if hasattr(model, "leaf_evaluator"):
        return model.leaf_evaluator(base.coords, kind), 0.0, False
    if not model.sheared_pairs:
        def translate(params):
            return sysmod.leaf_translate(system, base, kind, params).coords

        # left translation is affine in polarised/flat coordinates, except
        # along the flow direction of a center-stable leaf
        return translate, 0.0, kind != "CenterStable"

    # product chart: linear fast-pair axes plus one jet curve per sheared pair
    radius = _default_radius(system)
    want_unstable = kind in ("Unstable", "StrongUnstable")
    theta = base.coords[6] - math.floor(base.coords[6])
    idxs = model._kind_indices(kind)

    curves = {}  # graph chart index -> (np.polyval jet coefficients, trans chart index)
    jet_error = 0.0
    if kind != "StrongUnstable":
        grid = np.linspace(-radius, radius, 17)
        jets = vars(model).setdefault("_leaf_jets", {})
        for pair in model.sheared_pairs:
            hit = [i for i in idxs if i in pair]
            if not hit:
                continue
            rates = model.rates[list(pair)]
            vals = base.coords[list(pair)]
            # one jet per input per model, that is per run: a lower order is
            # the truncation of a longer jet, a higher one replaces it
            key = np.hstack([vals, theta, rates, want_unstable]).tobytes()
            hi, g_ax, t_ax = jets.get(key, ((), 0, 0))
            if len(hi) < order + 2:
                jets[key] = hi, g_ax, t_ax = _fiber_leaf_series(
                    model, vals, theta, rates, want_unstable, order + 2)
                hi.flags.writeable = False
            hi = hi[:order + 2]
            curve = np.append(hi[:order][::-1], 0.0)
            diff = np.max(np.abs(
                np.polyval(np.append(hi[::-1], 0.0), grid) - np.polyval(curve, grid)
            ))
            jet_error = max(jet_error, 2.0 * float(diff))
            curves[pair[g_ax]] = (curve, pair[t_ax])

    def evaluator(params):
        params = np.atleast_1d(np.asarray(params, dtype=float))
        out = base.coords.copy()
        if kind == "CenterStable":
            dtheta = params[-1]
            p_main = params[:-1]
        else:
            dtheta = 0.0
            p_main = params
        for val, i in zip(p_main, idxs):
            out[i] += val
            if i in curves:
                curve, j = curves[i]
                out[j] += np.polyval(curve, val)
        if dtheta != 0.0:
            out = model.flow(out, dtheta)
        return out

    return evaluator, jet_error, False


def leaf_chart(system: System, x: Point, kind: str, order: int = 3) -> LeafChart:
    """Local chart of the leaf of `kind` through x."""
    if kind not in sysmod.LEAF_KINDS:
        raise InvalidParams(f"unknown leaf kind {kind!r}")
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise InvalidParams(f"chart order must be a non-negative integer, not {order!r}")
    if order == 0:
        pdim = sysmod.leaf_dimension(system, kind)
        poly = PolyMap(pdim, system.dim, {tuple([0] * pdim): x.coords.copy()})
        radius = _default_radius(system)
        # crude leaf-diameter bound inside the radius
        try:
            probe = sysmod.leaf_translate(system, x, kind, radius * np.ones(pdim) / math.sqrt(pdim))
            rem = float(np.linalg.norm(probe.coords - x.coords))
        except AnosovLabError:
            rem = radius * math.sqrt(pdim)
        return LeafChart(x.copy(), kind, 0, pdim, system.dim, radius,
                         lambda: poly, poly.evaluate, rem)
    chart = _chart(system, x, kind, order)
    if not system.model.sheared_pairs:
        chart.coeffs  # exact-evaluator charts are fitted when built
    return chart


def _chart(system, x, kind, order):
    """Unfitted chart of order >= 1: the fit and the remainder check run on
    the first reads of ``coeffs`` and ``remainder_bound``."""
    base = x.copy()
    evaluator, evaluator_error, affine = _leaf_map(system, base, kind, order)
    pdim = sysmod.leaf_dimension(system, kind)
    evaluator = _orthonormalize_params(evaluator, pdim)
    radius = _default_radius(system)

    def fit():
        if not affine:
            return PolyMap.fit(evaluator, pdim, system.dim, order, radius)
        zero = evaluator(np.zeros(pdim))
        terms = {tuple([0] * pdim): zero}
        for unit, e in zip(np.eye(pdim), np.eye(pdim, dtype=int)):
            terms[tuple(e)] = evaluator(unit) - zero
        return PolyMap(pdim, system.dim, terms)

    return LeafChart(base, kind, order, pdim, system.dim, radius, fit, evaluator,
                     evaluator_error)


# ---------------------------------------------------------------------------
# halfway points and the stable projection


def halfway_points(system: System, q: Point, q_prime: Point, ell: float):
    """Flow both points to the middle of the excursion window."""
    return (
        sysmod.flow(system, q, ell / 2.0, reduce=False),
        sysmod.flow(system, q_prime, ell / 2.0, reduce=False),
    )


def stable_projection(system: System, x: Point, target: LeafChart, tol: float = 1e-10,
                      max_iter: int = 50, return_params: bool = False):
    """Point z on the target unstable chart lying on the center-stable leaf of x.

    Damped Newton with step halving on the coupled chart system."""
    if tol < target.evaluator_error:
        raise NoIntersection(
            f"tolerance {tol:g} finer than chart accuracy {target.evaluator_error:g}"
        )
    cs = _chart(system, x, "CenterStable", max(target.order, 2))
    p_cs = cs.param_dim
    p_u = target.param_dim
    if p_cs + p_u != system.dim:
        raise NoIntersection("chart parameter counts do not span the ambient space")

    def residual(v):
        return cs.evaluate(v[:p_cs]) - target.evaluate(v[p_cs:])

    v = np.zeros(p_cs + p_u)
    # initial guess: linear solve on the first-order system
    J = np.column_stack([cs.jacobian(np.zeros(p_cs)), -target.jacobian(np.zeros(p_u))])
    try:
        v = np.linalg.solve(J, -(cs.evaluate(np.zeros(p_cs)) - target.evaluate(np.zeros(p_u))))
    except np.linalg.LinAlgError:
        v = np.zeros(p_cs + p_u)
    r = residual(v)
    for _ in range(max_iter):
        nr = float(np.linalg.norm(r))
        if nr < tol:
            break
        J = np.column_stack([cs.jacobian(v[:p_cs]), -target.jacobian(v[p_cs:])])
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise NoIntersection("singular Newton system")
        lam = 1.0
        for _ in range(30):
            cand = v + lam * step
            rc = residual(cand)
            if np.linalg.norm(rc) < nr:
                v, r = cand, rc
                break
            lam *= 0.5
        else:
            raise NoIntersection(f"Newton stalled at residual {nr:g} > tol {tol:g}")
    else:
        if float(np.linalg.norm(r)) >= tol:
            raise NoIntersection(f"no convergence within {max_iter} iterations")
    z = Point(target.evaluate(v[p_cs:]))
    if return_params:
        return z, v[p_cs:], v[:p_cs]
    return z


# ---------------------------------------------------------------------------
# local Hausdorff distance


def _chart_cloud(chart, center, omega, mesh):
    """Chart samples inside the ball, gridded over a window matched to it."""
    p0 = np.zeros(chart.param_dim)
    # recenter the parameter window on the chart point nearest the ball center
    J = chart.jacobian(p0)
    sol, *_ = np.linalg.lstsq(J, center - chart.evaluate_poly(p0), rcond=None)
    p0 = np.clip(sol, -chart.radius, chart.radius)
    half = min(chart.radius, 2.0 * omega)
    axes = [np.linspace(c - half, c + half, mesh) for c in p0]
    pts = np.array(
        [chart.evaluate_poly(np.array(p)) for p in itertools.product(*axes)]
    )
    inside = np.linalg.norm(pts - center, axis=1) <= omega
    return pts[inside]


def local_hausdorff(system: System, p: Point, X: LeafChart, Y: LeafChart,
                    omega: float = 0.1, mesh: int = 64, max_refine: int = 3) -> float:
    """Hausdorff distance between the omega-balls of two charts around p."""
    center = p.coords
    prev = None
    for refine in range(max_refine + 1):
        m = mesh * (2**refine)
        cx = _chart_cloud(X, center, omega, m)
        cy = _chart_cloud(Y, center, omega, m)
        if len(cx) == 0 or len(cy) == 0:
            raise EmptyIntersection("a chart misses the ball")
        tx, ty = cKDTree(cx), cKDTree(cy)
        d_xy = float(np.max(ty.query(cx)[0]))
        d_yx = float(np.max(tx.query(cy)[0]))
        val = max(d_xy, d_yx)
        if prev is not None and abs(val - prev) <= 1e-3 * max(val, 1e-300):
            return val
        prev = val
    return prev


# ---------------------------------------------------------------------------
# dynamical quadrilaterals and the non-integrability exponent

SCALE_WINDOW = (0.5, 2.0)


@dataclass
class Quadrilateral:
    x: Point
    x_prime: Point
    u_x: Point
    proj: Point
    p_uu: np.ndarray
    p_u: np.ndarray
    dist_xx: float
    dist_xux: float
    ratio: float
    in_window: bool
    leaf_params: np.ndarray


def build_quadrilateral(system: System, x: Point, s_disp, u_disp,
                        tol: float = 1e-11) -> Quadrilateral:
    """Four points of the leaf configuration plus the projection split."""
    s_disp = np.atleast_1d(np.asarray(s_disp, dtype=float))
    u_disp = np.atleast_1d(np.asarray(u_disp, dtype=float))
    x_prime = sysmod.stable_translate(system, x, s_disp)
    u_x = sysmod.strong_unstable_translate(system, x, u_disp)
    model = system.model
    if hasattr(model, "cs_u_factorize"):
        params, _ = model.cs_u_factorize(u_x.coords, x_prime.coords)
        proj = sysmod.unstable_translate(system, x_prime, params)
    else:
        target = leaf_chart(system, x_prime, "Unstable", order=3)
        proj, params, _ = stable_projection(system, u_x, target, tol=tol, return_params=True)
    rates = model.leaf_rates("Unstable")
    mask = rates == rates.max()  # the fast block
    p_uu = np.where(mask, params, 0.0)
    p_u = np.where(mask, 0.0, params)
    d_xx = sysmod.dist(system, x, x_prime)
    d_xux = sysmod.dist(system, x, u_x)
    ratio = d_xux / d_xx if d_xx > 0 else math.inf
    in_window = SCALE_WINDOW[0] < ratio < SCALE_WINDOW[1]
    return Quadrilateral(
        x=x.copy(),
        x_prime=x_prime,
        u_x=u_x,
        proj=proj,
        p_uu=p_uu,
        p_u=p_u,
        dist_xx=d_xx,
        dist_xux=d_xux,
        ratio=ratio,
        in_window=in_window,
        leaf_params=params,
    )


@dataclass
class QniEstimate:
    alpha_hat: float
    C_hat: float
    r2: float
    scale_range: tuple
    quads: list


@dataclass(frozen=True)
class QniDirections:
    """Unit stable direction, unit fast-unstable direction, fixed fast scale."""

    s_dir: tuple
    u_dir: tuple
    u_scale: float = 0.01


def qni_exponent(system: System, x: Point, directions: QniDirections,
                 scales) -> QniEstimate:
    """Fit log ||p_u|| against log dist(x, x') over a geometric scale grid.

    The fast-unstable displacement is held fixed at directions.u_scale while
    the stable displacement runs over the scales, so a bilinear transverse
    component shows slope one.
    """
    scales = np.asarray(list(scales), dtype=float)
    if len(scales) < 6:
        raise InvalidParams("need at least 6 scales")
    logs = np.log(scales)
    if logs.max() - logs.min() < 2.0 * math.log(10.0) - 1e-9:
        raise DegenerateFit("scale grid spans fewer than 2 decades")
    if np.std(logs) < 1e-12:
        raise DegenerateFit("scales all equal: rank-deficient regression")
    s_dir = np.asarray(directions.s_dir, dtype=float)
    u_dir = np.asarray(directions.u_dir, dtype=float)
    for kind, v in (("Stable", s_dir), ("StrongUnstable", u_dir)):
        n = sysmod.leaf_dimension(system, kind)
        if v.shape != (n,):
            raise InvalidParams(f"the {kind} direction has {v.size} entries; its leaf has {n}")
    quads = []
    dists = []
    pnorms = []
    for d in scales:
        quad = build_quadrilateral(system, x, d * s_dir, directions.u_scale * u_dir)
        quads.append(quad)
        dists.append(quad.dist_xx)
        pnorms.append(float(np.linalg.norm(quad.p_u)))
    pnorms = np.array(pnorms)
    if np.all(pnorms < 1e-14):
        raise DegenerateFit("transverse component vanishes along these directions")
    ld = np.log(np.array(dists))
    lp = np.log(np.maximum(pnorms, 1e-300))
    A = np.column_stack([ld, np.ones_like(ld)])
    coef, res, *_ = np.linalg.lstsq(A, lp, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((lp - pred) ** 2))
    ss_tot = float(np.sum((lp - lp.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return QniEstimate(
        alpha_hat=float(coef[0]),
        C_hat=float(math.exp(coef[1])),
        r2=r2,
        scale_range=(float(np.min(dists)), float(np.max(dists))),
        quads=quads,
    )
