"""Catalog of explicit hyperbolic model systems.

Five models, all with an evaluable flow, exact derivative cocycle, flat
Euclidean chart metric, and (where a lattice exists) closed-form reduction:

``CatSuspension``
    Constant-roof suspension of a hyperbolic toral automorphism (default
    ``[[2, 1], [1, 1]]``).  Quotiented; the roof direction carries exponent 0.
``BorelSmale``
    Suspension of a diagonal automorphism of a product of two Heisenberg
    groups.  The automorphism multiplies the ring coordinates of Q(sqrt 5) by
    powers of the quadratic unit ``lam``; the ring lattice realises the
    quotient, so reduction uses the (polarised) Heisenberg group law.
``BorelSmalePerturbed``
    Abelianised toral variant of the above with a small shear on the
    slow-fiber torus, applied at roof crossings.  No exact exponents are
    declared; everything about it is measured.
``ASL2Model``
    ASL(2, R) = SL(2, R) x| R^2 with the diagonal flow, chart-local (no
    lattice configured).
``SL3Model``
    SL(3, R) with a split Cartan flow, chart-local.

Chart conventions
-----------------
Linear models act diagonally on a fixed global chart whose axes are weight
vectors; the chart metric is flat Euclidean.  Chart-local models store a
point as Lie-algebra coordinates relative to the identity plus a flow clock,
so the derivative cocycle is the diagonal weight action there as well; a
group element's coordinates come back through one real matrix log.
Leaves are orbits of the corresponding (uni potent) subgroups acting on the
left; leaf parameters are matrix entries of the unipotent factor (for matrix
groups) or polarised group coordinates (for the Heisenberg pair).

Declarations
------------
``MODELS`` lists each kind once, with its class and its parameter defaults;
``make_system`` and the config schema both read it.  The four axis models
declare one growth rate per chart axis, and ``_AxisLeaves._declare`` derives
the rest from it: the blocks, the split, the top, second and slow-stable
rates, the exact exponents and the one leaf table (with, on the matrix
groups, the matrix entry of each unipotent leaf parameter).  The cat map's
blocks are eigenvectors, so it keeps its own block and leaf tables.

Rows
----
Every model's ``flow`` and ``dflow``, and the quotiented models' ``reduce``
and ``unstable_shift``, take a point or an (N, dim) batch, with one time (or
shift) for all rows or one per row; every row is bit-identical to the call on
that row alone.  ``flow_rows``, ``tangent_flow_rows``, ``reduce_rows`` and
``unstable_shift_rows`` are their checked forms.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidParams, NonFinite, Unsupported

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0
PHI_BAR = (1.0 - SQRT5) / 2.0
#: Default base unit for the Heisenberg-pair automorphism: (3+sqrt5)/2 = phi^2,
#: the fundamental totally positive unit of Z[phi].
LAMBDA_UNIT = (3.0 + SQRT5) / 2.0

#: Ring lattice of Z[phi] under the two real embeddings, as column basis.
RING_BASIS = np.array([[1.0, PHI], [1.0, PHI_BAR]])
RING_BASIS_INV = np.linalg.inv(RING_BASIS)

LEAF_KINDS = ("Stable", "Unstable", "StrongUnstable", "CenterStable")


@dataclass(frozen=True)
class SystemSpec:
    """Kind tag plus kind-specific parameters."""

    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class Point:
    """A phase-space point in the model's fixed global chart."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if not np.all(np.isfinite(self.coords)):
            raise NonFinite("point has non-finite coordinates")

    def copy(self) -> "Point":
        return Point(self.coords.copy())


@dataclass(frozen=True)
class Block:
    """One spectral block: growth rate and an orthonormal chart basis."""

    rate: float
    basis: np.ndarray  # (dim, k), columns orthonormal


@dataclass
class System:
    """An instantiated model.

    ``flow_dim_split`` lists the (stable, neutral, unstable, strong-unstable)
    block dimensions; ``exact_exponents`` is sorted descending when present.
    """

    kind: str
    dim: int
    flow_dim_split: tuple
    exact_exponents: list | None
    spec: SystemSpec
    model: object


# ---------------------------------------------------------------------------
# small helpers


def _frac(x):
    """x mod 1 in [0, 1): x - floor(x) alone rounds to 1.0 on [-2**-54, 0)."""
    return np.minimum(x - np.floor(x), 1.0 - 2.0**-53)


def matvec(P, v):
    """P @ v for a (2, 2) P or a materialised (N, 2, 2) stack of them.

    np.matmul calls BLAS gemv per row, as the plain P @ v does, so each row
    is bit-identical to it; (N, 2) @ P.T and einsum are not, and the cat map
    grows a last-bit difference to order one within about 40 time units."""
    return np.matmul(P, v[..., None])[..., 0]


def _leaf_entry(table, kind):
    """A model's per-leaf-kind table entry; the one check of the leaf kind."""
    if kind not in table:
        raise InvalidParams(f"unknown leaf kind {kind!r}")
    return table[kind]


def _axis(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def _ring_stacks(shape):
    """RING_BASIS and its inverse as materialised stacks, for `matvec`."""
    out = np.empty((2,) + shape + (2, 2))
    out[0], out[1] = RING_BASIS, RING_BASIS_INV
    return out


def ring_reduce(pair: np.ndarray) -> tuple:
    """Reduce a 2-vector, or each of (..., 2) pairs, modulo the Z[phi] ring
    lattice.

    Returns (reduced pairs, lattice pairs removed)."""
    P, P_inv = _ring_stacks(np.shape(pair)[:-1])
    n = matvec(P_inv, pair)
    n_int = np.floor(n)
    return matvec(P, n - n_int), matvec(P, n_int)


# ---------------------------------------------------------------------------
# plain Heisenberg utilities (polarised coordinates, integer lattice)


def heisenberg_mult(l, r):
    """Polarised Heisenberg group law: z picks up l_x * r_y."""
    lx, ly, lz = l
    rx, ry, rz = r
    return np.array([lx + rx, ly + ry, lz + rz + lx * ry])


def heisenberg_inverse(g):
    x, y, z = g
    return np.array([-x, -y, -z + x * y])


def heisenberg_reduce(coords) -> np.ndarray:
    """Canonical representative of a point of H(R)/H(Z), entries in [0, 1).

    Right-multiplies by integer-lattice elements: first the x generator, then
    y (which shifts z by x*eta through the group law), then the centre.
    """
    x, y, z = (float(c) for c in coords)
    x_red = x - math.floor(x)
    y_shift = -math.floor(y)
    y_red = y + y_shift
    z = z + x_red * y_shift
    z_red = z - math.floor(z)
    return np.array([x_red, y_red, z_red])


# ---------------------------------------------------------------------------
# CatSuspension


class _CatSuspension:
    kind = "CatSuspension"
    quotiented = True
    chart_bound = 1e12
    qni_order = None
    sheared_pairs = ()
    equidistribution_freqs = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))

    def __init__(self, matrix):
        try:
            A = np.asarray(matrix, dtype=float)
        except OverflowError:  # an integer entry beyond the float range
            raise InvalidParams("cat map matrix entries must be finite") from None
        if A.shape != (2, 2) or not np.all(np.isfinite(A)) or not np.allclose(A, np.round(A)):
            raise InvalidParams("cat map matrix must be 2x2 integer")
        if not abs(np.linalg.det(A) - 1) < 0.5:  # rounds to 1; a non-finite one does not
            raise InvalidParams("cat map matrix must have determinant 1")
        if np.trace(A) <= 2:
            raise InvalidParams("cat map matrix must be hyperbolic with positive spectrum")
        self.section_map = A  # the toral automorphism the roof returns by
        evals, evecs = np.linalg.eig(A)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        self.mu = float(evals[0])
        self.log_mu = math.log(self.mu)
        self._evals = evals
        self._V = evecs / np.linalg.norm(evecs, axis=0)
        self._Vinv = np.linalg.inv(self._V)
        self.dim = 3
        self.theta_index = 2
        e_plus = np.concatenate([self._V[:, 0], [0.0]])
        e_minus = np.concatenate([self._V[:, 1], [0.0]])
        e_theta = _axis(3, 2)
        self.blocks = [
            Block(self.log_mu, e_plus.reshape(3, 1)),
            Block(0.0, e_theta.reshape(3, 1)),
            Block(-self.log_mu, e_minus.reshape(3, 1)),
        ]
        self.split = (1, 1, 1, 1)
        self.exact_exponents = [self.log_mu, 0.0, -self.log_mu]
        self.rate_top = self.log_mu
        self.rate_second = None
        self.rate_slow_stable = self.log_mu

    def power(self, t):
        """A^t: (2, 2) for a scalar t, (N, 2, 2) for an (N,) array of times."""
        scale = self._evals ** np.asarray(t, dtype=float)[..., None]
        return (self._V * scale[..., None, :]) @ self._Vinv

    def flow(self, c, t):
        t = np.broadcast_to(t, c.shape[:-1])
        out = c.copy()
        out[..., :2] = matvec(self.power(t), c[..., :2])
        out[..., 2] += t
        return out

    def dflow(self, c, t):
        D = np.zeros(c.shape[:-1] + (3, 3))
        D[..., :2, :2] = self.power(np.broadcast_to(t, c.shape[:-1]))
        D[..., 2, 2] = 1.0
        return D

    def reduce(self, c):
        theta = _frac(c[..., 2])
        # lattice at height theta is A^theta . Z^2
        w = matvec(self.power(-theta), c[..., :2])
        w = w - np.floor(w)
        out = np.empty(c.shape)
        out[..., :2] = matvec(self.power(theta), w)
        out[..., 2] = theta
        return out

    def section_coords(self, c):
        """Fiber coordinates pulled back to the roof-zero section, per row of
        a reduced (N, 3) batch."""
        return matvec(self.power(-c[:, 2]), c[:, :2])

    # leaves: one spectral block per leaf parameter -----------------------
    _LEAF_BLOCKS = {"Unstable": (0,), "StrongUnstable": (0,), "Stable": (2,), "CenterStable": (2, 1)}

    def _leaf_blocks(self, kind):
        return [self.blocks[i] for i in _leaf_entry(self._LEAF_BLOCKS, kind)]

    def leaf_dirs(self, kind):
        return np.column_stack([b.basis for b in self._leaf_blocks(kind)])

    def leaf_rates(self, kind):
        """Growth rate of each leaf parameter, in leaf-parameter order."""
        return np.array([b.rate for b in self._leaf_blocks(kind)])

    def leaf_translate(self, c, kind, params):
        params = np.atleast_1d(np.asarray(params, dtype=float))
        return c + self.leaf_dirs(kind) @ params

    def cs_u_factorize(self, x, xp):
        """Solve w, (c, dtheta) with  xp + w e+ = c e- + g_dtheta(x)."""
        dtheta = xp[2] - x[2]
        rhs = (self.power(dtheta) @ x[:2]) - xp[:2]
        M = np.column_stack([self._V[:, 0], -self._V[:, 1]])
        sol = np.linalg.solve(M, rhs)
        w = sol[:1]
        cs = np.array([sol[1], dtheta])
        return w, cs

    def unstable_shift(self, c, u):
        out = c.copy()
        out[..., :2] = c[..., :2] + np.asarray(u, dtype=float)[..., None] * self._V[:, 0]
        return out


# ---------------------------------------------------------------------------
# Heisenberg-pair suspension (and its abelianised perturbed variant)

# chart coordinate order: x1 x2 y1 y2 z1 z2 theta
_X1, _X2, _Y1, _Y2, _Z1, _Z2, _TH = range(7)
_X, _Y, _Z = [_X1, _X2], [_Y1, _Y2], [_Z1, _Z2]


def _pair_mult(l, r):
    """Product in N x N, polarised coordinates (`heisenberg_mult` on each
    copy), on 6-vectors or (..., 6) rows."""
    out = l + r
    out[..., _Z] += l[..., _X] * r[..., _Y]
    return out


def _pair_inverse(g):
    out = -g
    out[..., _Z] += g[..., _X] * g[..., _Y]
    return out


class _AxisLeaves:
    """Models whose chart axes are weight vectors: the diagonal weight flow
    with its clock at `theta_index`, and leaves whose parameters each move one
    chart axis.  `_declare` derives the spectrum and the leaf table from one
    growth rate per axis."""

    sheared_pairs = ()

    def _declare(self, rates, theta_index):
        """One block per distinct rate, descending, its axes in reversed
        stable np.argsort order (descending index inside a tie, on every host:
        the default sort is unstable and picks its kernel by CPU); the
        strong-unstable, unstable and stable leaves move the fiber axes at the
        top, positive and negative rates, in index order;
        the center-stable leaf moves the stable axes, the clock, then the other
        zero-rate axes."""
        self.rates = rates = np.asarray(rates, dtype=float)
        self.dim, self.theta_index = len(rates), theta_index
        groups = {}
        for i in np.argsort(rates, kind="stable")[::-1]:
            groups.setdefault(rates[i], []).append(i)
        self.blocks = [Block(r, np.column_stack([_axis(self.dim, i) for i in axes]))
                       for r, axes in groups.items()]
        fiber = [i for i in range(self.dim) if i != theta_index]
        stable, neutral, unstable = ([i for i in fiber if np.sign(rates[i]) == sign]
                                     for sign in (-1, 0, 1))
        up = sorted(set(rates[unstable]), reverse=True)
        self.rate_top, self.rate_second = up[0], (up[1] if len(up) > 1 else None)
        self.rate_slow_stable = -max(rates[stable])
        self._leaves = {
            "StrongUnstable": [i for i in unstable if rates[i] == up[0]],
            "Unstable": unstable,
            "Stable": stable,
            "CenterStable": stable + [theta_index] + neutral,
        }
        self.split = (len(stable), 1 + len(neutral), len(unstable),
                      len(self._leaves["StrongUnstable"]))

    @property
    def exact_exponents(self):
        return sorted((float(r) for r in self.rates), reverse=True)

    def _kind_indices(self, kind):
        """The chart axis each leaf parameter moves, in leaf-parameter order."""
        return _leaf_entry(self._leaves, kind)

    def flow(self, c, t):
        out = c * np.exp(np.multiply.outer(t, self.rates))
        out[..., self.theta_index] = c[..., self.theta_index] + t
        return out

    def dflow(self, c, t):
        D = np.zeros(c.shape + c.shape[-1:])
        axes = np.arange(self.dim)
        D[..., axes, axes] = np.exp(np.multiply.outer(t, self.rates))
        D[..., self.theta_index, self.theta_index] = 1.0
        return D

    def leaf_dirs(self, kind):
        return np.column_stack([_axis(self.dim, i) for i in self._kind_indices(kind)])

    def leaf_rates(self, kind):
        """Growth rate of each leaf parameter, in leaf-parameter order."""
        return self.rates[self._kind_indices(kind)]


class _PairWeights(_AxisLeaves):
    """The weights of the Heisenberg pair, shared by its suspension and the
    perturbed variant: the x, y and z pairs grow at (a, -a), (b, -b) and
    (a+b, -(a+b)) times log lam.  ``eps_pert`` is the amplitude of the crossing
    shear, 0 on the unsheared suspension."""

    quotiented = True
    chart_bound = 1e300
    qni_order = 2
    equidistribution_freqs = (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (0, 1, 0, 1, 0, 0),
    )

    def __init__(self, a, b, lam, eps_pert=0.0):
        # an integer beyond the float range is not finite here either
        if not all(isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max
                   for v in (a, b, lam, eps_pert)):
            raise InvalidParams("a, b, lam and eps_pert must be finite numbers")
        if int(a) != a or int(b) != b or a == 0 or b == 0:
            raise InvalidParams("weights a, b must be nonzero integers")
        if a == -b:
            raise InvalidParams("a = -b collapses the centre weight to zero")
        if lam <= 1.0:
            raise InvalidParams("base unit lam must exceed 1")
        if eps_pert < 0:
            raise InvalidParams("perturbation amplitude must be nonnegative")
        if eps_pert >= 1.0 / (4.0 * math.pi):
            raise InvalidParams("perturbation too large: requires eps_pert < 1/(4 pi)")
        self.a, self.b, self.lam, self.eps = int(a), int(b), float(lam), float(eps_pert)
        self.log_lam = math.log(lam)
        w = np.empty(7)
        w[_X1], w[_X2] = a, -a
        w[_Y1], w[_Y2] = b, -b
        w[_Z1], w[_Z2] = a + b, -(a + b)
        w[_TH] = 0.0
        self.weights = w  # integer weights per chart axis
        self._declare(w * self.log_lam, _TH)

    def section_coords(self, c):
        """Ring-lattice coordinates of the three pairs at section level, per
        row of a reduced (N, 7) batch."""
        w = c[:, :6] * np.exp(self.rates[:6] * -c[:, _TH, None])
        basis_inv = np.repeat(RING_BASIS_INV[None], len(c), axis=0)
        n = np.empty((len(c), 6))
        for k, pair in enumerate((_X, _Y, _Z)):
            n[:, 2 * k : 2 * k + 2] = matvec(basis_inv, w[:, pair])
        return n


class _NilPairSuspension(_PairWeights):
    kind = "BorelSmale"

    # quotient ----------------------------------------------------------
    def reduce(self, c):
        theta = _frac(c[..., _TH])[..., None]
        w = c[..., :6] * np.exp(self.rates[:6] * -theta)
        # right-multiply by ring-lattice elements at section level: the x and
        # y pairs in one call, y's lattice pair shifting z through the group
        # law, then the centre
        xy, lat = ring_reduce(w[..., :4].reshape(c.shape[:-1] + (2, 2)))
        out = np.empty(c.shape)
        out[..., :4] = xy.reshape(c.shape[:-1] + (4,))
        out[..., _Z], _ = ring_reduce(w[..., _Z] - xy[..., 0, :] * lat[..., 1, :])
        out[..., :6] *= np.exp(self.rates[:6] * theta)
        out[..., _TH] = theta[..., 0]
        return out

    # leaves -------------------------------------------------------------
    def group_displacement(self, a, b):
        """The group element b . a^-1 carrying chart point a to b (fibers only)."""
        return _pair_mult(b[..., :6], _pair_inverse(a[..., :6]))

    def stable_params_between(self, a, b):
        return self.group_displacement(a, b)[self._kind_indices("Stable")]

    def leaf_translate(self, c, kind, params):
        """Left-translate by the subgroup element with the given coordinates
        (on a point, or on rows with params shared or per row)."""
        params = np.atleast_1d(np.asarray(params, dtype=float))
        axes = self._kind_indices(kind)
        if kind == "CenterStable":  # the clock parameter comes last
            c, params, axes = self.flow(c, params[..., -1]), params[..., :-1], axes[:-1]
        l = np.zeros(params.shape[:-1] + (6,))
        l[..., axes] = params
        out = c.copy()
        out[..., :6] = _pair_mult(l, c[..., :6])
        return out

    def cs_u_factorize(self, x, xp):
        """Closed-form w,(cs,dtheta):  w . xp = cs . g_dtheta(x) in the group.

        Requires the canonical sign pattern (unstable = x1, y2, z1)."""
        w = self.weights
        if not (w[_X1] > 0 and w[_Y2] > 0 and w[_Z1] > 0):
            raise Unsupported("closed-form projection requires a>0, b<0, a+b>0")
        dtheta = xp[_TH] - x[_TH]
        xd = self.flow(x, dtheta)[:6]
        v = xp[:6]
        w_x1 = xd[_X1] - v[_X1]
        c_y1 = v[_Y1] - xd[_Y1]
        w_z1 = xd[_Z1] - v[_Z1] - w_x1 * v[_Y1]
        c_x2 = v[_X2] - xd[_X2]
        w_y2 = xd[_Y2] - v[_Y2]
        c_z2 = xd[_Z2] - v[_Z2] - c_x2 * xd[_Y2]
        # unstable params ordered per _kind_indices("Unstable")
        w_params = {_X1: w_x1, _Y2: w_y2, _Z1: w_z1}
        cs_params = {_X2: c_x2, _Y1: c_y1, _Z2: c_z2}
        u = np.array([w_params[i] for i in self._kind_indices("Unstable")])
        cs = np.array([cs_params[i] for i in self._kind_indices("Stable")] + [dtheta])
        return u, cs

    def unstable_shift(self, c, u):
        return self.leaf_translate(c, "StrongUnstable", np.asarray(u, dtype=float)[..., None])


class _ToralPerturbedSuspension(_PairWeights):
    """Abelianised variant with lattice-periodic shears on the torus fibers.

    Each sheared pair moves in its ring-lattice coordinates,
    ``n1 += eps * sin(2 pi n2)``, applied at upward roof crossings (inverse
    at downward crossings).  Between crossings the flow is the exact diagonal
    weight action, so the group law holds to round-off.  Both the slow pair
    and the second pair are sheared: a slow-fiber-only perturbation leaves
    the whole second-line transfer machinery exactly trivial, which would
    make every measured check of it vacuous.
    """

    kind = "BorelSmalePerturbed"
    exact_exponents = None  # measured: no declared exponents
    sheared_pairs = ((_Z1, _Z2), (_Y1, _Y2))

    # a point is a one-row batch of the rows flow
    def _shear(self, pairs, sign):
        """The crossing shear of (..., 2) sheared-pair values (sign -1: its
        inverse), ``n1 += sign * eps * sin(2 pi n2)`` in lattice coordinates."""
        P, P_inv = _ring_stacks(pairs.shape[:-1])
        n = matvec(P_inv, pairs)
        n[..., 0] += sign * self.eps * np.sin(2.0 * math.pi * n[..., 1])
        return matvec(P, n)

    def _flow(self, c, t, want_jac):
        """The flow, or its Jacobian.  Upward motion crosses an integer k when
        theta passes k from below, downward motion when leaving [k, k+1)
        through k, so backward flows undo forward ones (up to clock round-off)."""
        shape, c = np.shape(c), np.reshape(c, (-1, 7))
        rates = self.rates[:6]
        theta0 = c[:, _TH]
        t = np.full(theta0.shape, t, dtype=float)
        sign = np.where(t < 0, -1.0, 1.0)
        f0, f1 = np.floor(theta0), np.floor(theta0 + t)
        crossings = np.abs(f1 - f0)
        v = c[:, :6].copy()
        J = np.repeat(np.eye(7)[None], len(c) if want_jac else 0, axis=0)

        def scale(rows, duration, dtheta0_coeff):
            if not rows.any():
                return
            rows = slice(None) if rows.all() else rows  # a view where it can
            E = np.exp(rates * duration[rows, None])
            v[rows] = E * v[rows]
            if want_jac:
                J[rows, :6] = E[:, :, None] * J[rows, :6]
                if dtheta0_coeff:
                    J[rows, :6, 6] += dtheta0_coeff * rates * v[rows]

        def shear(rows):
            r = np.flatnonzero(rows)
            P, P_inv = _ring_stacks(r.shape)
            for pair in self.sheared_pairs:
                at = (slice(None) if len(r) == len(v) else r[:, None], pair)
                if want_jac:
                    phase = 2.0 * math.pi * matvec(P_inv, v[at])[:, 1]
                    Jz = np.repeat(np.eye(2)[None], len(r), axis=0)
                    Jz[:, 0, 1] = sign[r] * self.eps * 2.0 * math.pi * np.cos(phase)
                    J[at] = P @ Jz @ P_inv @ J[at]
                v[at] = self._shear(v[at], sign[r])

        scale(crossings == 0, t, 0.0)
        scale(crossings > 0, np.where(t > 0, f0 + 1.0, f0) - theta0, -1.0)
        for k in range(int(crossings.max(initial=0))):
            if k:
                scale(crossings > k, sign, 0.0)
            shear(crossings > k)
        scale(crossings > 0, theta0 + t - np.where(t > 0, f1, f1 + 1.0), 1.0)
        out = np.column_stack([v, theta0 + t])
        if not np.all(np.isfinite(out)):
            raise NonFinite("flow overflow")
        return J.reshape(shape + (7,)) if want_jac else out.reshape(shape)

    def flow(self, c, t):
        return self._flow(c, t, False)

    def dflow(self, c, t):
        return self._flow(c, t, True)

    def reduce(self, c):
        theta = _frac(c[..., _TH])[..., None]
        w = c[..., :6] * np.exp(self.rates[:6] * -theta)
        out = np.empty(c.shape)
        for pair in (_X, _Y, _Z):
            out[..., pair], _ = ring_reduce(w[..., pair])
        out[..., :6] = out[..., :6] * np.exp(self.rates[:6] * theta)
        out[..., _TH] = theta[..., 0]
        return out

    # leaves: linear in the x/y pairs, curved in the z pair --------------
    def leaf_translate(self, c, kind, params):
        """Only the fast block is a straight line here; other leaves are
        curved in the fiber pair and must go through leaf charts."""
        idxs = self._kind_indices(kind)
        if kind != "StrongUnstable":
            raise Unsupported(
                "perturbed leaves are curved; build a leaf chart instead"
            )
        params = np.atleast_1d(np.asarray(params, dtype=float))
        out = c.copy()
        out[idxs] += params
        return out

    def unstable_shift(self, c, u):
        out = c.copy()
        out[..., self._kind_indices("StrongUnstable")] += np.asarray(u, dtype=float)[..., None]
        return out


# ---------------------------------------------------------------------------
# chart-local homogeneous models (matrix groups)


#: the constants of `_real_log`, and its 8 Gauss-Legendre nodes on [0, 1]
_LOG_RADIUS, _LOG_ROOTS, _ROOT_STEPS, _ROOT_SETTLED = 0.25, 48, 60, 1e-8
_LOG_NODES, _LOG_WEIGHTS = (np.polynomial.legendre.leggauss(8) + np.array([[1.0], [0.0]])) / 2


@np.errstate(all="ignore")  # a root that never settles may overflow
def _real_log(A):
    """Principal log of a real matrix in real arithmetic: 2^s log(A^(1/2^s)),
    inverse scaling and squaring (Higham, Functions of Matrices, 2008, ch. 11).

    Square roots until ||A - I||_1 <= _LOG_RADIUS, each by the product-form
    Denman-Beavers iteration (ibid. (6.17)), Y = A^1/2 M^1/2 as M tends to I
    quadratically, stopped one step after ||M - I||_1 <= _ROOT_SETTLED.  Then
    log(I + X) = int_0^1 X (I + tX)^-1 dt by the Gauss-Legendre sum, the [8/8]
    Pade approximant.  With no real principal log (a real eigenvalue <= 0) the
    roots never settle: NonFinite within _LOG_ROOTS * _ROOT_STEPS steps."""
    eye = np.eye(len(A))
    try:
        for roots in range(_LOG_ROOTS):
            X = A - eye
            if np.abs(X).sum(axis=0).max() <= _LOG_RADIUS:  # False on NaN
                T = eye + _LOG_NODES[:, None, None] * X
                S = np.linalg.solve(T, np.broadcast_to(X, T.shape))
                return 2.0**roots * np.tensordot(_LOG_WEIGHTS, S, 1)
            M = A  # and A, as Y, tends to its square root
            for _ in range(_ROOT_STEPS):
                M_inv = np.linalg.inv(M)
                A = 0.5 * A @ (eye + M_inv)
                if np.abs(M - eye).sum(axis=0).max() <= _ROOT_SETTLED:
                    break
                M = 0.5 * (eye + 0.5 * (M + M_inv))
            else:
                break
    except np.linalg.LinAlgError:  # a singular iterate
        pass
    raise NonFinite("matrix has no real principal log")


def _unit(i, j):
    """The 3x3 matrix unit E_ij."""
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m


class _MatrixGroupModel(_AxisLeaves):
    """Common machinery for ASL2Model and SL3Model.

    Points are stored as (xi, sigma): Lie-algebra coordinates in a fixed
    weight basis orthogonal to the flow generator, plus the flow clock sigma.
    The flow is the diagonal adjoint action on xi together with the clock
    shift, so the chart cocycle is exact.
    """

    quotiented = False
    chart_bound = 1e8
    qni_order = 1
    n = 3  # matrix size

    # subclasses define: basis (one matrix per chart axis, None at the
    # clock), H_flow, perm (weight-sorting permutation), and declare rates

    def _declare(self, rates, theta_index):
        super()._declare(rates, theta_index)
        # the matrix entry each unipotent leaf parameter moves: a
        # center-stable leaf moves the stable entries, then its Cartan axes
        self._slots = {kind: [divmod(int(np.argmax(self.basis[i])), self.n)
                              for i in axes if self.rates[i] != 0]
                       for kind, axes in self._leaves.items()}

    def flow(self, c, t):
        out = super().flow(c, t)
        if (np.abs(out).max(axis=-1) > self.chart_bound).any():  # per row
            raise NonFinite("orbit left the configured chart")
        return out

    def reduce(self, c):
        raise Unsupported(f"{self.kind} has no lattice configured")

    # chart <-> group element ------------------------------------------
    def matrix_from_coords(self, c):
        xi = sum(c[i] * B for i, B in enumerate(self.basis) if i != self.theta_index)
        # the flow generator is diagonal, so its exponential is closed form
        cartan = np.diag(np.exp(c[self.theta_index] * np.diag(self.H_flow)))
        return scipy.linalg.expm(xi) @ cartan

    def coords_from_matrix(self, g, sigma_guess=0.0):
        """Invert matrix_from_coords; 1-d secant solve on the clock."""
        h2 = float(np.sum(self.H_flow * self.H_flow))
        hdiag = np.diag(self.H_flow)

        def cartan_residual(sigma):
            m = g @ np.diag(np.exp(-sigma * hdiag))
            L = _real_log(m)
            return float(np.sum(L * self.H_flow)) / h2, L

        s0, s1 = sigma_guess, sigma_guess + 0.1
        r0, _ = cartan_residual(s0)
        for _ in range(60):
            r1, L1 = cartan_residual(s1)
            if abs(r1) < 1e-13 or r1 == r0:
                break
            s0, s1, r0 = s1, s1 - r1 * (s1 - s0) / (r1 - r0), r1
        else:
            raise NonFinite("clock solve did not converge")
        coords = np.array([s1 if B is None else float(np.sum(L1 * B)) / float(np.sum(B * B))
                           for B in self.basis])  # the clock has no basis matrix
        # verify the remainder lies in the spanned chart
        rec = sum(coords[i] * B for i, B in enumerate(self.basis) if i != self.theta_index)
        if np.max(np.abs(rec - L1)) > 1e-8:
            raise NonFinite("matrix log left the chart span")
        return coords

    # leaves --------------------------------------------------------------
    def unipotent(self, kind, params):
        n = np.eye(self.n)
        for p, (i, j) in zip(params, _leaf_entry(self._slots, kind)):
            n[i, j] += p
        return n

    def leaf_translate(self, c, kind, params):
        return self.leaf_evaluator(c, kind)(params)

    def unstable_shift(self, c, u):
        return self.leaf_translate(c, "StrongUnstable", [u])

    def leaf_evaluator(self, c, kind):
        """Closure over the (hoisted) base group element."""
        g = self.matrix_from_coords(c)
        sigma0 = c[self.theta_index]

        def evaluate(params):
            params = np.atleast_1d(np.asarray(params, dtype=float))
            z = self.unipotent(kind, params)
            if kind == "CenterStable":
                z = z @ self._cartan_matrix(params[len(self._slots[kind]):])
            return self.coords_from_matrix(z @ g, sigma_guess=sigma0)

        return evaluate

    def _cartan_matrix(self, extra):
        h = extra[0] * self.H_flow
        if len(extra) > 1:
            h = h + extra[1] * self.H_neutral
        return np.diag(np.exp(np.diag(h)))  # both generators are diagonal

    def stable_params_between(self, a, b):
        """Entries of g(b) g(a)^-1 at the stable slots."""
        M = self.matrix_from_coords(b) @ np.linalg.inv(self.matrix_from_coords(a))
        return np.array([M[slot] for slot in self._slots["Stable"]])

    def cs_u_factorize(self, x, xp):
        """Weight-sorted LU split  g(x) g(xp)^-1 = (lower . cartan) (unit upper)."""
        P = np.eye(self.n)[self.perm]
        M = self.matrix_from_coords(x) @ np.linalg.inv(self.matrix_from_coords(xp))
        Mp = P @ M @ P.T
        n = self.n
        L = np.zeros((n, n))
        U = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                L[j, i] = Mp[j, i] - L[j, :i] @ U[:i, i]
            if abs(L[i, i]) < 1e-14:
                raise NonFinite("projection factorisation is singular")
            for j in range(i + 1, n):
                U[i, j] = (Mp[i, j] - L[i, :i] @ U[:i, j]) / L[i, i]
        Uq = P.T @ U @ P
        u_params = np.array([Uq[i, j] for (i, j) in self._slots["Unstable"]])
        Lq = P.T @ L @ P
        cs_info = (Lq, Uq)
        return u_params, cs_info


class _ASL2Model(_MatrixGroupModel):
    kind = "ASL2Model"

    def __init__(self):
        # coords: (b, x, sigma, y, c) with weights (2, 1, 0, -1, -2)
        self.basis = [_unit(0, 1), _unit(0, 2), None, _unit(1, 2), _unit(1, 0)]
        self.H_flow = np.diag([1.0, -1.0, 0.0])
        self.perm = [0, 2, 1]  # weight-descending vertex order
        self._declare([2.0, 1.0, 0.0, -1.0, -2.0], theta_index=2)


class _SL3Model(_MatrixGroupModel):
    kind = "SL3Model"

    def __init__(self):
        # coords: (z, y, x, h_neutral, sigma, s1, s3, s2)
        # weights (5, 4, 1, 0, 0, -1, -4, -5) under H_flow = diag(2, 1, -3)
        hb = np.diag([4.0, -5.0, 1.0])
        self.H_neutral = hb / np.linalg.norm(hb)
        self.basis = [_unit(0, 2), _unit(1, 2), _unit(0, 1), self.H_neutral, None,
                      _unit(1, 0), _unit(2, 1), _unit(2, 0)]
        self.H_flow = np.diag([2.0, 1.0, -3.0])
        self.perm = [0, 1, 2]
        self._declare([5.0, 4.0, 1.0, 0.0, 0.0, -1.0, -4.0, -5.0], theta_index=4)


# ---------------------------------------------------------------------------
# public constructors and operations


#: every model kind: its class and its parameters, with their defaults
MODELS = {
    "CatSuspension": (_CatSuspension, {"matrix": ((2, 1), (1, 1))}),
    "BorelSmale": (_NilPairSuspension, {"a": 3, "b": -2, "lam": LAMBDA_UNIT}),
    "BorelSmalePerturbed": (
        _ToralPerturbedSuspension, {"a": 3, "b": -2, "lam": LAMBDA_UNIT, "eps_pert": 0.01}
    ),
    "ASL2Model": (_ASL2Model, {}),
    "SL3Model": (_SL3Model, {}),
}


def _build_model(spec: SystemSpec):
    if spec.kind not in MODELS:
        raise InvalidParams(f"unknown system kind {spec.kind!r}")
    cls, defaults = MODELS[spec.kind]
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InvalidParams(f"unknown parameters for {spec.kind}: {unknown}")
    return cls(**{**defaults, **spec.params})


def make_system(spec: SystemSpec) -> System:
    """Instantiate a system; exact exponents are populated for linear models."""
    model = _build_model(spec)
    exact = model.exact_exponents
    exact = None if exact is None else sorted((float(e) for e in exact), reverse=True)
    return System(
        kind=spec.kind,
        dim=model.dim,
        flow_dim_split=tuple(model.split),
        exact_exponents=exact,
        spec=spec,
        model=model,
    )


def _check_finite(arr, what="input"):
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{what} is not finite")
    return arr


def _flow(model, c, t, reduce):
    _check_finite(c)
    _check_finite(t, "time")
    out = _check_finite(model.flow(c, t), "flow image")
    return model.reduce(out) if reduce else out


def flow(system: System, x: Point, t: float, reduce: bool = True) -> Point:
    """Evaluate g_t(x).  Quotiented models return the lattice-reduced point."""
    reduce = reduce and system.model.quotiented
    return Point(_flow(system.model, x.coords, float(t), reduce))


def flow_rows(system: System, c: np.ndarray, t) -> np.ndarray:
    """`flow` on every row of an (N, dim) batch, t scalar or per row.

    Raises NonFinite exactly when `flow` raises it on some row."""
    return _check_finite(_flow(system.model, c, t, system.model.quotiented), "point")


def tangent_flow(system: System, x: Point, t: float) -> np.ndarray:
    """Derivative cocycle Dg_t at x in the global chart."""
    _check_finite(x.coords)
    D = system.model.dflow(x.coords, float(t))
    _check_finite(D, "tangent flow")
    return D


def tangent_flow_rows(system: System, c: np.ndarray, t) -> np.ndarray:
    """`tangent_flow` at every row of an (N, dim) batch, t scalar or per row."""
    _check_finite(c)
    _check_finite(t, "time")
    return _check_finite(system.model.dflow(c, t), "tangent flow")


def lattice_reduce(system: System, x: Point) -> Point:
    """Canonical fundamental-domain representative of the coset of x."""
    if not system.model.quotiented:
        raise Unsupported(f"{system.kind} operates on a local chart; no lattice is configured")
    return Point(system.model.reduce(x.coords))


def reduce_rows(system: System, c: np.ndarray) -> np.ndarray:
    """`lattice_reduce` on every row of an (N, dim) batch."""
    return _check_finite(system.model.reduce(_check_finite(c)), "point")


def dist(system: System, p: Point, q: Point) -> float:
    """Flat chart distance."""
    return float(np.linalg.norm(p.coords - q.coords))


def leaf_translate(system: System, x: Point, kind: str, params) -> Point:
    """Point on the `kind` leaf of x with the given leaf parameters."""
    return Point(system.model.leaf_translate(x.coords, kind, params))


def stable_translate(system, x, params):
    return leaf_translate(system, x, "Stable", params)


def unstable_translate(system, x, params):
    return leaf_translate(system, x, "Unstable", params)


def strong_unstable_translate(system, x, params):
    return leaf_translate(system, x, "StrongUnstable", params)


def unstable_shift(system: System, x: Point, u: float) -> Point:
    """One-parameter strong-unstable translation (leaf parameter u)."""
    return Point(system.model.unstable_shift(x.coords, float(u)))


def unstable_shift_rows(system: System, c: np.ndarray, u) -> np.ndarray:
    """`unstable_shift` on every row of an (N, dim) batch, u scalar or per row.
    Quotiented models only: a chart-local leaf shift solves for one point."""
    if not system.model.quotiented:
        raise Unsupported(f"{system.kind} shifts one point at a time along its leaves")
    return _check_finite(system.model.unstable_shift(c, u), "point")


def leaf_dimension(system: System, kind: str) -> int:
    return system.model.leaf_dirs(kind).shape[1]


def origin(system: System) -> Point:
    return Point(np.zeros(system.dim))


def random_point(system: System, rng) -> Point:
    """Seeded generic point (reduced on quotient models, small on local charts)."""
    c = rng.uniform(0.0, 1.0, size=system.dim)
    if system.model.quotiented:
        return Point(system.model.reduce(c))
    return Point(0.2 * (c - 0.5))


