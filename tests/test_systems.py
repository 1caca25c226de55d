"""System catalog: group laws, cocycles, reductions, exact spectra."""

import ast
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from anosovlab import systems as S
from anosovlab.errors import InvalidParams, NonFinite, Unsupported

LINEAR_KINDS = ("CatSuspension", "BorelSmale", "ASL2Model", "SL3Model")
ALL_KINDS = LINEAR_KINDS + ("BorelSmalePerturbed",)


def make(kind, **params):
    return S.make_system(S.SystemSpec(kind, params))


def seeded_point(system, seed):
    return S.random_point(system, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# construction


def test_borel_smale_exponents_match_weight_ladder():
    sys_bs = make("BorelSmale", a=3, b=-2)
    loglam = math.log(S.LAMBDA_UNIT)
    expected = sorted([w * loglam for w in (3, 2, 1, 0, -1, -2, -3)], reverse=True)
    assert np.allclose(sys_bs.exact_exponents, expected, atol=1e-14)
    assert sys_bs.flow_dim_split == (3, 1, 3, 1)


def test_borel_smale_degenerate_weights_rejected():
    with pytest.raises(InvalidParams):
        make("BorelSmale", a=1, b=-1)
    with pytest.raises(InvalidParams):
        make("BorelSmale", a=0, b=2)
    with pytest.raises(InvalidParams):
        make("BorelSmale", a=3, b=-2, lam=0.9)


def test_cat_suspension_exponents_match_eigenvalue_oracle():
    A = np.array([[2, 1], [1, 1]])
    sys_cat = make("CatSuspension", matrix=((2, 1), (1, 1)))
    mu = max(np.linalg.eigvals(A.astype(float)))
    assert np.allclose(
        sys_cat.exact_exponents, [math.log(mu), 0.0, -math.log(mu)], atol=1e-12
    )


def test_cat_suspension_invalid_matrices_rejected():
    with pytest.raises(InvalidParams):
        make("CatSuspension", matrix=((1, 1), (0, 1)))  # not hyperbolic
    with pytest.raises(InvalidParams):
        make("CatSuspension", matrix=((2, 0), (0, 1)))  # det != 1


def test_perturbation_amplitude_bound():
    with pytest.raises(InvalidParams):
        make("BorelSmalePerturbed", eps_pert=1.0 / (4.0 * math.pi) + 1e-3)
    make("BorelSmalePerturbed", eps_pert=0.01)  # fine


def test_exact_exponents_absent_for_perturbed():
    assert make("BorelSmalePerturbed", eps_pert=0.01).exact_exponents is None


def test_exponent_count_equals_dim():
    for kind in LINEAR_KINDS:
        system = make(kind)
        assert len(system.exact_exponents) == system.dim
        assert system.exact_exponents == sorted(system.exact_exponents, reverse=True)


# ---------------------------------------------------------------------------
# declarations, pinned: blocks, split, rates, leaf tables and matrix slots

_BS_LEAVES = {"StrongUnstable": [0], "Unstable": [0, 3, 4], "Stable": [1, 2, 5],
              "CenterStable": [1, 2, 5, 6]}
_BS_BLOCKS = [(3, [0]), (2, [3]), (1, [4]), (0, [6]), (-1, [5]), (-2, [2]), (-3, [1])]

#: per axis model: the unit its rates are integers of; each block's rate in
#: units and its chart axes (a set where rates tie, whose order
#: test_tied_blocks_order_their_axes_by_descending_index pins); the split; the top,
#: second and slow-stable rates in units; the chart axis of each leaf
#: parameter; and the matrix entry of each unipotent leaf parameter
DECLARED = {
    "borel_smale": ("BorelSmale", {}, _BS_BLOCKS, (3, 1, 3, 1), (3, 2, 1), _BS_LEAVES, None),
    "perturbed": ("BorelSmalePerturbed", {}, _BS_BLOCKS, (3, 1, 3, 1), (3, 2, 1), _BS_LEAVES,
                  None),
    "borel_smale_1_1": (
        "BorelSmale", {"a": 1, "b": 1},
        [(2, [4]), (1, {0, 2}), (0, [6]), (-1, {1, 3}), (-2, [5])], (3, 1, 3, 1), (2, 1, 1),
        {"StrongUnstable": [4], "Unstable": [0, 2, 4], "Stable": [1, 3, 5],
         "CenterStable": [1, 3, 5, 6]}, None),
    "borel_smale_2_-1": (
        "BorelSmale", {"a": 2, "b": -1},
        [(2, [0]), (1, {3, 4}), (0, [6]), (-1, {2, 5}), (-2, [1])], (3, 1, 3, 1), (2, 1, 1),
        _BS_LEAVES, None),
    "asl2": (
        "ASL2Model", {}, [(2, [0]), (1, [1]), (0, [2]), (-1, [3]), (-2, [4])], (2, 1, 2, 1),
        (2, 1, 1),
        {"StrongUnstable": [0], "Unstable": [0, 1], "Stable": [3, 4], "CenterStable": [3, 4, 2]},
        {"StrongUnstable": [(0, 1)], "Unstable": [(0, 1), (0, 2)], "Stable": [(1, 2), (1, 0)]}),
    "sl3": (
        "SL3Model", {},
        [(5, [0]), (4, [1]), (1, [2]), (0, {3, 4}), (-1, [5]), (-4, [6]), (-5, [7])],
        (3, 2, 3, 1), (5, 4, 1),
        {"StrongUnstable": [0], "Unstable": [0, 1, 2], "Stable": [5, 6, 7],
         "CenterStable": [5, 6, 7, 4, 3]},
        {"StrongUnstable": [(0, 2)], "Unstable": [(0, 2), (1, 2), (0, 1)],
         "Stable": [(1, 0), (2, 1), (2, 0)]}),
}


def _unipotent_slots(model, kind, k):
    """The matrix entry of each of k leaf parameters, read off `unipotent`."""
    n = model.unipotent(kind, np.arange(1.0, k + 1)) - np.eye(model.n)
    return [tuple(int(i) for i in np.argwhere(n == p)[0]) for p in range(1, k + 1)]


@pytest.mark.parametrize("case", sorted(DECLARED))
def test_axis_model_declarations_are_pinned(case):
    kind, params, blocks, split, (top, second, slow), leaves, slots = DECLARED[case]
    system = make(kind, **params)
    model = system.model
    unit = math.log(params.get("lam", S.LAMBDA_UNIT)) if "Borel" in kind else 1.0
    rate_of = {}
    assert len(model.blocks) == len(blocks)
    for block, (rate, axes) in zip(model.blocks, blocks):
        assert block.rate == rate * unit
        cols = [int(np.argmax(c)) for c in block.basis.T]
        assert (set(cols) if isinstance(axes, set) else cols) == axes
        assert np.array_equal(block.basis, np.eye(system.dim)[:, cols])
        rate_of.update({i: block.rate for i in cols})
    assert system.flow_dim_split == split
    assert (model.rate_top, model.rate_second, model.rate_slow_stable) == (
        top * unit, second * unit, slow * unit)
    if kind == "BorelSmalePerturbed":
        assert system.exact_exponents is None
    else:
        assert system.exact_exponents == sorted(rate_of.values(), reverse=True)
    for leaf, axes in leaves.items():
        assert np.array_equal(model.leaf_dirs(leaf), np.eye(system.dim)[:, axes])
        assert list(model.leaf_rates(leaf)) == [rate_of[i] for i in axes]
    if slots is not None:  # a center-stable leaf moves the stable entries first
        for leaf, want in {**slots, "CenterStable": slots["Stable"]}.items():
            assert _unipotent_slots(model, leaf, len(want)) == want


@pytest.mark.parametrize("params, tied", [
    ({"a": 1, "b": 1}, {1: [2, 0], -1: [3, 1]}),
    ({"a": 2, "b": -1}, {1: [4, 3], -1: [5, 2]}),
])
def test_tied_blocks_order_their_axes_by_descending_index(params, tied):
    # a stable sort: the first column of a tied block, which the second line
    # reads, does not depend on the host's sort kernel
    model = make("BorelSmale", **params).model
    got = {round(block.rate / model.log_lam): [int(np.argmax(c)) for c in block.basis.T]
           for block in model.blocks}
    assert {rate: got[rate] for rate in tied} == tied


def test_cat_declarations_are_pinned():
    system = make("CatSuspension")
    model = system.model
    mu = (3.0 + math.sqrt(5.0)) / 2.0
    e_plus = np.array([mu - 1.0, 1.0, 0.0]) / math.hypot(mu - 1.0, 1.0)
    e_minus = np.array([-1.0, mu - 1.0, 0.0]) / math.hypot(mu - 1.0, 1.0)
    log_mu = model.log_mu
    assert log_mu == pytest.approx(math.log(mu), abs=1e-15)
    assert [b.rate for b in model.blocks] == [log_mu, 0.0, -log_mu]
    for block, e in zip(model.blocks, (e_plus, np.eye(3)[2], e_minus)):
        assert block.basis.shape == (3, 1)
        assert np.allclose(np.abs(block.basis[:, 0]), np.abs(e), atol=1e-15)
    assert system.flow_dim_split == (1, 1, 1, 1)
    assert (model.rate_top, model.rate_second, model.rate_slow_stable) == (log_mu, None, log_mu)
    assert system.exact_exponents == [log_mu, 0.0, -log_mu]
    col = [b.basis for b in model.blocks]
    for leaf, idx in (("StrongUnstable", [0]), ("Unstable", [0]), ("Stable", [2]),
                      ("CenterStable", [2, 1])):
        assert np.array_equal(model.leaf_dirs(leaf), np.column_stack([col[i] for i in idx]))
        assert list(model.leaf_rates(leaf)) == [model.blocks[i].rate for i in idx]


def test_perturbed_model_declares_no_closed_form():
    # the pipelines dispatch on these: the perturbed leaves are measured
    model = make("BorelSmalePerturbed").model
    for name in ("cs_u_factorize", "group_displacement", "stable_params_between",
                 "leaf_evaluator"):
        assert not hasattr(model, name)
    assert model.exact_exponents is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unknown_leaf_kind_is_invalid_params_on_every_model(kind):
    system = make(kind)
    x = seeded_point(system, 3)
    with pytest.raises(InvalidParams, match="unknown leaf kind"):
        S.leaf_translate(system, x, "Bogus", [0.1])
    with pytest.raises(InvalidParams, match="unknown leaf kind"):
        S.leaf_dimension(system, "Bogus")


@pytest.mark.parametrize("kind, params", [
    ("BorelSmale", {"a": math.inf}),
    ("BorelSmale", {"a": math.nan}),
    ("BorelSmale", {"b": -math.inf}),
    ("BorelSmale", {"lam": math.nan}),
    ("BorelSmale", {"lam": math.inf}),
    ("BorelSmalePerturbed", {"a": math.nan}),
    ("BorelSmalePerturbed", {"lam": math.inf}),
    ("BorelSmalePerturbed", {"eps_pert": math.nan}),
    ("CatSuspension", {"matrix": ((2, 1), (1, math.inf))}),
])
def test_non_finite_model_parameters_are_invalid(kind, params):
    with pytest.raises(InvalidParams):
        make(kind, **params)


# ---------------------------------------------------------------------------
# flow group law and cocycle identity


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_flow_group_law(kind):
    system = make(kind)
    tol = 1e-6 if kind == "BorelSmalePerturbed" else 1e-9
    rng = np.random.default_rng(42)
    for trial in range(100):
        x = seeded_point(system, 1000 + trial)
        t, s = rng.uniform(-1.0, 1.0, size=2)
        a = S.flow(system, x, t + s, reduce=False)
        b = S.flow(system, S.flow(system, x, s, reduce=False), t, reduce=False)
        assert np.max(np.abs(a.coords - b.coords)) <= tol


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cocycle_identity(kind):
    system = make(kind)
    tol = 1e-6 if kind == "BorelSmalePerturbed" else 1e-9
    rng = np.random.default_rng(43)
    for trial in range(20):
        x = seeded_point(system, 2000 + trial)
        t, s = rng.uniform(-1.5, 1.5, size=2)
        lhs = S.tangent_flow(system, x, t + s)
        xs = S.flow(system, x, s, reduce=False)
        rhs = S.tangent_flow(system, xs, t) @ S.tangent_flow(system, x, s)
        assert np.max(np.abs(lhs - rhs)) <= tol


def test_flow_identity_at_time_zero():
    for kind in ALL_KINDS:
        system = make(kind)
        x = seeded_point(system, 5)
        y = S.flow(system, x, 0.0, reduce=False)
        assert np.array_equal(y.coords, x.coords)
        assert np.allclose(S.tangent_flow(system, x, 0.0), np.eye(system.dim))


def test_linear_spectrum_matches_exact_exponents():
    for kind in LINEAR_KINDS:
        system = make(kind)
        x = seeded_point(system, 7)
        D = S.tangent_flow(system, x, 1.0)
        mags = np.sort(np.abs(np.linalg.eigvals(D)))[::-1]
        assert np.allclose(mags, np.exp(system.exact_exponents), atol=1e-12)


def test_asl2_conjugation_scales_unipotent_coordinates():
    system = make("ASL2Model")
    x = seeded_point(system, 9)
    t = 0.8
    y = S.flow(system, x, t, reduce=False)
    # coords: (b, x, sigma, y, c) scale by (e^{2t}, e^t, +t, e^{-t}, e^{-2t})
    scales = np.exp(np.array([2.0, 1.0, 0.0, -1.0, -2.0]) * t)
    expect = x.coords * scales
    expect[2] = x.coords[2] + t
    assert np.allclose(y.coords, expect, atol=1e-12)


def test_sl3_conjugation_scales_upper_unipotent():
    system = make("SL3Model")
    x = seeded_point(system, 11)
    t = 0.6
    y = S.flow(system, x, t, reduce=False)
    # (z, y, x) entries scale by e^{5t}, e^{4t}, e^{t}
    assert np.allclose(
        y.coords[:3], x.coords[:3] * np.exp(np.array([5.0, 4.0, 1.0]) * t), atol=1e-12
    )


def test_perturbed_cocycle_against_finite_differences():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    rng = np.random.default_rng(17)
    h = 1e-7
    # the FD oracle's own truncation grows with the hyperbolic amplification,
    # so it is quoted at 1e-6 over a unit window
    for trial in range(10):
        x = seeded_point(system, 300 + trial)
        t = rng.uniform(0.3, 1.0)
        J = np.empty((7, 7))
        for j in range(7):
            dp, dm = x.coords.copy(), x.coords.copy()
            dp[j] += h
            dm[j] -= h
            J[:, j] = (system.model.flow(dp, t) - system.model.flow(dm, t)) / (2 * h)
        assert np.max(np.abs(J - S.tangent_flow(system, x, t))) <= 1e-6


def test_perturbed_matches_unperturbed_off_the_fiber_blocks():
    pert = make("BorelSmalePerturbed", eps_pert=0.01)
    base = make("BorelSmale")
    x = seeded_point(pert, 23)
    t = 1.7
    Dp = S.tangent_flow(pert, x, t)
    Db = S.tangent_flow(base, S.Point(x.coords), t)
    # x-pair rows are untouched by the shears
    assert np.allclose(Dp[0:2, :], Db[0:2, :], atol=1e-12)
    # sheared blocks keep the unperturbed determinant
    for pair in ((2, 3), (4, 5)):
        det_p = np.linalg.det(Dp[np.ix_(pair, pair)])
        det_b = np.linalg.det(Db[np.ix_(pair, pair)])
        assert abs(det_p - det_b) <= 1e-9


# ---------------------------------------------------------------------------
# lattice reduction


@pytest.mark.parametrize("kind", ("CatSuspension", "BorelSmale", "BorelSmalePerturbed"))
def test_lattice_reduce_idempotent_and_flow_equivariant(kind):
    system = make(kind)
    for trial in range(20):
        x = S.Point(np.random.default_rng(400 + trial).uniform(-3, 3, system.dim))
        r = S.lattice_reduce(system, x)
        r2 = S.lattice_reduce(system, r)
        assert np.max(np.abs(r.coords - r2.coords)) <= 1e-9
        t = 1.3
        a = S.lattice_reduce(system, S.flow(system, x, t, reduce=False))
        b = S.lattice_reduce(system, S.flow(system, r, t, reduce=False))
        assert np.max(np.abs(a.coords - b.coords)) <= 1e-8


def test_lattice_reduce_unsupported_on_chart_local_models():
    for kind in ("ASL2Model", "SL3Model"):
        system = make(kind)
        with pytest.raises(Unsupported):
            S.lattice_reduce(system, S.origin(system))


def test_torus_coordinate_reduction():
    system = make("CatSuspension")
    x = S.Point(np.array([1.25, 0.0, 0.0]))
    r = S.lattice_reduce(system, x)
    assert np.allclose(r.coords, [0.25, 0.0, 0.0], atol=1e-12)


def test_heisenberg_mult_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.uniform(-2, 2, 3)
        e = S.heisenberg_mult(g, S.heisenberg_inverse(g))
        assert np.allclose(e, 0.0, atol=1e-12)


def test_step_count_allows_the_cap_and_rejects_past_it():
    # arithmetic only: nothing is allocated at or past the cap
    assert S.step_count(S.MAX_STEPS * 0.5, 0.5) == S.MAX_STEPS
    assert S.step_count(200, 1.0) == 200
    for T, dt in [(S.MAX_STEPS + 1, 1.0), (1e300, 1.0), (200.0, 1e-300), (0.1, 1.0),
                  (-5.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.nan)]:
        with pytest.raises(InvalidParams):
            S.step_count(T, dt)
    for T, dt in [(math.inf, 1.0), (1e300, 1e-300), (math.nan, 1.0)]:
        with pytest.raises(NonFinite):
            S.step_count(T, dt)
    # well above the longest shipped run (acceptance criterion 08: 8e4 steps)
    assert S.step_count(4e4, 0.5) * 50 <= S.MAX_STEPS

def test_ring_reduce_returns_lattice_offset():
    pair = np.array([2.7, -1.3])
    red, latt = S.ring_reduce(pair)
    assert np.allclose(red + latt, pair, atol=1e-12)
    n = S.RING_BASIS_INV @ red
    assert np.all(n >= -1e-12) and np.all(n < 1.0 + 1e-12)


@given(pairs=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 2), min_size=1, max_size=8))
def test_ring_reduce_rows_match_plain_matrix_products(pairs):
    # each pair of a batch reduces bit for bit as with plain P @ v on the pair
    rows = np.array(pairs)
    red, latt = S.ring_reduce(rows)
    for r, pair in enumerate(rows):
        n = S.RING_BASIS_INV @ pair
        assert red[r].tobytes() == (S.RING_BASIS @ (n - np.floor(n))).tobytes()
        assert latt[r].tobytes() == (S.RING_BASIS @ np.floor(n)).tobytes()
        assert S.ring_reduce(pair)[0].tobytes() == red[r].tobytes()


# ---------------------------------------------------------------------------
# leaf structure


def test_leaf_translates_stay_on_declared_leaves():
    # forward flow contracts stable translates, backward flow contracts
    # (strong-)unstable ones; chart-local models are exercised at the chart
    # origin where coordinates stay small
    for kind in LINEAR_KINDS:
        system = make(kind)
        x = seeded_point(system, 31) if system.model.quotiented else S.origin(system)
        n_s = S.leaf_dimension(system, "Stable")
        x_s = S.stable_translate(system, x, 0.05 * np.ones(n_s))
        d0 = S.dist(system, x, x_s)
        T = 4.0
        d1 = S.dist(
            system,
            S.flow(system, x, T, reduce=False),
            S.flow(system, x_s, T, reduce=False),
        )
        assert d1 < 0.2 * d0
        x_u = S.strong_unstable_translate(
            system, x, 0.05 * np.ones(S.leaf_dimension(system, "StrongUnstable"))
        )
        du0 = S.dist(system, x, x_u)
        du1 = S.dist(
            system,
            S.flow(system, x, -T, reduce=False),
            S.flow(system, x_u, -T, reduce=False),
        )
        assert du1 < 0.2 * du0


def test_sl3_commutator_projection_formula():
    system = make("SL3Model")
    x = S.origin(system)
    z, s1, s3, s2 = 1e-3, 2e-4, 4e-4, 5e-4
    xp = S.stable_translate(system, x, [s1, s3, s2])
    ux = S.strong_unstable_translate(system, x, [z])
    w, _ = system.model.cs_u_factorize(ux.coords, xp.coords)
    # leaf entries ordered (z, y, x): transverse parts s1*z and -s3*z
    assert abs(w[0] - z) <= 1e-8
    assert abs(w[1] - s1 * z) <= 1e-9
    assert abs(w[2] - (-s3 * z)) <= 1e-9


def test_asl2_commutator_projection_formula():
    system = make("ASL2Model")
    x = S.origin(system)
    b, y, c = 1e-3, 2e-4, 3e-4
    xp = S.stable_translate(system, x, [y, c])
    ux = S.strong_unstable_translate(system, x, [b])
    w, _ = system.model.cs_u_factorize(ux.coords, xp.coords)
    assert abs(w[1] - (-b * y)) <= 1e-10


# ---------------------------------------------------------------------------
# the real matrix log of the matrix-group charts


def _chart_logs(system, coords, kind, params):
    """The matrices whose log `coords_from_matrix` takes while one leaf
    evaluator call solves for its clock."""
    with mock.patch.object(S, "_real_log", wraps=S._real_log) as log:
        system.model.leaf_evaluator(coords, kind)(params)
    return [call.args[0] for call in log.call_args_list]


def assert_principal_real_log(m):
    """The real log against scipy's logm, and exp(log m) against m."""
    L = S._real_log(m)
    ref = scipy.linalg.logm(m)
    assert np.abs(np.imag(ref)).max() <= 1e-13
    assert np.abs(L - np.real(ref)).max() <= 1e-13 * max(1.0, np.abs(ref).max())
    assert np.abs(scipy.linalg.expm(L) - m).max() <= 1e-13 * max(1.0, np.abs(m).max())


@pytest.mark.parametrize("kind", ("ASL2Model", "SL3Model"))
@given(seed=st.integers(0, 2**32 - 1), leaf=st.sampled_from(S.LEAF_KINDS), data=st.data())
def test_real_log_matches_logm_on_the_matrices_the_charts_take_it_of(kind, seed, leaf, data):
    system = make(kind)
    x = seeded_point(system, seed)
    n = S.leaf_dimension(system, leaf)
    p = np.array(data.draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n)))
    for m in _chart_logs(system, x.coords, leaf, p):
        assert_principal_real_log(m)


@pytest.mark.parametrize("kind", ("ASL2Model", "SL3Model"))
def test_chart_logs_include_complex_conjugate_spectra(kind):
    # a complex-conjugate pair takes the same roots and series as a real spectrum
    system = make(kind)
    x = seeded_point(system, 3)
    seen = [m for leaf in S.LEAF_KINDS
            for m in _chart_logs(system, x.coords, leaf, [0.1] * S.leaf_dimension(system, leaf))]
    pairs = [m for m in seen if np.abs(np.linalg.eigvals(m).imag).max() > 1e-9]
    assert pairs
    for m in pairs:
        assert_principal_real_log(m)


_Q = np.array([[1.0, 0.3, -0.2], [0.1, 1.0, 0.4], [-0.5, 0.2, 1.0]])


@pytest.mark.parametrize("m", [
    np.diag([-1.0, -1.0, 1.0]),  # a rotation by pi
    np.diag([-2.0, -0.25, 2.0]),
    _Q @ np.diag([-3.0, -0.5, 2.0 / 3.0]) @ np.linalg.inv(_Q),
    np.diag([1.0, 0.0, 1.0]),
    np.full((3, 3), np.nan),
    np.diag([1.0, np.inf, 1.0]),
], ids=["minus_one", "negative_pair", "negative_pair_conjugated", "singular", "nan", "inf"])
def test_real_log_raises_nonfinite_where_no_real_principal_log_exists(m):
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
        with pytest.raises(NonFinite, match="no real principal log"):
            S._real_log(m)
    assert inv.call_count <= S._LOG_ROOTS * S._ROOT_STEPS


def test_real_log_of_the_identity_and_of_a_large_unipotent():
    assert S._real_log(np.eye(3)).tobytes() == np.zeros((3, 3)).tobytes()
    n = np.array([[0.0, 40.0, 3.0], [0.0, 0.0, -25.0], [0.0, 0.0, 0.0]])
    L = S._real_log(scipy.linalg.expm(n))  # eight square roots, then the series
    assert np.abs(L - n).max() <= 1e-12 * np.abs(n).max()


# ---------------------------------------------------------------------------
# row operations: every row bit-identical to the call on that row alone

QUOTIENT_KINDS = ("CatSuspension", "BorelSmale", "BorelSmalePerturbed")

# fundamental-domain seams: integer heights and lattice points, and values
# just beside them
_SEAMS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1.0 - 2.0**-53, -(2.0**-60), 2.0**-60)
_coord = st.one_of(st.sampled_from(_SEAMS), st.floats(-6.0, 6.0))
_time = st.one_of(st.sampled_from(_SEAMS), st.floats(-3.0, 3.0))


def _rows(dim):
    return st.lists(st.tuples(*[_coord] * dim), min_size=1, max_size=8)


def assert_bits_equal(batch, rows):
    expect = np.array(rows)
    assert batch.shape == expect.shape
    assert batch.tobytes() == expect.tobytes()


class CatScalar:
    """The cat suspension's operations on one point, written with plain P @ v."""

    def __init__(self, m):
        self.m = m

    def power(self, t):
        return (self.m._V * self.m._evals**t) @ self.m._Vinv

    def flow(self, c, t):
        return np.append(self.power(t) @ c[:2], c[2] + t)

    def reduce(self, c):
        theta = min(c[2] - np.floor(c[2]), _BELOW_ONE)
        w = self.power(-theta) @ c[:2]
        return np.append(self.power(theta) @ (w - np.floor(w)), theta)

    def unstable_shift(self, c, u):
        return np.append(c[:2] + u * self.m._V[:, 0], c[2])


@given(rows=_rows(3), times=st.lists(_time, min_size=8, max_size=8), t=_time)
def test_cat_batched_operations_match_scalar_calls(rows, times, t):
    m = make("CatSuspension").model
    c = np.array(rows)
    ts = np.array(times[: len(c)])
    for one in (m, CatScalar(m)):
        assert_bits_equal(m.power(ts), [one.power(ti) for ti in ts])
        assert_bits_equal(m.flow(c, ts), [one.flow(r, ti) for r, ti in zip(c, ts)])
        assert_bits_equal(m.flow(c, t), [one.flow(r, t) for r in c])
        assert_bits_equal(m.reduce(c), [one.reduce(r) for r in c])
        assert_bits_equal(m.unstable_shift(c, ts),
                          [one.unstable_shift(r, ti) for r, ti in zip(c, ts)])
        assert_bits_equal(m.unstable_shift(c, t), [one.unstable_shift(r, t) for r in c])


@pytest.mark.parametrize("kind", QUOTIENT_KINDS)
@given(data=st.data())
def test_row_operations_match_point_operations(kind, data):
    system = make(kind)
    c = np.array(data.draw(_rows(system.dim)))
    t = data.draw(_time)
    us = np.array(data.draw(st.lists(_time, min_size=len(c), max_size=len(c))))
    pts = [S.Point(r) for r in c]
    assert_bits_equal(S.flow_rows(system, c, t), [S.flow(system, p, t).coords for p in pts])
    assert_bits_equal(S.reduce_rows(system, c), [S.lattice_reduce(system, p).coords for p in pts])
    assert_bits_equal(S.tangent_flow_rows(system, c, t), [S.tangent_flow(system, p, t) for p in pts])
    assert_bits_equal(S.tangent_flow_rows(system, c, us),
                      [S.tangent_flow(system, p, u) for p, u in zip(pts, us)])
    assert_bits_equal(
        S.unstable_shift_rows(system, c, us),
        [S.unstable_shift(system, p, u).coords for p, u in zip(pts, us)],
    )


@pytest.mark.parametrize("kind", QUOTIENT_KINDS)
@given(bad=st.sampled_from((math.nan, math.inf, -math.inf)), row=st.integers(0, 3))
def test_row_operations_reject_non_finite_input(kind, bad, row):
    system = make(kind)
    c = np.random.default_rng(row).uniform(0.0, 1.0, (4, system.dim))
    with pytest.raises(NonFinite):
        S.flow_rows(system, c, bad)
    with pytest.raises(NonFinite):
        S.tangent_flow_rows(system, c, np.where(np.arange(4) == row, bad, 0.5))
    with pytest.raises(NonFinite):
        S.unstable_shift_rows(system, c, np.where(np.arange(4) == row, bad, 0.5))
    c[row, 0] = bad
    with pytest.raises(NonFinite):
        S.flow_rows(system, c, 0.5)
    with pytest.raises(NonFinite):
        S.reduce_rows(system, c)
    with pytest.raises(NonFinite):
        S.tangent_flow_rows(system, c, 0.5)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParams):
        make("NoSuchModel")
    with pytest.raises(InvalidParams):
        make("BorelSmale", bogus=1)


# ---------------------------------------------------------------------------
# capabilities: what the pipelines read instead of the kind string


@pytest.mark.parametrize("kind", LINEAR_KINDS)
@pytest.mark.parametrize("leaf", ("Stable", "Unstable", "StrongUnstable"))
@given(point=st.tuples(*[_coord] * 8))
def test_leaf_rates_are_growth_rates_of_leaf_directions(kind, leaf, point):
    system = make(kind)
    D = S.tangent_flow(system, S.Point(np.array(point[: system.dim])), 1.0)
    dirs = system.model.leaf_dirs(leaf)
    rates = system.model.leaf_rates(leaf)
    assert len(rates) == dirs.shape[1]
    for j, rate in enumerate(rates):
        assert abs(rate - math.log(np.linalg.norm(D @ dirs[:, j]))) <= 1e-12


def test_factorize_makes_no_tangent_flow_call():
    # every transport in the transfer pipeline steps through the cocycle walk
    tree = ast.parse((Path(S.__file__).parent / "factorize.py").read_text())
    hits = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "tangent_flow"
    ]
    assert hits == []


def test_pipelines_do_not_branch_on_the_system_kind():
    pattern = re.compile(r"\.kind\s*(==|!=|\bin\b|\bnot\s+in\b)")
    src = Path(S.__file__).parent
    hits = [
        f"{name}.py:{n}: {line.strip()}"
        for name in ("cocycle", "factorize", "leafgeom", "measures")
        for n, line in enumerate((src / f"{name}.py").read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


# ---------------------------------------------------------------------------
# the perturbed model's rows flow against the scalar code it replaced


class PerturbedScalar:
    """The perturbed model's flow, Jacobian, shear and reduction on one point,
    as plain scalar loops over the crossings: the reference for its rows."""

    def __init__(self, m):
        self.m = m

    def shear(self, z_pair, sign):
        n = S.RING_BASIS_INV @ z_pair
        n = n.copy()
        n[0] += sign * self.m.eps * math.sin(2.0 * math.pi * n[1])
        return S.RING_BASIS @ n

    def shear_jac(self, z_pair, sign):
        n = S.RING_BASIS_INV @ z_pair
        J = np.eye(2)
        J[0, 1] = sign * self.m.eps * 2.0 * math.pi * math.cos(2.0 * math.pi * n[1])
        return S.RING_BASIS @ J @ S.RING_BASIS_INV

    @staticmethod
    def crossings(theta0, t):
        if t > 0:
            lo, hi = math.floor(theta0) + 1, math.floor(theta0 + t)
            return list(range(lo, hi + 1)), +1
        if t < 0:
            hi, lo = math.floor(theta0), math.floor(theta0 + t) + 1
            return list(range(hi, lo - 1, -1)), -1
        return [], +1

    def flow_with_jacobian(self, c, t):
        rates = self.m.rates[:6]
        v = c[:6].copy()
        theta0 = c[6]
        ks, sign = self.crossings(theta0, t)
        J = np.zeros((6, 7))
        J[:, :6] = np.eye(6)

        def scale(duration, dtheta0_coeff):
            nonlocal v, J
            E = np.exp(rates * duration)
            v = E * v
            J = E[:, None] * J
            if dtheta0_coeff != 0.0:
                J[:, 6] += dtheta0_coeff * rates * v

        def shear_step():
            for (i, j) in self.m.sheared_pairs:
                pre = v[[i, j]].copy()
                v[[i, j]] = self.shear(pre, sign)
                J[[i, j], :] = self.shear_jac(pre, sign) @ J[[i, j], :]

        if not ks:
            scale(t, 0.0)
        else:
            scale(ks[0] - theta0, -1.0)
            shear_step()
            for _ in ks[1:]:
                scale(float(sign), 0.0)
                shear_step()
            scale(theta0 + t - ks[-1], +1.0)
        out = np.append(v, theta0 + t)
        if not np.all(np.isfinite(out)):
            raise NonFinite("flow overflow")
        D = np.zeros((7, 7))
        D[:6, :] = J
        D[6, 6] = 1.0
        return out, D

    def reduce(self, c):
        theta = min(c[6] - np.floor(c[6]), _BELOW_ONE)
        w = c[:6] * np.exp(self.m.rates[:6] * -theta)
        out_pairs = np.empty(6)
        for (i, j) in ((0, 1), (2, 3), (4, 5)):
            n = S.RING_BASIS_INV @ w[[i, j]]
            out_pairs[[i, j]] = S.RING_BASIS @ (n - np.floor(n))
        return np.append(out_pairs * np.exp(self.m.rates[:6] * theta), theta)


# heights at and one ulp below integers, and anywhere
_heights = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-3, 3).map(lambda k: math.nextafter(float(k), -math.inf)),
    st.floats(-3.0, 3.0),
)
_pert_times = st.one_of(
    st.sampled_from((0.5, -0.5, 1.0, -1.0)),
    st.integers(1, 16).flatmap(lambda ell: st.sampled_from((float(ell), -float(ell)))),
)
# fiber values, with a few so large that a long flow overflows
_fibers = st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from((1e300, -1e300))),
                   min_size=6, max_size=6)


_BELOW_ONE = math.nextafter(1.0, -math.inf)


@given(eps=st.sampled_from((0.0, 0.01)),
       rows=st.lists(st.tuples(_fibers, _heights, _pert_times), min_size=1, max_size=6))
@example(eps=0.01, rows=[([0.3] * 6, _BELOW_ONE, 1.0), ([0.2] * 6, 2.0, -16.0),
                         ([1e300] + [0.1] * 5, 0.2, 16.0)])
def test_perturbed_rows_flow_matches_the_scalar_loop_bit_for_bit(eps, rows):
    m = make("BorelSmalePerturbed", eps_pert=eps).model
    ref = PerturbedScalar(m)
    c = np.array([fib + [th] for fib, th, _ in rows])
    t = np.array([ti for _, _, ti in rows])
    expect, failed = [], []
    for row, ti in zip(c, t):
        try:
            expect.append(ref.flow_with_jacobian(row, float(ti)))
        except (NonFinite, ValueError):  # the scalar loop's math.sin(inf) raised ValueError
            failed.append(len(expect))
            expect.append(None)
    for r, (row, ti) in enumerate(zip(c, t)):
        if r in failed:  # NonFinite on exactly the rows the scalar path fails
            with pytest.raises(NonFinite):
                m.flow(row, ti)
            with pytest.raises(NonFinite):
                m.dflow(row, ti)
        else:
            assert m.flow(row, ti).tobytes() == expect[r][0].tobytes()
            assert m.dflow(row, ti).tobytes() == expect[r][1].tobytes()
        assert m.reduce(row).tobytes() == ref.reduce(row).tobytes()
    if failed:
        with pytest.raises(NonFinite):
            m.flow(c, t)
    else:
        assert_bits_equal(m.flow(c, t), [e[0] for e in expect])
        assert_bits_equal(m.dflow(c, t), [e[1] for e in expect])
    assert_bits_equal(m.reduce(c), [ref.reduce(row) for row in c])
    for sign in (1, -1):
        for row in c:
            assert m._shear(row[4:6], sign).tobytes() == ref.shear(row[4:6], sign).tobytes()


# ---------------------------------------------------------------------------
# perturbed-model properties at a relative tolerance
#
# The cocycle identity and the forward-backward inverse hold to round-off:
# 600 draws (half of them at and one ulp below integer heights) gave at most
# 2.7e-13 and 1.0e-14, relative to the largest entry.  The stated tolerance
# is 1e-10.

PERT_RTOL = 1e-10


def _pert_start(seed, height):
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    c = seeded_point(system, seed).coords.copy()
    c[6] = height
    return system, S.Point(c)


@given(seed=st.integers(0, 2**31 - 1), height=_heights,
       s=st.one_of(st.floats(-2.0, 2.0), st.sampled_from((1.0, -1.0, 0.5))),
       t=st.one_of(st.floats(-2.0, 2.0), st.sampled_from((1.0, -1.0, 0.5))))
@example(seed=0, height=_BELOW_ONE, s=1.0, t=-1.0)
def test_perturbed_cocycle_identity_to_relative_round_off(seed, height, s, t):
    # the composed clock (theta + s) + t may round away from theta + (s + t):
    # one ulp below an integer it can land on the integer, past a crossing.
    # The identity holds for the clock advance tau the composition made
    system, x = _pert_start(seed, height)
    xs = S.flow(system, x, s, reduce=False)
    rhs = S.tangent_flow(system, xs, t) @ S.tangent_flow(system, x, s)
    tau = (xs.coords[6] + t) - x.coords[6]
    assert abs(tau - (s + t)) <= 2.0**-50 * max(1.0, abs(s) + abs(t))
    assume(x.coords[6] + tau == xs.coords[6] + t)
    lhs = S.tangent_flow(system, x, tau)
    assert np.max(np.abs(lhs - rhs)) <= PERT_RTOL * np.max(np.abs(lhs))


@given(seed=st.integers(0, 2**31 - 1), height=_heights,
       t=st.one_of(st.floats(-3.0, 3.0), st.sampled_from((1.0, -1.0, 0.5, 2.0, -2.0))))
@example(seed=0, height=_BELOW_ONE, t=0.5)
@example(seed=1, height=-(2.0**-1074), t=1.0)
def test_perturbed_forward_and_backward_flows_invert_each_other(seed, height, t):
    # the clock's own round trip (theta + t) - t may round: one ulp below an
    # integer it lands on the integer, on the far side of a shear the forward
    # flow applied.  So the round trip is the flow over that clock residual,
    # which is zero whenever the clock round trip is exact
    system, x = _pert_start(seed, height)
    y = S.flow(system, S.flow(system, x, t, reduce=False), -t, reduce=False)
    residual = y.coords[6] - x.coords[6]
    assert abs(residual) <= 2.0**-50 * max(1.0, abs(t))
    if (x.coords[6] + t) - t == x.coords[6]:
        assert residual == 0.0
    expect = S.flow(system, x, residual, reduce=False)
    assert np.max(np.abs(y.coords - expect.coords)) <= PERT_RTOL * np.max(np.abs(expect.coords))


# ---------------------------------------------------------------------------
# the nil pair's rows against the one-point code they replaced


class NilScalar:
    """The Heisenberg pair's flow, Jacobian, reduction and leaf shift on one
    point, with the group law as `heisenberg_mult` on each copy: the
    reference for its rows."""

    COPIES = ([0, 2, 4], [1, 3, 5])  # (x, y, z) of each Heisenberg copy

    def __init__(self, m):
        self.m = m

    @classmethod
    def pair_mult(cls, l, r):
        out = np.empty(6)
        for copy in cls.COPIES:
            out[copy] = S.heisenberg_mult(l[copy], r[copy])
        return out

    @classmethod
    def pair_inverse(cls, g):
        out = np.empty(6)
        for copy in cls.COPIES:
            out[copy] = S.heisenberg_inverse(g[copy])
        return out

    def flow(self, c, t):
        out = c.copy()
        out[:6] = c[:6] * np.exp(self.m.rates[:6] * t)
        out[6] += t
        return out

    def dflow(self, c, t):
        d = np.exp(self.m.rates * t)
        d[6] = 1.0
        return np.diag(d)

    def reduce(self, c):
        theta = min(c[6] - np.floor(c[6]), _BELOW_ONE)
        v = c[:6] * np.exp(self.m.rates[:6] * -theta)
        n = S.RING_BASIS_INV @ v[[0, 1]]
        v[[0, 1]] = S.RING_BASIS @ (n - np.floor(n))
        n = S.RING_BASIS_INV @ v[[2, 3]]
        n_int = np.floor(n)
        eta = -S.RING_BASIS @ n_int  # lattice pair added to y
        v[[2, 3]] = S.RING_BASIS @ (n - n_int)
        v[4] += v[0] * eta[0]
        v[5] += v[1] * eta[1]
        n = S.RING_BASIS_INV @ v[[4, 5]]
        v[[4, 5]] = S.RING_BASIS @ (n - np.floor(n))
        return np.append(v * np.exp(self.m.rates[:6] * theta), theta)

    def unstable_shift(self, c, u):
        l = np.zeros(6)
        l[self.m._kind_indices("StrongUnstable")] = u
        return np.append(self.pair_mult(l, c[:6]), c[6])


_nil_rows = st.lists(
    st.tuples(st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6), _heights, _pert_times,
              st.floats(-2.0, 2.0)),
    min_size=1, max_size=6,
)


@given(ab=st.sampled_from(((3, -2), (2, 1), (-1, 3))), rows=_nil_rows, t=_pert_times)
@example(ab=(3, -2), rows=[([0.7] * 6, _BELOW_ONE, 1.0, 0.5), ([0.2] * 6, 2.0, -16.0, -1.0),
                           ([-3.9] * 6, -(2.0**-1074), 0.5, 2.0)], t=-0.5)
def test_nil_pair_rows_match_the_one_point_reference_bit_for_bit(ab, rows, t):
    m = make("BorelSmale", a=ab[0], b=ab[1]).model
    ref = NilScalar(m)
    c = np.array([fib + [th] for fib, th, _, _ in rows])
    ts = np.array([ti for _, _, ti, _ in rows])
    us = np.array([u for _, _, _, u in rows])
    for time, shift in ((t, float(us[0])), (ts, us)):
        each, each_u = np.broadcast_to(time, len(c)), np.broadcast_to(shift, len(c))
        assert_bits_equal(m.flow(c, time), [ref.flow(r, ti) for r, ti in zip(c, each)])
        assert_bits_equal(m.dflow(c, time), [ref.dflow(r, ti) for r, ti in zip(c, each)])
        assert_bits_equal(m.unstable_shift(c, shift),
                          [ref.unstable_shift(r, u) for r, u in zip(c, each_u)])
    assert_bits_equal(m.reduce(c), [ref.reduce(r) for r in c])
    assert_bits_equal(m.group_displacement(c, c[::-1]),
                      [ref.pair_mult(b[:6], ref.pair_inverse(a[:6])) for a, b in zip(c, c[::-1])])
    for r, ti, u in zip(c, ts, us):
        assert m.flow(r, ti).tobytes() == ref.flow(r, ti).tobytes()
        assert m.dflow(r, ti).tobytes() == ref.dflow(r, ti).tobytes()
        assert m.reduce(r).tobytes() == ref.reduce(r).tobytes()
        assert m.unstable_shift(r, u).tobytes() == ref.unstable_shift(r, u).tobytes()


def matrix_group_flow(m, c, t):
    """A matrix group's flow on one point, with its chart-bound check."""
    out = c * np.exp(m.rates * t)
    out[m.theta_index] = c[m.theta_index] + t
    if np.max(np.abs(out)) > m.chart_bound:
        raise NonFinite("orbit left the configured chart")
    return out


@pytest.mark.parametrize("kind", ("ASL2Model", "SL3Model"))
@given(data=st.data())
@example(data=None)
def test_matrix_group_rows_flow_matches_one_point_calls(kind, data):
    # the chart-bound check raises on a batch exactly when some row leaves
    m = make(kind).model
    if data is None:  # one row stays in the chart, the next leaves it
        c, ts, t = np.full((2, m.dim), 0.5), np.array([0.5, 16.0]), 1.0
    else:
        c = np.array(data.draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=m.dim,
                                                 max_size=m.dim), min_size=1, max_size=6)))
        c[:, m.theta_index] = data.draw(st.lists(_heights, min_size=len(c), max_size=len(c)))
        ts = np.array(data.draw(st.lists(_pert_times, min_size=len(c), max_size=len(c))))
        t = data.draw(_pert_times)
    for time in (t, ts):
        each = np.broadcast_to(time, len(c))
        assert_bits_equal(m.dflow(c, time), [m.dflow(r, ti) for r, ti in zip(c, each)])
        expect = []
        for r, ti in zip(c, each):
            try:
                expect.append(matrix_group_flow(m, r, ti))
            except NonFinite:
                with pytest.raises(NonFinite, match="orbit left the configured chart"):
                    m.flow(r, ti)
                expect = None
                break
            assert m.flow(r, ti).tobytes() == expect[-1].tobytes()
        if expect is None:
            with pytest.raises(NonFinite, match="orbit left the configured chart"):
                m.flow(c, time)
        else:
            assert_bits_equal(m.flow(c, time), expect)


@pytest.mark.parametrize("kind", ("ASL2Model", "SL3Model"))
def test_leaf_shift_rows_unsupported_on_chart_local_models(kind):
    system = make(kind)
    with pytest.raises(Unsupported):
        S.unstable_shift_rows(system, np.zeros((2, system.dim)), 0.1)
    assert S.unstable_shift(system, S.origin(system), 0.1).coords.shape == (system.dim,)


# ---------------------------------------------------------------------------
# lattice properties: reductions agree up to a lattice element


def _lattice_offset(kind, m, a, b):
    """Lattice coordinates of the fiber element carrying reduced b to reduced
    a at a's height, then the height difference mod 1: all integers exactly
    when a and b are one point of the quotient."""
    theta = a[m.theta_index]
    dtheta = (theta - b[m.theta_index] + 0.5) % 1.0 - 0.5
    if kind == "CatSuspension":  # the fiber lattice at height theta is A^theta Z^2
        return np.append(m.power(-theta) @ (a[:2] - b[:2]), dtheta)
    wa, wb = (p[:6] * np.exp(m.rates[:6] * -theta) for p in (a, b))
    g = NilScalar.pair_mult(NilScalar.pair_inverse(wb), wa) if kind == "BorelSmale" else wa - wb
    return np.concatenate([S.RING_BASIS_INV @ g[[i, i + 1]] for i in (0, 2, 4)] + [[dtheta]])


def assert_same_coset(kind, m, a, b):
    off = _lattice_offset(kind, m, a.coords, b.coords)
    assert np.max(np.abs(off - np.round(off))) <= 1e-9


def _lattice_point(system, fibers, height):
    return S.Point(np.append(fibers[: system.dim - 1], height))


_lattice_fibers = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)
_lattice_times = st.one_of(st.floats(-2.0, 2.0), st.sampled_from((0.5, -0.5, 1.0, -1.0)))


@pytest.mark.parametrize("kind", QUOTIENT_KINDS)
@given(fibers=_lattice_fibers, height=_heights,
       k=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_reduce_is_idempotent_and_invariant_under_fiber_lattice_shifts(kind, fibers, height, k):
    system = make(kind)
    m = system.model
    x = _lattice_point(system, fibers, height)
    r = S.lattice_reduce(system, x)
    assert_same_coset(kind, m, S.lattice_reduce(system, r), r)
    # x . gamma for a fiber lattice element gamma at x's height: right
    # multiplication by a ring-lattice element on the Heisenberg pair
    c = x.coords.copy()
    if kind == "CatSuspension":
        c[:2] += m.power(height) @ np.array(k[:2], dtype=float)
    else:
        gamma = np.empty(6)
        for i in (0, 2, 4):
            gamma[[i, i + 1]] = S.RING_BASIS @ np.array(k[i : i + 2], dtype=float)
        gamma *= np.exp(m.rates[:6] * height)
        c[:6] = NilScalar.pair_mult(c[:6], gamma) if kind == "BorelSmale" else c[:6] + gamma
    assert_same_coset(kind, m, S.lattice_reduce(system, S.Point(c)), r)


@pytest.mark.parametrize("kind", QUOTIENT_KINDS)
@given(fibers=_lattice_fibers, height=st.floats(-(2.0**-54), 0.0, exclude_max=True))
@example(fibers=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], height=-(2.0**-60))
def test_reduce_maps_heights_just_below_zero_into_the_unit_interval(kind, fibers, height):
    # x - floor(x) rounds to 1.0 on [-2**-54, 0): past the roof crossing
    # (and, on the perturbed model, the shear) the point has not yet made
    system = make(kind)
    x = _lattice_point(system, fibers, height)
    r = S.lattice_reduce(system, x)
    assert 0.0 <= r.coords[system.model.theta_index] < 1.0
    assert_same_coset(kind, system.model, S.flow(system, x, 0.5), S.flow(system, r, 0.5))


@pytest.mark.parametrize("kind", QUOTIENT_KINDS)
@given(fibers=_lattice_fibers, height=_heights, t=_lattice_times)
def test_reduce_commutes_with_the_flow(kind, fibers, height, t):
    system = make(kind)
    x = _lattice_point(system, fibers, height)
    r = S.lattice_reduce(system, x)
    if system.model.sheared_pairs:
        # a clock sum that rounds onto an integer on one side only crosses a
        # roof (and shears) on that side only: clock round-off, not lattice
        th = system.model.theta_index
        assume(math.floor(x.coords[th] + t) - math.floor(x.coords[th])
               == math.floor(r.coords[th] + t) - math.floor(r.coords[th]))
    assert_same_coset(kind, system.model, S.flow(system, x, t), S.flow(system, r, t))
