"""Empirical measures, Wasserstein axioms, equidistribution, correlation law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import measures as M
from anosovlab import rng
from anosovlab import systems as S
from anosovlab.errors import InvalidParams, NonFinite, Unsupported


def make(kind, **params):
    return S.make_system(S.SystemSpec(kind, params))


CAT = make("CatSuspension")


def pt(seed, system=CAT):
    return S.random_point(system, np.random.default_rng(seed))


def test_sampling_past_the_step_cap_stops_before_it_starts():
    phi = M.leafwise_test(CAT)
    with pytest.raises(InvalidParams):
        M.birkhoff_equidistribution(CAT, pt(1), M.equidistribution_tests(CAT), T=1e300)
    with pytest.raises(InvalidParams):  # 2 * MAX_STEPS steps of 0.5
        M.lln_average(CAT, pt(1), phi, T=float(S.MAX_STEPS), n_u=1)
    with pytest.raises(InvalidParams):  # the exact phases walk the section orbit
        M.correlation_decay(CAT, pt(1), phi, 1.0, 2.0 * S.MAX_STEPS, method="exact")

def random_measure(gen, n=12):
    # dyadic weights: scaling by 0.5, 2, 10 is then exactly representable,
    # which is what makes the normalisation invariance exact
    weights = gen.integers(1, 32, n) / 16.0
    return M.EmpiricalMeasure.from_arrays(gen.uniform(-2.0, 2.0, n), weights)


# ---------------------------------------------------------------------------
# Wasserstein metric axioms


def test_wasserstein_identical_measures_zero():
    gen = np.random.default_rng(0)
    mu = random_measure(gen)
    assert M.wasserstein_1d(mu, mu) == 0.0


def test_wasserstein_normalisation_invariance():
    gen = np.random.default_rng(1)
    mu = random_measure(gen)
    for c in (0.5, 2.0, 10.0):
        scaled = M.EmpiricalMeasure.from_arrays(mu.positions, c * mu.weights)
        assert M.wasserstein_1d(mu, scaled) == 0.0


def test_wasserstein_symmetry_exact():
    gen = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_measure(gen), random_measure(gen)
        assert M.wasserstein_1d(a, b) == M.wasserstein_1d(b, a)


def test_wasserstein_triangle_inequality():
    gen = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = (random_measure(gen) for _ in range(3))
        assert M.wasserstein_1d(a, c) <= (
            M.wasserstein_1d(a, b) + M.wasserstein_1d(b, c) + 1e-12
        )


def test_wasserstein_dirac_pair():
    a = M.EmpiricalMeasure.from_arrays([0.0], [1.0])
    b = M.EmpiricalMeasure.from_arrays([0.45], [3.0])
    assert M.wasserstein_1d(a, b) == pytest.approx(0.45, abs=1e-15)


def test_empirical_measure_validation():
    with pytest.raises(InvalidParams):
        M.EmpiricalMeasure.from_arrays([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(InvalidParams):
        M.EmpiricalMeasure.from_arrays([0.0], [0.0])


# ---------------------------------------------------------------------------
# leafwise empirical measures


def test_zero_length_window_single_atom():
    mu = M.empirical_leaf_measure(CAT, pt(4), 100, (0.3, 0.3), seed=1)
    assert len(mu.samples) == 1
    assert mu.total == 1.0


def test_leaf_measure_weights_uniform_for_volume_preserving_model():
    mu = M.empirical_leaf_measure(CAT, pt(5), 100000, (-0.2, 0.2), seed=2)
    w = mu.weights
    assert len(mu.samples) == 100000
    assert np.max(np.abs(w / w.mean() - 1.0)) <= 0.05


def test_disjoint_windows_total_additivity():
    x = pt(6)
    a = M.empirical_leaf_measure(CAT, x, 500, (-0.2, -0.1), seed=3, T_orbit=2e4)
    b = M.empirical_leaf_measure(CAT, x, 500, (0.1, 0.2), seed=3, T_orbit=2e4)
    assert a.support[1] < b.support[0]
    union = M.EmpiricalMeasure.from_arrays(
        np.concatenate([a.positions, b.positions]),
        np.concatenate([a.weights, b.weights]),
    )
    assert union.total == pytest.approx(a.total + b.total, rel=1e-12)


def test_leaf_measure_needs_quotient():
    asl = make("ASL2Model")
    with pytest.raises(Unsupported):
        M.empirical_leaf_measure(asl, S.origin(asl), 10, (0.0, 0.1))


# ---------------------------------------------------------------------------
# Birkhoff equidistribution


def test_constant_test_has_zero_discrepancy():
    tests = [t for t in M.equidistribution_tests(CAT) if t.name == "const"]
    rep = M.birkhoff_equidistribution(CAT, pt(7), tests, T=300.0, dt=0.5)
    assert all(d == 0.0 for _, d in rep.discrepancy_curve)


def test_birkhoff_averages_bounded_by_sup():
    tests = M.equidistribution_tests(CAT)
    rep = M.birkhoff_equidistribution(CAT, pt(8), tests, T=500.0, dt=0.5)
    for name, avg, ref in rep.test_values:
        assert abs(avg) <= 1.0 + 1e-12


def test_birkhoff_discrepancy_small_at_moderate_time():
    tests = M.equidistribution_tests(CAT)
    rep = M.birkhoff_equidistribution(CAT, pt(9), tests, T=4000.0, dt=0.5)
    assert rep.discrepancy_curve[-1][1] <= 0.05
    ts = [t for t, _ in rep.discrepancy_curve]
    assert ts == sorted(ts)


@pytest.mark.parametrize("T", (0.5, 2.0, 3.0, 4.5))
def test_birkhoff_short_runs_report_finite_checkpoints(T):
    rep = M.birkhoff_equidistribution(CAT, pt(20), M.equidistribution_tests(CAT), T=T, dt=0.5)
    ts = [t for t, _ in rep.discrepancy_curve]
    assert ts[0] > 0.0 and ts == sorted(set(ts)) and ts[-1] == T
    assert all(math.isfinite(d) for _, d in rep.discrepancy_curve)


def test_birkhoff_unsupported_on_chart_local():
    asl = make("ASL2Model")
    with pytest.raises(Unsupported):
        M.birkhoff_equidistribution(asl, S.origin(asl), [], T=10.0)


def test_birkhoff_works_on_nil_quotient():
    bs = make("BorelSmale")
    tests = M.equidistribution_tests(bs)
    x = S.random_point(bs, np.random.default_rng(10))
    rep = M.birkhoff_equidistribution(bs, x, tests, T=500.0, dt=0.5)
    assert rep.discrepancy_curve[-1][1] <= 0.3


# ---------------------------------------------------------------------------
# correlation law along the fast leaf


def test_correlation_exact_matches_monte_carlo():
    phi = M.leafwise_test(CAT)
    x = pt(11)
    v_exact, se0 = M.correlation_decay(CAT, x, phi, 1.0, 3.0, method="exact")
    assert se0 == 0.0
    v_mc, se = M.correlation_decay(CAT, x, phi, 1.0, 3.0, n_u=40000, method="mc")
    assert abs(v_exact - v_mc) <= 4.0 * se


def test_correlation_equal_times_bounded():
    phi = M.leafwise_test(CAT, normalised=False)  # |phi| <= 1
    v, _ = M.correlation_decay(CAT, pt(12), phi, 2.0, 2.0, method="mc", n_u=2000)
    assert 0.0 <= v <= 4.0


def test_correlation_constant_test_vanishes():
    const = [t for t in M.equidistribution_tests(CAT) if t.name == "const"][0]
    x = pt(13)
    lam1 = CAT.model.rate_top
    y = S.lattice_reduce(CAT, S.unstable_shift(CAT, x, 0.37))
    f = const(CAT, y) - const(CAT, S.unstable_shift(CAT, y, 1.0))
    assert f == 0.0


def test_correlation_decay_fit():
    phi = M.leafwise_test(CAT)
    x = pt(14)
    gaps = np.arange(2.0, 21.0, 2.0)
    vals = [abs(M.correlation_decay(CAT, x, phi, 1.0, 1.0 + g)[0]) for g in gaps]
    ln = np.log(np.maximum(vals, 1e-300))
    slope, icpt = np.polyfit(gaps, ln, 1)
    pred = np.polyval([slope, icpt], gaps)
    r2 = 1.0 - np.sum((ln - pred) ** 2) / np.sum((ln - ln.mean()) ** 2)
    assert -slope > 0.0
    assert r2 >= 0.9


def test_correlation_envelope_dominated_by_zero_gap():
    phi = M.leafwise_test(CAT)
    x = pt(15)
    v0 = abs(M.correlation_decay(CAT, x, phi, 1.0, 1.0)[0])
    others = [abs(M.correlation_decay(CAT, x, phi, 1.0, 1.0 + g)[0]) for g in (4.0, 8.0, 12.0)]
    assert v0 >= max(others)


def test_lln_percentile_small_and_decreasing():
    phi = M.leafwise_test(CAT)
    x = pt(16)
    p_short = M.lln_average(CAT, x, phi, T=150.0, n_u=32, seed=5)
    p_long = M.lln_average(CAT, x, phi, T=600.0, n_u=32, seed=5)
    assert p_long <= 0.05
    assert p_long <= p_short


def test_lln_percentile_rejects_empty_sampling():
    phi = M.leafwise_test(CAT)
    with pytest.raises(InvalidParams):
        M.lln_average(CAT, pt(17), phi, T=0.1, n_u=8)
    with pytest.raises(InvalidParams):
        M.lln_average(CAT, pt(17), phi, T=10.0, n_u=0)
    with pytest.raises(NonFinite):
        M.lln_average(CAT, pt(17), phi, T=math.inf, n_u=8)


def test_correlation_rejects_bad_sampling_inputs():
    phi = M.leafwise_test(CAT)
    with pytest.raises(InvalidParams):
        M.correlation_decay(CAT, pt(18), phi, 1.0, 3.0, n_u=1, method="mc")
    for method in ("exact", "mc"):
        with pytest.raises(NonFinite):
            M.correlation_decay(CAT, pt(18), phi, math.nan, 3.0, method=method)


@pytest.mark.parametrize("method", ["bogus", "MC", "", None])
def test_correlation_rejects_an_unknown_method(method):
    # an unknown name once ran Monte Carlo silently
    with pytest.raises(InvalidParams, match="method"):
        M.correlation_decay(CAT, pt(18), M.leafwise_test(CAT), 1.0, 3.0, method=method)


def test_birkhoff_rejects_runs_without_a_step():
    tests = M.equidistribution_tests(CAT)
    with pytest.raises(InvalidParams):
        M.birkhoff_equidistribution(CAT, pt(19), tests, T=0.1, dt=0.5)
    with pytest.raises(InvalidParams):
        M.birkhoff_equidistribution(CAT, pt(19), tests, T=10.0, dt=0.0)


# ---------------------------------------------------------------------------
# the batched sampling loops against their scalar definition


def _phi_scalar(system, phi, coords):
    """sin(2 pi k . section coordinates + phase) / lip at one point."""
    m = system.model
    c = m.reduce(coords)
    theta = c[m.theta_index]
    if system.kind == "CatSuspension":
        v = m.power(-theta) @ c[:2]
    else:
        w = c[:6] * np.exp(m.rates[:6] * -theta)
        v = np.concatenate([S.RING_BASIS_INV @ w[[i, j]] for i, j in ((0, 1), (2, 3), (4, 5))])
    _, k, phase = phi.freq
    return math.sin(2.0 * math.pi * float(np.dot(k, v)) + phase) / phi.lip


def _f_scalar(system, phi, y):
    shifted = S.unstable_shift(system, y, 1.0)
    return _phi_scalar(system, phi, y.coords) - _phi_scalar(system, phi, shifted.coords)


def _leaf_start(system, x, u):
    return S.lattice_reduce(system, S.unstable_shift(system, x, u))


def lln_reference(system, x, phi, T, n_u, dt, seed):
    averages = []
    for u in rng.derive(seed, "lln").uniform(0.0, 1.0, size=n_u):
        y = _leaf_start(system, x, u)
        acc = 0.0
        for _ in range(int(round(T / dt))):
            acc += _f_scalar(system, phi, y)
            y = S.flow(system, y, dt)
        averages.append(abs(acc / int(round(T / dt))))
    return float(np.quantile(averages, 0.95))


def mc_reference(system, x, phi, t, s, n_u, seed):
    gen = rng.derive(seed, "correlation", int(round(1000 * t)), int(round(1000 * s)))
    vals = []
    for u in gen.uniform(0.0, 1.0, size=n_u):
        y = _leaf_start(system, x, u)
        f, t_cur = [], 0.0
        for tk in sorted((t, s)):
            if tk > t_cur:
                y, t_cur = S.flow(system, y, tk - t_cur), tk
            f.append(_f_scalar(system, phi, y))
        vals.append(f[0] * f[1])
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_u))


_kinds = st.sampled_from(("CatSuspension", "BorelSmale", "BorelSmalePerturbed"))


@settings(max_examples=12)
@given(kind=_kinds, seed=st.integers(0, 2**31 - 1), n_u=st.integers(1, 6),
       T=st.floats(1.0, 30.0), dt=st.sampled_from((0.5, 0.25, 0.7)))
def test_lln_average_equals_scalar_loop(kind, seed, n_u, T, dt):
    system = make(kind)
    x = pt(seed, system)
    phi = M.leafwise_test(system)
    got = M.lln_average(system, x, phi, T=T, n_u=n_u, dt=dt, seed=seed)
    assert got == lln_reference(system, x, phi, T, n_u, dt, seed)


@settings(max_examples=12)
@given(kind=_kinds, seed=st.integers(0, 2**31 - 1), n_u=st.integers(2, 6),
       t=st.floats(0.0, 6.0), s=st.floats(0.0, 6.0))
def test_monte_carlo_correlation_equals_scalar_loop(kind, seed, n_u, t, s):
    system = make(kind)
    x = pt(seed, system)
    phi = M.leafwise_test(system)
    got = M.correlation_decay(system, x, phi, t, s, n_u=n_u, seed=seed, method="mc")
    assert got == mc_reference(system, x, phi, t, s, n_u, seed)


# ---------------------------------------------------------------------------
# the toral section orbit against a numpy `A @ u` loop

_BELOW_ONE = math.nextafter(1.0, 0.0)
_unit = st.one_of(st.just(0.0), st.just(_BELOW_ONE), st.floats(0.0, 1.0, exclude_max=True))


def _section_samples_by_matmul(model, c, times):
    """The section orbit with one numpy `A @ u` product per roof crossing."""
    red = model.reduce(c)
    theta0 = red[2]
    u = model.power(-theta0) @ red[:2]
    n_units = int(math.floor(theta0 + times[-1])) + 1
    U = np.empty((n_units + 1, 2))
    U[0] = u - np.floor(u)
    for n in range(n_units):
        u = model.section_map @ u
        u -= np.floor(u)
        U[n + 1] = u
    tt = theta0 + times
    n_k = np.floor(tt).astype(int)
    return U[n_k], tt - n_k, theta0


# integer entries 0 or a signed power of two: every product in A u is exact
@given(matrix=st.sampled_from((((2, 1), (1, 1)), ((1, 1), (1, 2)), ((2, -1), (-1, 1)),
                               ((4, 1), (-1, 0)))),
       u=st.tuples(_unit, _unit), theta=_unit, lift=st.integers(-2, 2),
       times=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=5))
def test_section_orbit_equals_a_matmul_loop_bit_for_bit(matrix, u, theta, lift, times):
    model = make("CatSuspension", matrix=matrix).model
    c = np.array([u[0] + lift, u[1], theta])
    times = np.sort(np.array(times))
    got = M._section_samples(model, c, times)
    ref = _section_samples_by_matmul(model, c, times)
    for a, b in zip(got, ref):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
