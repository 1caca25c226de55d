"""Transfer pipeline: holonomy, identification, stopping times, Y-configs."""

import math

import numpy as np
import pytest

from anosovlab import cocycle as C
from anosovlab import factorize as F
from anosovlab import systems as S
from anosovlab.errors import InvalidParams, NotStablyRelated, Unsupported


def make(kind, **params):
    return S.make_system(S.SystemSpec(kind, params))


def pt(system, seed):
    return S.random_point(system, np.random.default_rng(seed))


BS = make("BorelSmale")
PERT = make("BorelSmalePerturbed", eps_pert=0.01)
LOGLAM = BS.model.log_lam


# ---------------------------------------------------------------------------
# holonomy and identification


def test_holonomy_of_point_with_itself_is_one():
    x = pt(BS, 1)
    res = F.holonomy_limit(BS, x, x, T_max=8)
    assert res.value == 1.0


def test_holonomy_constant_along_linear_stable_leaves():
    for seed in range(10):
        x = pt(BS, 100 + seed)
        gen = np.random.default_rng(seed)
        z = S.stable_translate(BS, x, 0.2 * gen.standard_normal(3))
        res = F.holonomy_limit(BS, x, z, T_max=12)
        assert abs(res.value - 1.0) <= 1e-12


def test_holonomy_rejects_unrelated_points():
    x = pt(BS, 2)
    z = S.strong_unstable_translate(BS, x, [0.3])
    with pytest.raises(NotStablyRelated):
        F.holonomy_limit(BS, x, z, T_max=10)


def test_holonomy_increments_decay_on_perturbed():
    # the companion point comes from an order-6 stable chart, whose off-leaf
    # error limits how long the pair stays shadowable; the decay fit runs
    # inside that window
    x = pt(PERT, 3)
    from anosovlab import leafgeom as L

    chart = L.leaf_chart(PERT, x, "Stable", order=6)
    z = S.Point(chart.evaluate(np.array([0.04, 0.06, 0.05])))
    res = F.holonomy_limit(PERT, x, z, T_max=8, tol=0.0)
    mags = np.array([abs(d) for d in res.increments])
    assert mags[0] > 1e-12  # the second-line cocycle genuinely varies
    ts = np.arange(1, len(mags) + 1, dtype=float)
    good = mags > 1e-14
    slope = np.polyfit(ts[good], np.log(mags[good]), 1)[0]
    lam_c = PERT.model.rate_slow_stable
    assert slope <= -0.5 * lam_c  # contraction-driven decay


def _count_splittings(monkeypatch):
    """Record the point bytes of every splitting built: each row of each
    batch, of which a one-point oseledets_splitting call is the one-row case."""
    calls = []
    original = C._splittings

    def counting(system, points, *args, **kwargs):
        calls.extend(x.coords.tobytes() for x in points)
        return original(system, points, *args, **kwargs)

    monkeypatch.setattr(C, "_splittings", counting)
    return calls


def _stable_companion(seed):
    from anosovlab import leafgeom as L

    x = pt(PERT, seed)
    chart = L.leaf_chart(PERT, x, "Stable", order=6)
    return x, S.Point(chart.evaluate(np.array([0.04, 0.06, 0.05])))


def test_holonomy_builds_each_splitting_once(monkeypatch):
    # the two walks carry their splittings: one at each start point and one
    # at each point reached, with the start frames taken from step 0's
    x, z = _stable_companion(3)
    calls = _count_splittings(monkeypatch)
    res = F.holonomy_limit(PERT, x, z, T_max=8, tol=0.0)
    assert res.T_used == 8.0
    assert len(calls) == 2 + 2 * int(res.T_used)
    assert len(set(calls)) == len(calls)


def test_operator_b_builds_no_splitting_twice(monkeypatch):
    # the identification scalars read the splittings the holonomy walks hold
    x, z = _stable_companion(3)
    calls = _count_splittings(monkeypatch)
    F.operator_B(PERT, z, x, T_max=6)
    assert calls
    assert len(set(calls)) == len(calls)


def test_operator_b_clock_offset_reuses_the_splitting_at_x(monkeypatch):
    # with a clock offset the holonomy walks start at g_s x; the offset's
    # second-line growth reads the splitting at x that the caller's walk holds
    x, z0 = _stable_companion(3)
    z = S.flow(PERT, z0, 0.25, reduce=False)
    clock = PERT.model.theta_index
    assert z.coords[clock] != x.coords[clock]
    held = _count_splittings(monkeypatch)
    value = F.operator_B(PERT, z, x, T_max=6)
    fresh = list(held)
    walk = C._Walk(PERT, x, 1.0)
    walk.splitting  # held, as build_transfer's walk at x holds it
    held.clear()
    assert F._operator_B(PERT, z, walk, 6) == value
    assert len(held) == len(fresh) - 1
    assert x.coords.tobytes() in fresh and x.coords.tobytes() not in held
    # the same value as the second-line cocycle built afresh at x
    s_off = float(z.coords[clock] - x.coords[clock])
    lam2 = C.cocycle_lambda2(PERT, x, s_off)
    assert lam2 == C._lambda2(PERT, C.oseledets_splitting(PERT, x), s_off)


def test_holonomy_truncation_consistency():
    # linear leaves: increments vanish, so truncation depth cannot matter
    x = pt(BS, 91)
    z = S.stable_translate(BS, x, [0.15, -0.1, 0.2])
    short = F.holonomy_limit(BS, x, z, T_max=8)
    long = F.holonomy_limit(BS, x, z, T_max=18)
    assert abs(short.value - long.value) <= short.tail_bound + 1e-12
    # measured model: deeper truncation stays inside the reported tail
    from anosovlab import leafgeom as L

    xp = pt(PERT, 92)
    chart = L.leaf_chart(PERT, xp, "Stable", order=6)
    zp = S.Point(chart.evaluate(np.array([0.03, 0.04, 0.03])))
    a = F.holonomy_limit(PERT, xp, zp, T_max=5, tol=0.0)
    b = F.holonomy_limit(PERT, xp, zp, T_max=8, tol=0.0)
    assert abs(a.value - b.value) <= a.tail_bound + 1e-9


def test_chart_overflow_when_error_target_unreachable():
    from anosovlab.errors import ChartOverflow

    q1 = pt(PERT, 93)
    with pytest.raises(ChartOverflow):
        F.build_transfer(PERT, q1, 0.3, 6.0, epsilon_chart=1e-16)


def test_identification_map_is_one_in_canonical_frames():
    assert F.identification_map(BS, pt(BS, 4)) == 1.0


def test_identification_equivariance_linear():
    x = pt(BS, 5)
    sp = C.oseledets_splitting(BS, x)
    e2 = C.second_line(sp)
    t = 2.0
    D = S.tangent_flow(BS, x, t)
    y = S.flow(BS, x, t)
    qf = D @ e2
    qf = qf / np.linalg.norm(qf)
    i_t = F.identification_map(BS, y, q_frame=qf, r_frame=qf)
    assert abs(i_t - F.identification_map(BS, x, q_frame=e2, r_frame=e2)) <= 1e-9


def test_identification_bounded_along_perturbed_orbit():
    x = pt(PERT, 6)
    vals = []
    y = x.copy()
    for _ in range(20):
        vals.append(abs(F.identification_map(PERT, y)))
        y = S.flow(PERT, y, 5.0)
    assert min(vals) > 0.0
    assert max(vals) / min(vals) < 10.0


def test_operator_b_trivial_cases():
    x = pt(BS, 7)
    assert abs(F.operator_B(BS, x, x, T_max=6) - 1.0) <= 1e-12
    z = S.stable_translate(BS, x, [0.1, -0.05, 0.2])
    assert abs(F.operator_B(BS, z, x, T_max=10) - 1.0) <= 1e-10


def test_operator_b_frame_covariance():
    x = pt(BS, 8)
    z = S.stable_translate(BS, x, [0.1, 0.0, 0.1])
    sp = C.oseledets_splitting(BS, z)
    e2 = C.second_line(sp)
    b1 = F.operator_B(BS, z, x, T_max=8)
    b2 = F.operator_B(BS, z, x, r_frame_z=2.0 * e2, T_max=8)
    assert abs(b2 - 0.5 * b1) <= 1e-10


# ---------------------------------------------------------------------------
# a-priori bound


def test_apriori_beta_formula():
    assert F.apriori_beta(BS, 1.0, 1.0, 1.0) == 1.0
    sl3 = make("SL3Model")
    assert F.apriori_beta(sl3) == pytest.approx(0.2)
    assert F.apriori_beta(BS) == pytest.approx(2.0 * LOGLAM / (3.0 * LOGLAM))
    with pytest.raises(InvalidParams):
        F.apriori_beta(BS, -1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# stopping times


def test_stopping_matches_closed_form_inversion():
    gen = np.random.default_rng(9)
    for trial in range(50):
        q1 = pt(BS, 500 + trial)
        d0 = 10.0 ** gen.uniform(-4.5, -2.5)
        eps = 10.0 ** gen.uniform(-1.7, -1.0)
        ell = gen.uniform(6.0, 14.0)
        if eps <= d0 * 1.5:
            continue
        comp = F.Companion(s_disp=(0.0, 0.0, 0.4), r_seed=d0)
        rec = F.stopping_time(BS, q1, 0.3, ell, eps, comp)
        expect = F.closed_form_tau2(BS, d0, eps)
        if expect > rec.beta_bound:
            assert rec.never_reaches
            continue
        assert abs(rec.tau2 - expect) <= 0.05
        assert rec.tau2 <= rec.beta_bound + 1e-9


def test_stopping_never_reaches_flag():
    q1 = pt(BS, 10)
    comp = F.Companion(s_disp=(0.0, 0.0, 0.4), r_seed=1e-12)
    rec = F.stopping_time(BS, q1, 0.3, 6.0, 0.5, comp)
    assert rec.never_reaches
    assert rec.tau2 == pytest.approx(rec.beta_bound)


def test_stopping_trace_crosses_epsilon_within_one_step():
    q1 = pt(BS, 11)
    rec = F.stopping_time(BS, q1, 0.3, 10.0, 0.02)
    before = [a for t, a in rec.A_trace if t <= rec.tau2]
    after = [a for t, a in rec.A_trace if t > rec.tau2 + F.DT_TRACE]
    assert all(a <= rec.epsilon + 1e-12 for a in before)
    assert all(a > rec.epsilon for a in after)


def test_stopping_trace_monotone_on_average():
    q1 = pt(BS, 12)
    rec = F.stopping_time(BS, q1, 0.3, 12.0, 0.02)
    ts = np.array([t for t, _ in rec.A_trace])
    vals = np.array([a for _, a in rec.A_trace])
    window = 5.0
    for t0 in np.arange(0.0, ts[-1] - window, window):
        m = (ts >= t0) & (ts <= t0 + window)
        slope = np.polyfit(ts[m], np.log(vals[m]), 1)[0]
        assert slope > 0.0


def test_stopping_tau_increases_with_ell():
    q1 = pt(BS, 13)
    taus = [F.stopping_time(BS, q1, 0.3, ell, 0.02).tau2 for ell in (6.0, 9.0, 12.0)]
    assert taus[0] < taus[1] < taus[2]


def test_stopping_requires_positive_parameters():
    with pytest.raises(InvalidParams):
        F.stopping_time(BS, pt(BS, 14), 0.3, -1.0, 0.02)
    with pytest.raises(InvalidParams):
        F.stopping_time(BS, pt(BS, 14), 0.3, 5.0, 0.0)


def test_stopping_unsupported_without_second_direction():
    cat = make("CatSuspension")
    with pytest.raises(Unsupported):
        F.stopping_time(cat, pt(cat, 1), 0.3, 5.0, 0.02)


def test_transfer_magnitude_one_shot():
    q1 = pt(BS, 15)
    ell = 8.0
    q = S.flow(BS, q1, -ell)
    q_prime = S.stable_translate(BS, q, [0.0, 0.0, 0.4])
    a0 = F.transfer_magnitude(BS, q, q_prime, 0.3, ell, 0.0)
    a2 = F.transfer_magnitude(BS, q, q_prime, 0.3, ell, 2.0)
    assert a2 / a0 == pytest.approx(math.exp(2.0 * LOGLAM * 2.0), rel=1e-9)


def test_transfer_magnitude_zero_configuration():
    q1 = pt(BS, 16)
    ell = 6.0
    q = S.flow(BS, q1, -ell)
    val = F.transfer_magnitude(BS, q, q, 0.0, ell, 1.0)
    assert abs(val) <= 1e-15  # round-off dust from the group arithmetic


def test_transfer_growth_rate_is_second_weight():
    q1 = pt(BS, 17)
    rec = F.stopping_time(BS, q1, 0.3, 10.0, 0.02)
    ts = np.array([t for t, _ in rec.A_trace])
    vals = np.array([a for _, a in rec.A_trace])
    slope = np.polyfit(ts, np.log(vals), 1)[0]
    assert abs(slope - 2.0 * LOGLAM) <= 1e-9


# ---------------------------------------------------------------------------
# synchronisation and Y-configurations


def test_t2_equals_t_for_constant_cocycle():
    q1 = pt(BS, 18)
    for t in (1.0, 5.0, 9.0):
        assert abs(F.t2_solve(BS, q1, 0.3, t) - t) <= 1e-6


def test_t2_zero_displacement():
    q1 = pt(BS, 19)
    assert abs(F.t2_solve(BS, q1, 0.0, 4.0) - 4.0) <= 1e-6


def test_t2_close_on_perturbed():
    q1 = pt(PERT, 20)
    t = 12.0
    t2 = F.t2_solve(PERT, q1, 0.3, t)
    assert abs(t2 - t) <= 0.1 * t


def test_y_configuration_structure():
    q1 = pt(BS, 21)
    ell = 10.0
    q = S.flow(BS, q1, -ell)
    cfg = F.y_configuration(BS, q, 0.3, ell, 0.02)
    # q1 = g_ell(q)
    assert np.allclose(cfg.q1.coords, S.flow(BS, q, ell).coords, atol=1e-9)
    # q2 on the orbit of u.q1, q3 on the orbit of q1
    assert np.allclose(
        cfg.q2.coords, S.flow(BS, cfg.u_q1, cfg.t).coords, atol=1e-9
    )
    assert np.allclose(cfg.q3.coords, S.flow(BS, cfg.q1, cfg.t2).coords, atol=1e-9)
    # second-line synchronisation
    lam_q2 = C.cocycle_lambda2(BS, cfg.q1, cfg.t2)
    lam_u = C.cocycle_lambda2(BS, cfg.u_q1, cfg.t)
    assert abs(lam_q2 - lam_u) <= 1e-6


def test_degenerate_y_configuration():
    q1 = pt(BS, 22)
    q = S.flow(BS, q1, -8.0)
    cfg = F.y_configuration(BS, q, 0.0, 8.0, 0.02)
    assert abs(cfg.t2 - cfg.t) <= 1e-6


def test_paired_y_configurations_tau_gap():
    q1 = pt(BS, 23)
    q = S.flow(BS, q1, -20.0)
    cfg, cfg_p = F.paired_y_configurations(BS, q, 0.3, 0.25, 20.0, 0.02)
    assert cfg.tau_gap is not None
    assert cfg.tau_gap <= 5.0
    assert cfg.synchronized_with is cfg_p


# ---------------------------------------------------------------------------
# bilipschitz envelope


def test_bilipschitz_exact_slope_on_borel_smale():
    q1 = pt(BS, 24)
    k1, k2, ok, det = F.bilipschitz_check(
        BS, q1, 0.3, [6, 8, 10, 12, 14], [2, 4, 6, 8, 10], 0.02
    )
    assert ok
    predicted = LOGLAM / (2.0 * LOGLAM)
    assert abs(k1 - predicted) <= 0.01 * predicted
    assert abs(k2 - predicted) <= 0.01 * predicted


def test_bilipschitz_requires_grids():
    with pytest.raises(InvalidParams):
        F.bilipschitz_check(BS, pt(BS, 25), 0.3, [6, 8], [2, 4, 6, 8, 10], 0.02)


# ---------------------------------------------------------------------------
# leaf-divergence cross-check


def test_factorization_residual_decays_in_ell():
    q1 = pt(BS, 26)
    ells = [5.0, 8.0, 11.0, 14.0, 17.0, 20.0]
    diffs = []
    for ell in ells:
        hd, a_val, _ = F.factorization_residual(BS, q1, 0.3, ell, t=1.0)
        diffs.append(abs(hd - a_val))
    ln = np.log(np.maximum(diffs, 1e-300))
    slope, icpt = np.polyfit(ells, ln, 1)
    pred = np.polyval([slope, icpt], ells)
    r2 = 1.0 - np.sum((ln - pred) ** 2) / np.sum((ln - ln.mean()) ** 2)
    assert slope < 0.0
    assert r2 >= 0.9


# ---------------------------------------------------------------------------
# singular-direction avoidance


def test_singular_avoidance_simple_cases():
    sub, c = F.top_singular_avoidance(np.diag([2.0, 1.0]), 0.3)
    assert np.allclose(np.abs(sub[:, 0]), [0.0, 1.0])
    v = np.array([1.0, 0.0])
    A = np.diag([2.0, 1.0])
    assert np.linalg.norm(A @ v) == pytest.approx(2.0)
    sub_id, _ = F.top_singular_avoidance(np.eye(3), 0.5)
    assert sub_id.shape[1] == 0  # identity: every direction is leading


def test_singular_avoidance_oracle_ten_thousand_maps():
    gen = np.random.default_rng(42)
    rho = 0.3
    for _ in range(10000):
        A = gen.standard_normal((5, 5))
        sub, c_rho = F.top_singular_avoidance(A, rho)
        v = gen.standard_normal(5)
        v = v / np.linalg.norm(v)
        if sub.shape[1]:
            dist = float(np.linalg.norm(v - sub @ (sub.T @ v)))
        else:
            dist = 1.0
        if dist > rho:
            opn = float(np.linalg.norm(A, 2))
            assert np.linalg.norm(A @ v) >= rho * opn - 1e-12
            assert np.linalg.norm(A @ v) <= opn + 1e-12


# ---------------------------------------------------------------------------
# eps_pert = 0: the measured path against the closed forms


def test_unperturbed_stopping_time_matches_closed_form():
    system = make("BorelSmalePerturbed", eps_pert=0.0)
    resolution = F.DT_TRACE / 2 ** (F.REFINEMENTS + 1)
    for seed in (0, 1):
        rec = F.stopping_time(system, pt(system, seed), u=0.3, ell=13.0, epsilon=0.02)
        assert not rec.never_reaches
        assert abs(rec.B_scalar - 1.0) <= 1e-12
        assert abs(rec.tau2 - F.closed_form_tau2(system, rec.r_seed, 0.02)) <= resolution


# ---------------------------------------------------------------------------
# what the transfer pipeline computes, and what it leaves out


@pytest.mark.parametrize("s_disp", [(0.4,), (0.0, 0.4), (0.0, 0.0, 0.4, 0.0)])
def test_companion_needs_one_parameter_per_stable_axis(s_disp):
    # a short one once ended in a matmul ValueError, a long one was cut down
    for system in (BS, PERT):
        with pytest.raises(InvalidParams, match="s_disp"):
            F.stopping_time(system, pt(system, 3), 0.3, 8.0, 0.02, F.Companion(s_disp=s_disp))


def test_stopping_time_fits_no_chart_polynomial(monkeypatch):
    from anosovlab import leafgeom as L

    fits = []
    original = L.PolyMap.fit

    def counting(*args, **kwargs):
        fits.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(L.PolyMap, "fit", staticmethod(counting))
    rec = F.stopping_time(PERT, pt(PERT, 2), u=0.3, ell=6.0, epsilon=0.02)
    assert 0.0 <= rec.tau2 <= rec.beta_bound
    assert fits == []


def test_transfer_stable_profile_is_a_prefix_of_a_longer_walk():
    data = F.build_transfer(PERT, pt(PERT, 4), u=0.3, ell=6.0)
    prof = data.stable_profile
    assert prof.t_max >= data.ell + 1.0
    s_vec = F.stable_frame_vector(PERT, data.q, data.companion.s_disp)
    longer = F._GrowthProfile(PERT, data.q, s_vec, data.ell + 1.0, project="stable")
    assert len(longer.logs) == len(prof.logs) + 1
    assert longer.logs[: len(prof.logs)].tobytes() == prof.logs.tobytes()
    for v, w in zip(prof.vecs, longer.vecs):
        assert v.tobytes() == w.tobytes()
