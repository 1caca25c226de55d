"""Lyapunov spectra, splittings, adapted norms, second-line cocycle."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anosovlab import cocycle as C
from anosovlab import rng as rngmod
from anosovlab import systems as S
from anosovlab.errors import IllConditioned, InvalidParams, NonFinite


def make(kind, **params):
    return S.make_system(S.SystemSpec(kind, params))


def pt(system, seed):
    return S.random_point(system, np.random.default_rng(seed))


def test_lyapunov_spectrum_counts_its_steps_under_the_cap():
    system = make("BorelSmale")
    for T, dt_qr in [((S.MAX_STEPS + 1) * 0.5, 0.5), (1e300, 1.0), (200.0, 1e-300),
                     (200.0, 0.0), (200.0, -1.0)]:
        with pytest.raises(InvalidParams):  # before any allocation
            C.lyapunov_spectrum(system, pt(system, 0), T=T, dt_qr=dt_qr)

def test_borel_smale_spectrum_exact_constant_cocycle():
    system = make("BorelSmale", a=3, b=-2)
    rep = C.lyapunov_spectrum(system, pt(system, 1), T=200.0)
    assert np.max(np.abs(np.array(rep.exponents) - system.exact_exponents)) <= 1e-6
    assert all(s >= 0 for s in rep.stderr)


def test_cat_suspension_spectrum_against_eigenvalue_oracle():
    system = make("CatSuspension")
    rep = C.lyapunov_spectrum(system, pt(system, 2), T=1000.0)
    assert np.max(np.abs(np.array(rep.exponents) - system.exact_exponents)) <= 1e-3


def test_chart_local_orbit_escape_raises_degenerate_orbit():
    from anosovlab.errors import DegenerateOrbit

    system = make("SL3Model")
    x = S.Point(0.1 * np.ones(8))  # nonzero expanding components blow up
    with pytest.raises(DegenerateOrbit):
        C.lyapunov_spectrum(system, x, T=120.0, dt_qr=1.0)


def test_spectrum_requires_enough_reorthonormalisations():
    system = make("BorelSmale")
    with pytest.raises(InvalidParams):
        C.lyapunov_spectrum(system, pt(system, 3), T=50.0, dt_qr=1.0)


def test_halving_dt_qr_changes_nothing_on_linear_models():
    system = make("BorelSmale")
    x = pt(system, 4)
    a = C.lyapunov_spectrum(system, x, T=150.0, dt_qr=1.0)
    b = C.lyapunov_spectrum(system, x, T=150.0, dt_qr=0.5)
    assert np.max(np.abs(np.array(a.exponents) - b.exponents)) <= 1e-8


def test_exponent_sum_matches_log_jacobian():
    for kind in ("BorelSmale", "CatSuspension", "BorelSmalePerturbed"):
        system = make(kind)
        x = pt(system, 5)
        rep = C.lyapunov_spectrum(system, x, T=200.0)
        logdet = math.log(abs(np.linalg.det(S.tangent_flow(system, x, 1.0))))
        assert abs(sum(rep.exponents) - logdet) <= 10.0 * (sum(rep.stderr) + 1e-9)


def test_perturbed_spectrum_near_reference_ladder():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    rep = C.lyapunov_spectrum(system, pt(system, 6), T=400.0)
    ref = sorted((float(r) for r in system.model.rates), reverse=True)
    assert np.max(np.abs(np.array(rep.exponents) - ref)) <= 0.05


# ---------------------------------------------------------------------------
# splittings


def test_linear_splitting_is_exact_axes():
    system = make("BorelSmale")
    sp = C.oseledets_splitting(system, pt(system, 7))
    assert len(sp.subspaces) == 7
    assert abs(sp.theta - math.pi / 2.0) <= 1e-12
    for e, B in sp.subspaces:
        assert B.shape == (7, 1)


def test_sl3_splitting_axes_ordered_by_weight():
    system = make("SL3Model")
    sp = C.oseledets_splitting(system, S.origin(system))
    # unstable block: entries z (w5), y (w4), x (w1) on the first three axes
    assert np.allclose(np.abs(sp.subspaces[0][1][:, 0]), np.eye(8)[0])
    assert np.allclose(np.abs(sp.subspaces[1][1][:, 0]), np.eye(8)[1])
    assert np.allclose(np.abs(sp.subspaces[2][1][:, 0]), np.eye(8)[2])


def test_measured_splitting_matches_reference_rates():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    sp = C.oseledets_splitting(system, pt(system, 8))
    ref = sorted({float(r) for r in system.model.rates}, reverse=True)
    assert np.allclose(sp.exponents, ref, atol=1e-9)
    assert sp.theta > 1.0  # shears are small


def test_unperturbed_measured_blocks_are_the_reference_axes():
    system = make("BorelSmalePerturbed", eps_pert=0.0)
    assert system.exact_exponents is None  # the measured path runs
    for seed in (0, 1):
        sp = C.oseledets_splitting(system, pt(system, seed))
        assert len(sp.subspaces) == len(system.model.blocks)
        for (e, B), ref in zip(sp.subspaces, system.model.blocks):
            assert abs(e - ref.rate) <= 1e-12
            R = ref.basis
            assert np.max(np.abs(B @ B.T - R @ R.T)) <= 1e-12


def test_measured_splitting_equivariance():
    # hyperbolic blocks are fiber-only and deck-invariant, so reduced and
    # cover bookkeeping agree for them; the neutral direction involves the
    # roof coordinate and is only a cover object, so it is excluded here
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 9)
    t = 3.0
    sp = C.oseledets_splitting(system, x)
    D, y = C.transport(system, x, t)
    spy = C.oseledets_splitting(system, y)
    for (e, B), (e2, B2) in zip(sp.subspaces, spy.subspaces):
        if abs(e) < 1e-9:
            continue
        img, _ = np.linalg.qr(D @ B)
        s = np.linalg.svd(B2.T @ img, compute_uv=False)
        angle = math.acos(min(1.0, float(s.min())))
        assert angle <= 1e-3, f"block {e} moved by {angle}"


def test_linear_splitting_equivariance_exact():
    system = make("BorelSmale")
    x = pt(system, 10)
    sp = C.oseledets_splitting(system, x)
    D = S.tangent_flow(system, x, 2.0)
    y = S.flow(system, x, 2.0)
    spy = C.oseledets_splitting(system, y)
    for (e, B), (e2, B2) in zip(sp.subspaces, spy.subspaces):
        img, _ = np.linalg.qr(D @ B)
        s = np.linalg.svd(B2.T @ img, compute_uv=False)
        assert math.acos(min(1.0, float(s.min()))) <= 1e-6


# ---------------------------------------------------------------------------
# adapted norms


def test_lyapunov_norm_homogeneity():
    system = make("BorelSmale")
    sp = C.oseledets_splitting(system, pt(system, 11))
    v = np.ones(7)
    n1 = C.lyapunov_norm(system, sp, v)
    n2 = C.lyapunov_norm(system, sp, 2.0 * v)
    assert abs(n2 / n1 - 2.0) <= 1e-12


def test_lyapunov_norm_growth_telescopes_on_constant_cocycle():
    system = make("BorelSmale")
    x = pt(system, 12)
    sp = C.oseledets_splitting(system, x)
    t = 3.0
    y = S.flow(system, x, t)
    spy = C.oseledets_splitting(system, y)
    for e, B in sp.subspaces[:3]:
        v = B[:, 0]
        g = C.lyapunov_norm(system, spy, S.tangent_flow(system, x, t) @ v) / C.lyapunov_norm(
            system, sp, v
        )
        assert abs(math.log(g) - e * t) <= 1e-9


def test_unperturbed_measured_lyapunov_norm_matches_exact_branch():
    # at eps_pert = 0 the restricted-cocycle sums must reproduce the exact
    # model's single-derivative sums at the same point
    pert = make("BorelSmalePerturbed", eps_pert=0.0)
    exact = make("BorelSmale")
    x = pt(pert, 0)
    v = np.random.default_rng(0).standard_normal(7)
    measured = C.lyapunov_norm(pert, C.oseledets_splitting(pert, x), v)
    reference = C.lyapunov_norm(exact, C.oseledets_splitting(exact, x), v)
    assert abs(measured - reference) <= 1e-12 * reference


def test_lyapunov_norm_two_sided_growth_bound():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    params = C.default_norm_params(system)
    x = pt(system, 13)
    sp = C.oseledets_splitting(system, x)
    t = 2.0
    D, y = C.transport(system, x, t)
    spy = C.oseledets_splitting(system, y)
    for e, B in sp.subspaces:
        if abs(e) < 1e-9:
            continue  # the neutral direction is a cover object
        v = B[:, 0]
        ratio = C.lyapunov_norm(system, spy, D @ v, params) / C.lyapunov_norm(
            system, sp, v, params
        )
        lo = (e - 2.0 * params.epsilon) * t
        hi = (e + 2.0 * params.epsilon) * t
        assert lo - 1e-3 <= math.log(ratio) <= hi + 1e-3


def test_lyapunov_norm_comparable_to_euclidean():
    system = make("BorelSmale")
    x = pt(system, 14)
    sp = C.oseledets_splitting(system, x)
    gen = np.random.default_rng(0)
    ratios = []
    for _ in range(10):
        v = gen.standard_normal(7)
        ratios.append(C.lyapunov_norm(system, sp, v) / np.linalg.norm(v))
    assert max(ratios) / min(ratios) <= 10.0


def test_lyapunov_norm_epsilon_validation():
    system = make("BorelSmale")
    sp = C.oseledets_splitting(system, pt(system, 15))
    bad = C.LyapunovNormParams(epsilon=10.0)
    with pytest.raises(InvalidParams):
        C.lyapunov_norm(system, sp, np.ones(7), bad)


# ---------------------------------------------------------------------------
# regular sets and the second-line cocycle


def test_regular_density_one_on_linear_model():
    system = make("BorelSmale")
    assert C.regular_set_density(system, pt(system, 16), T=50.0, theta_min=math.pi / 4) == 1.0


def test_regular_density_zero_above_right_angle():
    system = make("BorelSmale")
    assert C.regular_set_density(system, pt(system, 17), T=20.0, theta_min=math.pi / 2 + 0.1) == 0.0


def test_perturbed_regular_density_high():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    d = C.regular_set_density(system, pt(system, 18), T=100.0, theta_min=0.1, ds=2.0)
    assert d >= 0.99


def test_lambda2_exact_on_borel_smale():
    system = make("BorelSmale")
    x = pt(system, 19)
    loglam = system.model.log_lam
    for t in (0.0, 1.5, 4.0):
        assert abs(C.cocycle_lambda2(system, x, t) - 2.0 * loglam * t) <= 1e-10


def test_lambda2_additivity():
    system = make("BorelSmale")
    x = pt(system, 20)
    full = C.cocycle_lambda2(system, x, 5.0)
    split = C.cocycle_lambda2(system, x, 2.0) + C.cocycle_lambda2(
        system, S.flow(system, x, 2.0), 3.0
    )
    assert abs(full - split) <= 1e-9


def test_second_line_requires_two_expanding_directions():
    system = make("CatSuspension")
    sp = C.oseledets_splitting(system, pt(system, 21))
    with pytest.raises(IllConditioned):
        C.second_line(sp)


# ---------------------------------------------------------------------------
# splittings built in batches


def reference_splitting(system, x):
    """The measured splitting at x built one point and one flag at a time,
    with scalar flow and tangent-flow steps: the reference for the batches."""

    def flag(sgn, steps=40):
        pts = [x]
        for _ in range(steps):
            pts.append(S.flow(system, pts[-1], -sgn))
        gen = rngmod.derive(7, "propagated_flag")
        Q, _ = np.linalg.qr(gen.standard_normal((system.dim, system.dim)))
        for k in range(steps, 0, -1):
            Q, R = np.linalg.qr(S.tangent_flow(system, pts[k], sgn) @ Q)
            Q = Q * np.sign(np.diag(R))
        return Q

    U, Sf = flag(1.0), flag(-1.0)
    rates = sorted({round(float(r), 12) for r in system.model.rates}, reverse=True)
    subs, c = [], 0
    for r in rates:
        k = int(np.sum(np.isclose(system.model.rates, r)))
        subs.append((float(r), C._subspace_intersection(U[:, : c + k], Sf[:, : system.dim - c], k)))
        c += k
    theta = C._min_principal_angle([b for _, b in subs])
    if theta < 1e-8:
        raise IllConditioned("splitting angle below threshold")
    return C.Splitting(point=x.copy(), subspaces=subs, theta=theta)


def assert_same_splitting(a, b):
    assert a.point.coords.tobytes() == b.point.coords.tobytes()
    assert a.theta == b.theta
    assert [e for e, _ in a.subspaces] == [e for e, _ in b.subspaces]
    assert all(A.tobytes() == B.tobytes() for (_, A), (_, B) in zip(a.subspaces, b.subspaces))


_HEIGHTS = st.one_of(
    st.integers(-2, 2).map(float),
    st.integers(-2, 2).map(lambda k: math.nextafter(float(k), -math.inf)),
    st.floats(-2.0, 2.0),
)


@given(eps=st.sampled_from((0.0, 0.01)), seed=st.integers(0, 2**31 - 1), height=_HEIGHTS,
       h=st.sampled_from((0.5, 1.0, -1.0)), n=st.integers(1, 3))
@example(eps=0.01, seed=0, height=math.nextafter(1.0, -math.inf), h=1.0, n=2)
def test_batched_splittings_match_the_per_point_reference_bit_for_bit(eps, seed, height, h, n):
    system = make("BorelSmalePerturbed", eps_pert=eps)
    c = pt(system, seed).coords.copy()
    c[6] = height  # an unreduced start at the drawn height
    walk = [S.Point(c)]
    for _ in range(n - 1):
        walk.append(S.flow(system, walk[-1], h))
    for got, x in zip(C._splittings(system, walk), walk):
        assert_same_splitting(C._read(got), reference_splitting(system, x))
    assert_same_splitting(C.oseledets_splitting(system, walk[-1]), reference_splitting(system, walk[-1]))


def test_filled_walk_visits_the_points_and_splittings_of_a_stepped_walk():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 4)
    ahead, plain = C._Walk(system, x, 0.5), C._Walk(system, x, 0.5)
    C._fill([ahead], 5)
    for _ in range(6):  # one step past the filled run
        assert ahead.point.coords.tobytes() == plain.point.coords.tobytes()
        assert_same_splitting(ahead.splitting, plain.splitting)
        assert ahead.step().tobytes() == plain.step().tobytes()


def test_a_failing_row_raises_only_when_read(monkeypatch):
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 5)
    pts = [x, S.flow(system, x, 1.0), S.flow(system, x, 2.0)]
    clean = [C.oseledets_splitting(system, p) for p in pts]
    per_point = len(system.model.blocks)  # intersections per splitting
    original = C._subspace_intersection

    def failing_row(row):
        # the first intersection of the given row sees a negative tolerance
        calls = []

        def intersection(A, B, k, tol=1e-6):
            calls.append(None)
            return original(A, B, k, tol=-1.0 if len(calls) == row * per_point + 1 else tol)

        monkeypatch.setattr(C, "_subspace_intersection", intersection)

    failing_row(1)
    built = C._splittings(system, pts)  # no error yet
    assert_same_splitting(C._read(built[0]), clean[0])
    assert_same_splitting(C._read(built[2]), clean[2])
    with pytest.raises(IllConditioned) as batched:
        C._read(built[1])
    failing_row(0)
    with pytest.raises(IllConditioned) as alone:
        C.oseledets_splitting(system, pts[1])
    assert str(batched.value) == str(alone.value)
    # a walk that stops before its failing point never raises
    failing_row(2)
    walk = C._Walk(system, x, 1.0)
    C._fill([walk], 3)
    walk.step()
    assert_same_splitting(walk.splitting, clean[1])


def test_a_non_finite_row_raises_only_when_read():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 6)
    huge = S.Point(np.full(7, 1e308))  # its first flow step overflows
    built = C._splittings(system, [x, huge])
    assert_same_splitting(C._read(built[0]), C.oseledets_splitting(system, x))
    with pytest.raises(NonFinite) as batched:
        C._read(built[1])
    with pytest.raises(NonFinite) as alone:
        C.oseledets_splitting(system, huge)
    assert str(batched.value) == str(alone.value)
