"""Leaf charts, projections, Hausdorff distance, quadrilaterals, QNI fits."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosovlab import expcli as E
from anosovlab import leafgeom as L
from anosovlab import systems as S
from anosovlab.errors import (
    AnosovLabError,
    DegenerateFit,
    EmptyIntersection,
    InvalidParams,
    NoIntersection,
)


def make(kind, **params):
    return S.make_system(S.SystemSpec(kind, params))


def pt(system, seed):
    return S.random_point(system, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# charts


def test_chart_value_at_zero_is_base():
    for kind in ("BorelSmale", "CatSuspension", "ASL2Model"):
        system = make(kind)
        x = pt(system, 1) if system.model.quotiented else S.origin(system)
        for leaf in ("Stable", "Unstable", "StrongUnstable"):
            ch = L.leaf_chart(system, x, leaf, order=2)
            z = ch.evaluate(np.zeros(ch.param_dim))
            assert np.allclose(z, x.coords, atol=1e-10)


def test_sl3_chart_leaves_the_global_random_state_alone():
    # the chart evaluator once fell back to scipy's logm, whose 1-norm
    # estimator drew from numpy's global random state; its own real log must
    # neither read nor advance that state
    system = make("SL3Model")
    x = pt(system, 3)
    np.random.seed(1)
    before = np.random.get_state()
    chart = L.leaf_chart(system, x, "StrongUnstable", order=4)
    after = np.random.get_state()
    assert before[1].tobytes() == after[1].tobytes() and before[2:] == after[2:]
    np.random.seed(2)
    again = L.leaf_chart(system, x, "StrongUnstable", order=4)
    assert chart.coeffs.terms.keys() == again.coeffs.terms.keys()
    for exps, vec in chart.coeffs.terms.items():
        assert vec.tobytes() == again.coeffs.terms[exps].tobytes()


def test_first_order_term_is_isometric():
    system = make("BorelSmale")
    ch = L.leaf_chart(system, pt(system, 2), "Unstable", order=2)
    J = ch.jacobian(np.zeros(ch.param_dim))
    s = np.linalg.svd(J, compute_uv=False)
    assert np.allclose(s, 1.0, atol=1e-5)


def test_sl3_unstable_chart_at_identity_exact():
    system = make("SL3Model")
    ch = L.leaf_chart(system, S.origin(system), "Unstable", order=2)
    assert ch.remainder_bound == 0.0
    p = np.array([0.05, -0.04, 0.03])
    assert np.allclose(
        ch.evaluate(p), S.unstable_translate(system, S.origin(system), p).coords,
        atol=1e-12,
    )


def test_heisenberg_charts_polynomial_with_zero_remainder():
    system = make("BorelSmale")
    ch = L.leaf_chart(system, pt(system, 3), "Unstable", order=2)
    assert ch.remainder_bound == 0.0
    p = np.array([0.1, -0.2, 0.05])
    assert np.allclose(ch.evaluate_poly(p), ch.evaluate(p), atol=1e-12)


@pytest.mark.parametrize("kind", ("CatSuspension", "BorelSmale", "BorelSmalePerturbed",
                                  "ASL2Model", "SL3Model"))
@pytest.mark.parametrize("order", (-1, 2.5, True, "2", None))
def test_chart_order_must_be_a_nonnegative_integer(kind, order):
    system = make(kind)
    with pytest.raises(InvalidParams, match="order"):
        L.leaf_chart(system, pt(system, 4), "Unstable", order=order)


def test_order_zero_chart_is_constant_with_diameter_bound():
    system = make("BorelSmale")
    x = pt(system, 4)
    ch = L.leaf_chart(system, x, "Unstable", order=0)
    assert np.allclose(ch.evaluate_poly(np.ones(ch.param_dim)), x.coords)
    assert ch.remainder_bound > 0.0


def test_order_zero_chart_falls_back_when_the_leaf_has_no_translation():
    # perturbed Unstable leaves are curved: leaf_translate raises Unsupported,
    # so the diameter bound is the radius across the parameter box
    system = make("BorelSmalePerturbed")
    ch = L.leaf_chart(system, pt(system, 4), "Unstable", order=0)
    assert ch.remainder_bound == 0.25 * math.sqrt(ch.param_dim)


def test_order_zero_chart_lets_a_program_fault_through(monkeypatch):
    # only package errors take the fallback; a fault in the model propagates
    system = make("BorelSmale")

    def broken(*args):
        raise RuntimeError("model fault")

    monkeypatch.setattr(S, "leaf_translate", broken)
    with pytest.raises(RuntimeError, match="model fault"):
        L.leaf_chart(system, pt(system, 4), "Unstable", order=0)


def test_perturbed_chart_matches_shadowing_oracle():
    """Locate fiber leaf points by bisection on the transverse coordinate so
    the forward (stable) orbit distance decays, then compare to the chart."""
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 5)
    ch = L.leaf_chart(system, x, "Stable", order=3)
    model = system.model
    T = 12.0
    worst = 0.0
    for s in np.linspace(-0.04, 0.04, 20):
        # stable chart params: (x2, y1, z2); bisect the z1 offset so the
        # forward separation decays like the stable rate
        chart_pt = ch.evaluate(np.array([0.0, 0.0, s]))

        def forward_sep(z1_off):
            probe = x.coords.copy()
            probe[5] += s
            probe[4] += z1_off
            a = model.flow(probe, T)
            b = model.flow(x.coords, T)
            return np.linalg.norm(a - b)

        lo, hi = -0.05, 0.05
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # derivative sign via a secant on the expanding residual
            if forward_sep(mid + 1e-9) > forward_sep(mid - 1e-9):
                hi = mid
            else:
                lo = mid
        oracle = x.coords.copy()
        oracle[5] += s
        oracle[4] += 0.5 * (lo + hi)
        worst = max(worst, float(np.max(np.abs(chart_pt - oracle))))
    assert worst <= 1e-5


def test_chart_flow_consistency():
    # flowing a chart point forward stays near the flowed leaf
    system = make("BorelSmale")
    x = pt(system, 6)
    ch = L.leaf_chart(system, x, "Unstable", order=2)
    p = ch.evaluate(np.array([0.02, 0.01, -0.02]))
    t = 1.0
    fp = S.flow(system, S.Point(p), t, reduce=False)
    chf = L.leaf_chart(system, S.flow(system, x, t, reduce=False), "Unstable", order=2)
    # solve for the flowed params via least squares on the affine chart
    J = chf.jacobian(np.zeros(3))
    sol, *_ = np.linalg.lstsq(J, fp.coords - chf.evaluate(np.zeros(3)), rcond=None)
    scale = max(1.0, float(np.max(np.abs(fp.coords))))
    assert np.linalg.norm(chf.evaluate(sol) - fp.coords) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# halfway points


def test_halfway_points_at_zero_excursion():
    system = make("BorelSmale")
    q = pt(system, 7)
    qp = S.stable_translate(system, q, [0.1, 0.0, 0.0])
    a, b = L.halfway_points(system, q, qp, 0.0)
    assert np.allclose(a.coords, q.coords)
    assert np.allclose(b.coords, qp.coords)


def test_halfway_contraction_exact_on_slow_axis():
    system = make("BorelSmale")
    loglam = system.model.log_lam
    q = pt(system, 8)
    # displacement along the slowest stable axis (weight -1)
    slot = [i for i, idx in enumerate(system.model._kind_indices("Stable"))
            if system.model.weights[idx] == -1][0]
    disp = np.zeros(3)
    disp[slot] = 0.2
    qp = S.stable_translate(system, q, disp)
    d0 = S.dist(system, q, qp)
    prev = d0
    for ell in (2.0, 4.0, 8.0):
        a, b = L.halfway_points(system, q, qp, ell)
        d = S.dist(system, a, b)
        assert abs(d - math.exp(-loglam * ell / 2.0) * d0) <= 1e-12
        assert d <= prev + 1e-15
        prev = d


# ---------------------------------------------------------------------------
# stable projection


def test_projection_of_base_is_base():
    system = make("BorelSmale")
    x = pt(system, 9)
    target = L.leaf_chart(system, x, "Unstable", order=2)
    z = L.stable_projection(system, x, target, tol=1e-12)
    assert np.allclose(z.coords, x.coords, atol=1e-10)


def test_sl3_projection_matches_group_factorization_oracle():
    system = make("SL3Model")
    x = pt(system, 10)
    xp = S.stable_translate(system, x, [2e-3, 3e-3, -1e-3])
    ux = S.strong_unstable_translate(system, x, [4e-3])
    target = L.leaf_chart(system, xp, "Unstable", order=3)
    z = L.stable_projection(system, ux, target, tol=1e-12)
    w, _ = system.model.cs_u_factorize(ux.coords, xp.coords)
    z_oracle = S.unstable_translate(system, xp, w)
    assert np.max(np.abs(z.coords - z_oracle.coords)) <= 1e-10


def test_projection_idempotent():
    system = make("BorelSmale")
    x = pt(system, 11)
    xp = S.stable_translate(system, x, [0.05, -0.03, 0.08])
    ux = S.strong_unstable_translate(system, x, [0.04])
    target = L.leaf_chart(system, xp, "Unstable", order=2)
    z = L.stable_projection(system, ux, target, tol=1e-12)
    z2 = L.stable_projection(system, z, target, tol=1e-12)
    assert np.max(np.abs(z.coords - z2.coords)) <= 1e-10


def test_infeasible_tolerance_raises():
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    x = pt(system, 12)
    target = L.leaf_chart(system, x, "Unstable", order=2)
    assert target.evaluator_error > 0.0
    with pytest.raises(NoIntersection):
        L.stable_projection(system, x, target, tol=target.evaluator_error / 10.0)


# ---------------------------------------------------------------------------
# local Hausdorff distance


def test_hausdorff_identical_charts_zero():
    system = make("BorelSmale")
    x = pt(system, 13)
    ch = L.leaf_chart(system, x, "StrongUnstable", order=2)
    assert L.local_hausdorff(system, x, ch, ch, omega=0.05) == 0.0


def test_hausdorff_parallel_offset_leaves():
    system = make("BorelSmale")
    x = pt(system, 14)
    # keep the offset well below the ball radius: the ball-edge effect of
    # the pointwise Hausdorff definition is of relative size (d/omega)^2
    delta = 0.002
    # offset along the second expanding axis: transverse to the fast leaf
    e2_axis = [i for i in range(6) if system.model.weights[i] == 2][0]
    y = S.Point(x.coords + delta * np.eye(7)[e2_axis])
    cx = L.leaf_chart(system, x, "StrongUnstable", order=2)
    cy = L.leaf_chart(system, y, "StrongUnstable", order=2)
    hd = L.local_hausdorff(system, x, cx, cy, omega=0.1)
    assert abs(hd - delta) <= 2e-3 * delta
    hd_sym = L.local_hausdorff(system, y, cy, cx, omega=0.1)
    assert abs(hd - hd_sym) <= 2e-3 * delta


def test_hausdorff_empty_intersection():
    system = make("BorelSmale")
    x = pt(system, 15)
    far = S.Point(x.coords + 0.5 * np.ones(7))
    cx = L.leaf_chart(system, x, "StrongUnstable", order=2)
    cf = L.leaf_chart(system, far, "StrongUnstable", order=2)
    with pytest.raises(EmptyIntersection):
        L.local_hausdorff(system, x, cx, cf, omega=1e-3)


# ---------------------------------------------------------------------------
# quadrilaterals


def test_degenerate_quadrilateral_zero_stable_displacement():
    system = make("ASL2Model")
    x = S.origin(system)
    q = L.build_quadrilateral(system, x, [0.0, 0.0], [0.02])
    assert np.allclose(q.x_prime.coords, x.coords)
    assert np.allclose(q.proj.coords, q.u_x.coords, atol=1e-12)
    assert np.allclose(q.p_u, 0.0, atol=1e-12)


def test_asl2_quadrilateral_formula():
    system = make("ASL2Model")
    x = S.origin(system)
    b, y, c = 1e-3, 2e-4, 3e-4
    q = L.build_quadrilateral(system, x, [y, c], [b])
    assert abs(q.p_u[1] - (-b * y)) <= 1e-10
    assert np.max(np.abs(q.p_uu + q.p_u - q.leaf_params)) <= 1e-9


def test_sl3_quadrilateral_formula():
    system = make("SL3Model")
    x = S.origin(system)
    z, s1, s3, s2 = 1e-3, 2e-4, 4e-4, 5e-4
    q = L.build_quadrilateral(system, x, [s1, s3, s2], [z])
    # p_u slots (z, y, x): projection onto the slow axis is -s3*z
    assert abs(q.p_u[2] - (-s3 * z)) <= 1e-10
    assert abs(q.p_u[1] - s1 * z) <= 1e-10
    assert np.max(np.abs(q.p_uu + q.p_u - q.leaf_params)) <= 1e-9


def test_quadrilateral_records_window_ratio():
    system = make("ASL2Model")
    q = L.build_quadrilateral(system, S.origin(system), [1e-3, 1e-3], [1.5e-3])
    assert q.ratio == pytest.approx(q.dist_xux / q.dist_xx)
    assert q.in_window


def test_newton_path_agrees_with_closed_form_on_borel_smale():
    system = make("BorelSmale")
    x = pt(system, 16)
    s_disp = np.array([0.03, -0.02, 0.04])
    u_disp = np.array([0.05])
    q = L.build_quadrilateral(system, x, s_disp, u_disp)
    # generic Newton route
    xp = S.stable_translate(system, x, s_disp)
    ux = S.strong_unstable_translate(system, x, u_disp)
    target = L.leaf_chart(system, xp, "Unstable", order=2)
    z, params, _ = L.stable_projection(system, ux, target, tol=1e-12, return_params=True)
    # chart parameters are orthonormalised, so compare the points themselves
    assert np.max(np.abs(z.coords - q.proj.coords)) <= 1e-9
    assert np.max(np.abs(target.evaluate(params) - q.proj.coords)) <= 1e-9


# ---------------------------------------------------------------------------
# non-integrability exponent


def test_sl3_qni_slope_one():
    system = make("SL3Model")
    x = pt(system, 17)
    dirs = L.QniDirections(s_dir=(0.5, 0.7, -0.3), u_dir=(1.0,), u_scale=0.01)
    est = L.qni_exponent(system, x, dirs, np.geomspace(1e-4, 1e-2, 8))
    assert abs(est.alpha_hat - 1.0) <= 0.05
    assert est.r2 >= 0.98


def test_asl2_degenerate_direction():
    system = make("ASL2Model")
    dirs = L.QniDirections(s_dir=(0.0, 1.0), u_dir=(1.0,), u_scale=0.01)
    with pytest.raises(DegenerateFit):
        L.qni_exponent(system, S.origin(system), dirs, np.geomspace(1e-4, 1e-2, 8))


@pytest.mark.parametrize("s_dir, u_dir", [((1.0,), (1.0,)), ((0.5, 0.7, -0.3), (1.0, 2.0)),
                                          ((0.5, 0.7, -0.3, 0.1), (1.0,))])
def test_qni_rejects_directions_of_the_wrong_length(s_dir, u_dir):
    # a wrong length was once broadcast or cut down without a word
    dirs = L.QniDirections(s_dir=s_dir, u_dir=u_dir, u_scale=0.01)
    with pytest.raises(InvalidParams, match="direction"):
        L.qni_exponent(make("SL3Model"), S.origin(make("SL3Model")), dirs,
                       np.geomspace(1e-4, 1e-2, 8))


def test_qni_rejects_narrow_scale_grids():
    system = make("SL3Model")
    dirs = L.QniDirections(s_dir=(0.5, 0.7, -0.3), u_dir=(1.0,), u_scale=0.01)
    with pytest.raises(InvalidParams):
        L.qni_exponent(system, S.origin(system), dirs, [1e-3] * 5)
    with pytest.raises(DegenerateFit):
        L.qni_exponent(system, S.origin(system), dirs, np.geomspace(1e-3, 2e-3, 7))


def test_qni_lower_bound_constant():
    system = make("SL3Model")
    x = pt(system, 18)
    dirs = L.QniDirections(s_dir=(0.4, 0.8, -0.2), u_dir=(1.0,), u_scale=0.01)
    est = L.qni_exponent(system, x, dirs, np.geomspace(1e-4, 1e-2, 8))
    for quad in est.quads:
        ratio = np.linalg.norm(quad.p_u) / quad.dist_xx**est.alpha_hat
        assert ratio >= 0.5 * est.C_hat


# ---------------------------------------------------------------------------
# graph-transform series arithmetic against scalar double loops, bit for bit


def _scalar_ser_mul(a, b, order):
    out = np.zeros(order)
    for i, ai in enumerate(a, start=1):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b, start=1):
            if i + j <= order:
                out[i + j - 1] += ai * bj
    return out


def _scalar_ser_compose(outer, inner, order):
    result = np.zeros(order)
    current = None
    for k, ck in enumerate(outer, start=1):
        current = inner[:order].copy() if current is None else _scalar_ser_mul(current, inner, order)
        if ck != 0.0:
            result += ck * current
    return result


def _scalar_ser_invert(a, order):
    b = np.zeros(order)
    b[0] = 1.0 / a[0]
    for n in range(2, order + 1):
        comp = _scalar_ser_compose(a, b, order)
        b[n - 1] -= comp[n - 1] / a[0]
    return b


_coef = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@given(data=st.data(), order=st.integers(2, 10), lead=st.floats(0.1, 10.0))
def test_series_arithmetic_matches_the_scalar_loops_bit_for_bit(data, order, lead):
    a = np.array(data.draw(st.lists(_coef, min_size=order, max_size=order)))
    b = np.array(data.draw(st.lists(_coef, min_size=order, max_size=order)))
    a[0] = lead
    # both signs of the leading term; the zero draws cover skipped rows
    for s in (a, -a):
        assert L._ser_mul(s, b, order).tobytes() == _scalar_ser_mul(s, b, order).tobytes()
        assert L._ser_mul(b, s, order).tobytes() == _scalar_ser_mul(b, s, order).tobytes()
        assert (L._ser_compose(s, b, order).tobytes()
                == _scalar_ser_compose(s, b, order).tobytes())
        assert L._ser_invert(s, order).tobytes() == _scalar_ser_invert(s, order).tobytes()


# ---------------------------------------------------------------------------
# graph-transform jets: the derived step count and one jet per input


def _jet_bytes(model, pair, vals, theta, unstable, order, **kwargs):
    """The jet's bytes, or the type of the typed error that ended it."""
    try:
        jet, *_ = L._fiber_leaf_series(model, vals, theta, model.rates[list(pair)], unstable,
                                       order, **kwargs)
    except AnosovLabError as exc:
        return type(exc)
    return jet.tobytes()


_weight = st.integers(-5, 5).filter(bool)
# heights at an integer, one ulp below it, and anywhere
_height = st.one_of(
    st.integers(-3, 3).flatmap(
        lambda k: st.sampled_from([float(k), math.nextafter(k, -math.inf)])),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=100)
@given(a=_weight, b=_weight, lam=st.floats(1.0, 8.0, exclude_min=True),
       eps=st.sampled_from([0.0, 0.01]), pair=st.integers(0, 1), unstable=st.booleans(),
       height=_height, vals=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       order=st.integers(1, 10))
def test_derived_step_jets_are_the_eighty_step_jets_byte_for_byte(
        a, b, lam, eps, pair, unstable, height, vals, order):
    assume(a != -b)
    model = make("BorelSmalePerturbed", a=a, b=b, lam=lam, eps_pert=eps).model
    pair = model.sheared_pairs[pair]
    theta = height - math.floor(height)  # the section height, as _leaf_map takes it
    args = (model, pair, np.array(vals), theta, unstable)
    assert _jet_bytes(*args, order) == _jet_bytes(*args, order, iters=80)
    # coefficient k reads only powers up to k: the memo serves truncations
    full = _jet_bytes(*args, 10)
    if isinstance(full, bytes):
        for k in range(4, 11):
            assert full[:8 * k] == _jet_bytes(*args, k)


def test_bilipschitz_run_builds_one_jet_per_input(monkeypatch):
    # counted by wrapping private functions; ROADMAP item 5 will read the jet
    # and step counts from report.json instead
    builds = []
    steps = _count_calls(monkeypatch, L, "_ser_invert")  # one per graph-transform step
    build = L._fiber_leaf_series

    def counting(model, vals, theta, rates, unstable, order, **kwargs):
        start = len(steps)
        out = build(model, vals, theta, rates, unstable, order, **kwargs)
        key = (vals.tobytes(), theta, rates.tobytes(), unstable)
        builds.append((key, order, float(np.ptp(rates)), len(steps) - start))
        return out

    monkeypatch.setattr(L, "_fiber_leaf_series", counting)
    config = Path(__file__).resolve().parents[1] / "configs" / "bilipschitz_perturbed.cfg"
    E.run(E.parse_config(config.read_text()), write=False)
    assert 0 < len(builds) <= 68  # 78 before the memo
    orders = {}
    for key, order, _, _ in builds:  # an input is built again only at a higher order
        assert order > orders.get(key, 0)
        orders[key] = order
    slow = min(gap for _, _, gap, _ in builds)
    assert max(n for _, _, gap, n in builds if gap == slow) <= 25  # 80 before


# ---------------------------------------------------------------------------
# the chart polynomial is fitted on first read


def _count_calls(monkeypatch, owner, name, wrap=lambda f: f):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counting))
    return calls


def _count_fits(monkeypatch):
    return _count_calls(monkeypatch, L.PolyMap, "fit", staticmethod)


def test_perturbed_chart_fits_its_polynomial_on_first_read(monkeypatch):
    system = make("BorelSmalePerturbed", eps_pert=0.01)
    chart = L.leaf_chart(system, pt(system, 6), "Unstable", order=4)
    fits = _count_fits(monkeypatch)
    checks = _count_calls(monkeypatch, L, "_validate_remainder")
    assert chart.param_dim == 3 and chart.out_dim == system.dim
    chart.evaluate(np.full(chart.param_dim, 0.01))
    chart.jacobian(np.zeros(chart.param_dim))
    assert chart.evaluator_error > 0.0
    assert not fits and not checks
    coeffs = chart.coeffs
    assert (len(fits), len(checks)) == (1, 0)
    rem = chart.remainder_bound
    assert (len(fits), len(checks)) == (1, 1)
    assert chart.coeffs is coeffs and chart.remainder_bound == rem
    assert (len(fits), len(checks)) == (1, 1)
    assert rem >= chart.evaluator_error
    fresh = L.PolyMap.fit(chart.evaluator, chart.param_dim, chart.out_dim, 4, chart.radius)
    assert coeffs.terms.keys() == fresh.terms.keys()
    for exps, vec in coeffs.terms.items():
        assert vec.tobytes() == fresh.terms[exps].tobytes()


@pytest.mark.parametrize("kind, leaf, fits_at_build", [
    ("BorelSmale", "Unstable", 0),  # affine: two-term polynomial, no least squares
    ("BorelSmale", "CenterStable", 1),
    ("ASL2Model", "StrongUnstable", 1),
])
def test_public_exact_chart_is_fitted_once_when_built(monkeypatch, kind, leaf, fits_at_build):
    # the fit runs when the chart is built, its remainder check on first read
    system = make(kind)
    fits = _count_fits(monkeypatch)
    checks = _count_calls(monkeypatch, L, "_validate_remainder")
    chart = L.leaf_chart(system, pt(system, 5), leaf, order=2)
    assert (len(fits), len(checks)) == (fits_at_build, 0)
    rem = chart.remainder_bound
    assert (len(fits), len(checks)) == (fits_at_build, 1)
    coeffs = chart.coeffs
    assert chart.remainder_bound == rem and chart.coeffs is coeffs
    chart.evaluate_poly(np.zeros(chart.param_dim))
    assert (len(fits), len(checks)) == (fits_at_build, 1)


def test_stable_projection_certifies_no_target_remainder(monkeypatch):
    system = make("ASL2Model")
    x = pt(system, 12)
    xp = S.stable_translate(system, x, [2e-3, -3e-3, 1e-3][: S.leaf_dimension(system, "Stable")])
    target = L.leaf_chart(system, xp, "Unstable", order=2)
    fits = _count_fits(monkeypatch)
    checks = _count_calls(monkeypatch, L, "_validate_remainder")
    L.stable_projection(system, S.strong_unstable_translate(system, x, [4e-3]), target,
                        tol=1e-10)
    assert not fits and not checks
    rem = target.remainder_bound
    assert (len(fits), len(checks)) == (0, 1)
    fresh = max(L._validate_remainder(target.evaluator, target.coeffs, target.radius),
                target.evaluator_error)
    assert np.float64(rem).tobytes() == np.float64(fresh).tobytes()


def _check_unfitted_projection(system, xp, ux):
    """The projection fits no polynomial, and gives bit for bit the answer of
    a projection whose center-stable chart is fitted before the Newton solve.

    The target is left unfitted too, so the counts cover the whole projection
    (and the test skips the seconds an SL3 target fit takes)."""
    target = L._chart(system, xp, "Unstable", 2)
    with pytest.MonkeyPatch.context() as m:
        fits = _count_fits(m)
        checks = _count_calls(m, L, "_validate_remainder")
        z, p_u, p_cs = L.stable_projection(system, ux, target, tol=1e-10, return_params=True)
        assert not fits and not checks
    unfitted = L._chart

    def fitted_first(*args):
        chart = unfitted(*args)
        chart.coeffs
        return chart

    with pytest.MonkeyPatch.context() as m:
        m.setattr(L, "_chart", fitted_first)
        fits = _count_fits(m)
        z_ref, p_u_ref, p_cs_ref = L.stable_projection(system, ux, target, tol=1e-10,
                                                       return_params=True)
        assert len(fits) == 1
    assert z.coords.tobytes() == z_ref.coords.tobytes()
    assert p_u.tobytes() == p_u_ref.tobytes() and p_cs.tobytes() == p_cs_ref.tobytes()


@pytest.mark.parametrize("kind", ("ASL2Model", "BorelSmale"))
@settings(max_examples=2)  # an ASL2 center-stable fit takes seconds
@given(seed=st.integers(0, 2**16), s=st.lists(st.floats(-5e-3, 5e-3), min_size=3, max_size=3),
       u=st.floats(2e-3, 6e-3))
def test_stable_projection_fits_no_center_stable_chart(kind, seed, s, u):
    system = make(kind)
    x = pt(system, seed)
    xp = S.stable_translate(system, x, s[: S.leaf_dimension(system, "Stable")])
    _check_unfitted_projection(system, xp, S.strong_unstable_translate(system, x, [u]))


def test_sl3_stable_projection_fits_no_center_stable_chart():
    system = make("SL3Model")
    x = pt(system, 10)
    xp = S.stable_translate(system, x, [2e-3, 3e-3, -1e-3])
    _check_unfitted_projection(system, xp, S.strong_unstable_translate(system, x, [4e-3]))


# ---------------------------------------------------------------------------
# chart bytes, pinned


def _chart_digest(system, x, kinds, orders):
    """sha256 over the maps, the error bounds and the coefficients of charts."""
    digest = hashlib.sha256()
    for kind in kinds:
        for order in orders:
            chart = L.leaf_chart(system, x, kind, order)
            gen = np.random.Generator(np.random.Philox(7))
            p = 0.5 * chart.radius * (2.0 * gen.random(chart.param_dim) - 1.0)
            for arr in (chart.evaluate(p), chart.evaluate_poly(p), chart.jacobian(p),
                        np.array([chart.evaluator_error, chart.remainder_bound])):
                digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            for exps, vec in chart.coeffs.terms.items():
                digest.update(repr(exps).encode())
                digest.update(np.asarray(vec, dtype=float).tobytes())
    return digest.hexdigest()[:16]


EVERY_ORDER = (0, 1, 2, 4)


#: sha256 prefixes of `_chart_digest`, pinned while the linear and the perturbed
#: charts still had builders of their own
@pytest.mark.parametrize("kind, params, kinds, orders, sha", [
    ("CatSuspension", {}, S.LEAF_KINDS, EVERY_ORDER, "b4eca5fdec50c6d9"),
    ("BorelSmale", {}, S.LEAF_KINDS, EVERY_ORDER, "d04efa1da1061f17"),
    ("BorelSmalePerturbed", {"eps_pert": 0.01}, S.LEAF_KINDS, EVERY_ORDER, "966c449d167d3c6e"),
    ("BorelSmalePerturbed", {"eps_pert": 0.0}, S.LEAF_KINDS, EVERY_ORDER, "55099c909961c880"),
    # the two matrix-group digests moved with the real matrix log that
    # replaced the eigen path and scipy's logm in their evaluators
    ("ASL2Model", {}, S.LEAF_KINDS, (2,), "4651e670abcfdc5d"),
    # SL3 pins two kinds, as when its charts took seconds each; other tests
    # cover its Stable and Unstable charts
    ("SL3Model", {}, ("StrongUnstable", "CenterStable"), (2,), "9d7755eeb772c46d"),
], ids=["cat", "borel_smale", "perturbed", "perturbed_eps0", "asl2", "sl3"])
def test_leaf_charts_match_their_pinned_hash(kind, params, kinds, orders, sha):
    system = make(kind, **params)
    assert _chart_digest(system, pt(system, 9), kinds, orders) == sha
