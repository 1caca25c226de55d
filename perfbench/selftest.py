"""Self-tests of the benchmark's own machinery, run at the start of every run.

    python3 perfbench/selftest.py

- the self-time arithmetic, on fixed synthetic spans and on a live nested
  call traced through module attributes;
- the checker rejecting a perturbed payload: a reference value moved in its
  ninth digit, a non-finite value, and an off-oracle spectrum;
- the host-speed scaling arithmetic on fixed kernel samples.
"""

import math
import sys
import types

import numpy as np

import check
import spans
import speed


def test_self_time_synthetic():
    # outer [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 50]
    parent = [-1, 0, 0, 2]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    assert spans.self_times(parent, start, end).tolist() == [50, 20, 25, 5]
    names = ["outer", "leaf"]
    got = spans.summarise(names, np.array([0, 1, 1, 1]), np.array(parent),
                          np.array([0, 0, 0, 0]), np.array(start), np.array(end), [0])
    assert {n: c for n, (c, _) in got.items()} == {"outer": 1, "leaf": 3}
    assert all(math.isclose(s, 50e-9) for _, s in got.values())


def test_self_time_live_nesting():
    pkg = types.ModuleType("selftest_pkg")
    layer = types.ModuleType("selftest_pkg.layer")
    pkg.layer = layer
    exec(
        "def inner(n):\n"
        "    return sum(range(n))\n"
        "def outer(n):\n"
        "    return inner(n) + inner(2 * n)\n",
        layer.__dict__,
    )
    sys.modules["selftest_pkg"], sys.modules["selftest_pkg.layer"] = pkg, layer
    try:
        tracer = spans.Tracer("selftest_pkg", {"layer": ("outer", "inner")})
        with tracer.installed(7):
            value = layer.outer(1000)
        untraced = layer.outer(1000)
        assert not hasattr(layer.outer, "__wrapped__")  # originals restored
    finally:
        del sys.modules["selftest_pkg"], sys.modules["selftest_pkg.layer"]
    assert value == untraced
    got = tracer.summary([7])
    assert got["layer.outer"][0] == 1 and got["layer.inner"][0] == 2
    sp = tracer.arrays()
    outer_ns = int(sp["end_ns"][0] - sp["start_ns"][0])
    total_self = spans.self_times(sp["parent"], sp["start_ns"], sp["end_ns"]).sum()
    assert total_self == outer_ns  # self times partition the root span


def test_checker_rejects_perturbed_payload():
    reference = {"results": {"tau2": 2.3203125, "A_trace": [[0.0, 1e-3], [0.5, 2e-3]]}}
    assert check.compare(reference, reference) == []
    moved = {"results": {"tau2": 2.3203125 * (1 + 1e-8), "A_trace": [[0.0, 1e-3], [0.5, 2e-3]]}}
    problems = check.compare(reference, moved)
    assert len(problems) == 1 and problems[0].startswith("$.results.tau2:")
    nan = {"results": {"tau2": float("nan"), "A_trace": []}}
    assert check.nonfinite(nan) == ["$.results.tau2 is nan"]
    assert check.compare(reference, nan)


def test_checker_rejects_off_oracle_result():
    import workloads

    exact = sorted((w * workloads.LOG_LAMBDA for w in workloads.WEIGHT_LADDER), reverse=True)
    assert workloads._check_lyapunov({"exponents": exact}) == []
    off = [e + 2e-6 for e in exact]
    assert workloads._check_lyapunov({"exponents": off})


def test_speed_scaling():
    ref = speed.REFERENCE_S
    assert math.isclose(speed.factor({"numpy": ref["numpy"], "linalg": ref["linalg"]}), 1.0)
    assert math.isclose(speed.factor({"numpy": 2 * ref["numpy"], "linalg": 2 * ref["linalg"]}),
                        0.5)
    sampler = speed.Sampler()
    for name in ("numpy", "linalg"):
        sampler.times[name].extend([ref[name], 2 * ref[name], 2 * ref[name]])
    sampler.own = 0.5
    # a window opened at sample 2 also holds sample 1, the last one before it;
    # both read half speed, and the handler's 0.25 s inside it is taken out
    net, scaled = sampler.scaled((2, 0.25), 1.25)
    assert math.isclose(net, 1.0) and math.isclose(scaled, 0.5)


TESTS = (
    test_self_time_synthetic,
    test_self_time_live_nesting,
    test_checker_rejects_perturbed_payload,
    test_checker_rejects_off_oracle_result,
    test_speed_scaling,
)


def run_all():
    """Names of the self-tests that failed."""
    failed = []
    for test in TESTS:
        try:
            test()
        except AssertionError:
            failed.append(test.__name__)
    return failed


if __name__ == "__main__":
    import run

    run.load_program()
    failures = run_all()
    for name in failures:
        print(f"FAIL {name}")
    print("self-tests:", "failed" if failures else f"{len(TESTS)} passed")
    sys.exit(1 if failures else 0)
