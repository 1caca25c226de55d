"""anosovlab benchmark: time to a correct result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of
that checkout, in this process; no worker pool is used.  Round 0 runs the
workload's whole task list (see `workloads.py`).  Later rounds repeat it
with fresh seeded inputs, each task only if its last run says it still ends
within `--seconds`, until no task fits.  Every task's payload is checked.
Times are scaled to a reference host speed sampled during the run (see
`speed.py`); the times as measured are printed and recorded beside them.

`--trace 0` prints the end-to-end metrics: `setup_s`, `wall_s`,
`peak_rss_mb` and `pass_ratio`, and the task count with `task_s_p50` and
p90 on a line of their own.  `--trace 1` runs each task untraced and then
traced, requires byte-identical payloads from both, and prints the
per-layer metrics of round 0.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  A record of the run is written to `perfbench/out/`.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads here or in a set-up probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import anosovlab from this checkout's src/, and nothing else."""
    if not (SRC / "anosovlab" / "__init__.py").is_file():
        raise RuntimeError(f"no anosovlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anosovlab

    if Path(anosovlab.__file__).resolve().parent != (SRC / "anosovlab").resolve():
        raise RuntimeError(f"imported anosovlab from {anosovlab.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_reference(workload, seed):
    path = REFERENCE / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["rounds"]


def comparable(payload):
    """The part of a payload a stored reference pins down (no version)."""
    if isinstance(payload, dict):
        return {k: v for k, v in payload.items() if k != "version"}
    return payload


def execute(task):
    """Run one task; returns (seconds, payload bytes or None, error or None)."""
    t0 = time.perf_counter()
    try:
        payload = task.call()
    except Exception as exc:  # a raising task is a failed task, not a crash
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, payload, None


def verify(task, payload, reference):
    """Problems with one payload: checks, plus the reference when stored."""
    import check
    import workloads

    try:
        decoded, problems = workloads.check_payload(task, payload)
    except Exception as exc:  # a payload the checks cannot read fails the task
        return [f"check raised {type(exc).__name__}: {exc}"]
    if reference is not None:
        problems += check.compare(comparable(reference), comparable(decoded))
    return problems


class SetupProbe:
    """Fresh processes doing the workload's set-up, timed from outside.

    The probes are spread over the run, so their median samples the same
    machine phases as the timed tasks."""

    def __init__(self, workload, seed, oracles, sampler):
        import workloads

        tasks = workloads.build(workload, seed, 0, oracles)
        models = sorted({t.slot.split("_")[0] for t in tasks if t.config is None})
        self.job = json.dumps({
            "src": str(SRC),
            "configs": [t.config for t in tasks if t.config is not None],
            "models": [{"sl3": "SL3Model", "asl2": "ASL2Model"}[m] for m in models],
        })
        self.sampler = sampler
        self.times = []  # scaled to the reference speed (see speed.py)
        self.raw_times = []
        self._spawn()  # the first fills the bytecode cache and is not timed

    def _spawn(self):
        import speed

        with self.sampler.paused():
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                                  input=self.job, capture_output=True, text=True,
                                  check=True, cwd=ROOT)
            seconds = time.perf_counter() - t0
        sampled = json.loads(done.stdout.splitlines()[-1])
        seconds -= sampled["own_s"]
        return seconds, seconds * speed.factor(sampled["kernel_s"])

    def _probe(self):
        raw, scaled = self._spawn()
        self.raw_times.append(raw)
        self.times.append(scaled)

    def due(self, elapsed, seconds):
        """Time one probe if the run has reached the next probe's slot."""
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * seconds / SETUP_REPEATS:
            self._probe()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


class Run:
    """Task outcomes of one benchmark run."""

    def __init__(self, workload, seed):
        self.reference = load_reference(workload, seed)
        self.attempted = 0
        self.failures = []
        self.task_seconds = []  # untraced, scaled to the reference speed
        self.slot_seconds = {}  # slot -> scaled seconds of each of its tasks
        self.raw_slot_seconds = {}  # the same, as measured
        self.round0 = []  # task ids of round 0, the whole task list
        self.traced_seconds = 0.0  # traced twins' seconds ...
        self.twin_seconds = 0.0  # ... and their untraced runs' seconds

    def record(self, r, task, times, payload, error, traced=None):
        """Count one attempted task and record it if it failed.

        `times` is (net seconds as measured, seconds at the reference speed)."""
        raw, seconds = times
        if r == 0:
            self.round0.append(self.attempted)
        self.attempted += 1
        self.task_seconds.append(seconds)
        self.slot_seconds.setdefault(task.slot, []).append(seconds)
        self.raw_slot_seconds.setdefault(task.slot, []).append(raw)
        problems = [error] if error else []
        if payload is not None:
            ref = self.reference.get(str(r), {}).get(task.slot)
            problems += verify(task, payload, ref)
        if traced is not None:
            t_seconds, t_payload, t_error = traced
            self.traced_seconds += t_seconds
            self.twin_seconds += seconds
            if t_error:
                problems.append(f"traced: {t_error}")
            elif payload is not None and t_payload != payload:
                problems.append("traced payload differs from the untraced payload")
        if problems:
            self.failures.append({"round": r, "slot": task.slot, "problems": problems})

    def wall_seconds(self, raw=False):
        """Time of the whole task list: the sum of each slot's mean time."""
        slots = self.raw_slot_seconds if raw else self.slot_seconds
        return sum(statistics.fmean(v) for v in slots.values())


def run_tasks(args, oracles, sampler, probe=None, tracer=None):
    """Run rounds of the task list until no task fits in `--seconds`.

    With a tracer, each task is run again under it, on the same inputs.
    numpy's global random state is one of them: `scipy.linalg.logm`, which
    the matrix-group charts reach, estimates 1-norms with random vectors
    drawn from it, and its results differ in their last bits between draws.
    So the traced twin starts from the state its untraced run started from."""
    import numpy as np
    import workloads

    run = Run(args.workload, args.seed)
    step = {}  # slot -> wall seconds its last step took, checks included
    start = time.perf_counter()
    for r in itertools.count():
        ran = False
        for task in workloads.build(args.workload, args.seed, r, oracles):
            t0 = time.perf_counter()
            if r and t0 - start + step[task.slot] > args.seconds:
                continue
            state = np.random.get_state()
            mark = sampler.mark()
            seconds, payload, error = execute(task)
            times = sampler.scaled(mark, seconds)
            traced = None
            if tracer is not None:
                np.random.set_state(state)
                mark = sampler.mark()
                with tracer.installed(run.attempted):
                    t_seconds, t_payload, t_error = execute(task)
                traced = (sampler.scaled(mark, t_seconds)[1], t_payload, t_error)
            run.record(r, task, times, payload, error, traced)
            step[task.slot] = time.perf_counter() - t0
            ran = True
            if probe is not None:
                probe.due(time.perf_counter() - start, args.seconds)
        if not ran:
            return run


def layer_metrics(run, tracer):
    """Per-boundary calls and self seconds over round 0's tasks."""
    import spans

    first = tracer.summary(run.round0)
    metrics = {}
    for name in spans.BOUNDARY_NAMES:
        metrics[f"{name}.calls"] = {"value": first[name][0], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": first[name][1], "unit": "s"}
    for name in spans.DISTINCT_KEYS:
        distinct, calls = tracer.distinct(name, run.round0)
        metrics[f"{name}.distinct_ratio"] = {
            "value": distinct / calls if calls else 0.0, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {
        "value": run.traced_seconds / run.twin_seconds, "unit": "ratio"}
    return metrics


def save_spans(tracer, workload):
    import numpy as np

    arrays = tracer.arrays()
    np.savez(OUT / f"spans-{workload}.npz", names=np.array(tracer.names), **arrays)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import selftest
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    failed_selftests = selftest.run_all()
    if failed_selftests:
        print(f"run.py: self-tests failed: {failed_selftests}", file=sys.stderr)
        return 3

    env = environment()
    oracles = workloads.oracles(args.workload)
    OUT.mkdir(exist_ok=True)
    sampler = speed.Sampler()
    raw = {}  # the scaled times as measured, printed but not gated
    if args.trace:
        import spans

        tracer = spans.Tracer()
        sampler.start()
        try:
            run = run_tasks(args, oracles, sampler, tracer=tracer)
        finally:
            sampler.stop()
        metrics = layer_metrics(run, tracer)
        save_spans(tracer, args.workload)
    else:
        probe = SetupProbe(args.workload, args.seed, oracles, sampler)
        sampler.start()
        try:
            run = run_tasks(args, oracles, sampler, probe=probe)
        finally:
            sampler.stop()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": probe.median(), "unit": "s"},
            "wall_s": {"value": run.wall_seconds(), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "pass_ratio": {"value": 1.0 - len(run.failures) / run.attempted,
                           "unit": "ratio"},
        }
        raw = {"setup_s": statistics.median(probe.raw_times),
               "wall_s": run.wall_seconds(raw=True)}
    env["kernel_s"] = {name: {"p5": statistics.quantiles(t, n=20)[0],
                              "median": statistics.median(t),
                              "reference": speed.REFERENCE_S[name], "samples": len(t)}
                       for name, t in sampler.times.items()}

    failed = len(run.failures)
    fail_ratio = failed / run.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "slot_seconds": run.slot_seconds,
        "raw_slot_seconds": run.raw_slot_seconds, "raw": raw,
        "task_seconds": run.task_seconds, "attempted": run.attempted,
        "failed": failed, "fail_ratio": fail_ratio, "failures": run.failures,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  tasks per slot "
          + " ".join(f"{k}:{len(v)}" for k, v in run.slot_seconds.items()))
    print("environment " + json.dumps(env, sort_keys=True))
    times = sorted(run.task_seconds)
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 10 else max(times)
    print(f"tasks {len(times)}  task_s_p50 {statistics.median(times):.6g} s  "
          f"task_s_p90 {p90:.6g} s")
    print(f"fail_ratio {fail_ratio:.4f} ({failed}/{run.attempted})")
    for failure in run.failures:
        print(f"FAILED round {failure['round']} {failure['slot']}: "
              + "; ".join(failure["problems"]))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{name + ' as measured':48s} {value:.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
