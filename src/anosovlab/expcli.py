"""Experiment orchestration: config parsing, seeded runs, plot emission.

Config format: a single key-value tree with two sections,

    experiment = lyapunov
    seed = 0
    output_dir = out

    [system]
    kind = BorelSmale
    a = 3
    b = -2
    lambda = 2.618033988749895

    [params]
    T = 200

Values parse as int, float, bool, comma-separated number lists, or bare
strings.  The schema is closed: unknown keys are errors (with a nearest-key
suggestion), and every validation problem is reported, not just the first.
``EXPERIMENTS`` declares each experiment once: its runner, the domain of
each [params] key, and its plot files.  A value of the wrong type is a
SchemaError; numbers out of range are one InvalidParams.  Runs are
bit-deterministic for a fixed (config, seed, version): all randomness
derives from the root seed through counter-based task keys and report
payloads are serialised with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import cocycle as comod
from . import factorize as fmod
from . import leafgeom as lgmod
from . import measures as mmod
from . import rng as rngmod
from . import systems as sysmod
from .errors import (
    AnosovLabError,
    InvalidParams,
    KindMismatch,
    ParseError,
    SchemaError,
    Unsupported,
)

_TOP_KEYS = {"experiment", "seed", "output_dir"}

#: model parameter -> [system] key, where the two differ
_CONFIG_KEYS = {"lam": "lambda"}

#: [system] key -> the model's default value, per kind: a value must be a
#: number where the default is, and as many numbers as the default holds
_SYSTEM_SCHEMAS = {
    kind: {_CONFIG_KEYS.get(k, k): default for k, default in defaults.items()}
    for kind, (_, defaults) in sysmod.MODELS.items()
}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _items(v):
    return v if isinstance(v, list) else [v]


@dataclass(frozen=True)
class Domain:
    """What one [params] value may be: a type, then a range for its numbers.

    `kind` is the type the runner gets: float, int (a whole number), list
    (of two or more floats), tuple (of floats, from one number or a list),
    str, or None (one number, as parsed).  A value of another type is a
    schema problem.  A number below `lo` (or at it, when `above`) or above
    `hi` is a range problem."""

    kind: type | None
    lo: float = -math.inf
    hi: float = math.inf
    above: bool = False

    @property
    def what(self):
        kinds = {int: "an integer", list: "a list of at least two finite numbers",
                 tuple: "a finite number or a list of them", str: "text"}
        return kinds.get(self.kind, "a finite number")

    @property
    def range(self):
        lo = [f"{'>' if self.above else '>='} {self.lo}"] if self.lo > -math.inf else []
        return " and ".join(lo + ([f"<= {self.hi}"] if self.hi < math.inf else []))

    def __str__(self):  # as the README lists it
        return f"{self.what} {self.range}".strip()

    def fits(self, v):
        """Whether a parsed value has this domain's type."""
        if self.kind is str:
            return isinstance(v, str)
        if self.kind is int:  # past the float range too: the range says why
            return _is_number(v) and (isinstance(v, int) or v.is_integer())
        if self.kind is not tuple and isinstance(v, list) != (self.kind is list):
            return False
        return all(_is_number(x) and abs(x) <= sys.float_info.max for x in _items(v))

    def holds(self, v):
        """Whether every number of a value that fits lies in the range."""
        return self.kind is str or all(
            (x > self.lo if self.above else x >= self.lo) and x <= self.hi for x in _items(v))

    def read(self, v):
        """What the runner gets of a value that fits (None stays None)."""
        if v is None or self.kind in (None, str):
            return v
        if self.kind in (list, tuple):
            return self.kind(float(x) for x in _items(v))
        return self.kind(v)


_REAL = Domain(float)
_POSITIVE = Domain(float, 0, above=True)
_POSITIVES = Domain(list, 0, above=True)
_VECTOR = Domain(tuple)


@dataclass
class ExperimentConfig:
    experiment: str
    system: sysmod.SystemSpec
    params: dict
    seed: int = 0
    output_dir: str = "out"


@dataclass
class RunReport:
    config_echo: str
    results: dict
    wall_time: float
    version: str
    experiment: str


# ---------------------------------------------------------------------------
# parsing


def _parse_value(text):
    text = text.strip()
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",")]
    return _parse_scalar(text)


def _parse_scalar(text):
    text = text.strip()
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _suggest(key, candidates):
    near = difflib.get_close_matches(key, candidates, n=1)
    return f" (did you mean {near[0]!r}?)" if near else ""


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; collects every schema problem before raising."""
    top = {}
    sections = {"system": {}, "params": {}}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", ln, len(line))
            name = stripped[1:-1].strip()
            if name not in sections:
                raise ParseError(f"unknown section {name!r}", ln, 1)
            current = name
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value", ln, line.index(stripped[0]) + 1)
        key, _, val = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", ln, 1)
        target = top if current is None else sections[current]
        if key in target:
            raise ParseError(f"duplicate key {key!r}", ln, 1)
        target[key] = _parse_value(val)

    problems = []
    for key in top:
        if key not in _TOP_KEYS:
            problems.append(f"unknown top-level key {key!r}" + _suggest(key, _TOP_KEYS))
    experiment = top.get("experiment")
    exp = EXPERIMENTS.get(experiment) if isinstance(experiment, str) else None
    if experiment is None:
        problems.append("missing required key 'experiment'")
    elif exp is None:
        problems.append(
            f"unknown experiment {experiment!r}" + _suggest(str(experiment), EXPERIMENTS)
        )
    seed = top.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append("'seed' must be an integer")
    output_dir = top.get("output_dir", "out")

    sysd = dict(sections["system"])
    kind = sysd.pop("kind", None)
    if kind is None:
        problems.append("missing required key 'kind' in [system]")
        sys_schema = {}
    elif not isinstance(kind, str) or kind not in _SYSTEM_SCHEMAS:
        problems.append(
            f"unknown system kind {kind!r}" + _suggest(str(kind), _SYSTEM_SCHEMAS)
        )
        sys_schema = {}
    else:
        sys_schema = _SYSTEM_SCHEMAS[kind]
    for key, value in sysd.items():
        if key not in sys_schema:
            problems.append(
                f"unknown [system] key {key!r}" + _suggest(key, sys_schema)
            )
            continue
        n = np.size(sys_schema[key])
        got = _items(value)
        if len(got) != n or not all(map(_is_number, got)):
            problems.append(f"[system] {key!r} must be "
                            + ("a number" if n == 1 else f"a list of {n} numbers"))

    params = dict(sections["params"])
    ranges = []
    if exp is not None:
        for key, value in params.items():
            if key not in exp.params:
                problems.append(f"unknown [params] key {key!r}" + _suggest(key, exp.params))
                continue
            domain = exp.params[key][2]
            if not domain.fits(value):
                problems.append(f"[params] {key!r} must be {domain.what}")
            elif not domain.holds(value):
                ranges.append(f"[params] {key!r} must be {domain.range}, got {value!r}")
        for key, (required, default, _) in exp.params.items():
            if key not in params:
                if required:
                    problems.append(f"missing required [params] key {key!r}")
                else:
                    params[key] = default
    if problems:
        raise SchemaError(problems)
    if ranges:
        raise InvalidParams("; ".join(ranges))

    param_of = {key: k for k, key in _CONFIG_KEYS.items()}
    spec_params = {param_of.get(k, k): v for k, v in sysd.items()}
    if "matrix" in spec_params:
        m = spec_params["matrix"]
        spec_params["matrix"] = ((m[0], m[1]), (m[2], m[3]))
    return ExperimentConfig(
        experiment=experiment,
        system=sysmod.SystemSpec(kind=kind, params=spec_params),
        params=params,
        seed=seed,
        output_dir=str(output_dir),
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c."""

    def fmt(v):
        if isinstance(v, (list, tuple)):
            return ", ".join(fmt(x) for x in v)
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [
        f"experiment = {config.experiment}",
        f"seed = {config.seed}",
        f"output_dir = {config.output_dir}",
        "",
        "[system]",
        f"kind = {config.system.kind}",
    ]
    for k in sorted(config.system.params):  # fmt writes the matrix rows as one list
        lines.append(f"{_CONFIG_KEYS.get(k, k)} = {fmt(config.system.params[k])}")
    lines += ["", "[params]"]
    for k in sorted(config.params):
        v = config.params[k]
        if v is None:
            continue
        lines.append(f"{k} = {fmt(v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment implementations


def _start_point(system, seed):
    return sysmod.random_point(system, rngmod.derive(seed, "start_point"))


def _unit(v):
    return tuple(v / np.linalg.norm(v))


def _fields(obj, *names):
    return {name: getattr(obj, name) for name in names}


def _run_lyapunov(system, params, seed):
    x0 = _start_point(system, seed)
    rep = comod.lyapunov_spectrum(system, x0, T=params["T"], dt_qr=params["dt_qr"], seed=seed)
    return _fields(rep, "exponents", "stderr", "T_total", "steps")


def _run_qni(system, params, seed):
    x = _start_point(system, seed)
    gen = rngmod.derive(seed, "qni_directions")
    n_s, n_u = (sysmod.leaf_dimension(system, k) for k in ("Stable", "StrongUnstable"))
    dirs = lgmod.QniDirections(s_dir=params["s_dir"] or _unit(gen.standard_normal(n_s)),
                               u_dir=params["u_dir"] or _unit(np.ones(n_u)),
                               u_scale=params["u_scale"])
    scales = np.geomspace(params["scale_min"], params["scale_max"], params["n_scales"])
    est = lgmod.qni_exponent(system, x, dirs, scales)
    quad_rows = [
        {**_fields(q, "dist_xx", "dist_xux", "ratio"),
         "p_uu_norm": float(np.linalg.norm(q.p_uu)),
         "p_u_norm": float(np.linalg.norm(q.p_u))}
        for q in est.quads
    ]
    return {**_fields(est, "alpha_hat", "C_hat", "r2"),
            "scale_range": list(est.scale_range), "quadrilaterals": quad_rows}


def _run_stopping(system, params, seed):
    q1 = _start_point(system, seed)
    s_disp, d0 = params["s_disp"], params["d0"]
    comp = None if s_disp is None and d0 is None else fmod.Companion(
        s_disp=s_disp or fmod.default_companion(system).s_disp, r_seed=d0)
    rec = fmod.stopping_time(system, q1, params["u"], params["ell"], params["epsilon"], comp)
    return {**_fields(rec, "tau2", "beta_bound", "epsilon", "ell", "u", "never_reaches",
                      "lambda2_at_stop", "B_scalar", "r_seed"),
            "A_trace": [[t, a] for t, a in rec.A_trace]}


def _run_bilipschitz(system, params, seed):
    q1 = _start_point(system, seed)
    k1, k2, ok, det = fmod.bilipschitz_check(
        system, q1, params["u"], params["ell_grid"], params["s_grid"], params["epsilon"]
    )
    return {
        "kappa1_hat": k1,
        "kappa2_hat": k2,
        "passed": ok,
        "kappa1_pred": det["kappa1_pred"],
        "kappa2_pred": det["kappa2_pred"],
        "slack": det["slack"],
        "taus": {str(k): v for k, v in sorted(det["taus"].items())},
    }


def _run_equidistribution(system, params, seed):
    x = _start_point(system, seed)
    tests = mmod.equidistribution_tests(system)
    rep = mmod.birkhoff_equidistribution(system, x, tests, T=params["T"], dt=params["dt"])
    return {
        "test_values": [[n, a, r] for n, a, r in rep.test_values],
        "discrepancy_curve": [[t, d] for t, d in rep.discrepancy_curve],
        "T_final": rep.T_final,
    }


def _run_correlation(system, params, seed):
    x = _start_point(system, seed)
    phi = mmod.leafwise_test(system)
    t0, gaps = params["t0"], params["gaps"]
    rows = []
    for g in gaps:
        v, se = mmod.correlation_decay(system, x, phi, t0, t0 + g, n_u=params["n_u"],
                                       seed=seed, method=params["method"])
        rows.append({"gap": g, "estimate": v, "stderr": se})
    # decay fit is linear in the gap (log values against the gap itself)
    ln = np.log(np.maximum([abs(r["estimate"]) for r in rows], 1e-300))
    coef = np.polyfit(gaps, ln, 1)
    pred = np.polyval(coef, gaps)
    ss = float(np.sum((ln - ln.mean()) ** 2))
    r2 = 1.0 - float(np.sum((ln - pred) ** 2)) / ss if ss > 0 else 0.0
    lln = mmod.lln_average(system, x, phi, T=params["lln_T"], n_u=params["lln_n_u"], seed=seed)
    return {
        "pairs": rows,
        "gamma_hat": float(-coef[0]),
        "C_hat": float(math.exp(coef[1])),
        "r2": r2,
        "lln_percentile": lln,
    }


def _run_yconfig(system, params, seed):
    q1 = _start_point(system, seed)
    q = sysmod.flow(system, q1, -params["ell"])
    cfg, cfg_p = fmod.paired_y_configurations(
        system, q, params["u"], params["u_prime"], params["ell"], params["epsilon"]
    )

    def pack(c):
        return {**{k: list(getattr(c, k).coords) for k in ("q", "q1", "u_q1", "q2", "q3")},
                **_fields(c, "ell", "t", "t2")}

    return {"config": pack(cfg), "config_prime": pack(cfg_p), "tau_gap": cfg.tau_gap}


def _fit_line(*keys):
    """A one-line text file: `key = value` for each result key."""
    return None, lambda res: ", ".join(f"{k} = {res[k]!r}" for k in keys) + "\n"


def _trace_fit(res):
    ts = [row[0] for row in res["A_trace"]]
    vals = [max(row[1], 1e-300) for row in res["A_trace"]]
    try:
        slope = np.polyfit(ts, np.log(vals), 1)[0] if len(ts) > 1 else 0.0
    except np.linalg.LinAlgError:  # a window too short to scale (ell near 0)
        slope = math.nan
    return f"tau2 = {res['tau2']!r}, log-slope = {float(slope)!r}\n"


_QUAD = ("dist_xx", "dist_xux", "ratio", "p_uu_norm", "p_u_norm")


class Experiment(NamedTuple):
    """One experiment family: its runner, its [params] as key -> (required,
    default, domain), and its plot files as name -> (CSV header, rows of the
    results) or (None, the text of the results)."""

    runner: Callable
    params: dict
    plot: dict


EXPERIMENTS = {
    "lyapunov": Experiment(_run_lyapunov, {
        "T": (True, None, _POSITIVE), "dt_qr": (False, 1.0, _POSITIVE),
    }, {
        "spectrum.csv": (("index", "exponent", "stderr"),
                         lambda res: zip(itertools.count(), res["exponents"], res["stderr"])),
    }),
    "qni": Experiment(_run_qni, {
        "u_scale": (False, 0.01, _POSITIVE),
        "scale_min": (False, 1e-4, _POSITIVE),
        "scale_max": (False, 1e-2, _POSITIVE),
        # a scale is one quadrilateral, about 13 ms and 2 kB
        "n_scales": (False, 8, Domain(int, 6, 1000)),
        "s_dir": (False, None, _VECTOR),
        "u_dir": (False, None, _VECTOR),
    }, {
        "qni_scatter.csv": (_QUAD, lambda res: ([r[k] for k in _QUAD]
                                                for r in res["quadrilaterals"])),
        "qni_fit.txt": _fit_line("alpha_hat", "C_hat", "r2"),
    }),
    "stopping": Experiment(_run_stopping, {
        "u": (False, 0.3, _REAL),
        "ell": (True, None, _POSITIVE),
        "epsilon": (False, 0.025, _POSITIVE),
        "d0": (False, None, Domain(None, 0, above=True)),  # the r_seed, as written
        "s_disp": (False, None, _VECTOR),
    }, {
        "a_trace.csv": (("t", "A_value"), lambda res: res["A_trace"]),
        "a_trace_fit.txt": (None, _trace_fit),
    }),
    "bilipschitz": Experiment(_run_bilipschitz, {
        "u": (False, 0.3, _REAL),
        "ell_grid": (True, None, _POSITIVES),
        "s_grid": (True, None, _POSITIVES),
        "epsilon": (False, 0.025, _POSITIVE),
    }, {
        "stopping_times.csv": (("ell", "tau2"),
                               lambda res: sorted((float(k), v) for k, v in res["taus"].items())),
    }),
    "equidistribution": Experiment(_run_equidistribution, {
        "T": (True, None, _POSITIVE), "dt": (False, 0.5, _POSITIVE),
    }, {
        "discrepancy.csv": (("T", "sup_discrepancy"), lambda res: res["discrepancy_curve"]),
    }),
    "correlation": Experiment(_run_correlation, {
        "t0": (False, 1.0, Domain(float, 0)),
        "gaps": (False, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], _POSITIVES),
        "method": (False, "auto", Domain(str)),
        "n_u": (False, 4096, Domain(int, 2, sysmod.MAX_STEPS)),
        "lln_T": (False, 1000.0, _POSITIVE),
        "lln_n_u": (False, 64, Domain(int, 1, sysmod.MAX_STEPS)),
    }, {
        "correlation.csv": (("gap", "estimate", "stderr"), lambda res: (
            [r["gap"], r["estimate"], r["stderr"]] for r in res["pairs"])),
        "correlation_fit.txt": _fit_line("gamma_hat", "r2"),
    }),
    "yconfig": Experiment(_run_yconfig, {
        "u": (False, 0.3, _REAL),
        "u_prime": (False, 0.25, _REAL),
        "ell": (True, None, _POSITIVE),
        "epsilon": (False, 0.025, _POSITIVE),
    }, {
        "yconfig.csv": (("ell", "t", "t2", "tau_gap"), lambda res: [
            [res["config"]["ell"], res["config"]["t"], res["config"]["t2"], res["tau_gap"]]]),
    }),
}


def run(config: ExperimentConfig, write: bool = True) -> RunReport:
    """Execute the experiment; deterministic payload for a fixed config."""
    system = sysmod.make_system(config.system)
    exp = EXPERIMENTS[config.experiment]
    params = {key: domain.read(config.params.get(key, default))
              for key, (_, default, domain) in exp.params.items()}
    start = time.perf_counter()
    results = exp.runner(system, params, config.seed)
    wall = time.perf_counter() - start
    report = RunReport(
        config_echo=serialize_config(config),
        results=results,
        wall_time=wall,
        version=__version__,
        experiment=config.experiment,
    )
    if write:
        _write_report(report, Path(config.output_dir))
    return report


def payload_bytes(report: RunReport) -> bytes:
    """The deterministic part of the report (excludes wall time)."""
    payload = {k: v for k, v in vars(report).items() if k != "wall_time"}
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _write_report(report: RunReport, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps(vars(report), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    emit_plot_data(report, report.experiment, outdir)


def _write_csv(path: Path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def emit_plot_data(report: RunReport, kind: str, outdir=None):
    """Write gnuplot-friendly series for the report; returns the file list."""
    if kind != report.experiment:
        raise KindMismatch(f"report holds {report.experiment!r}, not {kind!r}")
    if kind not in EXPERIMENTS:
        raise KindMismatch(f"no plot writer for {kind!r}")
    outdir = Path(outdir if outdir is not None else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, content) in EXPERIMENTS[kind].plot.items():
        path = outdir / name
        if header is None:
            path.write_text(content(report.results), encoding="utf-8")
        else:
            _write_csv(path, header, content(report.results))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# CLI


def _error_json(exc):
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )


@np.errstate(all="ignore")  # a breakdown reaches stderr as its typed error alone
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anosovlab",
                                     description="hyperbolic-flow experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None)
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", type=Path)
    p_plot = sub.add_parser("plot", help="emit plot series from a report")
    p_plot.add_argument("report", type=Path)
    p_plot.add_argument("--kind", required=True)
    p_plot.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    try:
        if args.command in ("run", "validate"):
            try:
                config = parse_config(args.config.read_text(encoding="utf-8"))
            except (ParseError, SchemaError) as exc:
                print(_error_json(exc), file=sys.stderr)
                return 2
            if args.command == "validate":
                sysmod.make_system(config.system)  # the model checks its own values
                print(json.dumps({"valid": True,
                                  "experiment": config.experiment}, sort_keys=True))
                return 0
            if args.seed is not None:
                config.seed = args.seed
            if args.out is not None:
                config.output_dir = str(args.out)
            report = run(config)
            print(payload_bytes(report).decode("utf-8"))
            return 0
        if args.command == "plot":
            data = json.loads(args.report.read_text(encoding="utf-8"))
            report = RunReport(data["config_echo"], data["results"], data.get("wall_time", 0.0),
                               data.get("version", __version__), data["experiment"])
            outdir = args.out if args.out is not None else args.report.parent
            files = emit_plot_data(report, args.kind, outdir)
            print(json.dumps({"written": [str(f) for f in files]}, sort_keys=True))
            return 0
    except Unsupported as exc:
        print(_error_json(exc), file=sys.stderr)
        return 4
    except AnosovLabError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
