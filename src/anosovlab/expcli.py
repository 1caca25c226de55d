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
Runs are bit-deterministic for a fixed (config, seed, version): all
randomness derives from the root seed through counter-based task keys and
report payloads are serialised with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
    KindMismatch,
    ParseError,
    SchemaError,
    Unsupported,
)

EXPERIMENTS = (
    "lyapunov",
    "qni",
    "stopping",
    "bilipschitz",
    "equidistribution",
    "correlation",
    "yconfig",
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

#: what a [params] runner reads: a number is finite and no bool; a list is
#: two or more numbers, since one number parses as a scalar
_NUMBER = "a finite number"
_NUMBERS = "a finite number or a list of them"
_LIST = "a list of at least two finite numbers"
_TEXT = "text"

# params schema per experiment: key -> (required, default, what the runner reads)
_PARAM_SCHEMAS = {
    "lyapunov": {"T": (True, None, _NUMBER), "dt_qr": (False, 1.0, _NUMBER)},
    "qni": {
        "u_scale": (False, 0.01, _NUMBER),
        "scale_min": (False, 1e-4, _NUMBER),
        "scale_max": (False, 1e-2, _NUMBER),
        "n_scales": (False, 8, _NUMBER),
        "s_dir": (False, None, _NUMBERS),
        "u_dir": (False, None, _NUMBERS),
    },
    "stopping": {
        "u": (False, 0.3, _NUMBER),
        "ell": (True, None, _NUMBER),
        "epsilon": (False, 0.025, _NUMBER),
        "d0": (False, None, _NUMBER),
        "s_disp": (False, None, _NUMBERS),
    },
    "bilipschitz": {
        "u": (False, 0.3, _NUMBER),
        "ell_grid": (True, None, _LIST),
        "s_grid": (True, None, _LIST),
        "epsilon": (False, 0.025, _NUMBER),
    },
    "equidistribution": {"T": (True, None, _NUMBER), "dt": (False, 0.5, _NUMBER)},
    "correlation": {
        "t0": (False, 1.0, _NUMBER),
        "gaps": (False, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], _LIST),
        "method": (False, "auto", _TEXT),
        "n_u": (False, 4096, _NUMBER),
        "lln_T": (False, 1000.0, _NUMBER),
        "lln_n_u": (False, 64, _NUMBER),
    },
    "yconfig": {
        "u": (False, 0.3, _NUMBER),
        "u_prime": (False, 0.25, _NUMBER),
        "ell": (True, None, _NUMBER),
        "epsilon": (False, 0.025, _NUMBER),
    },
}


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


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _reads_as(value, want):
    """Whether a parsed [params] value is what its runner reads (`want`)."""
    if want == _TEXT:
        return isinstance(value, str)
    items = value if isinstance(value, list) else [value]
    finite = all(_is_number(v) and abs(v) <= sys.float_info.max for v in items)
    return finite and (want == _NUMBERS or isinstance(value, list) == (want == _LIST))


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
    if experiment is None:
        problems.append("missing required key 'experiment'")
    elif experiment not in EXPERIMENTS:
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
        got = value if isinstance(value, list) else [value]
        if len(got) != n or not all(map(_is_number, got)):
            problems.append(f"[system] {key!r} must be "
                            + ("a number" if n == 1 else f"a list of {n} numbers"))

    params = dict(sections["params"])
    if experiment in EXPERIMENTS:  # a list value is no key of the schemas
        schema = _PARAM_SCHEMAS[experiment]
        for key, value in params.items():
            if key not in schema:
                problems.append(
                    f"unknown [params] key {key!r}" + _suggest(key, schema)
                )
            elif not _reads_as(value, schema[key][2]):
                problems.append(f"[params] {key!r} must be {schema[key][2]}")
        for key, (required, default, _) in schema.items():
            if key not in params:
                if required:
                    problems.append(f"missing required [params] key {key!r}")
                else:
                    params[key] = default
    if problems:
        raise SchemaError(problems)

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


def _run_lyapunov(system, params, seed):
    x0 = _start_point(system, seed)
    rep = comod.lyapunov_spectrum(system, x0, T=float(params["T"]),
                                  dt_qr=float(params["dt_qr"]), seed=seed)
    return {
        "exponents": rep.exponents,
        "stderr": rep.stderr,
        "T_total": rep.T_total,
        "steps": rep.steps,
    }


def _run_qni(system, params, seed):
    x = _start_point(system, seed)
    n_s = sysmod.leaf_dimension(system, "Stable")
    n_u = sysmod.leaf_dimension(system, "StrongUnstable")
    gen = rngmod.derive(seed, "qni_directions")
    s_dir = params.get("s_dir")
    if s_dir is None:
        v = gen.standard_normal(n_s)
        s_dir = tuple(v / np.linalg.norm(v))
    else:
        s_dir = tuple(float(v) for v in np.atleast_1d(s_dir))
    u_dir = params.get("u_dir")
    if u_dir is None:
        u_dir = tuple(np.ones(n_u) / math.sqrt(n_u))
    else:
        u_dir = tuple(float(v) for v in np.atleast_1d(u_dir))
    scales = np.geomspace(float(params["scale_min"]), float(params["scale_max"]),
                          int(params["n_scales"]))
    dirs = lgmod.QniDirections(s_dir=s_dir, u_dir=u_dir, u_scale=float(params["u_scale"]))
    est = lgmod.qni_exponent(system, x, dirs, scales)
    quad_rows = [
        {
            "dist_xx": q.dist_xx,
            "dist_xux": q.dist_xux,
            "ratio": q.ratio,
            "p_uu_norm": float(np.linalg.norm(q.p_uu)),
            "p_u_norm": float(np.linalg.norm(q.p_u)),
        }
        for q in est.quads
    ]
    return {
        "alpha_hat": est.alpha_hat,
        "C_hat": est.C_hat,
        "r2": est.r2,
        "scale_range": list(est.scale_range),
        "quadrilaterals": quad_rows,
    }


def _run_stopping(system, params, seed):
    q1 = _start_point(system, seed)
    comp = None
    if params.get("s_disp") is not None or params.get("d0") is not None:
        s_disp = params.get("s_disp")
        if s_disp is None:
            comp = fmod.Companion(
                s_disp=fmod.default_companion(system).s_disp,
                r_seed=params.get("d0"),
            )
        else:
            comp = fmod.Companion(
                s_disp=tuple(float(v) for v in np.atleast_1d(s_disp)),
                r_seed=params.get("d0"),
            )
    rec = fmod.stopping_time(system, q1, float(params["u"]), float(params["ell"]),
                             float(params["epsilon"]), comp)
    return {
        "tau2": rec.tau2,
        "beta_bound": rec.beta_bound,
        "epsilon": rec.epsilon,
        "ell": rec.ell,
        "u": rec.u,
        "never_reaches": rec.never_reaches,
        "lambda2_at_stop": rec.lambda2_at_stop,
        "B_scalar": rec.B_scalar,
        "r_seed": rec.r_seed,
        "A_trace": [[t, a] for t, a in rec.A_trace],
    }


def _run_bilipschitz(system, params, seed):
    q1 = _start_point(system, seed)
    k1, k2, ok, det = fmod.bilipschitz_check(
        system, q1, float(params["u"]),
        [float(v) for v in params["ell_grid"]],
        [float(v) for v in params["s_grid"]],
        float(params["epsilon"]),
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
    rep = mmod.birkhoff_equidistribution(system, x, tests, T=float(params["T"]),
                                         dt=float(params["dt"]))
    return {
        "test_values": [[n, a, r] for n, a, r in rep.test_values],
        "discrepancy_curve": [[t, d] for t, d in rep.discrepancy_curve],
        "T_final": rep.T_final,
    }


def _run_correlation(system, params, seed):
    x = _start_point(system, seed)
    phi = mmod.leafwise_test(system)
    t0 = float(params["t0"])
    gaps = [float(g) for g in params["gaps"]]
    rows = []
    for g in gaps:
        v, se = mmod.correlation_decay(system, x, phi, t0, t0 + g,
                                       n_u=int(params["n_u"]), seed=seed,
                                       method=str(params["method"]))
        rows.append({"gap": g, "estimate": v, "stderr": se})
    # decay fit is linear in the gap (log values against the gap itself)
    ln = np.log(np.maximum([abs(r["estimate"]) for r in rows], 1e-300))
    coef = np.polyfit(gaps, ln, 1)
    pred = np.polyval(coef, gaps)
    ss = float(np.sum((ln - ln.mean()) ** 2))
    r2 = 1.0 - float(np.sum((ln - pred) ** 2)) / ss if ss > 0 else 0.0
    lln = mmod.lln_average(system, x, phi, T=float(params["lln_T"]),
                           n_u=int(params["lln_n_u"]), seed=seed)
    return {
        "pairs": rows,
        "gamma_hat": float(-coef[0]),
        "C_hat": float(math.exp(coef[1])),
        "r2": r2,
        "lln_percentile": lln,
    }


def _run_yconfig(system, params, seed):
    q1 = _start_point(system, seed)
    q = sysmod.flow(system, q1, -float(params["ell"]))
    cfg, cfg_p = fmod.paired_y_configurations(
        system, q, float(params["u"]), float(params["u_prime"]),
        float(params["ell"]), float(params["epsilon"]),
    )

    def pack(c):
        return {
            "q": list(c.q.coords),
            "q1": list(c.q1.coords),
            "u_q1": list(c.u_q1.coords),
            "q2": list(c.q2.coords),
            "q3": list(c.q3.coords),
            "ell": c.ell,
            "t": c.t,
            "t2": c.t2,
        }

    return {"config": pack(cfg), "config_prime": pack(cfg_p), "tau_gap": cfg.tau_gap}


_RUNNERS = {
    "lyapunov": _run_lyapunov,
    "qni": _run_qni,
    "stopping": _run_stopping,
    "bilipschitz": _run_bilipschitz,
    "equidistribution": _run_equidistribution,
    "correlation": _run_correlation,
    "yconfig": _run_yconfig,
}


def run(config: ExperimentConfig, write: bool = True) -> RunReport:
    """Execute the experiment; deterministic payload for a fixed config."""
    system = sysmod.make_system(config.system)
    start = time.perf_counter()
    results = _RUNNERS[config.experiment](system, config.params, config.seed)
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
    return json.dumps(
        {
            "config_echo": report.config_echo,
            "experiment": report.experiment,
            "results": report.results,
            "version": report.version,
        },
        sort_keys=True,
    ).encode("utf-8")


def _write_report(report: RunReport, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    full = {
        "config_echo": report.config_echo,
        "experiment": report.experiment,
        "results": report.results,
        "version": report.version,
        "wall_time": report.wall_time,
    }
    (outdir / "report.json").write_text(
        json.dumps(full, sort_keys=True, indent=1) + "\n", encoding="utf-8"
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
    outdir = Path(outdir if outdir is not None else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    res = report.results
    written = []
    if kind == "lyapunov":
        p = outdir / "spectrum.csv"
        _write_csv(p, ["index", "exponent", "stderr"],
                   list(zip(range(len(res["exponents"])), res["exponents"], res["stderr"])))
        written.append(p)
    elif kind == "qni":
        p = outdir / "qni_scatter.csv"
        _write_csv(p, ["dist_xx", "dist_xux", "ratio", "p_uu_norm", "p_u_norm"],
                   [[r["dist_xx"], r["dist_xux"], r["ratio"], r["p_uu_norm"], r["p_u_norm"]]
                    for r in res["quadrilaterals"]])
        written.append(p)
        p2 = outdir / "qni_fit.txt"
        p2.write_text(
            f"alpha_hat = {res['alpha_hat']!r}, C_hat = {res['C_hat']!r}, r2 = {res['r2']!r}\n",
            encoding="utf-8",
        )
        written.append(p2)
    elif kind == "stopping":
        p = outdir / "a_trace.csv"
        _write_csv(p, ["t", "A_value"], res["A_trace"])
        written.append(p)
        ts = [row[0] for row in res["A_trace"]]
        vals = [max(row[1], 1e-300) for row in res["A_trace"]]
        slope = np.polyfit(ts, np.log(vals), 1)[0] if len(ts) > 1 else 0.0
        p2 = outdir / "a_trace_fit.txt"
        p2.write_text(
            f"tau2 = {res['tau2']!r}, log-slope = {float(slope)!r}\n", encoding="utf-8"
        )
        written.append(p2)
    elif kind == "equidistribution":
        p = outdir / "discrepancy.csv"
        _write_csv(p, ["T", "sup_discrepancy"], res["discrepancy_curve"])
        written.append(p)
    elif kind == "correlation":
        p = outdir / "correlation.csv"
        _write_csv(p, ["gap", "estimate", "stderr"],
                   [[r["gap"], r["estimate"], r["stderr"]] for r in res["pairs"]])
        written.append(p)
        p2 = outdir / "correlation_fit.txt"
        p2.write_text(
            f"gamma_hat = {res['gamma_hat']!r}, r2 = {res['r2']!r}\n", encoding="utf-8"
        )
        written.append(p2)
    elif kind == "bilipschitz":
        p = outdir / "stopping_times.csv"
        _write_csv(p, ["ell", "tau2"], sorted((float(k), v) for k, v in res["taus"].items()))
        written.append(p)
    elif kind == "yconfig":
        p = outdir / "yconfig.csv"
        _write_csv(p, ["ell", "t", "t2", "tau_gap"],
                   [[res["config"]["ell"], res["config"]["t"], res["config"]["t2"],
                     res["tau_gap"]]])
        written.append(p)
    else:
        raise KindMismatch(f"no plot writer for {kind!r}")
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
            report = RunReport(
                config_echo=data["config_echo"],
                results=data["results"],
                wall_time=data.get("wall_time", 0.0),
                version=data.get("version", __version__),
                experiment=data["experiment"],
            )
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
