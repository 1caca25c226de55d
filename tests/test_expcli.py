"""Config parsing, schema validation, deterministic runs, plot emission, CLI."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anosovlab import expcli as E
from anosovlab import systems as S
from anosovlab.errors import KindMismatch, ParseError, SchemaError

MINIMAL = """
experiment = lyapunov
seed = 3

[system]
kind = BorelSmale
a = 3
b = -2

[params]
T = 150
"""


def test_minimal_config_fills_defaults():
    cfg = E.parse_config(MINIMAL)
    assert cfg.experiment == "lyapunov"
    assert cfg.params["dt_qr"] == 1.0
    assert cfg.seed == 3
    assert cfg.output_dir == "out"


def test_unknown_key_suggestion():
    bad = MINIMAL.replace("a = 3", "lamda = 2.0")
    with pytest.raises(SchemaError) as err:
        E.parse_config(bad)
    assert any("lambda" in p for p in err.value.problems)


def test_all_problems_reported_at_once():
    bad = "experiment = nonsense\nunknown_top = 1\n[system]\nkind = NoSuch\n"
    with pytest.raises(SchemaError) as err:
        E.parse_config(bad)
    assert len(err.value.problems) >= 3


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        E.parse_config("experiment = lyapunov\nbroken line\n")
    assert err.value.line == 2


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        E.parse_config("experiment = lyapunov\nexperiment = qni\n")


def _random_config(gen):
    experiment = str(gen.choice(["lyapunov", "stopping", "equidistribution"]))
    kind = str(gen.choice(sorted(S.MODELS)))
    params = {}
    if experiment == "lyapunov":
        params = {"T": float(np.round(gen.uniform(100, 500), 6)), "dt_qr": 1.0}
    elif experiment == "stopping":
        params = {
            "u": float(np.round(gen.uniform(0.1, 0.5), 6)),
            "ell": float(np.round(gen.uniform(5, 15), 6)),
            "epsilon": 0.02,
            "d0": None,
            "s_disp": None,
        }
    else:
        params = {"T": float(np.round(gen.uniform(100, 500), 6)), "dt": 0.5}
    sys_params = {}
    if kind == "CatSuspension":
        m = [int(v) for v in gen.integers(-9, 10, 4)]
        sys_params = {"matrix": ((m[0], m[1]), (m[2], m[3]))}
    elif kind in ("BorelSmale", "BorelSmalePerturbed"):
        a, b = (int(v) for v in gen.choice([-3, -2, -1, 1, 2, 3], 2))
        sys_params = {"a": a, "b": b, "lam": float(np.round(gen.uniform(2.1, 3.0), 6))}
        if kind == "BorelSmalePerturbed":
            sys_params["eps_pert"] = float(np.round(gen.uniform(0.0, 0.07), 6))
    return E.ExperimentConfig(
        experiment=experiment,
        system=S.SystemSpec(kind, sys_params),
        params=params,
        seed=int(gen.integers(0, 2**31)),
        output_dir="out",
    )


def test_serialize_parse_round_trip_hundred_random_configs():
    gen = np.random.default_rng(7)
    drawn = set()
    for _ in range(100):
        cfg = _random_config(gen)
        drawn.add(cfg.system.kind)
        text = E.serialize_config(cfg)
        back = E.parse_config(text)
        assert back.experiment == cfg.experiment
        assert back.seed == cfg.seed
        assert back.system == cfg.system
        for key, val in cfg.params.items():
            assert back.params.get(key) == val
    assert drawn == set(S.MODELS)


SYSTEM_VALUE = """
experiment = lyapunov
[system]
kind = {kind}
{line}
[params]
T = 150
"""


@pytest.mark.parametrize("kind, line", [
    ("CatSuspension", "matrix = 1"),
    ("CatSuspension", "matrix = 2, 1, 1"),
    ("CatSuspension", "matrix = 2, 1, 1, 1, 0"),
    ("CatSuspension", "matrix = 2, 1, true, 1"),
    ("BorelSmale", "a = foo"),
    ("BorelSmale", "a = true"),
    ("BorelSmale", "b = 1, 2"),
    ("BorelSmale", "lambda = x"),
    ("BorelSmalePerturbed", "eps_pert = 1, 2"),
])
def test_ill_typed_system_values_are_schema_errors(tmp_path, capsys, kind, line):
    text = SYSTEM_VALUE.format(kind=kind, line=line)
    key = line.split("=")[0].strip()
    # collected with the other problems of the config
    with pytest.raises(SchemaError) as err:
        E.parse_config(text + "unknown_param = 1\n")
    assert len(err.value.problems) == 2
    assert any(p.startswith(f"[system] {key!r} must be") for p in err.value.problems)
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(text)
    assert E.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "SchemaError"


@pytest.mark.parametrize("kind, line", [
    ("BorelSmale", "a = inf"),
    ("BorelSmale", "a = nan"),
    ("BorelSmale", "lambda = nan"),
    ("BorelSmale", "lambda = inf"),
    ("BorelSmalePerturbed", "eps_pert = nan"),
    ("CatSuspension", "matrix = 2, 1, 1, inf"),
])
def test_non_finite_system_values_exit_with_invalid_params(tmp_path, capsys, kind, line):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(SYSTEM_VALUE.format(kind=kind, line=line))
    assert E.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidParams"


@pytest.mark.parametrize("kind, line", [
    ("BorelSmale", "a = 0"),
    ("CatSuspension", "matrix = 1, 1, 0, 1"),
    ("BorelSmale", "lambda = 0.9"),
    ("BorelSmalePerturbed", "eps_pert = 0.5"),
    ("BorelSmale", "a = nan"),
    ("BorelSmale", "a = 1" + "0" * 400),  # beyond the float range
    ("CatSuspension", "matrix = 1" + "0" * 400 + ", 1, 1, 1"),
    ("CatSuspension", "matrix = 1e300, -1e300, 1e300, 1e300"),  # det overflows
])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, kind, line):
    # values only the model constructor checks: validate builds the model too
    cfg = tmp_path / "model.cfg"
    cfg.write_text(SYSTEM_VALUE.format(kind=kind, line=line))
    ends = []
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "o")]):
        code = E.main(argv)
        captured = capsys.readouterr()
        ends.append((code, captured.out, captured.err))
    assert ends[0] == ends[1]
    assert ends[0][:2] == (3, "")
    assert json.loads(ends[0][2])["error"] == "InvalidParams"


PARAMS_VALUE = """
experiment = {experiment}
{top}
[system]
kind = {kind}
[params]
{lines}
"""


@pytest.mark.parametrize("experiment, kind, top, lines, problem", [
    ("lyapunov", "BorelSmale", "", "T = abc", "[params] 'T' must be a finite number"),
    ("lyapunov", "BorelSmale", "", "T = true", "[params] 'T' must be a finite number"),
    ("lyapunov", "BorelSmale", "", "T = 1, 2", "[params] 'T' must be a finite number"),
    ("lyapunov", "BorelSmale", "", "T = inf", "[params] 'T' must be a finite number"),
    ("lyapunov", "BorelSmale", "", "T = 1" + "0" * 400, "[params] 'T' must be a finite number"),
    ("bilipschitz", "BorelSmalePerturbed", "", "ell_grid = 6\ns_grid = 2, 4",
     "[params] 'ell_grid' must be a list of at least two finite numbers"),
    ("correlation", "CatSuspension", "", "gaps = 2, x",
     "[params] 'gaps' must be a list of at least two finite numbers"),
    ("correlation", "CatSuspension", "", "method = 5", "[params] 'method' must be text"),
    ("stopping", "BorelSmale", "", "ell = 6\nd0 = 1, 2", "[params] 'd0' must be a finite number"),
    ("qni", "SL3Model", "", "s_dir = x",
     "[params] 's_dir' must be a finite number or a list of them"),
    ("lyapunov", "BorelSmale", "seed = true", "T = 150", "'seed' must be an integer"),
], ids=["text", "bool", "list", "inf", "huge", "scalar_grid", "text_in_list", "number_method",
        "list_d0", "text_dir", "bool_seed"])
def test_ill_typed_params_and_seed_end_validate_and_run_alike(
        tmp_path, capsys, experiment, kind, top, lines, problem):
    # validate once passed these, and run crashed on them or read true as 1
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(PARAMS_VALUE.format(experiment=experiment, kind=kind, top=top, lines=lines))
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "o")]):
        assert E.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {"error": "SchemaError", "message": problem}


def test_every_params_default_reads_as_its_declared_type():
    for exp in E.EXPERIMENTS.values():
        for key, (_, default, domain) in exp.params.items():
            if default is not None:
                assert domain.fits(default), key
                assert isinstance(domain.read(default), domain.kind or float), key


def test_every_params_default_lies_in_its_domain():
    for exp in E.EXPERIMENTS.values():
        for key, (required, default, domain) in exp.params.items():
            if required:
                assert default is None, key
            elif default is not None:
                assert domain.fits(default) and domain.holds(default), key


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = E.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_error_line(out, err):
    # exactly one JSON object on one line, no traceback
    assert out == ""
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}
    return json.loads(err)["error"]


def _with_param(name, line):
    """A shipped config with one [params] line set (replaced, or added)."""
    key = line.split("=")[0].strip()
    lines = [ln for ln in (CONFIGS / f"{name}.cfg").read_text().splitlines()
             if ln.split("=")[0].strip() != key]
    return "\n".join(lines + [line]) + "\n"


@pytest.mark.parametrize("name, line, validate, run, error", [
    ("qni_sl3", "n_scales = -1", 3, 3, "InvalidParams"),
    ("qni_sl3", "scale_min = 0", 3, 3, "InvalidParams"),
    ("lyapunov_weight_ladder", "dt_qr = 0", 3, 3, "InvalidParams"),
    ("lyapunov_weight_ladder", "dt_qr = -1", 3, 3, "InvalidParams"),
    # in the domain; the step cap stops the run before it allocates
    ("lyapunov_weight_ladder", "dt_qr = 1e-300", 0, 3, "InvalidParams"),
    ("lyapunov_weight_ladder", "T = 1e300", 0, 3, "InvalidParams"),
    ("equidistribution_cat", "T = 1e300", 0, 3, "InvalidParams"),
    # once read as 7 and as 0
    ("qni_sl3", "n_scales = 7.5", 2, 2, "SchemaError"),
    ("correlation_cat", "lln_n_u = 0.5", 2, 2, "SchemaError"),
])
def test_out_of_range_params_end_in_a_typed_error(tmp_path, name, line, validate, run, error):
    # each once passed validate and ended run in a traceback, or was cut down
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_with_param(name, line))
    v_code, v_out, v_err = _cli(["validate", str(cfg)])
    r_code, r_out, r_err = _cli(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert (v_code, r_code) == (validate, run)
    assert _one_error_line(r_out, r_err) == error
    if validate:
        assert (v_out, v_err) == (r_out, r_err)


def test_every_range_problem_of_a_config_is_in_one_message(capsys, tmp_path):
    cfg = tmp_path / "ranges.cfg"
    cfg.write_text(_with_param("qni_sl3", "n_scales = 3").replace("u_scale = 0.01", "u_scale = -1"))
    assert E.main(["validate", str(cfg)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidParams",
        "message": "[params] 'u_scale' must be > 0, got -1; "
                   "[params] 'n_scales' must be >= 6 and <= 1000, got 3",
    }


def test_readme_lists_each_params_domain_as_the_table_declares_it():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for name, exp in E.EXPERIMENTS.items():
        for key, (_, _, domain) in exp.params.items():
            assert f"`{key}`: {domain}" in readme, (name, key)


def test_run_payload_is_byte_deterministic():
    cfg = E.parse_config(MINIMAL)
    a = E.payload_bytes(E.run(cfg, write=False))
    b = E.payload_bytes(E.run(cfg, write=False))
    assert a == b


def test_lyapunov_run_emits_seven_rows(tmp_path):
    cfg = E.parse_config(MINIMAL)
    cfg.output_dir = str(tmp_path)
    report = E.run(cfg)
    csv_lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "index,exponent,stderr"
    assert len(csv_lines) == 1 + 7
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["experiment"] == "lyapunov"
    assert E.parse_config(data["config_echo"]).system == cfg.system


def test_plot_kind_mismatch(tmp_path):
    cfg = E.parse_config(MINIMAL)
    report = E.run(cfg, write=False)
    with pytest.raises(KindMismatch):
        E.emit_plot_data(report, "qni", tmp_path)


def test_stopping_run_writes_trace(tmp_path):
    text = """
experiment = stopping
[system]
kind = BorelSmale
[params]
ell = 8
epsilon = 0.02
d0 = 0.0003
"""
    cfg = E.parse_config(text)
    cfg.output_dir = str(tmp_path)
    report = E.run(cfg)
    lines = (tmp_path / "a_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "t,A_value"
    assert len(lines) > 10
    assert "tau2" in (tmp_path / "a_trace_fit.txt").read_text()


def test_qni_degenerate_direction_surfaces_as_numeric_error(tmp_path):
    text = """
experiment = qni
[system]
kind = ASL2Model
[params]
s_dir = 0.0, 1.0
u_dir = 1.0
"""
    cfg_path = tmp_path / "qni.cfg"
    cfg_path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "anosovlab.expcli", "run", str(cfg_path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "DegenerateFit"


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL)
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("kind = BorelSmale", "kind = Borel"))
    unsupported = tmp_path / "unsup.cfg"
    unsupported.write_text(
        "experiment = equidistribution\n[system]\nkind = SL3Model\n[params]\nT = 50\n"
    )

    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "anosovlab.expcli", *args],
            capture_output=True, text=True,
        )

    assert run_cli("validate", str(good)).returncode == 0
    assert run_cli("validate", str(bad)).returncode == 2
    r = run_cli("run", str(unsupported), "--out", str(tmp_path / "o2"))
    assert r.returncode == 4


def test_cli_run_and_plot(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(MINIMAL)
    out = tmp_path / "outdir"
    proc = subprocess.run(
        [sys.executable, "-m", "anosovlab.expcli", "run", str(cfgf),
         "--out", str(out), "--seed", "11"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    plot = subprocess.run(
        [sys.executable, "-m", "anosovlab.expcli", "plot", str(out / "report.json"),
         "--kind", "lyapunov", "--out", str(tmp_path / "plots")],
        capture_output=True, text=True,
    )
    assert plot.returncode == 0
    assert (tmp_path / "plots" / "spectrum.csv").exists()


CAT_CORRELATION = """
experiment = correlation
[system]
kind = CatSuspension
[params]
gaps = 2, 4
"""


@pytest.mark.parametrize("text, code, error", [
    (CAT_CORRELATION + "lln_T = 0.1\n", 3, "InvalidParams"),
    (CAT_CORRELATION + "lln_n_u = 0\n", 3, "InvalidParams"),
    (CAT_CORRELATION + "method = mc\nn_u = 1\n", 3, "InvalidParams"),
    ("experiment = equidistribution\n[system]\nkind = CatSuspension\n[params]\nT = 0.1\n",
     3, "InvalidParams"),
    (CAT_CORRELATION.replace("gaps = 2, 4", "gaps = 2"), 2, "SchemaError"),
], ids=["lln_T", "lln_n_u", "mc_n_u", "equidistribution_T", "scalar_gaps"])
def test_degenerate_sampling_inputs_exit_with_typed_error(tmp_path, capsys, text, code, error):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(text)
    assert E.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


STOPPING_OVERFLOW = """
experiment = stopping
[system]
kind = {kind}
[params]
ell = 1000
epsilon = 0.02
u = 0.3
d0 = 0.0003
"""


@pytest.mark.parametrize("kind", ("BorelSmale", "BorelSmalePerturbed"))
def test_cli_numerical_breakdown_prints_only_the_error_object(tmp_path, kind):
    # the flow overflows on the way to ell/2; numpy's warnings stay off stderr
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(STOPPING_OVERFLOW.format(kind=kind))
    proc = subprocess.run(
        [sys.executable, "-m", "anosovlab.expcli", "run", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NonFinite"


# ---------------------------------------------------------------------------
# byte determinism of the shipped configs

#: sha256 prefix of each `configs/*.cfg` payload; a change that moves one
#: changes a result on purpose and says so
PAYLOAD_SHA256 = {
    "bilipschitz_perturbed": "b6bc1a897599cb38",
    "correlation_cat": "71d3a25c9b36ee3c",
    "equidistribution_cat": "d9bc2fd892992811",
    "lyapunov_weight_ladder": "60cae5e5eb5b95a7",
    # moved with the real matrix log of the SL3 charts, which replaced the
    # eigen path and scipy's logm: 45 numbers, by at most 4.6e-11 relative
    "qni_sl3": "b0487f3f27a588dd",
    "stopping_borel_smale": "4f589197c06e9c3d",
    "yconfig_borel_smale": "632160b85e035020",
}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_config_payload_matches_its_pinned_hash(name):
    report = E.run(E.parse_config((CONFIGS / f"{name}.cfg").read_text()), write=False)
    assert hashlib.sha256(E.payload_bytes(report)).hexdigest()[:16] == PAYLOAD_SHA256[name]


# ---------------------------------------------------------------------------
# validate fuzz: mutations of the shipped configs

_CONFIG_LINES = [p.read_text().splitlines() for p in sorted(CONFIGS.glob("*.cfg"))]
#: every key the schema knows, so that a drawn key may land in the wrong place
_KNOWN_KEYS = sorted(E._TOP_KEYS | {"kind"}
                     | {k for schema in E._SYSTEM_SCHEMAS.values() for k in schema}
                     | {k for exp in E.EXPERIMENTS.values() for k in exp.params})
_scalar_text = st.one_of(
    st.integers().map(str),
    st.integers(-10**400, 10**400).map(str),  # past the float range too
    st.floats().map(repr),
    st.sampled_from(["true", "false", "inf", "-inf", "nan", "1e999", "", "[system]", "=", "#"]),
    st.text(st.characters(codec="utf-8"), max_size=8),
)
_value_text = st.one_of(_scalar_text,
                        st.lists(_scalar_text, min_size=2, max_size=5).map(", ".join))


@st.composite
def _mutated_config(draw):
    lines = list(draw(st.sampled_from(_CONFIG_LINES)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "value", "insert"]))
        if op == "insert":  # a known key in any place, or an unknown one
            key = draw(st.sampled_from(_KNOWN_KEYS)
                       | st.text(st.characters(codec="utf-8"), min_size=1, max_size=8))
            lines.insert(i, f"{key} = {draw(_value_text)}")
            continue
        if i == len(lines):
            continue
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif "=" in lines[i]:
            lines[i] = f"{lines[i].partition('=')[0]}= {draw(_value_text)}"
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(text=_mutated_config())
def test_validate_ends_every_mutated_config_in_a_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = E.main(["validate", str(cfg)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert json.loads(out.getvalue())["valid"] is True
    else:
        # exactly one JSON object on one line, no traceback
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert set(json.loads(err.getvalue())) == {"error", "message"}


# ---------------------------------------------------------------------------
# run fuzz: one [params] value at a time, at the edges of its domain

#: one cheap config per experiment (each runs in under 0.15 s), the base of
#: every draw
_FUZZ_BASE = {
    "lyapunov": ("BorelSmale", {"T": "150"}),
    "qni": ("ASL2Model", {}),
    "stopping": ("BorelSmale", {"ell": "8", "d0": "0.0003"}),
    "bilipschitz": ("BorelSmale", {"ell_grid": "6, 7, 8, 9, 10", "s_grid": "2, 3, 4, 5, 6"}),
    "equidistribution": ("CatSuspension", {"T": "50"}),
    "correlation": ("CatSuspension", {"gaps": "2, 4", "lln_T": "10"}),
    "yconfig": ("BorelSmale", {"ell": "10"}),
}


def _edges(domain):
    """0, -1, 1e-300 and 1e300, and each finite edge with one ulp either
    side; for an integer also one either side and a value half-way."""
    values = [0, -1, 1e-300, 1e300, -1e300]
    for edge in (domain.lo, domain.hi):
        if math.isfinite(edge):
            values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
            if domain.kind is int:
                values += [edge - 1, edge + 1, edge + 0.5]
    return values


@st.composite
def _edge_case(draw):
    experiment = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    key = draw(st.sampled_from(sorted(E.EXPERIMENTS[experiment].params)))
    domain = E.EXPERIMENTS[experiment].params[key][2]
    if domain.kind is str:
        return experiment, key, draw(st.sampled_from(["auto", "exact", "mc", "bogus", "1"]))
    v = draw(st.sampled_from(_edges(domain)))
    text = repr(v) if isinstance(v, float) else str(v)
    if domain.kind is list:  # one entry of the base list
        base = _FUZZ_BASE[experiment][1].get(key) or ", ".join(map(str, E.EXPERIMENTS[
            experiment].params[key][1]))
        text += "," + base.partition(",")[2]
    elif domain.kind is tuple:
        text = ", ".join([text] * draw(st.integers(1, 3)))
    return experiment, key, text


@settings(max_examples=300)
@given(case=_edge_case())
@example(case=("qni", "n_scales", "-1"))
@example(case=("qni", "scale_min", "0"))
@example(case=("lyapunov", "dt_qr", "0"))
@example(case=("lyapunov", "dt_qr", "-1"))
@example(case=("lyapunov", "dt_qr", "1e-300"))
@example(case=("lyapunov", "T", "1e300"))
@example(case=("equidistribution", "T", "1e300"))
@example(case=("qni", "n_scales", "7.5"))
@example(case=("correlation", "lln_n_u", "0.5"))
@example(case=("stopping", "ell", "1e-300"))  # a trace too short to fit a slope to
@example(case=("stopping", "s_disp", "0.1"))
@example(case=("correlation", "t0", "1e300"))
def test_run_ends_every_edge_value_in_a_documented_exit(case):
    experiment, key, text = case
    kind, base = _FUZZ_BASE[experiment]
    lines = [f"experiment = {experiment}", "[system]", f"kind = {kind}", "[params]"]
    lines += [f"{k} = {v}" for k, v in {**base, key: text}.items()]
    domain = E.EXPERIMENTS[experiment].params[key][2]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "edge.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        v_code, v_out, v_err = _cli(["validate", str(cfg)])
        assert v_code in (0, 2, 3, 4)
        if v_code:
            _one_error_line(v_out, v_err)
        else:
            assert json.loads(v_out)["valid"] is True
            if domain.kind is int and E._parse_value(text) >= domain.hi - 1:
                return  # in the domain at its cap: valid, and too long a run for a test
        r_code, r_out, r_err = _cli(["run", str(cfg), "--out", str(Path(tmp) / "o")])
    assert r_code in (0, 2, 3, 4)
    if v_code:  # rejected before any runner starts, in the same words
        assert (r_code, r_err) == (v_code, v_err)
    if r_code:
        _one_error_line(r_out, r_err)
    else:  # a result, and no NaN or infinity in it
        assert r_err == ""
        assert json.loads(r_out, parse_constant=pytest.fail)["experiment"] == experiment
