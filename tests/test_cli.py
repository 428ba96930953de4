"""Command-line surface: exit codes, report schemas, config handling."""

import json
import math
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

CMD = [sys.executable, "-m", "zenopdc"]


def run(*args, timeout=120, **kwargs):
    return subprocess.run(
        [*CMD, *args], capture_output=True, text=True, timeout=timeout, **kwargs
    )


def test_simulate_default_report():
    proc = run("simulate", "--gamma", "0.5", "--kappa", "1", "--length", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "simulate"
    assert report["engine"] == "exact"
    assert report["params"] == {"gamma": 0.5, "kappa": 1.0, "delta": 0.0, "length": 1.0}
    assert report["n_s"] == pytest.approx(0.2485385524325554, abs=1e-12)
    assert report["n_s"] == pytest.approx(report["n_i"] + report["n_b"], abs=1e-12)
    assert report["symplectic_residual"] <= 1e-10
    assert report["branch"] is None


def test_simulate_engines_agree():
    outs = {}
    for engine in ("exact", "ode", "closed-form"):
        proc = run("simulate", "--engine", engine, "--gamma", "0.5", "--kappa", "1")
        assert proc.returncode == 0
        outs[engine] = json.loads(proc.stdout)
    assert outs["ode"]["n_s"] == pytest.approx(outs["exact"]["n_s"], abs=1e-8)
    assert outs["closed-form"]["n_s"] == pytest.approx(outs["exact"]["n_s"], abs=1e-9)
    assert outs["closed-form"]["symplectic_residual"] is None
    assert outs["closed-form"]["branch"] == "trigonometric"


def test_simulate_zero_gain_is_all_zeros():
    proc = run("simulate", "--gamma", "0", "--kappa", "3", "--delta", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["n_s"] == report["n_i"] == report["n_b"] == 0.0


def test_simulate_closed_form_needs_special_case():
    proc = run("simulate", "--engine", "closed-form", "--kappa", "2", "--delta", "3")
    assert proc.returncode == 3
    assert "closed-form" in proc.stderr


def test_invalid_parameter_exits_2():
    proc = run("simulate", "--gamma", "-1")
    assert proc.returncode == 2
    assert "gamma" in proc.stderr
    # rate*length beyond float range: a math domain error, an overflow, a NaN,
    # and overflowing frame phases of the exact engine; rates whose frequency
    # cubic overflows (an OverflowError, a NaN discriminant, an infinite window)
    for argv in (["simulate", "--engine", "closed-form", "--kappa", "1e200", "--length", "1e200"],
                 ["simulate", "--engine", "closed-form", "--gamma", "400", "--length", "2.5"],
                 ["simulate", "--engine", "closed-form", "--gamma", "1e200", "--length", "1e200"],
                 ["simulate", "--delta", "1e300", "--length", "1e300"],
                 ["classify", "--gamma", "1e100", "--kappa", "1e100", "--delta", "1e100"],
                 ["classify", "--gamma", "1", "--kappa", "1e160", "--delta", "1"],
                 ["classify", "--gamma", "1e160", "--kappa", "1", "--delta", "1"]):
        proc = run(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_closed_form_engine_takes_rates_whose_squares_overflow():
    proc = run("simulate", "--engine", "closed-form", "--gamma", "1e200", "--delta", "3e200",
               "--length", "1e-200")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_s"] == pytest.approx(0.6469, abs=1e-4)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep"], {"axis1": {"name": "kappa", "start": 0, "stop": 1, "count": 2**61},
                     "axis2": {"name": "delta", "start": 0, "stop": 1, "count": 2}}),
        (["sweep"], {"axis1": {"name": "kappa", "start": 0, "stop": 1, "count": 2**31},
                     "axis2": {"name": "delta", "start": 0, "stop": 1, "count": 2**31}}),
        (["ridge", "--delta", f"3:10:{2**61}"], None),
    ],
    ids=["sweep-axis-2**61", "sweep-2**31-squared", "ridge-2**61-deltas"],
)
def test_unallocatable_sizes_exit_2(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    proc = run(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "array size limit" in proc.stderr


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gamma": 0.5, "gammma": 1.0}))
    proc = run("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "gammma" in proc.stderr


def test_missing_config_exits_2():
    proc = run("simulate", "--config", "nope.json")
    assert proc.returncode == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gamma": 0.7, "kappa": 2.0}))
    proc = run("simulate", "--config", str(cfg), "--gamma", "0.5")
    report = json.loads(proc.stdout)
    assert report["params"]["gamma"] == 0.5  # flag wins
    assert report["params"]["kappa"] == 2.0  # config fills the rest


def test_simulate_rejects_csv():
    proc = run("simulate", "--format", "csv")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["simulate", "--bogus", "1"],
    ["simulate", "--gamma", "abc"],
    ["simulate", "--gamma"],
    ["simulate", "--engine", "foo"],
    ["simulate", "--format", "xml"],
    ["sweep", "--config", "fig2", "--engine", "foo"],
    ["sweep", "--config", "fig2", "--threads", "2.5"],
    ["dressed-check", "--seed", "x"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_a_malformed_command_line_exits_2_with_one_error_line(capsys, argv):
    from zenopdc import cli

    proc = run(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert cli.main(argv) == 2  # in process too: a return value, not SystemExit
    assert capsys.readouterr().err == proc.stderr


@pytest.mark.parametrize("command, base, key, value", [
    ("simulate", {}, "engine", "foo"),
    ("sweep", "fig2", "engine", "foo"),
    ("simulate", {}, "format", "csv"),
    ("simulate", {}, "format", "xml"),
], ids=["simulate-engine", "sweep-engine", "simulate-format-csv", "simulate-format-xml"])
def test_a_flag_and_its_config_key_fail_with_the_same_error(tmp_path, command, base, key, value):
    from importlib import resources

    if isinstance(base, str):
        base = json.loads(resources.files("zenopdc").joinpath("configs", f"{base}.json").read_text())
    flag_cfg, key_cfg = tmp_path / "flag.json", tmp_path / "key.json"
    flag_cfg.write_text(json.dumps(base))
    key_cfg.write_text(json.dumps({**base, key: value}))
    by_flag = run(command, "--config", str(flag_cfg), f"--{key}", value)
    by_key = run(command, "--config", str(key_cfg))
    assert by_flag.returncode == by_key.returncode == 2
    assert by_flag.stderr.startswith("error: ") and len(by_flag.stderr.splitlines()) == 1
    assert by_flag.stderr == by_key.stderr


def test_simulate_help_exits_0_and_names_the_engines():
    proc = run("simulate", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "exact, ode, closed-form" in proc.stdout


def test_classify_report_and_hint():
    proc = run("classify", "--gamma", "0.5", "--kappa", "4", "--delta", "5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["regime"] == "oscillatory"
    assert report["coefficients"] == {"c2": 10.0, "c1": 9.25, "c0": 1.25}
    assert len(report["roots"]) == 3
    assert "regime: oscillatory" in proc.stderr
    k1, k2 = report["boundary_kappas"]  # the exact pair, not the weak-gain one
    assert k1 == pytest.approx(5.6957821840512715, abs=1e-9)
    assert k2 == pytest.approx(4.278866281779467, abs=1e-9)

    proc = run("classify", "--gamma", "0.5", "--kappa", "0", "--delta", "5")
    assert proc.returncode == 3
    assert "kappa != 0" in proc.stderr


def test_classify_detuned_examples():
    inside = run("classify", "--gamma", "0.5", "--kappa", "5", "--delta", "5")
    assert json.loads(inside.stdout)["regime"] == "hyperbolic"
    below = run("classify", "--gamma", "0.5", "--kappa", "2", "--delta", "5")
    assert json.loads(below.stdout)["regime"] == "oscillatory"


def test_sweep_json_report(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "fixed": {"gamma": 0.5, "length": 1.0},
                "axis1": {"name": "kappa", "start": 0.0, "stop": 2.0, "count": 3},
                "axis2": {"name": "delta", "start": 0.0, "stop": 1.0, "count": 2},
            }
        )
    )
    proc = run("sweep", "--config", str(cfg))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["engine"] == "numeric"
    assert doc["failures"] == 0
    assert len(doc["values"]) == 3 and len(doc["values"][0]) == 2
    assert doc["fixed"]["gamma"] == 0.5 and doc["fixed"]["kappa"] == 0.0


def test_sweep_csv_format(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "fixed": {"gamma": 0.5},
                "axis1": {"name": "kappa", "start": 0.0, "stop": 2.0, "count": 3},
                "axis2": {"name": "length", "start": 0.0, "stop": 1.0, "count": 2},
            }
        )
    )
    proc = run("sweep", "--config", str(cfg), "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "axis1,axis2,n_s,engine"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == 0.0 and first[3] == "numeric"


def test_sweep_output_reingests_as_config(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "fixed": {"gamma": 0.5, "length": 1.2},
                "axis1": {"name": "kappa", "start": 0.0, "stop": 3.0, "count": 4},
                "axis2": {"name": "delta", "start": -1.0, "stop": 1.0, "count": 3},
            }
        )
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("sweep", "--config", str(cfg), "--out", str(a)).returncode == 0
    assert run("sweep", "--config", str(a), "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_failures_exit_4(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "fixed": {"length": 2.5},
                "axis1": {"name": "gamma", "start": 200.0, "stop": 500.0, "count": 2},
                "axis2": {"name": "length", "start": 2.5, "stop": 3.0, "count": 2},
            }
        )
    )
    out = tmp_path / "grid.json"
    proc = run("sweep", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 4
    doc = json.loads(out.read_text())  # artifact still written
    assert doc["failures"] == 4
    assert all(math.isnan(v) for row in doc["values"] for v in row)
    assert all(tag == "failed" for row in doc["provenance"] for tag in row)


def test_bundled_configs_resolve():
    for name in ("fig2", "fig3.json"):
        proc = run("sweep", "--config", name, "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.startswith("axis1,axis2,n_s,engine")


def test_dressed_check_seeded():
    for seed in ("0", "1234"):
        proc = run("dressed-check", "--seed", seed)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["residual"] <= report["tolerance"] == 1e-8
        assert report["qpm"]["ratio"] == pytest.approx(
            math.pi / (2.0 * math.sqrt(2.0)), abs=1e-12
        )


def test_dressed_check_flags():
    proc = run("dressed-check", "--gamma", "0.5", "--kappa", "5", "--delta", "5", "--length", "1.5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["direct"]["n_s"] == pytest.approx(report["dressed"]["n_s"], abs=1e-9)


def test_ridge_json_and_fit():
    proc = run("ridge", "--gamma", "0.5", "--length", "1.5", "--delta", "3:5:3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert [p["delta"] for p in report["points"]] == [3.0, 4.0, 5.0]
    assert report["fit"]["slope"] == pytest.approx(1.0, abs=0.1)
    for p in report["points"]:
        assert abs(p["kappa_opt"] - p["delta"]) <= math.sqrt(2.0) * 0.5


def test_ridge_csv_single_delta():
    proc = run("ridge", "--delta", "5", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "delta,kappa_opt,n_s_max"
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 5.0


def test_ridge_at_huge_mismatch_returns():
    # the zoom's bracket shrinks below the spacing of floats near kappa = 1e10
    proc = run("ridge", "--delta", "1e10", timeout=60)
    assert proc.returncode == 0
    (point,) = json.loads(proc.stdout)["points"]
    assert abs(point["kappa_opt"] - 1e10) <= math.sqrt(2.0) * 0.5


def test_ridge_warning_is_one_stderr_line_after_the_artifact():
    proc = run("ridge", "--delta", "5", "--length", "1e-7")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["points"]) == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("warning: flat signal landscape")


def test_ridge_failure_after_a_warning_prints_only_the_error():
    # delta = 1e-300 warns of a flat landscape, then delta = 1e300 overflows its scan
    proc = run("ridge", "--delta", "1e-300:1e300:2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


def test_ridge_repeat_runs_are_byte_identical():
    for fmt in ("json", "csv"):
        first, second = (run("ridge", "--delta", "3:10:8", "--format", fmt) for _ in range(2))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_ridge_config_and_flags_write_the_same_artifact(tmp_path):
    # integer config values are echoed as the floats the ridge ran with
    cfg = tmp_path / "ridge.json"
    cfg.write_text(json.dumps({"gamma": 1, "length": 2, "deltas": [5]}))
    from_config = run("ridge", "--config", str(cfg))
    from_flags = run("ridge", "--gamma", "1", "--length", "2", "--delta", "5")
    assert from_config.returncode == from_flags.returncode == 0
    assert from_config.stdout == from_flags.stdout


def test_ridge_bad_range_exits_2():
    # the last three overflow: an infinite end, an infinite span, a scan to 2*delta = inf
    for spec in ("5:3:4", "1:2", "3:abc:4", "1:inf:3", "-1e308:1e308:3", "1e308:1.7e308:3"):
        proc = run("ridge", f"--delta={spec}")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert run("ridge").returncode == 2


@pytest.mark.parametrize(
    "command, config",
    [
        ("ridge", {"gamma": 0.5, "length": 1.5, "deltas": 5}),
        ("dressed-check", {"seed": "abc"}),
        ("sweep", {"fixed": [1], "axis1": {"name": "kappa", "start": 0, "stop": 1, "count": 2},
                   "axis2": {"name": "delta", "start": 0, "stop": 1, "count": 2}}),
        ("dressed-check", {"seed": math.inf}),
        ("dressed-check", {"seed": 1.5}),
        ("dressed-check", {"seed": True}),
        ("simulate", {"gamma": True}),
        ("ridge", {"gamma": 0.5, "length": 1.5, "deltas": [1, 2, True]}),
        # raw JSON text, nested past the parser's recursion limit
        pytest.param("simulate", '{"gamma": ' + "[" * 200000 + "]" * 200000 + "}",
                     id="simulate-deep-nesting"),
        # overflowing numbers, which numpy would otherwise warn about on stderr
        pytest.param("sweep", {"axis1": {"name": "kappa", "start": 0, "stop": 1, "count": 2},
                               "axis2": {"name": "delta", "start": -1e308, "stop": 1e308,
                                         "count": 3}},
                     id="sweep-infinite-axis-span"),
        pytest.param("ridge", {"deltas": [1.7e308]}, id="ridge-infinite-scan"),
        # CouplerParams has no tolerance fields, so a fixed block has no tol_* keys
        pytest.param("sweep", {"fixed": {"tol_sym": 1e-12},
                               "axis1": {"name": "kappa", "start": 0, "stop": 1, "count": 2},
                               "axis2": {"name": "delta", "start": 0, "stop": 1, "count": 2}},
                     id="sweep-tolerance-in-fixed"),
        # an integer beyond float64, as json.dumps writes it, and quoted numbers
        pytest.param("simulate", {"gamma": 10**400}, id="simulate-integer-beyond-float64"),
        pytest.param("sweep", {"axis1": {"name": "kappa", "start": 0, "stop": 10**400, "count": 2},
                               "axis2": {"name": "delta", "start": 0, "stop": 1, "count": 2}},
                     id="sweep-integer-beyond-float64"),
        pytest.param("ridge", {"deltas": [10**400]}, id="ridge-integer-beyond-float64"),
        pytest.param("simulate", {"gamma": "0.5"}, id="simulate-quoted-number"),
        pytest.param("simulate", {"length": "1_0"}, id="simulate-quoted-underscore-number"),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    proc = run(command, "--config", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    direct = run("simulate", "--gamma", "0.5")
    filed = run("simulate", "--gamma", "0.5", "--out", str(out))
    assert filed.returncode == 0 and filed.stdout == ""
    assert out.read_text() == direct.stdout


def test_out_into_missing_directory_exits_2_before_work(tmp_path, monkeypatch, capsys):
    from zenopdc import cli, sweeps

    def no_work(*args, **kwargs):
        raise AssertionError("sweep ran although its --out cannot be written")

    monkeypatch.setattr(sweeps, "sweep_2d", no_work)
    missing = str(tmp_path / "missing" / "x.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": 5}))
    for argv in (
        ["simulate", "--config", str(config)],
        ["sweep", "--config", "fig2", "--out", missing],
        ["simulate", "--gamma", "0.5", "--out", missing],
        ["classify", "--kappa", "1", "--out", missing],
        ["dressed-check", "--seed", "1", "--out", missing],
        ["ridge", "--delta", "5", "--out", missing],
        # the directory exists but the path is unwritable: the write fails
        ["simulate", "--gamma", "0.5", "--out", str(tmp_path)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


_BASE = {"zenopdc", "zenopdc.cli", "zenopdc.params"}


@pytest.mark.parametrize("argv, modules", [
    (["simulate"], {"zenopdc.dynamics"}),
    (["simulate", "--engine", "ode"], {"zenopdc.dynamics"}),
    (["simulate", "--engine", "closed-form"], {"zenopdc.dynamics", "zenopdc.closed_forms"}),
    (["classify", "--kappa", "1"], {"zenopdc.regimes"}),
    (["dressed-check", "--seed", "1"], {"zenopdc.dynamics", "zenopdc.dressed"}),
    (["sweep", "--config", "fig2"], {"zenopdc.dynamics", "zenopdc.sweeps"}),
    (["sweep", "--config", "fig2", "--engine", "closed_form_when_applicable"],
     {"zenopdc.dynamics", "zenopdc.closed_forms", "zenopdc.sweeps"}),
    (["ridge", "--delta", "5"], {"zenopdc.dynamics", "zenopdc.sweeps"}),
])
def test_a_command_imports_only_the_modules_it_runs(argv, modules):
    proc = subprocess.run([sys.executable, "-X", "importtime", *CMD[1:], *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {m for m in imported if m.startswith("zenopdc")} == _BASE | modules


def test_main_builds_the_parser_once_and_finds_the_command_per_call(monkeypatch, capsys):
    from zenopdc import cli

    assert cli.main(["classify", "--kappa", "1"]) == 0
    monkeypatch.setattr(cli, "cmd_sweep", lambda args, config, fmt: (["patched\n"], 0, None))
    assert cli.main(["sweep", "--config", "fig2"]) == 0
    assert capsys.readouterr().out.endswith("patched\n")
    assert cli._parser.cache_info().misses == 1


def test_error_is_the_first_stderr_line_when_the_write_fails(tmp_path, capsys):
    from zenopdc import cli

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "fixed": {"length": 2.5},
        "axis1": {"name": "gamma", "start": 200.0, "stop": 500.0, "count": 2},
        "axis2": {"name": "length", "start": 2.5, "stop": 3.0, "count": 2},
    }))
    # classify always has a regime note, this sweep a failed-cell note
    for argv in (["classify", "--kappa", "4", "--delta", "5"], ["sweep", "--config", str(failing)]):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error: cannot write")


def test_classify_at_zero_mismatch_reports_no_window(capsys):
    from zenopdc import cli

    assert cli.main(["classify", "--gamma", "0.5", "--kappa", "1", "--delta", "0"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["boundary_kappas"] is None
    assert captured.err.startswith("regime: ") and "window" not in captured.err


def test_unreadable_config_exits_2(tmp_path, capsys):
    from zenopdc import cli

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"gamma": "\xe9"}')
    for config in (tmp_path, latin1):
        assert cli.main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and "Traceback" not in err


# Config keys each command declares (besides "out" and "format").
_COMMAND_KEYS = {
    "simulate": ["gamma", "kappa", "delta", "length", "engine"],
    "classify": ["gamma", "kappa", "delta", "length"],
    "sweep": ["fixed", "axis1", "axis2", "engine", "threads", "values", "provenance", "failures"],
    "dressed-check": ["gamma", "kappa", "delta", "length", "seed"],
    "ridge": ["gamma", "length", "deltas"],
}
_NESTED_KEYS = ["gamma", "kappa", "delta", "length", "tol_sym", "tol_phys",
                "name", "start", "stop", "count"]
_WORDS = ["gamma", "kappa", "delta", "length", "exact", "ode", "closed-form",
          "numeric", "closed_form_when_applicable", "json", "csv"]
# Sizes stay small (counts <= 6, lists <= 3) so that a drawn sweep is cheap.
# No "/" in strings: a drawn "out" is written relative to the working directory.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.just(10**400),
    st.floats(-6.0, 6.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(st.characters(blacklist_characters="/"), max_size=4),
    st.sampled_from(_WORDS),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NESTED_KEYS), inner, max_size=4),
    max_leaves=8,
)
_CASES = st.sampled_from(sorted(_COMMAND_KEYS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.dictionaries(st.sampled_from([*_COMMAND_KEYS[command], "out", "format"]), _VALUES,
                        max_size=6),
    )
)


@settings(max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_CASES)
@example(case=("dressed-check", {"seed": float("inf")}))
def test_cli_config_fuzz_exits_with_documented_codes(tmp_path, monkeypatch, case):
    from zenopdc import cli

    command, config = case
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) in {0, 2, 3, 4, 5}


def test_ode_engine_rejects_a_phase_beyond_its_bound():
    # The oracle's cost grows with the phase max(Γ, κ, |Δ|)·L: at 1e12 it would run for weeks.
    proc = run("simulate", "--engine", "ode", "--delta", "1e12", "--length", "1", timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_ode_engine_at_huge_rates_over_tiny_lengths_prints_no_warnings():
    # Γ·L = 400: the blocks stay finite but n_s ≈ e^800/4 overflows float64.
    proc = run("simulate", "--engine", "ode", "--gamma=1e200", "--length=4e-198")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    # Γ·L = κ·L = 1e-100: the oracle integrates the dimensionless rates, so nothing overflows.
    proc = run("simulate", "--engine", "ode", "--gamma=1e200", "--kappa=1e200", "--length=1e-300")
    assert proc.returncode == 0 and proc.stderr == ""


# Log-uniform magnitudes over the whole float range, and exact zeros.
_MAGNITUDE = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
_SIGNED = st.tuples(_MAGNITUDE, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])
_POINTS = st.tuples(_MAGNITUDE, _MAGNITUDE, _SIGNED, _MAGNITUDE)  # (Γ, κ, Δ, L)


@settings(max_examples=25, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=_POINTS)
@example(point=(200.0, 0.0, 0.0, 2.5))  # occupations overflow while the blocks stay finite
@example(point=(0.5, 0.0, 1e12, 1.0))  # beyond the ODE oracle's phase bound
@example(point=(1e300, 1e-300, -1e300, 1e300))
@example(point=(0.0, 0.0, 0.0, 0.0))
def test_extreme_parameters_exit_with_documented_codes(tmp_path, capsys, point):
    from zenopdc import cli

    gamma, kappa, delta, length = point
    flags = [f"--gamma={gamma!r}", f"--kappa={kappa!r}", f"--delta={delta!r}", f"--length={length!r}"]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "fixed": {"gamma": gamma, "length": length},
        "axis1": {"name": "kappa", "start": 0.0, "stop": kappa or 1.0, "count": 3},
        "axis2": {"name": "delta", "start": -abs(delta) or -1.0, "stop": abs(delta) or 1.0,
                  "count": 3},
    }))
    runs = [["simulate", "--engine", engine, *flags] for engine in ("exact", "ode", "closed-form")]
    runs += [["classify", *flags], ["dressed-check", *flags],
             ["ridge", f"--gamma={gamma!r}", f"--length={length!r}", f"--delta={delta!r}"]]
    runs += [["sweep", "--config", str(sweep), "--engine", engine] for engine in cli.ENGINES]
    for argv in runs:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in {0, 2, 3, 4, 5}, argv
        if code in {2, 3}:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


# Closed form in the kappa = 0 row, numeric elsewhere, and cells whose gain*length overflows.
_MIXED_SWEEP = {
    "fixed": {"delta": 0.5, "length": 2.5},
    "engine": "closed_form_when_applicable",
    "axis1": {"name": "kappa", "start": 0.0, "stop": 3.0, "count": 4},
    "axis2": {"name": "gamma", "start": 0.0, "stop": 600.0, "count": 3},
}


def test_artifacts_are_canonical_json_and_csv_carries_the_json_values(tmp_path, capsys):
    from zenopdc import SweepAxis, cli

    def artifact(*argv):
        assert cli.main(list(argv)) in {0, 4}
        return capsys.readouterr().out

    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_MIXED_SWEEP))
    texts = {}
    for argv in (("simulate", "--kappa", "1", "--delta", "0.3"),
                 ("simulate", "--engine", "closed-form", "--kappa", "1"),
                 ("classify", "--kappa", "5", "--delta", "5"),
                 ("dressed-check", "--seed", "7"),
                 ("sweep", "--config", str(config)),
                 ("ridge", "--delta", "3:10:8")):
        for fmt in ("json", "csv") if argv[0] in ("sweep", "ridge") else ("json",):
            texts[argv[0], fmt] = text = artifact(*argv, "--format", fmt)
            assert "np." not in text
    for (command, fmt), text in texts.items():
        if fmt == "json":
            assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text

    # repr round-trips a float exactly, so equal strings are equal bits (NaN included)
    sweep = json.loads(texts["sweep", "json"])
    assert {tag for row in sweep["provenance"] for tag in row} == {
        "numeric", "closed_form", "failed"}
    axis1, axis2 = (SweepAxis(**sweep[key]).grid().tolist() for key in ("axis1", "axis2"))
    lines = texts["sweep", "csv"].splitlines()
    assert lines[0] == "axis1,axis2,n_s,engine"
    assert [line.split(",") for line in lines[1:]] == [
        [repr(x), repr(y), repr(n_s), tag]
        for x, n_s_row, tag_row in zip(axis1, sweep["values"], sweep["provenance"])
        for y, n_s, tag in zip(axis2, n_s_row, tag_row)
    ]
    ridge = json.loads(texts["ridge", "json"])
    lines = texts["ridge", "csv"].splitlines()
    assert lines[0] == "delta,kappa_opt,n_s_max"
    assert [line.split(",") for line in lines[1:]] == [
        [repr(p["delta"]), repr(p["kappa_opt"]), repr(p["n_s_max"])] for p in ridge["points"]
    ]


@pytest.mark.parametrize("slice_cells", [4096, 2])
def test_sweep_artifacts_carry_each_cells_decoded_tag(tmp_path, capsys, monkeypatch, slice_cells):
    from zenopdc import cli, sweeps
    from zenopdc.sweeps import TAGS

    monkeypatch.setattr(cli, "_SLICE", slice_cells)  # 2: each row of 3 cells spans two slices
    grids = []

    def recording(spec, threads=1, sweep_2d=sweeps.sweep_2d):
        grids.append(sweep_2d(spec, threads))
        return grids[-1]

    monkeypatch.setattr(sweeps, "sweep_2d", recording)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_MIXED_SWEEP))
    texts = {}
    for fmt in ("json", "csv"):
        assert cli.main(["sweep", "--config", str(config), "--format", fmt]) == 4
        texts[fmt] = capsys.readouterr().out
    tags = [[TAGS[code] for code in row] for row in grids[0].codes.tolist()]
    assert {tag for row in tags for tag in row} == set(TAGS)
    assert json.loads(texts["json"])["provenance"] == tags
    csv_tags = [line.rpartition(",")[2] for line in texts["csv"].splitlines()[1:]]
    assert csv_tags == [tag for row in tags for tag in row]


# Rows of 9000 cells: each spans three of the writer's encoded slices.
_WIDE_SWEEP = {
    "fixed": {"gamma": 0.5, "length": 1.5},
    "axis1": {"name": "kappa", "start": 0.0, "stop": 3.0, "count": 2},
    "axis2": {"name": "delta", "start": -5.0, "stop": 5.0, "count": 9000},
}


def _whole_text_sweep_artifacts(config):
    """A sweep's JSON and CSV built whole: the tolist() document, and one str-joined row per cell."""
    from dataclasses import asdict

    import numpy as np

    from zenopdc import CouplerParams, SweepAxis, SweepSpec, sweep_2d

    fixed = {"gamma": 0.5, "kappa": 0.0, "delta": 0.0, "length": 1.0, **config["fixed"]}
    spec = SweepSpec(CouplerParams(**fixed), SweepAxis(**config["axis1"]),
                     SweepAxis(**config["axis2"]), config.get("engine", "numeric"))
    grid = sweep_2d(spec)
    doc = {"engine": spec.engine, "fixed": asdict(spec.fixed), "axis1": asdict(spec.axis1),
           "axis2": asdict(spec.axis2), "values": grid.values.tolist(),
           "provenance": grid.provenance.tolist(), "failures": grid.failures}
    axes = np.meshgrid(spec.axis1.grid(), spec.axis2.grid(), indexing="ij")
    columns = (a.ravel().tolist() for a in (*axes, grid.values, grid.provenance))
    rows = [("axis1", "axis2", "n_s", "engine"), *zip(*columns)]
    return {"json": json.dumps(doc, sort_keys=True, indent=2) + "\n",
            "csv": "\n".join(",".join(map(str, row)) for row in rows) + "\n"}


@pytest.mark.parametrize("name", ["fig2", "fig3", "mixed", "wide"])
def test_streamed_sweep_artifacts_are_the_whole_text_bytes(tmp_path, capsys, name):
    from importlib import resources

    from zenopdc import cli

    config = {"mixed": _MIXED_SWEEP, "wide": _WIDE_SWEEP}.get(name)
    if config is None:
        config = json.loads(resources.files("zenopdc").joinpath("configs", f"{name}.json").read_text())
        source = name
    else:
        source = str(tmp_path / "sweep.json")
        (tmp_path / "sweep.json").write_text(json.dumps(config))
    for fmt, text in _whole_text_sweep_artifacts(config).items():
        out = tmp_path / f"artifact.{fmt}"
        code = cli.main(["sweep", "--config", source, "--format", fmt])
        assert code == (4 if name == "mixed" else 0)
        assert capsys.readouterr().out == text
        assert cli.main(["sweep", "--config", source, "--format", fmt, "--out", str(out)]) == code
        assert out.read_bytes() == text.encode()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_sweep_artifact_memory_stays_at_the_sweeps(tmp_path):
    # 2 x 200 000 cells: sweep_2d's grids grow the peak RSS by ≈5.3 MiB (float64 values and
    # one-byte provenance codes; 44-byte <U11 tags made it ≈21.7).  Built whole, the artifact
    # grew it by 156 MiB (JSON) and 184 MiB (CSV); streamed, one slice of axis-2 reprs at a
    # time and the tags encoded from the codes, it grows it by ≈5.3 MiB (JSON) and ≈6.7 MiB (CSV).
    # VmHWM is the peak of the child's own image: ru_maxrss carries over the peak of the
    # pytest process it was forked from, which can hide the growth.  The artifacts are not
    # named big.json, which would overwrite the config that the CSV run reads.
    for name, count in (("small.json", 2), ("big.json", 200_000)):
        (tmp_path / name).write_text(json.dumps({
            "fixed": {"gamma": 0.5, "delta": 1.0, "length": 1.5},
            "axis1": {"name": "gamma", "start": 0.1, "stop": 0.5, "count": 2},
            "axis2": {"name": "kappa", "start": 0.0, "stop": 10.0, "count": count},
        }))
    code = f"""
from zenopdc import cli
def peak():
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return int(status["VmHWM"].split()[0]) / 1024
tmp = {str(tmp_path)!r}
for fmt in ("json", "csv"):
    assert cli.main(["sweep", "--config", tmp + "/small.json", "--format", fmt,
                     "--out", tmp + "/small_out." + fmt]) == 0
before = peak()
for fmt in ("json", "csv"):
    assert cli.main(["sweep", "--config", tmp + "/big.json", "--format", fmt,
                     "--out", tmp + "/big_out." + fmt]) == 0
    print(peak() - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth_json, growth_csv = map(float, proc.stdout.split())
    assert growth_json < 8.0 and growth_csv < 10.0  # MiB
    assert (tmp_path / "big_out.csv").read_text().count("\n") == 1 + 2 * 200_000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_exits_2_with_only_the_error_on_stderr(tmp_path, capsys):
    from zenopdc import cli

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "fixed": {"length": 2.5},
        "axis1": {"name": "gamma", "start": 200.0, "stop": 500.0, "count": 2},
        "axis2": {"name": "length", "start": 2.5, "stop": 3.0, "count": 2},
    }))
    # classify always has a regime note, the failing sweep a failed-cell note, and fig3's
    # artifact fails while it is being written rather than when the file is closed
    for argv in (["simulate"], ["classify", "--kappa", "4", "--delta", "5"],
                 ["dressed-check", "--seed", "1"], ["sweep", "--config", "fig3"],
                 ["sweep", "--config", str(failing)],
                 ["sweep", "--config", str(failing), "--format", "csv"],
                 ["ridge", "--delta", "5"], ["ridge", "--delta", "5", "--format", "csv"]):
        assert cli.main([*argv, "--out", "/dev/full"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full") and len(err.splitlines()) == 1, err
    # a temp file renamed onto the target would have replaced the device node
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stdout_exits_2_without_a_traceback():
    # A buffered stdout keeps a small artifact until the flush, and the interpreter
    # flushes it once more at exit: that second failure must not reach stderr.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for args in (["sweep", "--config", "fig2", "--format", "json"],
                 ["sweep", "--config", "fig2", "--format", "csv"],
                 ["sweep", "--config", "fig3"], ["simulate"],
                 ["classify", "--kappa", "4", "--delta", "5"], ["ridge", "--delta", "5"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*CMD, *args], stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120, env=env)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: cannot write stdout"), args
        assert len(proc.stderr.splitlines()) == 1, args
