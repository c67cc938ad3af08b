import json

import pytest

import eilab
from eilab import cli
from eilab.config import ExperimentConfig, parse_config
from eilab.reports import write_outputs


def test_defaults_reproduce_headline_experiment():
    config = ExperimentConfig.default()
    assert config.digits == 300
    assert config.steps == 9
    assert config.x1 == "0"
    assert config.objective == "neg_kernel"
    kernel = config.kernel()
    assert isinstance(kernel, eilab.GaussianKernel)
    assert kernel.a == "0.25" and kernel.gamma == "sqrt_pi"
    grid = config.grid()
    assert grid.epsilon == "0.02" and grid.l_max == 10**4
    ctx = config.precision()
    # the configured kernel is exactly exp(-x^2)
    assert eilab.covariance(kernel, 0, ctx) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(eilab.ConfigError, match="line 2"):
        parse_config("digits = 300\nnot a line\n")
    with pytest.raises(eilab.ConfigError, match="line 1.*unknown"):
        parse_config("bogus = 1\n")
    with pytest.raises(eilab.ConfigError, match="duplicate"):
        parse_config("digits = 300\ndigits = 200\n")


def test_comments_and_blanks_ignored():
    config = parse_config("# a comment\n\ndigits = 120\n")
    assert config.digits == 120


def test_unknown_override_rejected():
    with pytest.raises(eilab.ConfigError):
        ExperimentConfig.from_mapping({"nope": "1"})


def test_kernel_variant_dispatch():
    spectral = ExperimentConfig.from_mapping(
        {"kernel.variant": "spectral", "kernel.a": "1", "kernel.b": "2.5"}
    ).kernel()
    assert isinstance(spectral, eilab.SpectralPowerKernel)
    ou = ExperimentConfig.from_mapping({"kernel.variant": "ou"}).kernel()
    assert isinstance(ou, eilab.OrnsteinUhlenbeckKernel)
    with pytest.raises(eilab.ConfigError):
        ExperimentConfig.from_mapping({"kernel.variant": "spectral", "kernel.b": ""}).kernel()
    with pytest.raises(eilab.ConfigError):
        ExperimentConfig.from_mapping({"kernel.variant": "matern"}).kernel()


FAST = {
    "digits": "60",
    "steps": "1",
    "grid.l_max": "120",
    "verify.h_values": "0,1",
}


def _fast_config(tmp_path, **extra):
    mapping = dict(FAST)
    mapping["out"] = str(tmp_path / "out")
    mapping.update(extra)
    return ExperimentConfig.from_mapping(mapping)


def test_cmd_trajectory_two_row_table(tmp_path):
    report = cli.cmd_trajectory(_fast_config(tmp_path))
    assert report.status == "ok"
    assert [row["K"] for row in report.rows] == [1, 2]
    assert report.rows[0]["ei"] == ""


def test_reports_are_byte_deterministic(tmp_path):
    config = _fast_config(tmp_path)
    r1 = cli.cmd_trajectory(config)
    p1 = write_outputs(r1, tmp_path / "a")
    r2 = cli.cmd_trajectory(config)
    p2 = write_outputs(r2, tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "table.csv").read_bytes() == (tmp_path / "b" / "table.csv").read_bytes()


def test_csv_is_lf_and_headed(tmp_path):
    config = _fast_config(tmp_path)
    write_outputs(cli.cmd_trajectory(config), tmp_path / "out")
    raw = (tmp_path / "out" / "table.csv").read_bytes()
    assert raw.startswith(b"K,x,ei\n")
    assert b"\r" not in raw


def test_aborted_run_yields_partial_report(tmp_path):
    # a grid whose only remaining candidate nearly duplicates the seed point
    # forces a factorization failure; the report carries the partial table
    config = _fast_config(
        tmp_path, steps="4", **{"grid.l_max": "0", "grid.extra": "1e-40"}
    )
    report = cli.cmd_trajectory(config)
    assert report.status == "aborted"
    assert report.abort_size == 4
    assert "NonPositivePivot" in report.abort_reason
    assert [row["K"] for row in report.rows] == [1, 2, 3, 4]


def test_jitter_recorded_in_report(tmp_path):
    report = cli.cmd_trajectory(_fast_config(tmp_path, jitter="1"))
    assert report.iterations[1]["jitter"] is True
    plain = cli.cmd_trajectory(_fast_config(tmp_path))
    assert plain.iterations[1]["jitter"] is False


def test_cmd_spectral_rate_value(tmp_path):
    config = _fast_config(
        tmp_path,
        **{
            "kernel.variant": "spectral",
            "kernel.a": "1",
            "kernel.b": "2",
            "kernel.gamma": "1",
            "spectral.k_min": "10",
            "spectral.k_max": "10",
        },
    )
    report = cli.cmd_spectral(config)
    assert abs(float(report.rows[0]["rate"]) - (-34.16484675)) < 1e-6


def test_cmd_verify_hard_suite(tmp_path):
    config = _fast_config(tmp_path)
    report = cli.cmd_verify(config, "lemma3-tails")
    assert report.notes["hard_suite"] is True
    assert report.hard_failures == 0


def test_cmd_verify_unknown_suite(tmp_path):
    with pytest.raises(eilab.EILabError):
        cli.cmd_verify(_fast_config(tmp_path), "nope")


def test_cmd_spectral_rejects_ou(tmp_path):
    config = _fast_config(tmp_path, **{"kernel.variant": "ou"})
    with pytest.raises(eilab.VariantUnsupported):
        cli.cmd_spectral(config)


def test_thm3_bounds_refuses_ou_before_the_run(tmp_path, monkeypatch):
    def run_trajectory(*args, **kwargs):
        raise AssertionError("thm3-bounds ran the trajectory before refusing the kernel")

    monkeypatch.setattr(cli, "run_trajectory", run_trajectory)
    config = _fast_config(tmp_path, **{"kernel.variant": "ou", "grid.l_max": "4"})
    with pytest.raises(eilab.VariantUnsupported):
        cli.cmd_verify(config, "thm3-bounds")


def test_cmd_spectral_rows(tmp_path):
    config = _fast_config(tmp_path, **{"spectral.k_min": "2", "spectral.k_max": "5"})
    report = cli.cmd_spectral(config)
    assert [row["K"] for row in report.rows] == [2, 3, 4, 5]
    rates = [float(row["rate_over_k"]) for row in report.rows]
    assert rates[-1] < rates[0]


def test_cmd_contrast_gap_column(tmp_path):
    config = _fast_config(tmp_path, steps="3", **{"kernel.variant": "ou", "objective": "neg_gauss"})
    report = cli.cmd_contrast(config)
    assert report.columns == ["K", "x", "max_gap"]
    assert len(report.rows) == 4


def test_main_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "digits = 60\nsteps = 1\ngrid.l_max = 60\nout = {}\n".format(tmp_path / "o"),
        encoding="utf-8",
    )
    rc = cli.main(["trajectory", "--config", str(cfg)])
    assert rc == 0
    data = json.loads((tmp_path / "o" / "report.json").read_text())
    assert data["command"] == "trajectory"
    assert data["digits"] == 60
    assert (tmp_path / "o" / "timings.json").exists()


def test_step_timings_go_to_the_sidecar_only(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "digits = 60\nsteps = 3\ngrid.l_max = 60\nout = {}\n".format(tmp_path / "o"),
        encoding="utf-8",
    )
    assert cli.main(["trajectory", "--config", str(cfg)]) == 0
    steps = json.loads((tmp_path / "o" / "timings.json").read_text())["steps"]
    assert [s["size"] for s in steps] == [1, 2, 3]
    # one column entry per remaining candidate per step: the grid has
    # 2 * 61 points, the seed 0 is not among them, and each step takes one
    assert [s["sync_covariances"] for s in steps] == [122, 121, 120]
    # the screen scores every candidate a Cholesky sync changed: all of them
    assert [s["screened"] for s in steps] == [122, 121, 120]
    assert not any(s["sync_resolved"] for s in steps)
    # the solve precision stays at the working one: nothing is solved at a
    # raised precision
    assert [s["raised_solves"] for s in steps] == [0, 0, 0]
    assert all(s[k] >= 0 for s in steps for k in ("sync_s", "select_s"))
    assert "fit_s" not in steps[0]
    report = (tmp_path / "o" / "report.json").read_text()
    assert "sync_s" not in report and "sync_covariances" not in report and "screened" not in report
    assert "raised_solves" not in report
    # The Markov sync of an Ornstein-Uhlenbeck run from the optimum of
    # -exp(-x^2), where f* never moves, changes only the candidates between
    # the new point's neighbours: after the first step the screen scores
    # fewer candidates than remain.
    cfg.write_text(
        "digits = 60\nsteps = 5\ngrid.l_max = 60\nkernel.variant = ou\nobjective = neg_gauss\nout = {}\n".format(
            tmp_path / "ou"
        ),
        encoding="utf-8",
    )
    assert cli.main(["contrast", "--config", str(cfg)]) == 0
    steps = json.loads((tmp_path / "ou" / "timings.json").read_text())["steps"]
    assert [s["sync_covariances"] for s in steps] == [0] * 5
    assert [s["raised_solves"] for s in steps] == [0] * 5
    assert steps[0]["screened"] == 122
    assert all(0 < s["screened"] < 122 - k for k, s in enumerate(steps[1:], start=1))


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("EILAB_DIGITS", "70")
    monkeypatch.setenv("EILAB_OUT", str(tmp_path / "envout"))
    rc = cli.main(["verify", "lemma3-tails", "--config", str(_write_fast(tmp_path))])
    assert rc == 0
    data = json.loads((tmp_path / "envout" / "report.json").read_text())
    assert data["digits"] == 70


def test_flags_override_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EILAB_DIGITS", "70")
    rc = cli.main(
        ["verify", "lemma3-tails", "--config", str(_write_fast(tmp_path)), "--digits", "80",
         "--out", str(tmp_path / "flagout")]
    )
    assert rc == 0
    data = json.loads((tmp_path / "flagout" / "report.json").read_text())
    assert data["digits"] == 80


def _write_fast(tmp_path):
    cfg = tmp_path / "fast.txt"
    cfg.write_text(
        "digits = 60\nverify.h_values = 0,1\nout = {}\n".format(tmp_path / "vout"),
        encoding="utf-8",
    )
    return cfg


def test_steps_zero_rejected(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("digits = 60\nsteps = 0\nout = {}\n".format(tmp_path / "o"), encoding="utf-8")
    rc = cli.main(["trajectory", "--config", str(cfg)])
    assert rc == 2


def test_hard_suite_failure_sets_exit_code(tmp_path, monkeypatch):
    mp = eilab.PrecisionContext(digits=60).mp
    bad = eilab.BoundReport(
        label="vandermonde-oracle", k=1, lhs=mp.mpf(1), rhs=mp.mpf(0),
        ratio=mp.mpf(1), satisfied=False,
    )
    monkeypatch.setattr(cli, "vandermonde_trials", lambda *a, **k: [bad])
    rc = cli.main(
        ["verify", "lemma-vandermonde", "--config", str(_write_fast(tmp_path))]
    )
    assert rc == 1


def test_config_file_missing(tmp_path):
    rc = cli.main(["trajectory", "--config", str(tmp_path / "absent.txt")])
    assert rc == 2


@pytest.mark.parametrize(
    "key, value, command",
    [
        ("x1", "0.1.2", ["trajectory"]),
        ("grid.epsilon", "abc", ["trajectory"]),
        ("grid.extra", "0.5,foo", ["trajectory"]),
        ("verify.h_values", "0,zz", ["verify", "lemma3-tails"]),
    ],
)
def test_malformed_decimal_is_a_config_error(tmp_path, capsys, key, value, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"digits = 60\ngrid.l_max = 20\n{key} = {value}\n", encoding="utf-8")
    assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config field {key!r}: not a finite decimal" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value, suite",
    [
        ("verify.trials", "0", "thm2-sandwich"),
        ("verify.trials", "-3", "thm2-sandwich"),
        ("verify.k_max", "1", "thm2-sandwich"),
        ("verify.h_values", "", "lemma3-tails"),
    ],
)
def test_verify_value_that_checks_nothing_is_a_config_error(tmp_path, capsys, key, value, suite):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"digits = 60\n{key} = {value}\n", encoding="utf-8")
    assert cli.main(["verify", suite, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config field {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("settings", ["spectral.k_max = 1", "spectral.k_min = 9\nspectral.k_max = 5"])
def test_empty_spectral_range_is_a_config_error(tmp_path, capsys, settings):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"digits = 50\n{settings}\n", encoding="utf-8")
    assert cli.main(["spectral", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config field 'spectral.k_max'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
