import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from adaptive_sgp import cli, harness
from adaptive_sgp.cli import cli_main, read_data_csv
from adaptive_sgp.harness import ExperimentConfig


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    monkeypatch.setenv("ADAPTIVE_SGP_THREADS", "1")


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    assert cli_main(["synth", "--seed", "3", "--out", str(path)]) == 0
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_writes_schema_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["synth", "--seed", "5", "--out", str(a)]) == 0
    assert cli_main(["synth", "--seed", "5", "--out", str(b)]) == 0
    rows = _read_rows(a)
    assert rows[0] == ["t", "x0", "y"]
    assert len(rows) == 501
    assert rows == _read_rows(b)


def test_synth_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "toy.csv"
    cli_main(["synth", "--seed", "11", "--out", str(path)])
    times, targets = harness.synth_toy(11)
    X, y = read_data_csv(str(path))
    assert np.array_equal(X[:, 0], times)
    assert np.array_equal(y, targets)


def test_run_summary_json(toy_csv, tmp_path):
    summary = tmp_path / "summary.json"
    rc = cli_main(["run", "--model", "fast-agp", "--data", str(toy_csv),
                   "--summary", str(summary), "--window-t", "50",
                   "--capacity-m", "6", "--seed", "0"])
    assert rc == 0
    data = json.loads(summary.read_text())
    for key in ("mse", "ci95_coverage", "total_time_us", "n_steps", "n_seeds"):
        assert key in data
    assert data["n_steps"] == 450 and data["n_seeds"] == 1
    assert np.isfinite(data["mse"])


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_summary_with_a_skipped_sample_is_strict_json(toy_csv, tmp_path):
    # The stream skips a NaN target and the summary does not score it, so
    # the summary holds finite numbers only and parses as strict JSON.
    X, y = read_data_csv(str(toy_csv))
    y[200] = np.nan
    data_csv, summary = tmp_path / "nan.csv", tmp_path / "summary.json"
    cli.write_data_csv(str(data_csv), X, y)
    assert cli_main(["run", "--model", "fast-agp", "--data", str(data_csv),
                     "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text(), parse_constant=_not_json)
    assert data["n_steps"] == 400 and np.isfinite(data["mse"])


def _nan_stream_csv(tmp_path, where):
    # synth_toy(0) with a NaN target at each index in ``where``
    t, y = harness.synth_toy(0)
    y[list(where)] = np.nan
    path = tmp_path / "nan.csv"
    cli.write_data_csv(str(path), t[:, None], y)
    return path


def test_run_with_a_nan_in_the_initial_window_names_its_row(tmp_path,
                                                            capsys):
    # A model kind fits its first window, which must be finite; the error
    # names the sample where numpy's Cholesky message named none.
    assert cli_main(["run", "--model", "fast-agp", "--data",
                     str(_nan_stream_csv(tmp_path, [10]))]) == 1
    assert capsys.readouterr().err == (
        "error: fit_batch: row 10 has a non-finite target; only a streamed "
        "sample can be skipped\n")


def test_persistence_summary_after_a_nan_is_finite(tmp_path):
    # The baseline carries the last finite value past the NaN, so the
    # sample after it, whose target is finite, is scored on a finite guess.
    summary = tmp_path / "summary.json"
    assert cli_main(["run", "--model", "persistence", "--data",
                     str(_nan_stream_csv(tmp_path, [200])),
                     "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text(), parse_constant=_not_json)
    assert np.isfinite(data["mse"])


def test_summary_error_names_the_metric_that_is_not_finite(tmp_path, capsys):
    # NaN over the whole first window leaves the persistence baseline
    # nothing to carry, so the first scored guess, the mse and the mape
    # are NaN.
    summary = tmp_path / "summary.json"
    assert cli_main(["run", "--model", "persistence", "--data",
                     str(_nan_stream_csv(tmp_path, range(100))),
                     "--summary", str(summary)]) == 1
    err = capsys.readouterr().err
    assert err == "error: summary metric not finite: mape, mse\n"
    assert not summary.exists()


def test_persistence_summary_omits_coverage(toy_csv, tmp_path):
    summary = tmp_path / "summary.json"
    rc = cli_main(["run", "--model", "persistence", "--data", str(toy_csv),
                   "--summary", str(summary)])
    assert rc == 0
    data = json.loads(summary.read_text())
    assert "ci95_coverage" not in data
    assert data["n_steps"] == 400


def test_persistence_honours_window_and_seeds(toy_csv, tmp_path):
    # The baseline streams through run_experiment like every kind, so it
    # scores the samples after the first T, once per seed.
    summary = tmp_path / "summary.json"
    assert cli_main(["run", "--model", "persistence", "--data", str(toy_csv),
                     "--window-t", "50", "--seeds", "2",
                     "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["n_steps"] == 900 and data["n_seeds"] == 2


def test_records_csv_bit_exact_roundtrip(toy_csv, tmp_path):
    records_path = tmp_path / "records.csv"
    rc = cli_main(["run", "--model", "agp", "--data", str(toy_csv),
                   "--records", str(records_path), "--window-t", "50",
                   "--capacity-m", "5", "--seed", "4"])
    assert rc == 0

    times, targets = harness.synth_toy(3)
    cfg = ExperimentConfig(model_kind="agp", window_t=50, capacity_m=5, seed=4)
    direct, _ = harness.run_experiment(cfg, times, targets)

    rows = _read_rows(records_path)
    assert rows[0] == ["seed", "step", "x0", "y_true", "pred_mean", "pred_var",
                       "noise_var", "k_inducing", "elapsed_us"]
    assert len(rows) == 1 + len(direct)
    # 17 significant digits round-trip float64 exactly.
    for row, rec in zip(rows[1:], direct):
        assert int(row[0]) == 4 and int(row[1]) == rec.step
        assert float(row[2]) == rec.x[0]
        assert float(row[3]) == rec.y_true
        assert float(row[4]) == rec.pred_mean
        assert float(row[5]) == rec.pred_var
        assert float(row[6]) == rec.noise_var
        assert int(row[7]) == rec.k_inducing


def test_embed_subcommand(tmp_path):
    src = tmp_path / "series.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
            w.writerow([i, v])
    out = tmp_path / "embedded.csv"
    rc = cli_main(["embed", "--lags", "2", "--horizon", "1",
                   "--in", str(src), "--out", str(out)])
    assert rc == 0
    X, y = read_data_csv(str(out))
    assert np.array_equal(X, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    assert np.array_equal(y, [3.0, 4.0, 5.0])


def test_config_file_with_flag_override(toy_csv, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "model_kind = fast-agp\nwindow_t = 100\ncapacity_m = 6\n"
        "lam = 0.95\nseed = 1\n")
    summary = tmp_path / "summary.json"
    rc = cli_main(["run", "--model", "fast-agp", "--data", str(toy_csv),
                   "--config", str(cfgfile), "--summary", str(summary),
                   "--window-t", "60"])
    assert rc == 0
    data = json.loads(summary.read_text())
    # window_t 60 from the flag overrides 100 from the file: 500 - 60 steps.
    assert data["n_steps"] == 440


def test_bad_invocations_fail(toy_csv, tmp_path, capsys):
    # Unknown model name is rejected by the parser.
    assert cli_main(["run", "--model", "nope", "--data", str(toy_csv)]) != 0
    # Missing data file.
    assert cli_main(["run", "--model", "agp",
                     "--data", str(tmp_path / "missing.csv")]) != 0
    # Unknown config key.
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n")
    assert cli_main(["run", "--model", "agp", "--data", str(toy_csv),
                     "--config", str(bad)]) != 0
    # Invalid forgetting factor.
    assert cli_main(["run", "--model", "agp", "--data", str(toy_csv),
                     "--lambda", "1.5"]) != 0

    # Bad outside input returns 1 with one error line, not a traceback.
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    short = tmp_path / "short.csv"
    short.write_text("t,x0,y\n0,0.5,1.0\n1,0.7\n")
    no_x = tmp_path / "no_x.csv"
    no_x.write_text("t,y\n0,1.0\n1,2.0\n")
    sweep = ["sweep-lambda", "--values", "0.9", "--data", str(toy_csv),
             "--out", str(tmp_path / "sweep.csv")]
    negative = tmp_path / "negative.cfg"
    negative.write_text("init_iters = -5\n")
    for argv in (
        ["run", "--model", "agp", "--data", str(toy_csv),
         "--window-t", "0", "--capacity-m", "0"],
        ["run", "--model", "agp", "--data", str(toy_csv), "--seeds", "0",
         "--records", str(tmp_path / "records.csv")],
        sweep + ["--seeds", "0"],
        ["run", "--model", "agp", "--data", str(empty)],
        ["run", "--model", "agp", "--data", str(short)],
        ["run", "--model", "agp", "--data", str(no_x)],
        ["embed", "--lags", "2", "--horizon", "1", "--in", str(empty),
         "--out", str(tmp_path / "embedded.csv")],
        ["run", "--model", "agp", "--data", str(toy_csv),
         "--config", str(negative)],
        ["embed", "--lags", "0", "--horizon", "1", "--in", str(toy_csv),
         "--out", str(tmp_path / "embedded.csv")],
    ):
        capsys.readouterr()
        assert cli_main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


# A config that differs from the default in every field.
NON_DEFAULT = ExperimentConfig(model_kind="fast_agp", window_t=40, capacity_m=4,
                               lam=0.9, r_th=1e-3, init_iters=7, inner_iters=3,
                               lr=0.01, seed=5, jitter=1e-5)


def test_every_config_field_is_a_file_key(tmp_path):
    # The config keys are ExperimentConfig's fields, each read as its
    # field's type, so a new field needs no edit of the CLI.
    default = ExperimentConfig()
    fields = dataclasses.fields(ExperimentConfig)
    same = [f.name for f in fields
            if getattr(NON_DEFAULT, f.name) == getattr(default, f.name)]
    assert not same, f"give NON_DEFAULT a non-default {same}"
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{f.name} = {getattr(NON_DEFAULT, f.name)}\n"
                               for f in fields))
    config = cli.build_config(cli.read_config_file(str(cfgfile)), {})
    assert config == NON_DEFAULT
    for f in fields:
        assert isinstance(getattr(config, f.name), f.type), f.name
    # Comment lines and blank lines are skipped.
    commented = tmp_path / "commented.cfg"
    commented.write_text("# every field\n\n" + "\n  # next\n\n".join(
        cfgfile.read_text().splitlines()) + "\n\n")
    assert cli.read_config_file(str(commented)) == cli.read_config_file(
        str(cfgfile))


def test_model_flags_are_the_model_kinds():
    # Each kind is a --model choice, spelled with "-" for "_", and the
    # choice maps back to the kind.
    parser = cli.make_parser()
    assert sorted(cli.MODEL_FLAGS.values()) == sorted(harness.MODEL_KINDS)
    for kind in harness.MODEL_KINDS:
        flag = kind.replace("_", "-")
        args = parser.parse_args(["run", "--model", flag, "--data", "d.csv"])
        assert cli.MODEL_FLAGS[args.model] == kind
        assert cli.build_config({}, {"model_kind": args.model}).model_kind == kind


@pytest.mark.parametrize("key", ["r_th", "jitter", "lr"])
def test_only_lambda_takes_auto(toy_csv, tmp_path, capsys, key):
    cfg = tmp_path / "auto.cfg"
    cfg.write_text(f"{key} = auto\n")
    capsys.readouterr()
    assert cli_main(["run", "--model", "fast-agp", "--data", str(toy_csv),
                     "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_agp_with_capacity_one_is_one_error_line(toy_csv, capsys):
    capsys.readouterr()
    assert cli_main(["run", "--model", "agp", "--data", str(toy_csv),
                     "--window-t", "20", "--capacity-m", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "capacity_m" in err and len(err.splitlines()) == 1


def test_lambda_auto_runs(toy_csv, tmp_path):
    summary = tmp_path / "summary.json"
    assert cli_main(["run", "--model", "fast-agp", "--data", str(toy_csv),
                     "--window-t", "50", "--capacity-m", "6",
                     "--lambda", "auto", "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["n_steps"] == 450


def test_sweep_lambda_schema(toy_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("window_t = 40\ncapacity_m = 4\ninit_iters = 50\n")
    rc = cli_main(["sweep-lambda", "--values", "1.0,0.9", "--data", str(toy_csv),
                   "--config", str(cfgfile), "--out", str(out),
                   "--seeds", "1", "--seed", "0"])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["lambda", "transition_mse", "mse"]
    lams = [float(r[0]) for r in rows[1:]]
    assert lams == sorted(lams) == [0.9, 1.0]
    for r in rows[1:]:
        assert np.isfinite(float(r[1])) and np.isfinite(float(r[2]))


def test_sweep_lambda_takes_the_seed_from_the_config_file(toy_csv, tmp_path):
    # A flag overrides the file only when it is given: the file's seed and
    # the same seed as a flag give the same sweep.
    base = "window_t = 40\ncapacity_m = 4\ninit_iters = 20\n"
    outs = []
    for name, cfg_text, flags in (("file", base + "seed = 3\n", []),
                                  ("flag", base, ["--seed", "3"])):
        cfgfile, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfgfile.write_text(cfg_text)
        assert cli_main(["sweep-lambda", "--values", "0.95", "--data",
                         str(toy_csv), "--config", str(cfgfile), "--out",
                         str(out), "--seeds", "1"] + flags) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_lambda_rejects_a_lag_embedding(toy_csv, tmp_path, capsys,
                                             monkeypatch):
    # The transition window is a range of the time input; an embedding's
    # first column is the oldest lag value, so the sweep refuses it before
    # any run.
    def run_seeds(*args, **kwargs):
        raise AssertionError("run_seeds called on multi-column data")

    monkeypatch.setattr(cli, "run_seeds", run_seeds)
    embedded, cfgfile = tmp_path / "embedded.csv", tmp_path / "small.cfg"
    assert cli_main(["embed", "--lags", "3", "--horizon", "1", "--in",
                     str(toy_csv), "--out", str(embedded)]) == 0
    cfgfile.write_text("window_t = 40\ncapacity_m = 4\ninit_iters = 20\n")
    capsys.readouterr()
    assert cli_main(["sweep-lambda", "--values", "0.95", "--data",
                     str(embedded), "--config", str(cfgfile), "--out",
                     str(tmp_path / "sweep.csv"), "--seeds", "1",
                     "--lo", "-0.5", "--hi", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: the transition window needs 1-D inputs\n"
    assert not (tmp_path / "sweep.csv").exists()


def _worker_with_env(args):
    """``run_seeds``' worker that also returns the BLAS thread settings of
    the process it ran in."""
    return (*cli._run_one_seed(args),
            {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS})


def _comparable(records):
    return [(r.step, r.x.tolist(), r.y_true, r.pred_mean, r.pred_var,
             r.noise_var, r.k_inducing) for r in records]


def test_worker_pool_pins_blas_and_matches_serial_run(monkeypatch):
    # Two spawned workers give the serial run's records (all but the
    # timings), and each sees one BLAS thread unless the environment sets
    # its own value.
    times, targets = harness.synth_toy(3)
    X = times[:, None]
    config = ExperimentConfig(model_kind="fast_agp", window_t=50,
                              capacity_m=6, init_iters=50)
    serial = cli.run_seeds(config, X, targets, [0, 1])

    monkeypatch.setenv("ADAPTIVE_SGP_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.setattr(cli, "_run_one_seed", _worker_with_env)
    pooled = cli.run_seeds(config, X, targets, [0, 1])

    assert [r[0] for r in pooled] == [0, 1]
    for (_, recs, _), (_, got, _, env) in zip(serial, pooled):
        assert _comparable(got) == _comparable(recs)
        assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                       "MKL_NUM_THREADS": "1"}
