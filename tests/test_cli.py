import json

import numpy as np
import pytest

from rectree.cli import main
from rectree.datagen import read_dataset, read_points_csv
from rectree.reconstruction import load_codebook


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path):
    assert (
        run("sample", "--generator", "uniform_cube", "--dim", "2", "--n", "400",
            "--seed", "3", "--output", tmp_path / "train.rtds")
        == 0
    )
    return tmp_path


class TestPipeline:
    def test_fit_encode_decode_distortion(self, workdir):
        cb = workdir / "cb.json"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05",
                   "--output", cb) == 0
        q = load_codebook(cb)
        assert len(q.leaves) >= 4

        ids = workdir / "ids.csv"
        rec = workdir / "rec.csv"
        assert run("encode", "--codebook", cb, "--data", workdir / "train.rtds",
                   "--output", ids) == 0
        assert run("decode", "--codebook", cb, "--ids", ids, "--output", rec) == 0
        data = read_dataset(workdir / "train.rtds")
        vectors = read_points_csv(rec)
        np.testing.assert_array_equal(vectors, q.reconstruct(data.points))

        out = workdir / "dist.csv"
        assert run("distortion", "--codebook", cb, "--data", workdir / "train.rtds",
                   "--output", out) == 0
        header, row = out.read_text().splitlines()
        assert header == "n,distortion"
        n, value = row.split(",")
        assert int(n) == 400
        expected = float(np.mean(((data.points - vectors) ** 2).sum(axis=1)))
        assert float(value) == pytest.approx(expected, rel=1e-15)

    def test_sweep_data_mode(self, workdir):
        out = workdir / "sweep.csv"
        assert run("sweep", "--data", workdir / "train.rtds",
                   "--etas", "0.5,0.2,0.1", "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,leaf_count,train_distortion"
        assert len(lines) == 4

    def test_sweep_generator_mode(self, tmp_path):
        out = tmp_path / "sweepg.csv"
        assert run("sweep", "--generator", "uniform_cube", "--dim", "1", "--n", "300",
                   "--holdout-n", "500", "--etas", "0.5,0.1", "--output", out) == 0
        assert out.read_text().splitlines()[0] == (
            "eta,leaf_count,train_distortion,holdout_distortion"
        )

    def test_csv_ingestion_with_normalize(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        np.savetxt(raw, rng.normal(size=(50, 2)) * 40, delimiter=",")
        cb = tmp_path / "cb.json"
        assert run("fit", "--data", raw, "--normalize", "--eta", "0.2",
                   "--output", cb) == 0
        assert load_codebook(cb).dim == 2

    def test_sample_csv_output(self, tmp_path):
        out = tmp_path / "pts.csv"
        assert run("sample", "--generator", "circle", "--dim", "3", "--n", "20",
                   "--seed", "1", "--output", out) == 0
        assert read_points_csv(out).shape == (20, 3)


class TestExperimentCommands:
    def test_rate_experiment_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-grid": "128,256", "trials": 2, "holdout-n": 500}))
        out = tmp_path / "rate.csv"
        assert run("rate-experiment", "--dim", "1", "--config", cfg, "--seed", "5",
                   "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "n,eta_n,j_n,leaf_count,holdout_distortion_mean,holdout_distortion_std"
        )
        assert len(lines) == 3  # config n-grid applied

    def test_baseline_with_config_etas(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"etas": "0.2,0.05", "n": 256, "holdout-n": 400}))
        out = tmp_path / "base.csv"
        assert run("baseline", "--config", cfg, "--output", out) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0.2", "0.05"]

    def test_config_on_a_command_without_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-grid": "128,256"}))
        with pytest.raises(SystemExit) as exc:
            run("fit", "--config", cfg, "--data", tmp_path / "x.rtds", "--eta", "0.1",
                "--output", tmp_path / "cb.json")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --config {cfg}\n" in err and "n-grid" not in err

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-grid": "128,256,512", "trials": 1, "holdout-n": 400}))
        out = tmp_path / "rate.csv"
        assert run("rate-experiment", "--dim", "1", "--config", cfg,
                   "--n-grid", "128,256", "--output", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            run("rate-experiment", "--dim", "1", "--config", cfg,
                "--output", tmp_path / "x.csv")

    def test_config_values_take_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-grid": "128,256", "trials": "2", "gamma": "1.5"}))
        out = tmp_path / "rate.csv"
        assert run("rate-experiment", "--dim", "1", "--config", cfg, "--output", out) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("value", ["two", 2.5, [2], {"n": 2}])
    def test_bad_config_value_is_a_parser_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": value}))
        with pytest.raises(SystemExit) as exc:
            run("rate-experiment", "--dim", "1", "--config", cfg, "--output", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "argument --trials: invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "n-grid", 3])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("rate-experiment", "--dim", "1", "--config", cfg,
                   "--output", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1 and "cfg.json" in err

    def test_approx_trend(self, tmp_path):
        out = tmp_path / "trend.csv"
        assert run("approx-trend", "--uniform-atoms", "256", "--dim", "1",
                   "--etas", "0.5,0.125,0.03125", "--output", out) == 0
        assert out.read_text().splitlines()[0] == "eta,approx_error,leaf_count"

    def test_baseline(self, tmp_path):
        out = tmp_path / "base.csv"
        assert run("baseline", "--dim", "1", "--n", "256", "--holdout-n", "400",
                   "--etas", "1.0,0.2", "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("eta,leaf_count,tree_train_distortion")
        assert len(lines) == 3


class TestScheduleFlags:
    """Every schedule flag a command takes changes its output; the rest are refused."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--data", "{train}", "--eta", "0.01"], ["--gamma", "0.5"]),
            (["sweep", "--data", "{train}", "--etas", "0.05,0.01"], ["--gamma", "0.5"]),
            (["sweep", "--generator", "uniform_cube", "--n", "256", "--holdout-n", "400",
              "--etas", "0.05,0.01"], ["--gamma", "0.5"]),
            (["baseline", "--n", "256", "--holdout-n", "400", "--etas", "0.05,0.01"],
             ["--gamma", "0.5"]),
            (["rate-experiment", "--n-grid", "128,256", "--holdout-n", "400"], ["--gamma", "1.2"]),
            (["rate-experiment", "--n-grid", "128,256", "--holdout-n", "400"], ["--beta", "3"]),
            (["rate-experiment", "--n-grid", "128,256", "--holdout-n", "400"],
             ["--threshold-constant", "7"]),
            (["rate-experiment", "--n-grid", "128,256", "--holdout-n", "400"],
             ["--theoretical-constant"]),
        ],
        ids=["fit", "sweep-data", "sweep-generator", "baseline", "rate-gamma", "rate-beta",
             "rate-threshold-constant", "rate-theoretical-constant"],
    )
    def test_flag_changes_the_output(self, workdir, argv, flag):
        argv = [a.format(train=workdir / "train.rtds") for a in argv]
        default, changed = workdir / "default.out", workdir / "changed.out"
        assert run(*argv, "--output", default) == 0
        assert run(*argv, *flag, "--output", changed) == 0
        assert default.read_bytes() != changed.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "x.rtds", "--eta", "0.1"],
            ["sweep", "--data", "x.rtds", "--etas", "0.1"],
            ["baseline", "--etas", "0.1"],
        ],
        ids=["fit", "sweep", "baseline"],
    )
    @pytest.mark.parametrize(
        "flag", [["--beta", "3"], ["--threshold-constant", "7"], ["--theoretical-constant"]]
    )
    def test_eta_given_commands_refuse_eta_n_flags(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run(*argv, *flag, "--output", tmp_path / "out")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err


class TestErrors:
    def test_bad_data_path(self, tmp_path):
        assert run("fit", "--data", tmp_path / "missing.rtds", "--eta", "0.1",
                   "--output", tmp_path / "cb.json") == 2

    def test_truncated_dataset_is_one_line_error(self, workdir, capsys):
        data = workdir / "train.rtds"
        data.write_bytes(data.read_bytes()[:-1])
        assert run("fit", "--data", data, "--eta", "0.1", "--output", workdir / "cb.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "train.rtds" in err

    def test_out_of_domain_csv_without_normalize(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("1.5,0.2\n0.1,0.3\n")
        assert run("fit", "--data", raw, "--eta", "0.1",
                   "--output", tmp_path / "cb.json") == 2

    def test_malformed_csv_names_the_file(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("x0,x1\n0.1,0.2\n0.3,abc\n")
        assert run("fit", "--data", raw, "--eta", "0.1", "--output", tmp_path / "cb.json") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}: could not convert string 'abc'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "x0,x1\n"], ids=["empty", "header-only"])
    def test_empty_csv_is_one_line_error(self, tmp_path, capsys, recwarn, text):
        raw = tmp_path / "raw.csv"
        raw.write_text(text)
        assert run("fit", "--data", raw, "--eta", "0.1", "--output", tmp_path / "cb.json") == 2
        assert capsys.readouterr().err == f"error: {raw}: no data rows\n"
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("command", ["encode", "distortion"])
    @pytest.mark.parametrize(
        "change", [{"dim": None}, {"leaves": []}, {"leaves": [{"depth": 1, "index": [0], "code": [0.1]}]}]
    )
    def test_malformed_codebook_is_one_line_error(self, workdir, capsys, command, change):
        cb = workdir / "cb.json"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        capsys.readouterr()
        doc = json.loads(cb.read_text())
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        cb.write_text(json.dumps(doc))
        assert run(command, "--codebook", cb, "--data", workdir / "train.rtds",
                   "--output", workdir / "out.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "ids_text, message",
        [
            ("depth,k0,k1\n", "no data rows"),
            ("depth,k0,k1\n1,0,abc\n", "could not convert string 'abc'"),
            ("depth,k0,k1\n1,0\n", "id rows must have 1+2 integers, not 2"),
            ("depth,k0,k1\n1,0,0\n-1,0,0\n", "row 1: no cell of depth -1 (0..31) has index [0, 0]"),
            ("depth,k0,k1\n1,0,2\n", "row 0: no cell of depth 1 (0..31) has index [0, 2]"),
            ("depth,k0,k1\n9,0,0\n", "row 0: depth 9 index [0, 0] is not a leaf of this quantizer"),
        ],
        ids=["header-only", "not-an-integer", "wrong-width", "negative-depth",
             "index-out-of-range", "not-a-leaf"],
    )
    def test_bad_ids_csv_is_one_line_error(self, workdir, capsys, recwarn, ids_text, message):
        cb = workdir / "cb.json"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        capsys.readouterr()
        ids = workdir / "ids.csv"
        ids.write_text(ids_text)
        assert run("decode", "--codebook", cb, "--ids", ids, "--output", workdir / "rec.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ids}: {message}") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("command", ["encode", "distortion"])
    @pytest.mark.parametrize("row", ["0.1", "0.1,0.2,0.3"])
    def test_encode_dim_mismatch_is_one_line_error(self, workdir, capsys, command, row):
        cb = workdir / "cb.json"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        capsys.readouterr()
        raw = workdir / "raw.csv"
        raw.write_text(row + "\n")
        assert run(command, "--codebook", cb, "--data", raw, "--output", workdir / "out.csv") == 2
        width = row.count(",") + 1
        assert capsys.readouterr().err == f"error: {raw}: data dim {width} != codebook dim 2\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--data", "{train}", "--eta", "nan"], "eta nan must be finite and positive"),
            (["fit", "--data", "{train}", "--eta", "inf"], "eta inf must be finite and positive"),
            (["fit", "--data", "{train}", "--eta", "0"], "eta 0.0 must be finite and positive"),
            (["fit", "--data", "{train}", "--eta", "0.1", "--gamma", "nan"],
             "gamma nan and beta 1.0 must be finite and positive"),
            (["fit", "--data", "{train}", "--eta", "0.1", "--gamma", "1e308"],
             "gamma 1e+308 gives an infinite j_n at n = 400"),
            (["sweep", "--data", "{train}", "--etas", "0.1,nan"],
             "eta nan must be finite and positive"),
            (["baseline", "--n", "64", "--etas", "inf"], "eta inf must be finite and positive"),
            (["approx-trend", "--uniform-atoms", "16", "--etas", "nan"],
             "eta nan must be finite and positive"),
            (["rate-experiment", "--n-grid", "128", "--threshold-constant", "nan"],
             "threshold_constant nan must be finite and positive"),
            (["sweep", "--data", "{train}", "--etas", ","], "--etas ',': no thresholds given"),
            (["baseline", "--n", "64", "--etas", ","], "--etas ',': no thresholds given"),
            (["approx-trend", "--etas", ","], "--etas ',': no thresholds given"),
        ],
        ids=["fit-nan", "fit-inf", "fit-zero", "fit-gamma-nan", "fit-gamma-huge", "sweep-nan",
             "baseline-inf", "approx-trend-nan", "rate-constant-nan", "sweep-empty",
             "baseline-empty", "approx-trend-empty"],
    )
    def test_bad_threshold_is_one_line_error(self, workdir, capsys, argv, message):
        argv = [a.format(train=workdir / "train.rtds") for a in argv]
        out = workdir / "out"
        assert run(*argv, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "modes",
        [["--data", "{train}", "--generator", "circle", "--dim", "2"], []],
        ids=["both", "neither"],
    )
    def test_sweep_needs_exactly_one_mode(self, workdir, capsys, modes):
        modes = [a.format(train=workdir / "train.rtds") for a in modes]
        with pytest.raises(SystemExit) as exc:
            run("sweep", *modes, "--etas", "0.1", "--output", workdir / "out.csv")
        assert exc.value.code == 2
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--data", "{train}", "--holdout-n", "3"], "sweep --data does not take --holdout-n"),
            (["--data", "{train}", "--density-bounds", "0.5,2"],
             "sweep --data does not take --density-bounds"),
            (["--data", "{train}", "--seed", "9", "--n", "5", "--dim", "7"],
             "sweep --data does not take --n, --dim, --seed"),
            (["--generator", "uniform_cube", "--normalize"],
             "sweep --generator does not take --normalize"),
        ],
        ids=["holdout-n", "density-bounds", "n-dim-seed", "normalize"],
    )
    def test_sweep_refuses_the_other_modes_flags(self, workdir, capsys, argv, message):
        argv = [a.format(train=workdir / "train.rtds") for a in argv]
        out = workdir / "out.csv"
        assert run("sweep", *argv, "--etas", "0.1", "--output", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
