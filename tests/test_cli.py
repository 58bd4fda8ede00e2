import json
import resource

import numpy as np
import pytest

from rectree import cli
from rectree.cli import main
from rectree.datagen import read_dataset, read_points_csv
from rectree.reconstruction import load_codebook
from rectree.stats import Dataset


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

    def test_sweep_train_column_matches_fit_and_distortion(self, workdir):
        """The sweep reads its train column from the table; fit + distortion encodes."""
        train, out = workdir / "train.rtds", workdir / "sweep.csv"
        assert run("sweep", "--data", train, "--etas", "0.5,0.2,0.05,0.01,0.002",
                   "--output", out) == 0
        for line in out.read_text().splitlines()[1:]:
            eta, leaves, value = line.split(",")
            cb, dist = workdir / f"cb-{eta}.json", workdir / f"dist-{eta}.csv"
            assert run("fit", "--data", train, "--eta", eta, "--output", cb) == 0
            assert len(load_codebook(cb).leaves) == int(leaves)
            assert run("distortion", "--codebook", cb, "--data", train, "--output", dist) == 0
            encoded = float(dist.read_text().splitlines()[1].split(",")[1])
            assert float(value) == pytest.approx(encoded, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("command", ["encode", "distortion"])
    def test_codebook_commands_refuse_normalize(self, tmp_path, capsys, command):
        # A --normalize codebook lives in the normalized cube, and the codebook
        # does not store the map: normalizing the input by its own bounding box
        # would encode a subset of the fitted data into other leaves.
        raw, cb, out = tmp_path / "raw.csv", tmp_path / "cb.json", tmp_path / "out.csv"
        np.savetxt(raw, np.random.default_rng(0).normal(10.0, 5.0, size=(200, 2)), delimiter=",")
        assert run("fit", "--data", raw, "--normalize", "--eta", "0.05", "--output", cb) == 0
        with pytest.raises(SystemExit) as exc:
            run(command, "--codebook", cb, "--data", raw, "--normalize", "--output", out)
        assert exc.value.code == 2
        assert "unrecognized arguments: --normalize" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_csv_output(self, tmp_path):
        out = tmp_path / "pts.csv"
        assert run("sample", "--generator", "circle", "--dim", "3", "--n", "20",
                   "--seed", "1", "--output", out) == 0
        assert read_points_csv(out).shape == (20, 3)

    def test_fit_checks_a_binary_dataset_once(self, workdir, monkeypatch):
        # read_dataset returns a checked Dataset; fit uses it as it is.
        checks, check = [], Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: checks.append(1) or check(self))
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05",
                   "--output", workdir / "cb.json") == 0
        assert len(checks) == 1


class TestByteOrderMark:
    """A CSV saved with a UTF-8 byte-order mark reads as the same rows, header or not."""

    @pytest.mark.parametrize("header", ["", "x0,x1\n"], ids=["headerless", "header"])
    def test_fit_data(self, tmp_path, header):
        text = header + "0.1,0.2\n0.7,0.4\n0.3,0.9\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        for name in ("plain", "bom"):
            assert run("fit", "--data", tmp_path / f"{name}.csv", "--eta", "0.01",
                       "--output", tmp_path / f"{name}.json") == 0
        assert read_points_csv(tmp_path / "bom.csv").shape == (3, 2)
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("header", [False, True], ids=["headerless", "header"])
    def test_decode_ids(self, workdir, header):
        cb, ids = workdir / "cb.json", workdir / "ids.csv"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        assert run("encode", "--codebook", cb, "--data", workdir / "train.rtds",
                   "--output", ids) == 0
        text = ids.read_text(encoding="utf-8")
        bom = workdir / "bom.csv"
        bom.write_text(text if header else text.split("\n", 1)[1], encoding="utf-8-sig")
        for name, source in (("plain", ids), ("bom", bom)):
            assert run("decode", "--codebook", cb, "--ids", source,
                       "--output", workdir / f"{name}-rec.csv") == 0
        rec = (workdir / "bom-rec.csv").read_bytes()
        assert rec.count(b"\n") == 401
        assert rec == (workdir / "plain-rec.csv").read_bytes()


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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("rate-experiment", "--dim", "1", "--config", cfg, "--output", out) == 2
        assert capsys.readouterr().err == f"error: config {cfg}: unknown key 'bogus'\n"
        assert not out.exists()

    def test_config_values_take_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-grid": "128,256", "trials": "2", "gamma": "1.5"}))
        out = tmp_path / "rate.csv"
        assert run("rate-experiment", "--dim", "1", "--config", cfg, "--output", out) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("value, problem", [
        ("two", "--trials 'two' is not an integer"),
        (2.5, "--trials '2.5' is not an integer"),
        ([2], "--trials takes a number or a string, not [2]"),
        ({"n": 2}, '--trials takes a number or a string, not {"n": 2}'),
    ], ids=["two", "2.5", "value2", "value3"])
    def test_bad_config_value_is_a_parser_error(self, tmp_path, capsys, value, problem):
        cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps({"trials": value}))
        assert run("rate-experiment", "--dim", "1", "--config", cfg, "--output", out) == 2
        assert capsys.readouterr().err == f"error: config {cfg}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, config, problem", [
        ("rate-experiment", {"trials": False}, "--trials takes a number or a string, not false"),
        ("rate-experiment", {"trials": True}, "--trials takes a number or a string, not true"),
        ("rate-experiment", {"theoretical_constant": 1},
         "--theoretical-constant takes true or false, not 1"),
        ("rate-experiment", {"theoretical_constant": "yes"},
         '--theoretical-constant takes true or false, not "yes"'),
        ("rate-experiment", {"generator": "cube"},
         "--generator 'cube' is not one of uniform_cube, density_cube, circle, sphere, swiss_roll"),
        ("rate-experiment", {"n_grid": [128, 256]},
         "--n-grid takes a number or a string, not [128, 256]"),
        ("approx-trend", {"etas": [0.1, 0.2]}, "--etas takes a number or a string, not [0.1, 0.2]"),
        ("baseline", {"etas": "0.1", "density_bounds": [0.5, 2]},
         "--density-bounds takes a number or a string, not [0.5, 2]"),
        ("rate-experiment", {"config": "other.json"}, "unknown key 'config'"),
        ("rate-experiment", {"help": True}, "unknown key 'help'"),
        ("approx-trend", {"etas": "0.1,x"}, "--etas '0.1,x': 'x' is not a number"),
        ("approx-trend", {"etas": ","}, "--etas ',': no thresholds given"),
        ("rate-experiment", {"n_grid": "128,abc"}, "--n-grid '128,abc': 'abc' is not an integer"),
        ("baseline", {"density_bounds": "1"},
         "--density-bounds '1': needs 2 comma-separated values, not 1"),
    ], ids=["false", "true", "on-off-number", "on-off-string", "choice", "n-grid-list",
            "etas-list", "bounds-list", "config", "help", "etas-value", "etas-empty",
            "n-grid-value", "bounds-count"])
    def test_config_value_refusal_names_the_file(self, tmp_path, capsys, command, config,
                                                 problem):
        cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps(config))
        assert run(command, "--config", cfg, "--output", out) == 2
        assert capsys.readouterr().err == f"error: config {cfg}: {problem}\n"
        assert not out.exists()

    def test_config_false_leaves_an_on_off_flag_off(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "rate.csv"
        cfg.write_text(json.dumps({"n_grid": "128,256", "theoretical_constant": False,
                                   "threshold_constant": 3, "holdout_n": None}))
        assert run("rate-experiment", "--config", cfg, "--output", out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_config_value_may_start_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-atoms.csv").write_text("0.25\n0.75\n")
        (tmp_path / "cfg.json").write_text(json.dumps({"atoms_csv": "-atoms.csv", "etas": "0.5"}))
        assert run("approx-trend", "--config", "cfg.json", "--output", "config.csv") == 0
        assert run("approx-trend", "--atoms-csv=-atoms.csv", "--etas", "0.5",
                   "--output", "flags.csv") == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

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

    @pytest.mark.parametrize(
        "argv",
        [["rate-experiment", "--dim", "1", "--n-grid", "2,4", "--holdout-n", "100"],
         ["approx-trend", "--uniform-atoms", "16", "--etas", "0.1,0.1"]],
        ids=["rate-experiment", "approx-trend"],
    )
    def test_slope_over_one_distinct_x_is_nan_without_a_warning(self, tmp_path, capsys, argv):
        # ln 2 / 2 == ln 4 / 4 exactly, and the two etas coincide: both rows share x.
        assert run(*argv, "--output", tmp_path / "out.csv") == 0
        out, err = capsys.readouterr()
        assert "fitted_slope=nan ->" in out and err == ""

    def test_approx_trend_atoms_isolated_at_the_deepest_depth(self, tmp_path, capsys):
        # Two D = 1 atoms first split at depth 32, the deepest storable one:
        # the subtree is the path to their depth-31 cell, with 33 leaves.
        atoms, out = tmp_path / "atoms.csv", tmp_path / "trend.csv"
        atoms.write_text(f"x0\n0.5\n{0.5 + 2.0**-32!r}\n")
        assert run("approx-trend", "--atoms-csv", atoms, "--etas", "1e-12", "--output", out) == 0
        assert out.read_text().splitlines()[1:] == ["1e-12,0.0,33"]
        assert capsys.readouterr().err == ""

    def test_approx_trend_atoms_too_close(self, tmp_path, capsys):
        atoms, out = tmp_path / "atoms.csv", tmp_path / "trend.csv"
        atoms.write_text(f"x0\n0.5\n{0.5 + 2.0**-33!r}\n")
        assert run("approx-trend", "--atoms-csv", atoms, "--etas", "1e-12", "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: atoms not separated by depth 32") and err.count("\n") == 1
        assert not out.exists()

    def test_approx_trend_above_32_dims_is_one_line_error(self, tmp_path, capsys):
        # The 40-axis grid is built (np.meshgrid takes at most 32 axes), and
        # numpy then refuses the 2**40 depth-1 leaves.  The address-space cap
        # makes it refuse on a host that overcommits memory as well.
        out = tmp_path / "trend.csv"
        with open("/proc/self/status", encoding="utf-8") as fh:
            size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = size + 2**31 if hard == resource.RLIM_INFINITY else min(size + 2**31, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code = run("approx-trend", "--dim", "40", "--uniform-atoms", "1", "--output", out)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--atoms-csv", "{atoms}", "--dim", "3"],
             "approx-trend --atoms-csv does not take --dim"),
            (["--atoms-csv", "{atoms}", "--uniform-atoms", "5"],
             "approx-trend --atoms-csv does not take --uniform-atoms"),
            (["--atoms-csv", "{atoms}", "--dim", "7", "--uniform-atoms", "5"],
             "approx-trend --atoms-csv does not take --uniform-atoms, --dim"),
            (["--weighted"], "approx-trend --weighted needs --atoms-csv"),
            (["--uniform-atoms", "64", "--dim", "2", "--weighted"],
             "approx-trend --weighted needs --atoms-csv"),
            (["--uniform-atoms", "0"], "--uniform-atoms 0 and --dim 1 must be positive"),
            (["--dim", "0"], "--uniform-atoms 4096 and --dim 0 must be positive"),
            (["--uniform-atoms", str(10**20)], f"a grid of {10**20}^1 atoms does not fit in int64"),
        ],
        ids=["csv-dim", "csv-uniform-atoms", "csv-both", "weighted", "weighted-grid",
             "no-atoms", "no-dim", "huge-grid"],
    )
    def test_approx_trend_refuses_the_other_sources_flags(self, tmp_path, capsys, flags, message):
        atoms, out = tmp_path / "atoms.csv", tmp_path / "trend.csv"
        atoms.write_text("x0\n0.25\n0.75\n")
        flags = [f.format(atoms=atoms) for f in flags]
        assert run("approx-trend", *flags, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("x0\n0.5\n1.5\n", [], "point 1 = [1.5] outside [0, 1)^1"),
            ("x0,w\n0.25,0.5\n0.75,-0.5\n", ["--weighted"], "weight 1 = -0.5 must be positive"),
            ("x0,w\n0.25,nan\n0.75,1.0\n", ["--weighted"], "weight 0 = nan must be positive"),
            ("x0,w\n0.25,0.5\n0.75,0.6\n", ["--weighted"],
             "weights sum to 1.1, not 1 within 1e-12"),
            ("w\n1.0\n", ["--weighted"],
             "points must be 2-d (n, dim) with dim >= 1, got shape (1, 0)"),
        ],
        ids=["outside-cube", "negative-weight", "nan-weight", "weights-sum", "weights-only"],
    )
    def test_bad_atoms_csv_is_one_line_error(self, tmp_path, capsys, text, flags, message):
        atoms, out = tmp_path / "atoms.csv", tmp_path / "trend.csv"
        atoms.write_text(text)
        assert run("approx-trend", "--atoms-csv", atoms, *flags, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {atoms}: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({}, ["--threshold-constant", "3", "--theoretical-constant"]),
            ({"threshold_constant": 3}, ["--theoretical-constant"]),
            ({"theoretical_constant": True}, ["--threshold-constant", "3"]),
            ({"threshold_constant": 3, "theoretical_constant": True}, []),
        ],
        ids=["flags", "config-constant", "config-theoretical", "config-both"],
    )
    def test_both_threshold_constants_are_refused(self, tmp_path, capsys, config, flags):
        cfg, out = tmp_path / "cfg.json", tmp_path / "rate.csv"
        cfg.write_text(json.dumps(config))
        assert run("rate-experiment", "--n-grid", "128", "--config", cfg, *flags,
                   "--output", out) == 2
        assert capsys.readouterr().err == ("error: rate-experiment takes --threshold-constant "
                                           "or --theoretical-constant, not both\n")
        assert not out.exists()


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
            (["sample", "--generator", "density_cube", "--dim", "2", "--n", "8",
              "--density-bounds", "1"],
             "--density-bounds '1': needs 2 comma-separated values, not 1"),
            (["sample", "--generator", "density_cube", "--dim", "2", "--n", "8",
              "--density-bounds", "1,2,3"],
             "--density-bounds '1,2,3': needs 2 comma-separated values, not 3"),
            (["sample", "--generator", "density_cube", "--dim", "2", "--n", "8",
              "--density-bounds", "a,b"], "--density-bounds 'a,b': 'a' is not a number"),
            (["sweep", "--generator", "density_cube", "--etas", "0.1", "--density-bounds", ","],
             "--density-bounds ',': needs 2 comma-separated values, not 0"),
            (["baseline", "--generator", "density_cube", "--etas", "0.1",
              "--density-bounds", "0.5;2"], "--density-bounds '0.5;2': '0.5;2' is not a number"),
            (["rate-experiment", "--n-grid", "128,abc"],
             "--n-grid '128,abc': 'abc' is not an integer"),
            (["rate-experiment", "--n-grid", "128, 1e3"],
             "--n-grid '128, 1e3': '1e3' is not an integer"),
            (["sweep", "--data", "{train}", "--etas", "0.1,abc"],
             "--etas '0.1,abc': 'abc' is not a number"),
            (["baseline", "--n", "64", "--etas", "0.1 0.2"],
             "--etas '0.1 0.2': '0.1 0.2' is not a number"),
            (["approx-trend", "--etas", "x"], "--etas 'x': 'x' is not a number"),
            (["sample", "--generator", "uniform_cube", "--dim", "2", "--n", "10", "--seed", "-3"],
             "seed -3 must be non-negative"),
            (["rate-experiment", "--n-grid", "128", "--seed", "-1"],
             "seed -1 must be non-negative"),
            (["sweep", "--generator", "uniform_cube", "--etas", "0.1", "--seed", "-2"],
             "seed -2 must be non-negative"),
            (["baseline", "--dim", "2", "--n", "64", "--etas", "0.1", "--holdout-n", "-5"],
             "holdout_n -5 must be positive"),
            (["sweep", "--generator", "uniform_cube", "--etas", "0.1", "--holdout-n", "0"],
             "holdout_n 0 must be positive"),
            (["rate-experiment", "--n-grid", "128", "--holdout-n", "0"],
             "holdout_n 0 must be positive"),
            (["sample", "--generator", "uniform_cube", "--dim", "2", "--n", "0"],
             "n must be positive"),
            (["rate-experiment", "--n-grid", "1,4"], "n_grid entries must be at least 2"),
        ],
        ids=["fit-nan", "fit-inf", "fit-zero", "fit-gamma-nan", "fit-gamma-huge", "sweep-nan",
             "baseline-inf", "approx-trend-nan", "rate-constant-nan", "sweep-empty",
             "baseline-empty", "approx-trend-empty", "bounds-one", "bounds-three", "bounds-text",
             "bounds-empty", "bounds-separator", "n-grid-text", "n-grid-float", "sweep-etas",
             "baseline-etas", "approx-trend-etas", "sample-seed-negative",
             "rate-seed-negative", "sweep-seed-negative", "baseline-holdout-negative",
             "sweep-holdout-zero", "rate-holdout-zero", "sample-n-zero", "n-grid-below-two"],
    )
    def test_bad_threshold_is_one_line_error(self, workdir, capsys, argv, message):
        argv = [a.format(train=workdir / "train.rtds") for a in argv]
        out = workdir / "out"
        assert run(*argv, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_list_flag_is_refused_before_the_command_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_uniform_grid_atoms", lambda *_: pytest.fail("built the atoms"))
        assert run("approx-trend", "--uniform-atoms", "4000000", "--etas", "x",
                   "--output", tmp_path / "t.csv") == 2
        assert capsys.readouterr().err == "error: --etas 'x': 'x' is not a number\n"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--generator", "uniform_cube", "--n", "-5", "--etas", "0.1"],
             "n -5 must be positive"),
            (["sweep", "--generator", "uniform_cube", "--n", "0", "--etas", "0.1"],
             "n 0 must be positive"),
            (["baseline", "--n", "-3", "--holdout-n", "10", "--etas", "0.1"],
             "n -3 must be positive"),
        ],
        ids=["sweep-negative", "sweep-zero", "baseline-negative-with-holdout"],
    )
    def test_nonpositive_n_is_refused_under_its_own_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert run(*argv, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "{data}", "--eta", "100"],
            ["sweep", "--data", "{data}", "--etas", "100,1"],
            ["sweep", "--generator", "uniform_cube", "--dim", "63", "--n", "8", "--etas", "0.1"],
            ["rate-experiment", "--dim", "63", "--n-grid", "8,16", "--holdout-n", "10"],
            ["baseline", "--dim", "63", "--n", "8", "--holdout-n", "10", "--etas", "0.1"],
        ],
        ids=["fit", "sweep-data", "sweep-generator", "rate-experiment", "baseline"],
    )
    def test_dim_without_depth_one_cells_is_refused(self, tmp_path, capsys, argv):
        data = tmp_path / "wide.rtds"
        assert run("sample", "--generator", "uniform_cube", "--dim", "63", "--n", "8",
                   "--output", data) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*[a.format(data=data) for a in argv], "--output", out) == 2
        assert capsys.readouterr().err == "error: dim 63 has no depth-1 cells in a 62-bit code\n"
        assert not out.exists()


def _v1_codebook(dim, leaves):
    return json.dumps({"format": "rectree-codebook", "version": 1, "dim": dim, "eta": 0.1,
                       "depth_cap": 3, "leaves": leaves})


# Refusals of outside input that once printed no file name: (the file, its
# content, the command around it, the error after "FILE: ").
UNNAMED_REFUSALS = [
    ("bad.json", "not json", ["encode", "--codebook", "{file}", "--data", "{train}"],
     "codebook {file}: Expecting value: line 1 column 1 (char 0)"),
    ("bin.json", b"\xff{}", ["encode", "--codebook", "{file}", "--data", "{train}"],
     "codebook {file}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("v7.json", json.dumps({"format": "rectree-codebook", "version": 7}),
     ["encode", "--codebook", "{file}", "--data", "{train}"],
     "codebook {file}: unsupported codebook version 7"),
    ("short.json", _v1_codebook(2, [{"depth": 0, "index": [0], "code": [0.5, 0.5]}]),
     ["encode", "--codebook", "{file}", "--data", "{train}"],
     "codebook {file}: row 0: index and code need 2 entries each"),
    ("range.json", _v1_codebook(1, [{"depth": 1, "index": [0], "code": [0.5]},
                                    {"depth": 1, "index": [5], "code": [0.5]}]),
     ["encode", "--codebook", "{file}", "--data", "{train}"],
     "codebook {file}: row 1: no cell of depth 1 (0..32) has index [5]"),
    ("cfg.json", '{"n_grid": nope}', ["rate-experiment", "--config", "{file}"],
     "config {file}: Expecting value: line 1 column 12 (char 11)"),
    ("x.csv", b"\xff0.1\n0.2\n", ["fit", "--data", "{file}", "--eta", "0.1"],
     "{file}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("out.csv", "x0,x1\n0.1,0.2\n1.5,0.3\n", ["encode", "--codebook", "{cb}", "--data", "{file}"],
     "{file}: point 1 = [1.5, 0.3] outside [0, 1)^2"),
]


class TestRefusalsNameTheirFile:
    @pytest.mark.parametrize(
        "name, content, argv, message", UNNAMED_REFUSALS,
        ids=["not-json", "not-utf8", "version-7", "v1-short-index", "v1-index-range",
             "config-not-json", "csv-not-utf8", "csv-outside-cube"],
    )
    def test_one_error_line_names_the_file(self, workdir, capsys, name, content, argv, message):
        cb, path, out = workdir / "cb.json", workdir / name, workdir / "result.out"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        capsys.readouterr()
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        names = {"file": path, "train": workdir / "train.rtds", "cb": cb}
        assert run(*[a.format(**names) for a in argv], "--output", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(file=path)}\n"
        assert err.count(str(path)) == 1
        assert not out.exists()

    def test_binary_dataset_outside_the_cube_names_the_file(self, workdir, capsys):
        cb, data, out = workdir / "cb.json", workdir / "bad.rtds", workdir / "ids.csv"
        assert run("fit", "--data", workdir / "train.rtds", "--eta", "0.05", "--output", cb) == 0
        capsys.readouterr()
        raw = (workdir / "train.rtds").read_bytes()
        data.write_bytes(raw[:-16] + np.array([1.5, 0.3], "<f8").tobytes())
        assert run("encode", "--codebook", cb, "--data", data, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {data}: point 399 = [1.5, 0.3] outside [0, 1)^2\n"
        assert not out.exists()
