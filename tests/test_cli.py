"""Command-line interface: subcommands, exit codes, manifest round-trips."""

import os

import numpy as np
import pytest

from rbc_stoplab import cli
from rbc_stoplab.cli import main, parse_config_file
from rbc_stoplab.engine import RNG_LAYOUT
from rbc_stoplab.montecarlo import letters_projection


GOOD_CONFIG = """\
# three-class demo
n = 3
prior = 0.42,0.55,0.03
true_index = 0
tau = 0.8
methods = M1,MP,M3
mu_pos = 0.6
c_pos = 0.5
mu_neg = 0.0
c_neg = 0.5
scheme = broadcast
trials = 200
max_sequences = 8
seed = 42
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigParsing:
    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "n = 3\nbogus = 1\n")
        with pytest.raises(Exception) as err:
            parse_config_file(path)
        assert "bogus" in str(err.value)
        assert ":2:" in str(err.value)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "# hi\n\nn = 3  # inline\n")
        assert parse_config_file(path) == {"n": "3"}

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", "n = 4\n", "n"),
        ("sweep", "tau_list = 0.7\ntau_list = 0.8\n", "tau_list"),
    ])
    def test_repeated_key_names_key_and_both_lines(self, tmp_path, capsys, command, extra,
                                                   key):
        # the last value used to win silently: a repeated n ran as n = 4
        path = write_config(tmp_path, GOOD_CONFIG + extra)
        first = 1 + [line.partition("=")[0].strip()
                     for line in (GOOD_CONFIG + extra).splitlines()].index(key)
        repeat = len((GOOD_CONFIG + extra).splitlines())
        rc = main([command, path])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:{repeat}: key {key!r}" in err
        assert f"line {first}" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_value_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("tau = 0.8", "tau = oops"))
        rc = main(["simulate", path])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    def test_scheme_wider_than_n_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            GOOD_CONFIG.replace("scheme = broadcast", "scheme = topN:5"))
        rc = main(["simulate", path])
        assert rc == 2
        assert "scheme" in capsys.readouterr().err

    def test_tau_below_uniform_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("tau = 0.8", "tau = 0.1"))
        rc = main(["simulate", path])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "table"])
    def test_out_dir_is_a_file_exit_code(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        path = write_config(tmp_path, GOOD_CONFIG + f"out_dir = {blocker}\n")
        argv = {"simulate": ["simulate", path],
                "sweep": ["sweep", path, "--tau-list", "0.7"],
                "table": ["table", "T2", "--trials", "20", "--out-dir", str(blocker)]}
        rc = main(argv[command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err

    @pytest.mark.parametrize("trials", [10**12, 10**30])
    @pytest.mark.parametrize("command", ["table", "simulate", "sweep"])
    def test_trials_beyond_memory_exit_code(self, tmp_path, capsys, command, trials):
        # the stop records are allocated before any trial runs, and numpy
        # refuses them without allocating
        out = tmp_path / "out"
        path = write_config(tmp_path, GOOD_CONFIG.replace("trials = 200", f"trials = {trials}")
                            + f"out_dir = {out}\n")
        argv = {"simulate": ["simulate", path],
                "sweep": ["sweep", path, "--tau-list", "0.7,0.8"],
                "table": ["table", "T2", "--trials", str(trials), "--out-dir", str(out)]}
        rc = main(argv[command])
        assert rc == 2
        err = capsys.readouterr().err
        name = "--trials" if command == "table" else "key 'trials'"
        assert err.startswith(f"error: {name}: ") and str(trials) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("max_sequences", [10**12, 10**30, 10**400])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_horizon_beyond_memory_names_key(self, tmp_path, capsys, command, max_sequences):
        # the per-sequence tallies are allocated before any trial runs; the
        # error used to name 'trials', or no key at all past numpy's largest
        # dimension
        out = tmp_path / "out"
        path = write_config(tmp_path, GOOD_CONFIG.replace(
            "max_sequences = 8", f"max_sequences = {max_sequences}") + f"out_dir = {out}\n")
        argv = {"simulate": ["simulate", path], "sweep": ["sweep", path, "--tau-list", "0.7,0.8"]}
        rc = main(argv[command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: key 'max_sequences': ") and str(max_sequences) in err
        assert "'trials'" not in err and "Traceback" not in err
        assert not out.exists()

    def test_class_count_beyond_memory_exit_code(self, tmp_path, capsys):
        # calibration allocates points of n classes, outside any named
        # allocation; numpy refuses this one without allocating
        text = GOOD_CONFIG.replace("n = 3", "n = 1000000000000").replace(
            "prior = 0.42,0.55,0.03", "prior = random_remainder:0.1")
        rc = main(["simulate", write_config(tmp_path, text + f"out_dir = {tmp_path / 'out'}\n")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [10**12, 10**20, 10**400])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "bounds", "trajectories"])
    @pytest.mark.parametrize("methods", ["M1,MP,M3", "M3,M1"])
    def test_class_count_beyond_memory_names_key(self, tmp_path, capsys, command, n, methods):
        # the config check holds a point of n classes in place of a random
        # prior; an entropy rule's calibration would hold one too.  numpy
        # refuses 10**12 classes without allocating, and 10**20 as past its
        # largest dimension
        text = GOOD_CONFIG.replace("n = 3", f"n = {n}").replace(
            "prior = 0.42,0.55,0.03", "prior = random_remainder:0.1").replace(
            "methods = M1,MP,M3", f"methods = {methods}")
        path = write_config(tmp_path, text + f"out_dir = {tmp_path / 'out'}\n")
        argv = {"simulate": [], "sweep": ["--tau-list", "0.7,0.8"], "bounds": ["--s-range", "1:3"],
                "trajectories": ["--paths", "2"]}[command]
        rc = main([command, path, *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: key 'n': points of {n} classes do not fit in memory")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("mu_pos", "nan"), ("c_pos", "inf"),
                                            ("mu_neg", "-inf"), ("c_neg", "nan")])
    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    def test_non_finite_channel_exit_code(self, tmp_path, capsys, command, key, value):
        text = "".join(f"{key} = {value}\n" if line.startswith(key + " ") else line + "\n"
                       for line in GOOD_CONFIG.splitlines())
        path = write_config(tmp_path, text + f"out_dir = {tmp_path / 'out'}\n")
        argv = [command, path] + (["--s-range", "1:5"] if command == "bounds" else [])
        rc = main(argv)
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("mu_pos", "1e+308"), ("c_pos", "1e+308"),
                                            ("mu_neg", "-1e+306"), ("c_neg", "3e+304")])
    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    def test_overflowing_channel_exit_code(self, tmp_path, capsys, recwarn, command, key,
                                           value):
        # finite, but the log state of 100 sequences would overflow
        text = "".join(f"{key} = {value}\n" if line.startswith(key + " ")
                       else "max_sequences = 100\n" if line.startswith("max_sequences ")
                       else line + "\n" for line in GOOD_CONFIG.splitlines())
        path = write_config(tmp_path, text + f"out_dir = {tmp_path / 'out'}\n")
        argv = [command, path] + (["--s-range", "1:5"] if command == "bounds" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: key {key!r}: {key} must be at most 2.97e+304")
        assert value in err
        assert not recwarn.list
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "table"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        path = write_config(tmp_path, GOOD_CONFIG.replace("seed = 42", "seed = -1"))
        argv = {"simulate": ["simulate", path],
                "table": ["table", "T2", "--seed", "-5", "--out-dir", str(tmp_path / "t")]}
        rc = main(argv[command])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_beyond_64_bits_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG.replace("seed = 42", f"seed = {2**64}")
                            + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", path]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_method_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            GOOD_CONFIG.replace("M1,MP,M3", "M1,M9"))
        rc = main(["simulate", path])
        assert rc == 2
        assert "methods" in capsys.readouterr().err


    @pytest.mark.parametrize("key, edit, message", [
        ("tau", ("tau = 0.8", "tau = 0.2"), "tau must lie in (1/3, 1], got 0.2"),
        ("true_index", ("true_index = 0", "true_index = 3"), "true_index out of range"),
        ("max_sequences", ("max_sequences = 8", "max_sequences = 0"),
         "max_sequences must be at least 1"),
        ("trials", ("trials = 200", "trials = 0"), "n_trials must be at least 1"),
        ("seed", ("seed = 42", "seed = -1"), "seed must lie in [0, 2**64), got -1"),
        ("c_pos", ("c_pos = 0.5", "c_pos = -1"), "c_pos must be nonnegative, got -1.0"),
        ("mu_pos", ("mu_pos = 0.6", "mu_pos = inf"), "mu_pos must be finite, got inf"),
        ("scheme", ("scheme = broadcast", "scheme = topN:5"),
         "scheme queries 5 classes but only 3 exist"),
        ("methods", ("M1,MP,M3", "M1,M9"), "methods holds unknown families: ['M9']"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "bounds", "trajectories"])
    def test_bad_value_names_key(self, tmp_path, capsys, command, key, edit, message):
        path = write_config(tmp_path, GOOD_CONFIG.replace(*edit)
                            + f"out_dir = {tmp_path / 'out'}\n")
        argv = {"simulate": [], "sweep": ["--tau-list", "0.7,0.8"], "bounds": ["--s-range", "1:3"],
                "trajectories": ["--paths", "2"]}[command]
        assert main([command, path, *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: key {key!r}: {message}\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_writes_results_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        rc = main(["simulate", write_config(tmp_path, cfg)])
        assert rc == 0
        for name in ("p_stop.csv", "p_true_given_stop.csv", "summary.csv",
                     "manifest.txt"):
            assert (out_dir / name).exists()

    def test_manifest_reruns_byte_identical(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        assert main(["simulate", write_config(tmp_path, cfg)]) == 0
        first = {name: read_bytes(out_dir / name)
                 for name in ("p_stop.csv", "p_true_given_stop.csv", "summary.csv")}
        # rerun straight from the emitted manifest
        assert main(["simulate", str(out_dir / "manifest.txt")]) == 0
        for name, blob in first.items():
            assert read_bytes(out_dir / name) == blob


class TestTable:
    def test_writes_comparison_and_signals_failures(self, tmp_path, capsys):
        out_dir = str(tmp_path / "t2")
        rc = main(["table", "T2", "--trials", "300", "--out-dir", out_dir])
        assert rc in (0, 1)
        assert os.path.exists(os.path.join(out_dir, "comparison_T2.csv"))
        assert "cells within" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["table", "T2", "--trials", "300", "--out-dir", out_a])
        main(["table", "T2", "--trials", "300", "--out-dir", out_b])
        for name in ("comparison_T2.csv", "p_stop.csv", "p_true_given_stop.csv"):
            assert read_bytes(os.path.join(out_a, name)) == \
                read_bytes(os.path.join(out_b, name))

    @pytest.mark.parametrize("flags, message", [
        ("--trials 0", "--trials: n_trials must be at least 1"),
        ("--seed -1", "--seed: seed must lie in [0, 2**64), got -1"),
        (f"--seed {2**64}", f"--seed: seed must lie in [0, 2**64), got {2**64}"),
    ], ids=["zero-trials", "negative-seed", "seed-beyond-64-bits"])
    def test_bad_value_names_option(self, tmp_path, capsys, flags, message):
        rc = main(["table", "T2", *flags.split(), "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t").exists()


class TestBoundary:
    def test_gap_boundary_points(self, tmp_path, capsys):
        out_dir = str(tmp_path / "b")
        rc = main(["boundary", "MP", "--tau", "0.8", "--resolution", "200",
                   "--out-dir", out_dir])
        assert rc == 0
        rows = np.loadtxt(os.path.join(out_dir, "boundary_MP.csv"),
                          delimiter=",", skiprows=1)
        assert 150 <= rows.shape[0] <= 260
        srt = np.sort(rows, axis=1)
        np.testing.assert_allclose(srt[:, 2] - srt[:, 1], 0.6, atol=1e-9)

    @pytest.mark.parametrize("method, message", [
        ("M9", "unknown family 'M9'"),
        ("M5", "the consecutive-KL rule has no pointwise boundary"),
    ], ids=["M9", "M5"])
    def test_rejects_unknown_method(self, tmp_path, capsys, method, message):
        assert main(["boundary", method, "--tau", "0.8", "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "b").exists()

    def test_tau_outside_domain_names_option(self, tmp_path, capsys):
        assert main(["boundary", "M1", "--tau", "0.2", "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "error: --tau: tau must lie in (1/3, 1], got 0.2\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("resolution, message", [
        ("2", "--resolution must be at least 3, got 2"),
        ("-5", "--resolution must be at least 3, got -5"),
        # the rays are allocated before any is traced; numpy refuses 10**12
        # without allocating, and 10**30 as past its largest dimension
        (str(10**12), f"--resolution: the directions of {10**12} rays do not fit in memory ("),
        (str(10**30), f"--resolution: the directions of {10**30} rays do not fit in memory ("),
    ], ids=["2", "-5", "1e12", "1e30"])
    def test_bad_resolution_names_option(self, tmp_path, capsys, resolution, message):
        rc = main(["boundary", "M1", "--tau", "0.8", "--resolution", resolution,
                   "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not (tmp_path / "b").exists()


class TestLetters:
    def test_prints_expected_value(self, capsys):
        assert main(["letters", "--acc", "1.0", "--eseq", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1000"

    def test_literal_flag(self, capsys):
        assert main(["letters", "--acc", "0.9", "--eseq", "15.44",
                     "--literal-pseudocode"]) == 0
        assert capsys.readouterr().out.strip() == "169.84"

    @pytest.mark.parametrize("eseq", ["nan", "inf"])
    def test_non_finite_eseq_is_rejected(self, capsys, eseq):
        assert main(["letters", "--acc", "0.9", "--eseq", eseq]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "e_seq" in out.err and eseq in out.err

    @pytest.mark.parametrize("flags, message", [
        ("--acc 1.5 --eseq 10", "--acc: acc must lie in (0, 1], got 1.5"),
        ("--acc 0.9 --eseq 0", "--eseq: e_seq must be positive and finite, got 0.0"),
        ("--acc 0.9 --eseq 10 --total 0", "--total: total_letters must be at least 1, got 0"),
        ("--acc 0.9 --eseq 1e308", "--eseq: e_seq = 1e+308 gives a total beyond the float range"),
        (f"--acc 0.5 --eseq 1 --total {10**400}",
         f"--total: total_letters = {10**400} lies beyond the float range"),
    ], ids=["acc", "eseq", "total", "eseq-overflow", "total-overflow"])
    def test_bad_value_names_option(self, capsys, flags, message):
        assert main(["letters", *flags.split()]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    def test_overflowing_total_is_rejected(self, capsys):
        assert main(["letters", "--acc", "0.9", "--eseq", "1e308"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "e_seq" in out.err
        # the largest totals below the float range still print
        assert main(["letters", "--acc", "0.9", "--eseq", "1e306"]) == 0
        assert capsys.readouterr().out.strip() == "1.11e+308"


class TestSweepCommand:
    def test_writes_curve(self, tmp_path):
        out_dir = tmp_path / "sw"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        rc = main(["sweep", write_config(tmp_path, cfg), "--tau-list", "0.7,0.8"])
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "method,tau,mean_sequences,mean_accuracy"
        assert len(lines) == 1 + 3 * 2  # three configured methods, two taus

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"sw_{run}"
            cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
            path = write_config(tmp_path, cfg, name=f"run_{run}.cfg")
            assert main(["sweep", path, "--tau-list", "0.7,0.8,0.9"]) == 0
            blobs.append(read_bytes(out_dir / "sweep.csv"))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("given", ["flag", "key"])
    def test_tau_outside_domain_names_option(self, tmp_path, capsys, given):
        # every anchor is calibrated before any trial runs
        out_dir = tmp_path / "sw"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        flags = ["--tau-list", "0.7,0.2"] if given == "flag" else []
        if given == "key":
            cfg += "tau_list = 0.7,0.2\n"
        assert main(["sweep", write_config(tmp_path, cfg), *flags]) == 2
        name = "--tau-list" if given == "flag" else "key 'tau_list'"
        assert capsys.readouterr().err == f"error: {name}: tau must lie in (1/3, 1], got 0.2\n"
        assert not out_dir.exists()

    def test_no_swept_method_names_key(self, tmp_path, capsys):
        # a sweep leaves M5 out, so a config of M5 alone has nothing to sweep
        out_dir = tmp_path / "sw"
        cfg = GOOD_CONFIG.replace("methods = M1,MP,M3", "methods = M5") + f"out_dir = {out_dir}\n"
        assert main(["sweep", write_config(tmp_path, cfg), "--tau-list", "0.7,0.8"]) == 2
        assert capsys.readouterr().err == (
            "error: key 'methods': methods must name a family besides M5 for a sweep, "
            "got ('M5',)\n")
        assert not out_dir.exists()

    def test_tau_one_runs(self, tmp_path):
        out_dir = tmp_path / "sw"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        assert main(["sweep", write_config(tmp_path, cfg), "--tau-list", "1.0"]) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["8", "8", "8"]


class TestBoundsCommand:
    def test_writes_bounds_table(self, tmp_path, capsys):
        out_dir = tmp_path / "bd"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        rc = main(["bounds", write_config(tmp_path, cfg), "--s-range", "1:10"])
        assert rc == 0
        lines = (out_dir / "bounds.csv").read_text().splitlines()
        assert lines[0] == "s,tp_m1,tp_mp,tp_m2norm,fa_m1,fa_mp,fa_m1bar,ordering_ok"
        assert len(lines) == 11
        assert all(line.endswith("true") for line in lines[1:])

    def test_no_m2norm_bound_at_low_tau(self, tmp_path):
        out_dir = tmp_path / "bd"
        cfg = GOOD_CONFIG.replace("tau = 0.8", "tau = 0.45") + f"out_dir = {out_dir}\n"
        assert main(["bounds", write_config(tmp_path, cfg), "--s-range", "1,4"]) == 0
        lines = (out_dir / "bounds.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines] == ["tp_m2norm", "nan", "nan"]

    @pytest.mark.parametrize("s_range", ["5:1", "0:3", "2,0", "-1", "1:1000000000000",
                                         "1:1000000000000000000000", f"1,{10**400}"])
    def test_bad_range_names_option(self, tmp_path, capsys, s_range):
        # an empty range or a count below 1 fails before any output is written
        cfg = GOOD_CONFIG + f"out_dir = {tmp_path / 'bd'}\n"
        assert main(["bounds", write_config(tmp_path, cfg), f"--s-range={s_range}"]) == 2
        assert "--s-range" in capsys.readouterr().err
        assert not (tmp_path / "bd").exists()

    @pytest.mark.parametrize("s_range", ["5:1", "0:3", "x", "1:1000000000000",
                                         "1:1000000000000000000000"])
    def test_bad_range_from_config_names_key(self, tmp_path, capsys, s_range):
        cfg = GOOD_CONFIG + f"s_range = {s_range}\nout_dir = {tmp_path / 'bd'}\n"
        assert main(["bounds", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "'s_range'" in err and "--s-range" not in err
        assert not (tmp_path / "bd").exists()

    @pytest.mark.parametrize("old, new, err", [
        ("tau = 0.8", "tau = 1", "key 'tau': tau must lie in (1/3, 1)"),
        ("prior = 0.42,0.55,0.03", "prior = 1,0,0",
         "key 'prior': prior mass of the true class must lie in (0, 1), got 1.0"),
        ("prior = 0.42,0.55,0.03", "prior = 0,0.5,0.5",
         "key 'prior': prior mass of the true class must lie in (0, 1), got 0.0"),
    ], ids=["tau_1", "true_mass_1", "true_mass_0"])
    def test_bad_query_names_key(self, tmp_path, capsys, old, new, err):
        # a config that runs as an experiment but gives no bound query
        cfg = GOOD_CONFIG.replace(old, new) + f"out_dir = {tmp_path / 'bd'}\n"
        assert main(["bounds", write_config(tmp_path, cfg), "--s-range", "1:3"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "bd").exists()


class TestTrajectoriesCommand:
    def test_writes_paths_and_mean(self, tmp_path):
        out_dir = tmp_path / "tr"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        rc = main(["trajectories", write_config(tmp_path, cfg), "--paths", "7"])
        assert rc == 0
        mean_lines = (out_dir / "trajectory_mean.csv").read_text().splitlines()
        assert mean_lines[0] == "s,p1,p2,p3"
        assert len(mean_lines) == 1 + 9  # prior plus eight sequences
        path_lines = (out_dir / "trajectory_paths.csv").read_text().splitlines()
        assert len(path_lines) == 1 + 7 * 9

    @pytest.mark.parametrize("flag_paths, cfg_paths, max_sequences, names", [
        (10**12, None, 8, "--paths and key 'max_sequences'"),
        (None, 10**12, 8, "key 'paths' and key 'max_sequences'"),
        (10, None, 10**12, "--paths and key 'max_sequences'"),
        (10, None, 10**30, "--paths and key 'max_sequences'"),
    ])
    def test_paths_beyond_memory_exit_code(self, tmp_path, capsys, flag_paths, cfg_paths,
                                           max_sequences, names):
        # the paths are allocated before any path runs, and numpy refuses
        # these sizes without allocating; a long horizon used to run until
        # memory ran out, many paths to end in a traceback
        out = tmp_path / "tr"
        text = GOOD_CONFIG.replace("max_sequences = 8", f"max_sequences = {max_sequences}")
        text += f"out_dir = {out}\n" + (f"paths = {cfg_paths}\n" if cfg_paths else "")
        argv = ["trajectories", write_config(tmp_path, text)]
        rc = main(argv + (["--paths", str(flag_paths)] if flag_paths else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {names}: ") and "do not fit in memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_bad_path_count_names_option(self, tmp_path, capsys, paths):
        cfg = GOOD_CONFIG + f"out_dir = {tmp_path / 'tr'}\n"
        rc = main(["trajectories", write_config(tmp_path, cfg), "--paths", paths])
        assert rc == 2
        assert capsys.readouterr().err == "error: --paths: n_trials must be at least 1\n"
        assert not (tmp_path / "tr").exists()


class TestRngLayout:
    """Every manifest records the random-number layout, and a config may
    name only the layout this version draws with."""

    def test_every_manifest_records_the_layout(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG + f"out_dir = {tmp_path / 'sim'}\n")
        assert main(["simulate", cfg]) == 0
        assert main(["table", "T2", "--trials", "20", "--out-dir", str(tmp_path / "tab")]) in (0, 1)
        assert main(["boundary", "M1", "--tau", "0.8", "--resolution", "12",
                     "--out-dir", str(tmp_path / "bdy")]) == 0
        for out in ("sim", "tab", "bdy"):
            manifest = (tmp_path / out / "manifest.txt").read_text().splitlines()
            assert manifest[-1] == f"rng_layout = {RNG_LAYOUT}", out

    def test_recorded_layout_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG + f"rng_layout = {RNG_LAYOUT}\n"
                           f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", cfg]) == 0

    def test_other_layout_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GOOD_CONFIG + "rng_layout = seedsequence-per-trial\n"
                           f"out_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "rng_layout" in err and "seedsequence-per-trial" in err
        assert not (tmp_path / "out").exists()


class TestManifestReruns:
    """Each command's manifest records its own option and reruns that
    command byte for byte; a given flag overrides the recorded value."""

    COMMANDS = {
        "sweep": (["--tau-list", "0.7,0.8"], ["sweep.csv"]),
        "bounds": (["--s-range", "1:6"], ["bounds.csv"]),
        "trajectories": (["--paths", "5"], ["trajectory_mean.csv", "trajectory_paths.csv"]),
    }

    def run_twice(self, tmp_path, command, rerun_flags):
        flags, outputs = self.COMMANDS[command]
        out_dir = tmp_path / "out"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        assert main([command, write_config(tmp_path, cfg), *flags]) == 0
        first = {name: read_bytes(out_dir / name) for name in outputs + ["manifest.txt"]}
        assert main([command, str(out_dir / "manifest.txt"), *rerun_flags]) == 0
        return first, {name: read_bytes(out_dir / name) for name in first}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_reruns_byte_identical(self, tmp_path, command):
        first, second = self.run_twice(tmp_path, command, [])
        assert first == second

    @pytest.mark.parametrize("command, flags, key, value", [
        ("sweep", ["--tau-list", "0.9"], "tau_list", "0.9"),
        ("bounds", ["--s-range", "2,3"], "s_range", "2,3"),
        ("trajectories", ["--paths", "2"], "paths", "2"),
    ])
    def test_flag_overrides_manifest(self, tmp_path, command, flags, key, value):
        first, second = self.run_twice(tmp_path, command, flags)
        assert first != second
        assert f"{key} = {value}\n" in second["manifest.txt"].decode()

    @pytest.mark.parametrize("command, flag", [("sweep", "--tau-list"),
                                               ("bounds", "--s-range")])
    def test_missing_option_names_flag(self, tmp_path, capsys, command, flag):
        cfg = GOOD_CONFIG + f"out_dir = {tmp_path / 'out'}\n"
        assert main([command, write_config(tmp_path, cfg)]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_other_command_rejects_recorded_option(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = GOOD_CONFIG + f"out_dir = {out_dir}\n"
        assert main(["sweep", write_config(tmp_path, cfg), "--tau-list", "0.7"]) == 0
        assert main(["simulate", str(out_dir / "manifest.txt")]) == 2
        assert "unknown key 'tau_list'" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process; what one call gives must
    not become a default of the next."""

    SEQUENCE = [
        ["letters", "--acc", "0.9", "--eseq", "15.44", "--total", "7", "--literal-pseudocode"],
        ["letters", "--acc", "0.9", "--eseq", "15.44"],
        ["table", "T3", "--trials", "9", "--seed", "4", "--out-dir", "x"],
        ["table", "T2"],
        ["boundary", "MP", "--tau", "0.7", "--resolution", "12", "--out-dir", "y"],
        ["boundary", "M1", "--tau", "0.8"],
        ["sweep", "a.cfg", "--tau-list", "0.7"],
        ["sweep", "b.cfg"],
        ["bounds", "c.cfg", "--s-range", "1:3"],
        ["bounds", "c.cfg"],
        ["trajectories", "d.cfg", "--paths", "3"],
        ["trajectories", "d.cfg"],
        ["simulate", "e.cfg"],
        ["letters", "--acc", "0.8", "--eseq", "3"],
    ]

    def test_parses_equal_a_fresh_parser(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        for argv in self.SEQUENCE:
            fresh = cli._build_parser.__wrapped__().parse_args(argv)
            assert vars(parser.parse_args(argv)) == vars(fresh), argv

    def test_successive_calls_keep_their_own_options(self, tmp_path, capsys):
        def boundary_rows(argv):
            assert main(argv) == 0
            with open(tmp_path / "boundary_M1.csv", encoding="utf-8") as fh:
                return fh.read()

        assert main(["letters", "--acc", "0.9", "--eseq", "15.44", "--total", "7",
                     "--literal-pseudocode"]) == 0
        assert main(["letters", "--acc", "0.9", "--eseq", "15.44"]) == 0
        given, default = capsys.readouterr().out.split()
        assert given == format(letters_projection(0.9, 15.44, total_letters=7, literal=True),
                               ".10g")
        assert default == format(letters_projection(0.9, 15.44), ".10g")
        out = ["--out-dir", str(tmp_path)]
        coarse = boundary_rows(["boundary", "M1", "--tau", "0.8", "--resolution", "12", *out])
        full = boundary_rows(["boundary", "M1", "--tau", "0.8", *out])
        assert full != coarse
        assert boundary_rows(["boundary", "M1", "--tau", "0.8", "--resolution", "200",
                              *out]) == full
