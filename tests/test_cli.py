import json
from dataclasses import replace

import numpy as np
import pytest

import tmest as tm
from tmest.cli import main
from tmest.noise import NoiseScheme, build_transition, inject_noise

from conftest import two_blob_dataset


@pytest.fixture
def noisy_csv(tmp_path):
    data = two_blob_dataset(0, n=1200, sep=2.5)
    t = build_transition(NoiseScheme("binary", e1=0.3, e2=0.3), 2)
    noisy = inject_noise(data, t, seed=0)
    path = tmp_path / "noisy.csv"
    tm.save_dataset(noisy, str(path))
    t_path = tmp_path / "true_t.json"
    tm.save_json(t, str(t_path))
    return str(path), str(t_path), t


def test_estimate_command(noisy_csv, tmp_path, capsys):
    csv_path, t_path, t = noisy_csv
    out = tmp_path / "report.json"
    rc = main(["estimate", "--input", csv_path, "--variant", "plain-hoc",
               "--true-t", t_path, "--output", str(out), "--seed", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] is not None and payload["error"] < 0.05
    on_disk = json.loads(out.read_text())
    assert on_disk["estimated_t"]["t"] == payload["estimated_t"]["t"]
    est = np.array(payload["estimated_t"]["t"])
    np.testing.assert_allclose(est.sum(axis=1), [1.0, 1.0], atol=1e-8)


def test_estimate_stdout_matches_output(noisy_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["estimate", "--input", noisy_csv[0], "--variant", "a-tv",
               "--output", str(out)])
    assert rc == 0
    printed, saved = json.loads(capsys.readouterr().out), json.loads(out.read_text())
    assert printed["consensus"] is None and saved["consensus"]["n"] > 0  # c3: file only
    assert printed == {**saved, "consensus": None}


def test_estimate_defaults_match_config(noisy_csv, monkeypatch):
    seen = []

    def fake_estimate(data, config, true_t=None):
        seen.append(config)
        raise SystemExit(0)

    monkeypatch.setattr("tmest.cli.estimate", fake_estimate)
    with pytest.raises(SystemExit):
        main(["estimate", "--input", noisy_csv[0]])
    assert seen == [tm.EstimatorConfig()]


def test_mi_command(noisy_csv, capsys):
    csv_path, _, _ = noisy_csv
    rc = main(["mi", "--input", csv_path, "--divergence", "kl"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dim,mi,weight"
    assert len(lines) == 5  # four feature columns
    weights = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(weights) == 1.0
    assert min(weights) > 0.0


def test_bound_command(capsys):
    rc = main(["bound", "--e1", "0.25", "--e2", "0.25"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(0.31128, abs=5e-5)
    assert 0.0 < payload["practical_gap"] < payload["epsilon"]
    assert payload["beta_range"] == pytest.approx([1 / 6, 5 / 6])


def test_inject_noise_command(tmp_path, capsys):
    clean = two_blob_dataset(3, n=500)
    src = tmp_path / "clean.csv"
    tm.save_dataset(clean, str(src))
    out = tmp_path / "noisy.csv"
    rc = main(["inject-noise", "--input", str(src), "--output", str(out),
               "--scheme", "asymmetric", "--e1", "0.3", "--e2", "0.1",
               "--seed", "5"])
    assert rc == 0
    noisy = tm.load_dataset(str(out))
    t = tm.TransitionMatrix.load(str(out) + ".true_t.json")
    np.testing.assert_allclose(t.t, [[0.7, 0.3], [0.1, 0.9]], atol=1e-12)
    flips = (noisy.noisy_labels != noisy.clean_labels).mean()
    assert 0.05 < flips < 0.35


def test_inject_noise_symmetric_without_clean_column(tmp_path, capsys):
    # the noisy column is taken as the clean labels, and --e1 sets both rates
    data = two_blob_dataset(5, n=400)
    src = tmp_path / "labels.csv"
    tm.save_dataset(replace(data, clean_labels=None), str(src))
    out = tmp_path / "relabelled.csv"
    rc = main(["inject-noise", "--input", str(src), "--output", str(out),
               "--scheme", "symmetric", "--e1", "0.2", "--seed", "1"])
    assert rc == 0
    t = tm.TransitionMatrix.load(str(out) + ".true_t.json")
    np.testing.assert_allclose(t.t, [[0.8, 0.2], [0.2, 0.8]], atol=1e-12)
    noisy = tm.load_dataset(str(out))
    np.testing.assert_array_equal(noisy.clean_labels, data.noisy_labels)
    assert 0.1 < (noisy.noisy_labels != noisy.clean_labels).mean() < 0.3


def test_inject_noise_dirichlet_command(tmp_path, capsys):
    rng = np.random.default_rng(4)
    clean_labels = rng.integers(0, 3, 400)
    data = tm.Dataset(rng.normal(size=(400, 2)), clean_labels, 3,
                      clean_labels=clean_labels)
    src = tmp_path / "clean3.csv"
    tm.save_dataset(data, str(src))
    out = tmp_path / "noisy3.csv"
    rc = main(["inject-noise", "--input", str(src), "--output", str(out),
               "--scheme", "dirichlet", "--r", "2.0", "--seed", "2"])
    assert rc == 0
    t = tm.TransitionMatrix.load(str(out) + ".true_t.json")
    assert t.k == 3
    for i in range(3):
        assert t.t[i, i] > np.delete(t.t[i], i).max()


def test_eval_command(noisy_csv, tmp_path, capsys):
    _, t_path, t = noisy_csv
    est = tm.TransitionMatrix(2, [[0.5, 0.5], [0.5, 0.5]])
    est_path = tmp_path / "est.json"
    tm.save_json(est, str(est_path))
    rc = main(["eval", "--estimated", str(est_path), "--true", t_path])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.2, abs=1e-12)


def test_eval_command_accepts_report(noisy_csv, tmp_path, capsys):
    csv_path, t_path, _ = noisy_csv
    report_path = tmp_path / "rep.json"
    main(["estimate", "--input", csv_path, "--output", str(report_path)])
    capsys.readouterr()
    rc = main(["eval", "--estimated", str(report_path), "--true", t_path])
    assert rc == 0
    assert 0.0 <= float(capsys.readouterr().out.strip()) <= 1.0


def test_every_matrix_flag_accepts_a_report(noisy_csv, tmp_path, capsys):
    csv_path, t_path, _ = noisy_csv
    report_path = tmp_path / "rep.json"
    main(["estimate", "--input", csv_path, "--output", str(report_path)])
    capsys.readouterr()
    assert main(["eval", "--estimated", t_path, "--true", str(report_path)]) == 0
    error = float(capsys.readouterr().out.strip())
    # the same input and seed reproduce the report, so its own matrix is exact
    main(["estimate", "--input", csv_path, "--true-t", str(report_path)])
    assert json.loads(capsys.readouterr().out)["error"] == 0.0
    main(["eval", "--estimated", str(report_path), "--true", t_path])
    assert float(capsys.readouterr().out.strip()) == error
    test_path = tmp_path / "test.csv"
    tm.save_dataset(two_blob_dataset(9, n=200, sep=2.5), str(test_path))
    assert main(["train", "--train", csv_path, "--test", str(test_path), "--mode",
                 "forward", "--t", str(report_path), "--epochs", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "forward"


def test_train_command(noisy_csv, tmp_path, capsys):
    csv_path, t_path, _ = noisy_csv
    test_data = two_blob_dataset(9, n=600, sep=2.5)
    test_path = tmp_path / "test.csv"
    tm.save_dataset(test_data, str(test_path))
    rc = main(["train", "--train", csv_path, "--test", str(test_path),
               "--mode", "forward", "--t", t_path, "--epochs", "50"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "forward"
    assert payload["best"] >= payload["last"] - 1e-12
    assert payload["best"] > 0.9


def test_train_forward_requires_t(noisy_csv, tmp_path, capsys):
    csv_path, _, _ = noisy_csv
    test_data = two_blob_dataset(10, n=100)
    test_path = tmp_path / "t.csv"
    tm.save_dataset(test_data, str(test_path))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--train", csv_path, "--test", str(test_path),
              "--mode", "forward"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("tmest train: error: forward mode requires --t")


def test_train_rejects_matrix_of_other_size(noisy_csv, tmp_path, capsys):
    csv_path = noisy_csv[0]
    t_path = str(tmp_path / "t3.json")
    tm.save_json(tm.TransitionMatrix(3, np.eye(3)), t_path)
    err = _error_of(capsys, ["train", "--train", csv_path, "--test", csv_path,
                             "--mode", "forward", "--t", t_path, "--epochs", "5"])
    assert err.startswith("tmest train: error: transition matrix has K=3, "
                          "but the data have K=2")


def test_estimate_rejects_bad_tolerance(noisy_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", noisy_csv[0], "--tolerance", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "tmest estimate: error: tolerance must be finite and > 0" in err
    assert "Traceback" not in err


def test_estimate_has_no_restarts_flag(noisy_csv):
    with pytest.raises(SystemExit):
        main(["estimate", "--input", noisy_csv[0], "--restarts", "3"])


def _error_of(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_inject_noise_dirichlet_needs_rate(noisy_csv, tmp_path, capsys):
    err = _error_of(capsys, ["inject-noise", "--input", noisy_csv[0],
                             "--output", str(tmp_path / "o.csv"), "--scheme", "dirichlet"])
    assert "tmest inject-noise: error:" in err
    assert "--e" in err and "--r" in err


def test_inject_noise_rejects_both_rates(noisy_csv, tmp_path, capsys):
    # --r used to be ignored silently when --e was given
    err = _error_of(capsys, ["inject-noise", "--input", noisy_csv[0],
                             "--output", str(tmp_path / "o.csv"), "--scheme", "dirichlet",
                             "--e", "0.2", "--r", "0.5"])
    assert "argument --r: not allowed with argument --e" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["bound", "--e1", "nan", "--e2", "0.2"], "noise rate e1 must be finite, got nan"),
    (["bound", "--e1", "0.1", "--e2", "inf"], "noise rate e2 must be finite, got inf"),
], ids=["e1-nan", "e2-inf"])
def test_bound_rejects_non_finite_rates(capsys, argv, message):
    # was: "epsilon": NaN on stdout, which is not JSON, and exit status 0
    err = _error_of(capsys, argv)
    assert err.startswith(f"tmest bound: error: {message}")


@pytest.mark.parametrize("flags,message", [
    (["--scheme", "dirichlet", "--e", "nan"], "avg_rate must be finite, got nan"),
    (["--scheme", "dirichlet", "--r", "nan"], "need a finite r > 0 and K >= 2, got r=nan"),
    (["--scheme", "asymmetric", "--e1", "0.1", "--e2", "nan"], "e2 must be finite, got nan"),
    (["--scheme", "asymmetric", "--e", "0.3"], "--e and --r apply only to --scheme dirichlet"),
    (["--scheme", "symmetric", "--r", "0.5"], "--e and --r apply only to --scheme dirichlet"),
], ids=["e-nan", "r-nan", "e2-nan", "asymmetric-e", "symmetric-r"])
def test_inject_noise_rejects_non_finite_rates(noisy_csv, tmp_path, capsys, flags, message):
    out = tmp_path / "o.csv"
    err = _error_of(capsys, ["inject-noise", "--input", noisy_csv[0], "--output", str(out),
                             *flags])
    assert err.startswith(f"tmest inject-noise: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--scheme", "symmetric", "--e1", "0.1", "--e2", "0.4"],
     "--e2 applies only to --scheme asymmetric"),
    (["--scheme", "dirichlet", "--e", "0.2", "--e1", "0.4"],
     "--e1 and --e2 apply only to --scheme symmetric and asymmetric"),
    (["--scheme", "dirichlet", "--r", "2.0", "--e2", "0.1"],
     "--e1 and --e2 apply only to --scheme symmetric and asymmetric"),
], ids=["symmetric-e2", "dirichlet-e1", "dirichlet-e2"])
def test_inject_noise_rejects_rates_the_scheme_ignores(noisy_csv, tmp_path, capsys, flags,
                                                      message):
    # each of these rates used to be dropped silently, with exit status 0
    out = tmp_path / "o.csv"
    err = _error_of(capsys, ["inject-noise", "--input", noisy_csv[0], "--output", str(out),
                             *flags])
    assert err.startswith(f"tmest inject-noise: error: {message}")
    assert not out.exists()


def test_estimate_rejects_oversized_k(tmp_path, capsys):
    # one stray label of 5000 makes K = 5001, whose c3 would take 932 GiB
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 300)
    y[7] = 5000
    path = tmp_path / "big_k.csv"
    tm.save_dataset(tm.Dataset(rng.normal(size=(300, 4)), y, 5001), str(path))
    err = _error_of(capsys, ["estimate", "--input", str(path), "--variant", "plain-hoc"])
    assert err.startswith("tmest estimate: error: K = 5001 classes is more than the 128 supported")


def test_estimate_rejects_whitening_overflow(tmp_path, capsys):
    # the covariance of features near 1e160 overflows float64, which is an
    # input error (exit status 2), not a numpy traceback
    data = two_blob_dataset(0, n=200)
    path = tmp_path / "huge.csv"
    tm.save_dataset(replace(data, features=data.features * 1e160), str(path))
    err = _error_of(capsys, ["estimate", "--input", str(path), "--variant", "a-tv"])
    assert err.startswith("tmest estimate: error: the features' mean or covariance "
                          "overflows float64")


@pytest.mark.parametrize("flags,message", [
    (["--epochs", "0"], "epochs must be an integer >= 1, got 0"),
    (["--epochs", "-3"], "epochs must be an integer >= 1, got -3"),
    (["--step-size", "nan"], "step_size must be finite and > 0, got nan"),
], ids=["epochs-0", "epochs-negative", "step-nan"])
def test_train_rejects_bad_schedule(noisy_csv, capsys, flags, message):
    csv_path = noisy_csv[0]
    err = _error_of(capsys, ["train", "--train", csv_path, "--test", csv_path, *flags])
    assert err.startswith(f"tmest train: error: {message}")


def test_missing_input_file_is_reported(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    err = _error_of(capsys, ["estimate", "--input", missing])
    assert err.startswith("tmest estimate: error:")
    assert "absent.csv" in err


def test_non_utf8_input_is_reported(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"f0,noisy_label,caf\xe9\n0.1,0,a\n0.2,1,b\n0.3,0,c\n")
    err = _error_of(capsys, ["estimate", "--input", str(bad)])
    assert err.startswith(f"tmest estimate: error: {bad}: not UTF-8 text")


@pytest.mark.parametrize("text,args,message", [
    ("f0,noisy_label\n0.1,0\nnan,1\n0.3,0\n", [],
     "features must be finite, got nan at index [1, 0]"),
    ("f0,noisy_label\n0.1,0\n0.2,7\n0.3,1\n", ["--k", "2"],
     "noisy labels out of range [0, 2)"),
], ids=["nan-feature", "label-out-of-range"])
def test_dataset_contract_errors_name_the_file(tmp_path, capsys, text, args, message):
    bad = tmp_path / "contract.csv"
    bad.write_text(text)
    err = _error_of(capsys, ["estimate", "--input", str(bad), *args])
    assert err.startswith(f"tmest estimate: error: {bad}: {message}")


def test_eval_rejects_matrix_json_without_keys(noisy_csv, tmp_path, capsys):
    est_path = tmp_path / "est.json"
    est_path.write_text(json.dumps({"t": [[0.5, 0.5], [0.5, 0.5]]}))
    err = _error_of(capsys, ["eval", "--estimated", str(est_path), "--true", noisy_csv[1]])
    assert "tmest eval: error:" in err and "'k'" in err


@pytest.mark.parametrize("role", ["--estimated", "--true"])
@pytest.mark.parametrize("text", [
    "[1, 2]", "5", '{"k": "x", "t": 3}', '{"k": 2, "t": [[0.5, 0.5], [1.0]]}',
    '{"k": 2, "t": [[null, null], [null, null]]}', '{"estimated_t": 5}',
], ids=["list", "number", "k-not-int", "ragged-t", "null-entries", "report-of-number"])
def test_eval_rejects_malformed_matrix_json(noisy_csv, tmp_path, capsys, text, role):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = noisy_csv[1]
    est, true = (str(bad), good) if role == "--estimated" else (good, str(bad))
    err = _error_of(capsys, ["eval", "--estimated", est, "--true", true])
    assert err.startswith("tmest eval: error:")
    assert str(bad) in err


def test_eval_rejects_non_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all\n")
    err = _error_of(capsys, ["eval", "--estimated", str(bad), "--true", str(bad)])
    assert err.startswith("tmest eval: error:")
    assert "bad.json: not valid JSON" in err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
