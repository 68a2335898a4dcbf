import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rpens
from rpens import datagen as dg
from rpens.cli import main

from conftest import DAMAGED_MODELS, single_character_edits


def _read(path):
    return path.read_text(encoding="utf-8")


def _data_rows(path):
    lines = [l for l in _read(path).splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def _without_labels(labelled, path):
    """Copy of a labelled CSV with its label column dropped."""
    lines = labelled.read_text(encoding="utf-8").splitlines(True)
    path.write_text(
        "".join(line if line.startswith("#") else line.partition(",")[2] for line in lines),
        encoding="utf-8",
    )
    return path


def test_start_up_imports_neither_scipy_stats_nor_spatial():
    # The library never needs scipy.stats, and needs scipy.spatial only once kNN runs.
    env = dict(os.environ)
    src = str(Path(rpens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, rpens.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.spatial'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


SIM_ARGS = [
    "simulate", "--model", "1", "--n", "24", "--p", "4", "--d", "2",
    "--B1", "4", "--B2", "2", "--reps", "2", "--n-test", "50", "--seed", "7",
]


class TestSimulate:
    def test_summary_line_and_exit(self, capsys):
        assert main(SIM_ARGS[:-4] + ["--reps", "1", "--n-test", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"^rp: (\d+\.\d\d)_\{(\d+\.\d\d)\} \(reps=1\)$", out, re.M)
        assert m, out
        assert m.group(2) == "0.00"  # single repetition has no spread

    def test_output_file_reruns_byte_identical(self, tmp_path, capsys):
        f1, f2, f3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(SIM_ARGS + ["--out", str(f1)]) == 0
        assert main(SIM_ARGS + ["--out", str(f2)]) == 0
        assert main(SIM_ARGS + ["--threads", "3", "--out", str(f3)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_bytes() == f3.read_bytes()

    def test_audit_header_and_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        assert main(SIM_ARGS + ["--comparator", "knn", "--out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        assert re.search(r"^knn: ", stdout, re.M)
        text = _read(out_csv)
        head = text.splitlines()
        assert head[0].startswith("# rpens ")
        assert head[1] == "# command: simulate"
        assert "# master_seed: 7" in head
        assert any(l.startswith("# summary: method=rp mean100=") for l in head)
        cols, rows = _data_rows(out_csv)
        assert cols == ["method", "rep", "error"]
        assert len(rows) == 4  # 2 methods x 2 reps
        for _, _, err in rows:
            assert 0.0 <= float(err) <= 1.0

    def test_comparator_summary_present(self, capsys):
        assert main(SIM_ARGS + ["--comparator", "constant"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^constant: \d+\.\d\d_", out, re.M)


class TestFitPredict:
    def test_one_nn_round_trip_reproduces_labels(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        pred_path = tmp_path / "pred.csv"
        # 1-nn votes for a training point are its own label, so predicting
        # the training file back must be error-free
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--base", "knn", "--knn-k", "1",
            "--B1", "6", "--B2", "2", "--seed", "3",
        ]) == 0
        fit_out = capsys.readouterr().out
        assert "fitted B1=6 B2=2 d=2 base=knn" in fit_out
        assert "alpha_hat = " in fit_out
        assert main([
            "predict", "--model-in", str(model_path),
            "--data", str(synthetic_csv), "--out", str(pred_path),
        ]) == 0
        pred_out = capsys.readouterr().out
        assert "error against file labels: 0.0000" in pred_out
        cols, rows = _data_rows(pred_path)
        assert cols == ["row", "prediction", "vote_fraction"]
        truth = dg.load_labelled_csv(str(synthetic_csv))
        assert len(rows) == truth.y.shape[0]
        for row, y in zip(rows, truth.y):
            assert int(row[1]) == int(y)
            assert re.fullmatch(r"\d+/6", row[2])

    def test_predict_on_unlabelled_csv(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "6", "--B2", "2", "--seed", "3",
        ]) == 0
        unlabelled = _without_labels(synthetic_csv, tmp_path / "x.csv")
        outputs = {}
        for name, data in (("labelled", synthetic_csv), ("unlabelled", unlabelled)):
            pred_path = tmp_path / f"{name}.csv"
            capsys.readouterr()
            assert main([
                "predict", "--model-in", str(model_path),
                "--data", str(data), "--out", str(pred_path),
            ]) == 0
            outputs[name] = capsys.readouterr().out, _data_rows(pred_path)
        assert "error against file labels" in outputs["labelled"][0]
        assert "error against file labels" not in outputs["unlabelled"][0]
        assert "wrote 60 predictions" in outputs["unlabelled"][0]
        assert outputs["unlabelled"][1] == outputs["labelled"][1]

    def test_config_file_merge_with_flag_override(self, tmp_path, synthetic_csv, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            "# ensemble settings\n\nd = 2\nB1 = 4\nB2 = 3\nseed = 5\n",
            encoding="utf-8",
        )
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--config", str(cfg), "--B1", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "fitted B1=6 B2=3 d=2 base=lda" in out

    def test_byte_order_mark_is_ignored(self, tmp_path, synthetic_csv, capsys):
        # spreadsheet exports start a UTF-8 file with a byte-order mark
        text = "# exported\n" + synthetic_csv.read_text(encoding="utf-8")
        outputs = {}
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            data, cfg = tmp_path / f"{name}.csv", tmp_path / f"{name}.cfg"
            data.write_text(prefix + text, encoding="utf-8")
            cfg.write_text(prefix + "d = 2\nB1 = 6\nB2 = 2\nseed = 3\n", encoding="utf-8")
            model, pred = tmp_path / f"{name}.json", tmp_path / f"{name}-pred.csv"
            assert main([
                "fit", "--train", str(data), "--model-out", str(model), "--config", str(cfg),
            ]) == 0
            assert main([
                "predict", "--model-in", str(model), "--data", str(data), "--out", str(pred),
            ]) == 0
            outputs[name] = capsys.readouterr().out, _read(model), _data_rows(pred)
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf# exported")
        assert "fitted B1=6 B2=2 d=2" in outputs["bom"][0]
        assert "error against file labels" in outputs["bom"][0]
        assert outputs["bom"][1:] == outputs["plain"][1:]

    def test_curves_output(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        curves = tmp_path / "curves.csv"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "5", "--B2", "2", "--curves-out", str(curves),
        ]) == 0
        capsys.readouterr()
        cols, rows = _data_rows(curves)
        assert cols == ["threshold", "g1", "g2"]
        thresholds = [float(r[0]) for r in rows]
        g1 = [float(r[1]) for r in rows]
        assert thresholds[0] == 0.0
        assert thresholds == sorted(thresholds)
        assert g1 == sorted(g1)  # empirical CDF values along ascending cutoffs

    def test_unknown_config_key_is_usage_error(self, tmp_path, synthetic_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d = 2\nblocks = 9\n", encoding="utf-8")
        code = main([
            "fit", "--train", str(synthetic_csv), "--model-out",
            str(tmp_path / "m.json"), "--config", str(cfg),
        ])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_not_utf8_is_3(self, tmp_path, synthetic_csv, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# r\xe9glages\nd = 2\n".encode("latin-1"))
        code = main([
            "fit", "--train", str(synthetic_csv), "--model-out",
            str(tmp_path / "m.json"), "--config", str(cfg),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data error: {cfg}: 'utf-8' codec")
        assert not (tmp_path / "m.json").exists()

    def test_missing_d_is_usage_error(self, tmp_path, synthetic_csv, capsys):
        code = main([
            "fit", "--train", str(synthetic_csv),
            "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "projected dimension required" in capsys.readouterr().err


_FUZZ_CONFIG = (
    "# fuzzed fit settings\n"
    "d = 2\n"
    "base = lda\n"
    "B1 = 4\n"
    "B2 = 3\n"
    "alpha = 0.5\n"
    "seed = 5\n"
    "projection = haar\n"
    "threads = 2\n"
)


def test_single_character_edits_of_a_config_fit_or_exit_2_or_3(tmp_path, capsys):
    drawn = dg.sample(dg.ModelSpec(model_id=1, p=4, mean_shift=2.0), 30, np.random.default_rng(8))
    train = tmp_path / "train.csv"
    train.write_text(
        "label,x1,x2,x3,x4\n"
        + "".join(f"{label},{','.join(map(repr, row))}\n"
                  for label, row in zip(drawn.y.tolist(), drawn.X.tolist())),
        encoding="utf-8",
    )
    cfg, model = tmp_path / "fit.cfg", tmp_path / "model.json"
    argv = ["fit", "--train", str(train), "--model-out", str(model), "--config", str(cfg)]
    cfg.write_text(_FUZZ_CONFIG, encoding="utf-8")
    assert main(argv) == 0
    variants = sorted(set(single_character_edits(_FUZZ_CONFIG)))
    assert len(variants) > 600
    codes = set()
    for text in variants:
        cfg.write_text(text, encoding="utf-8", newline="")
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3), repr(text)
        codes.add(code)
    assert codes == {0, 2, 3}


class TestExitCodes:
    def test_bogus_flag_is_2(self, capsys):
        assert main(SIM_ARGS + ["--bogus"]) == 2
        capsys.readouterr()

    def test_invalid_prior_is_2(self, capsys):
        assert main([
            "simulate", "--model", "1", "--n", "20", "--p", "4", "--d", "2",
            "--pi1", "1.5",
        ]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand_is_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_train_file_is_3(self, tmp_path, capsys):
        code = main([
            "fit", "--train", str(tmp_path / "absent.csv"),
            "--model-out", str(tmp_path / "m.json"), "--d", "2",
        ])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_threshold_denominator_past_int64_predicts(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "6", "--B2", "2", "--seed", "3",
        ]) == 0
        obj = json.loads(_read(model_path))
        num, den = 3 * 10**29 + 1, 10**30  # coprime, so the file keeps den
        obj["alpha_hat"] = {"num": num, "den": den}
        model_path.write_text(json.dumps(obj), encoding="ascii")
        pred_path = tmp_path / "pred.csv"
        assert main([
            "predict", "--model-in", str(model_path),
            "--data", str(synthetic_csv), "--out", str(pred_path),
        ]) == 0
        capsys.readouterr()
        _, rows = _data_rows(pred_path)
        for _, label, fraction in rows:
            votes = int(fraction.split("/")[0])
            assert int(label) == (1 if votes * den >= num * 6 else 2)

    def test_missing_model_file_is_3(self, tmp_path, synthetic_csv, capsys):
        code = main([
            "predict", "--model-in", str(tmp_path / "absent.json"),
            "--data", str(synthetic_csv), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("case", sorted(DAMAGED_MODELS) + ["directory"])
    def test_damaged_model_file_is_3(self, tmp_path, synthetic_csv, capsys, case):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "4", "--B2", "2",
        ]) == 0
        capsys.readouterr()
        if case == "directory":
            model_path = tmp_path
        else:
            model_path.write_bytes(DAMAGED_MODELS[case](model_path.read_text(encoding="ascii")))
        out = tmp_path / "p.csv"
        code = main([
            "predict", "--model-in", str(model_path), "--data", str(synthetic_csv),
            "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        "# caf\xe9\nlabel,x\n1,0.5\n2,1.5\n".encode("latin-1"),
        b"label,x\n1," + b"1" * 200_000 + b"x\n2,1.5\n",
    ], ids=["not_utf8", "cell_over_csv_field_limit"])
    def test_unreadable_training_file_is_3(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        code = main([
            "fit", "--train", str(bad), "--model-out", str(tmp_path / "m.json"), "--d", "1",
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data error: {bad}")

    def test_read_failure_mid_file_is_3(self, tmp_path, synthetic_csv, capsys, monkeypatch):
        class FailsAfterHeader(io.StringIO):
            """A handle whose reads fail once the header line is out."""

            def __next__(self):
                if self.tell():
                    raise OSError(errno.EIO, "Input/output error")
                return super().__next__()

            def read(self, size=-1):
                raise OSError(errno.EIO, "Input/output error")

        text = synthetic_csv.read_text(encoding="utf-8")
        monkeypatch.setattr(dg, "open", lambda *a, **k: FailsAfterHeader(text), raising=False)
        model_path = tmp_path / "m.json"
        code = main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path), "--d", "2",
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: [Errno 5] Input/output error")
        assert not model_path.exists()

    @pytest.mark.parametrize("base", ["knn", "lda", "qda"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_training_cell_is_3(self, tmp_path, synthetic_csv, capsys, base, cell):
        lines = synthetic_csv.read_text(encoding="utf-8").splitlines()
        row = lines[5].split(",")
        row[2] = cell
        lines[5] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code = main([
            "fit", "--train", str(bad), "--model-out", str(model_path),
            "--base", base, "--d", "2", "--B1", "3", "--B2", "3",
        ])
        assert code == 3
        assert "non-finite value" in capsys.readouterr().err
        assert not model_path.exists()

    def test_dimension_mismatch_is_3(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "4", "--B2", "2",
        ]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text(
            "label,x1,x2\n1,0.0,0.1\n2,1.0,0.9\n", encoding="utf-8"
        )
        code = main([
            "predict", "--model-in", str(model_path),
            "--data", str(narrow), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_unlabelled_feature_count_mismatch_is_3(self, tmp_path, synthetic_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--train", str(synthetic_csv), "--model-out", str(model_path),
            "--d", "2", "--B1", "4", "--B2", "2",
        ]) == 0
        capsys.readouterr()
        # a header whose first column is not exactly 'label' makes the label
        # column a seventh feature
        relabelled = tmp_path / "relabelled.csv"
        relabelled.write_text(
            synthetic_csv.read_text(encoding="utf-8").replace("label,", "Label,", 1),
            encoding="utf-8",
        )
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("x1,x2\n0.0,0.1\n", encoding="utf-8")
        for data in (relabelled, narrow):
            code = main([
                "predict", "--model-in", str(model_path),
                "--data", str(data), "--out", str(tmp_path / "p.csv"),
            ])
            assert code == 3
            assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "select-d"])
    def test_unlabelled_training_file_is_3(self, tmp_path, synthetic_csv, capsys, command):
        unlabelled = _without_labels(synthetic_csv, tmp_path / "x.csv")
        args = {
            "fit": ["fit", "--train", str(unlabelled), "--model-out", str(tmp_path / "m.json"),
                    "--d", "2", "--B1", "3", "--B2", "3"],
            "select-d": ["select-d", "--train", str(unlabelled), "--candidates", "2,3"],
        }[command]
        assert main(args) == 3
        assert "first header column must be 'label'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["fit_config", "fit_model_out", "select_d_out"])
    def test_directory_path_is_3(self, tmp_path, synthetic_csv, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        model_out = tmp_path / "m.json"
        args = {
            "fit_config": ["fit", "--train", str(synthetic_csv), "--model-out", str(model_out),
                           "--d", "2", "--config", str(folder)],
            "fit_model_out": ["fit", "--train", str(synthetic_csv), "--model-out", str(folder),
                              "--d", "2", "--B1", "3", "--B2", "2"],
            "select_d_out": ["select-d", "--train", str(synthetic_csv), "--candidates", "1,2",
                             "--B1", "2", "--B2", "2", "--out", str(folder)],
        }[case]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(tmp_path.iterdir()) == [folder]
        assert list(folder.iterdir()) == []

    def test_degenerate_training_data_is_4(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = ["label,x1,x2"]
        rows += ["1,0.0,0.0"] * 5 + ["2,1.0,1.0"] * 5
        flat.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "fit", "--train", str(flat), "--model-out", str(tmp_path / "m.json"),
            "--d", "1", "--B1", "2", "--B2", "2",
        ])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_diagnose_without_alpha_is_2(self, capsys):
        code = main([
            "diagnose", "--check", "theorem2", "--model", "1", "--n", "20",
            "--p", "4", "--d", "2",
        ])
        assert code == 2
        assert "fixed --alpha" in capsys.readouterr().err

    def test_version_is_0(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("rpens ")


class TestSelectD:
    def test_generative_route_with_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "profile.csv"
        assert main([
            "select-d", "--model", "1", "--n", "40", "--p", "5",
            "--candidates", "2,3", "--B1", "4", "--B2", "2",
            "--seed", "11", "--out", str(out_csv),
        ]) == 0
        stdout = capsys.readouterr().out
        m = re.search(r"^selected d = (\d)$", stdout, re.M)
        assert m and int(m.group(1)) in (2, 3)
        cols, rows = _data_rows(out_csv)
        assert cols == ["d", "block", "winner_error_count"]
        assert len(rows) == 8  # 2 candidates x B1 blocks
        assert {r[0] for r in rows} == {"2", "3"}

    def test_requires_exactly_one_source(self, tmp_path, synthetic_csv, capsys):
        assert main(["select-d", "--candidates", "2"]) == 2
        assert main([
            "select-d", "--candidates", "2", "--train", str(synthetic_csv),
            "--model", "1", "--n", "20",
        ]) == 2
        capsys.readouterr()

    def test_csv_route(self, synthetic_csv, capsys):
        assert main([
            "select-d", "--train", str(synthetic_csv),
            "--candidates", "1,2", "--B1", "3", "--B2", "2",
        ]) == 0
        assert "selected d =" in capsys.readouterr().out

    def test_threads_flag_is_ignored(self, tmp_path, capsys):
        args = [
            "select-d", "--model", "1", "--n", "30", "--p", "5", "--base", "knn",
            "--candidates", "1,3", "--B1", "4", "--B2", "2", "--seed", "5",
        ]
        plain, four = tmp_path / "plain.csv", tmp_path / "four.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--threads", "4", "--out", str(four)]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == four.read_bytes()

    def test_sample_split_mean_uses_held_out_count(self, tmp_path, capsys):
        n = 41  # odd: the held-out half has n - n // 2 = 21 points, not 20
        out_csv = tmp_path / "profile.csv"
        assert main([
            "select-d", "--model", "2", "--n", str(n), "--p", "5", "--base", "lda",
            "--estimator", "sample_split", "--candidates", "1,2,4",
            "--B1", "5", "--B2", "2", "--seed", "3", "--out", str(out_csv),
        ]) == 0
        printed = dict(re.findall(r"^  d=(\d+): mean winner estimate (\S+)$",
                                  capsys.readouterr().out, re.M))
        _, rows = _data_rows(out_csv)
        assert sorted(printed) == sorted({r[0] for r in rows})
        for d, text in printed.items():
            counts = [int(r[2]) for r in rows if r[0] == d]
            assert text == f"{np.mean(counts) / (n - n // 2):.4f}"


class TestDiagnoseAndBayes:
    def test_bayes_risk_output(self, capsys):
        assert main([
            "bayes-risk", "--model", "1", "--p", "5", "--mc-n", "20000",
            "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        m = re.search(r"bayes_risk = (0\.\d{6}) \(se (0\.\d{6})\)", out)
        assert m
        assert 0.0 < float(m.group(1)) < 0.5

    def test_theorem2_diagnose(self, capsys):
        assert main([
            "diagnose", "--check", "theorem2", "--model", "1", "--n", "24",
            "--p", "4", "--d", "2", "--B2", "2", "--alpha", "0.3",
            "--winners", "20", "--mc-n", "500", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "holds: True" in out

    def test_theorem1_diagnose_with_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "t1.csv"
        assert main([
            "diagnose", "--check", "theorem1", "--model", "1", "--n", "24",
            "--p", "4", "--d", "2", "--B2", "2", "--alpha", "0.4",
            "--grid", "2,4,8,16", "--mc-test", "200", "--ensembles", "3",
            "--seed", "5", "--out", str(out_csv),
        ]) == 0
        out = capsys.readouterr().out
        assert "proxy error (B1=64):" in out
        assert ("log-log slope:" in out) or ("insufficient signal" in out)
        cols, rows = _data_rows(out_csv)
        assert cols == ["B1", "mean_error", "gap", "gap_se"]
        assert [r[0] for r in rows] == ["2", "4", "8", "16"]
