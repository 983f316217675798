"""CLI surface: subcommand dispatch, exit codes, and the train/eval/bench
pipelines driven exactly as a user would drive them."""

import numpy as np
import pytest

from vminet.bench import read_bench_csv
from vminet.cli import cli_main
from vminet.training import load_checkpoint


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main(["explode"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--threads", "4"])
    assert exc.value.code == 2


def test_help_documents_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in ("train", "eval", "bench", "verify"):
        assert word in out


def test_verify_is_deterministic_and_exits_zero(capsys):
    assert cli_main(["verify", "--seed", "1", "--trials", "16"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify", "--seed", "1", "--trials", "16"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("[PASS]") == 8 and "[FAIL]" not in first


def test_bench_writes_csv_with_contract_header(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--kernel", "vmi_sa_matrix", "--lengths", "8,16,32",
        "--dim", "8", "--reps", "5", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == "kernel,L,D,median_s,iqr_s"
    rows = read_bench_csv(out)
    assert [r["L"] for r in rows] == [8, 16, 32]
    assert all(r["kernel"] == "vmi_sa_matrix" and r["D"] == 8 for r in rows)
    printed = capsys.readouterr().out
    assert "log-log slope:" in printed and f"wrote {out}" in printed


def test_bench_rejects_unknown_kernel():
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "--kernel", "fft_attention", "--lengths", "8,16"])
    assert exc.value.code == 2


def test_bench_bad_reps_exits_two(capsys):
    code = cli_main(["bench", "--kernel", "vmi_sa_matrix", "--lengths", "8,16",
                     "--reps", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_train_then_eval_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "data_path = synthetic:n=16,classes=2,seed=3\n"
        "val_data_path = synthetic:n=16,classes=2,seed=4\n"
        f"output_dir = {run_dir}\n"
        "num_classes = 2\n"
        "epochs = 2\n"
        "batch_size = 8\n"
        "warmup_iters = 2\n"
        "lr_base = 0.001\n"
        "seed = 0\n"
    )
    assert cli_main(["train", "--config", str(cfg)]) == 0
    train_out = capsys.readouterr().out
    assert "finished epoch 2" in train_out
    final_val = float(train_out.split("val_acc=")[1].split()[0])

    ckpt = run_dir / "model.vmin"
    assert ckpt.exists()
    code = cli_main(["eval", "--checkpoint", str(ckpt),
                     "--data", "synthetic:n=16,classes=2,seed=4"])
    assert code == 0
    eval_out = capsys.readouterr().out
    acc = float(eval_out.split("accuracy=")[1].strip())
    assert acc == pytest.approx(final_val, abs=1e-4)  # val_acc printed at 4 decimals
    assert "samples=16" in eval_out and "epoch=2" in eval_out


def test_eval_missing_checkpoint_exits_one(tmp_path, capsys):
    code = cli_main(["eval", "--checkpoint", str(tmp_path / "nope.vmin"),
                     "--data", "synthetic:n=8,classes=2,seed=1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.vmin"
    bad.write_bytes(b"not a checkpoint at all")
    code = cli_main(["eval", "--checkpoint", str(bad),
                     "--data", "synthetic:n=8,classes=2,seed=1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data_path = x\noutput_dir = y\nepochs = soon\n")
    assert cli_main(["train", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def two_class_checkpoint(tmp_path, **meta):
    from vminet.backbone import build_vminet, variant_config
    from vminet.checkpoint import load_tensors, save_tensors
    from vminet.training import save_checkpoint

    path = tmp_path / "two.vmin"
    save_checkpoint(path, build_vminet(variant_config("micro", num_classes=2), seed=0))
    blob = load_tensors(path)
    blob.update({f"meta.{k}": np.asarray(float(v)) for k, v in meta.items()})
    save_tensors(path, blob)
    return str(path)


def test_eval_bad_batch_size_exits_two(tmp_path, capsys):
    code = cli_main(["eval", "--checkpoint", two_class_checkpoint(tmp_path),
                     "--data", "synthetic:n=8,classes=2,seed=1", "--batch-size", "0"])
    assert code == 2
    assert "error: batch_size must be >= 1" in capsys.readouterr().err


def test_eval_labels_beyond_the_head_exit_two(tmp_path, capsys):
    code = cli_main(["eval", "--checkpoint", two_class_checkpoint(tmp_path),
                     "--data", "synthetic:n=20,classes=10,seed=3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: dataset has labels up to 9 but num_classes=2" in captured.err
    assert "accuracy" not in captured.out


def test_eval_checkpoint_with_invalid_config_exits_one(tmp_path, capsys):
    code = cli_main(["eval", "--checkpoint", two_class_checkpoint(tmp_path, base_width=0),
                     "--data", "synthetic:n=8,classes=2,seed=1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
