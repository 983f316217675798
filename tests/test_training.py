"""Training harness: smoothed cross-entropy and cosine schedule against
hand-derived values, AdamW against a step-by-step oracle, config parsing,
checkpoint round trips, and the train loop's observable behavior."""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vminet.backbone import build_vminet, count_params, variant_config
from vminet.errors import ConfigError, FormatError, NumericsError
from vminet.tensor import Tensor, grad_check
from vminet.training import (
    METRICS_HEADER,
    OptState,
    TrainConfig,
    adamw_step,
    cosine_lr,
    cross_entropy_label_smoothing,
    evaluate,
    init_opt_state,
    load_checkpoint,
    model_config,
    parse_train_config,
    save_checkpoint,
    train,
)


# ---------------------------------------------------------------------------
# loss


def test_loss_uniform_logits_is_log_k():
    for k in (2, 5, 10):
        logits = np.zeros((3, k))
        loss = cross_entropy_label_smoothing(logits, np.zeros(3, dtype=int), eps=0.1)
        assert_allclose(loss.item(), math.log(k), rtol=1e-12)


def test_loss_confident_correct_logits_approach_smoothed_floor():
    # with eps = 0 a perfectly confident correct prediction drives loss to 0
    logits = np.array([[30.0, 0.0], [0.0, 30.0]])
    loss0 = cross_entropy_label_smoothing(logits, [0, 1], eps=0.0)
    assert loss0.item() < 1e-12
    # with smoothing the same logits pay for the eps/K mass on the wrong class
    loss = cross_entropy_label_smoothing(logits, [0, 1], eps=0.1)
    assert loss.item() > 1.0  # 0.05 * 30 units of wrongness


def test_loss_matches_hand_expansion():
    logits = np.array([[1.0, -2.0, 0.5]])
    target, eps = 1, 0.3
    p = np.exp(logits[0] - logits[0].max())
    p /= p.sum()
    q = np.full(3, eps / 3)
    q[target] += 1.0 - eps
    expected = -(q * np.log(p)).sum()
    got = cross_entropy_label_smoothing(logits, [target], eps=eps)
    assert_allclose(got.item(), expected, rtol=1e-12)


def test_loss_is_mean_over_batch():
    rng = np.random.default_rng(90)
    logits = rng.standard_normal((4, 5))
    targets = rng.integers(0, 5, size=4)
    whole = cross_entropy_label_smoothing(logits, targets, eps=0.2).item()
    singles = [
        cross_entropy_label_smoothing(logits[i : i + 1], targets[i : i + 1], eps=0.2).item()
        for i in range(4)
    ]
    assert_allclose(whole, np.mean(singles), rtol=1e-12)


def test_loss_gradient_passes_grad_check():
    rng = np.random.default_rng(91)
    logits = rng.standard_normal((3, 4))
    targets = np.array([0, 3, 1])
    report = grad_check(lambda t: cross_entropy_label_smoothing(t, targets, eps=0.1), [logits])
    assert report.passed, report.max_rel_error


def test_loss_contracts():
    logits = np.zeros((2, 3))
    with pytest.raises(ConfigError):
        cross_entropy_label_smoothing(logits, [0, 1], eps=1.0)
    with pytest.raises(ConfigError):
        cross_entropy_label_smoothing(np.zeros(3), [0], eps=0.1)
    with pytest.raises(ConfigError):
        cross_entropy_label_smoothing(logits, [0], eps=0.1)
    with pytest.raises(ConfigError):
        cross_entropy_label_smoothing(logits, [0, 3], eps=0.1)


# ---------------------------------------------------------------------------
# schedule


def test_cosine_lr_waypoints():
    lr, total, warm = 0.4, 100, 10
    assert cosine_lr(0, total, warm, lr) == 0.0
    assert_allclose(cosine_lr(5, total, warm, lr), lr * 0.5, rtol=1e-15)
    assert_allclose(cosine_lr(warm, total, warm, lr), lr, rtol=1e-15)
    assert_allclose(cosine_lr(warm + 45, total, warm, lr), lr * 0.5, rtol=1e-12)
    assert_allclose(cosine_lr(total, total, warm, lr), 0.0, atol=1e-17)


def test_cosine_lr_no_warmup_starts_at_base():
    assert_allclose(cosine_lr(0, 50, 0, 0.1), 0.1, rtol=1e-15)


def test_cosine_lr_monotone_after_warmup():
    values = [cosine_lr(s, 40, 8, 1.0) for s in range(8, 41)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_lr_contracts():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 0, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 0, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(0, 10, 11, 0.1)


# ---------------------------------------------------------------------------
# optimizer


def adamw_oracle(p0, grads_seq, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar reference walking the published update rule step by step."""
    p, m, v = p0, 0.0, 0.0
    for step, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**step)
        vhat = v / (1 - beta2**step)
        p = p - lr * wd * p
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
    return p


def one_param(value):
    p = Tensor(np.array([value]), requires_grad=True)
    params = [("w", p)]
    return p, params, init_opt_state(params)


def test_adamw_single_step_matches_oracle():
    p, params, state = one_param(1.0)
    adamw_step(params, {"w": np.array([0.5])}, state, lr=0.1, wd=0.0)
    assert_allclose(p.data, [adamw_oracle(1.0, [0.5], 0.1, 0.0)], rtol=1e-14)
    assert state.step == 1


def test_adamw_three_steps_match_oracle():
    p, params, state = one_param(-0.7)
    gs = [0.3, -0.2, 0.05]
    for g in gs:
        adamw_step(params, {"w": np.array([g])}, state, lr=0.01, wd=0.05)
    assert_allclose(p.data, [adamw_oracle(-0.7, gs, 0.01, 0.05)], rtol=1e-13)
    assert state.step == 3


def test_adamw_zero_grad_reduces_to_pure_decay():
    p, params, state = one_param(2.0)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, wd=0.5)
    assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.5)], rtol=1e-15)


def test_adamw_decay_is_decoupled_from_moments():
    # the moment update must not see the decayed parameter, so the move due
    # to the gradient is identical with and without weight decay
    pa, params_a, sa = one_param(1.0)
    pb, params_b, sb = one_param(1.0)
    adamw_step(params_a, {"w": np.array([0.5])}, sa, lr=0.1, wd=0.0)
    adamw_step(params_b, {"w": np.array([0.5])}, sb, lr=0.1, wd=0.3)
    moment_move_a = 1.0 - pa.data[0]
    moment_move_b = 1.0 * (1.0 - 0.1 * 0.3) - pb.data[0]
    assert_allclose(moment_move_a, moment_move_b, rtol=1e-14)


def test_adamw_first_step_size_is_lr_independent_of_grad_scale():
    # bias correction makes the first no-decay step ~ lr * sign(g)
    for g in (1e-4, 1.0, 50.0):
        p, params, state = one_param(0.0)
        adamw_step(params, {"w": np.array([g])}, state, lr=0.01, wd=0.0)
        assert_allclose(p.data, [-0.01], rtol=1e-3)


def test_adamw_missing_grad_treated_as_zero_and_step_counted_once():
    pa = Tensor(np.array([1.0]), requires_grad=True)
    pb = Tensor(np.array([1.0]), requires_grad=True)
    params = [("a", pa), ("b", pb)]
    state = init_opt_state(params)
    adamw_step(params, {"a": np.array([1.0])}, state, lr=0.1, wd=0.0)
    assert state.step == 1
    assert_allclose(pb.data, [1.0])
    assert pa.data[0] < 1.0


def test_adamw_rejects_bad_eps():
    p, params, state = one_param(1.0)
    with pytest.raises(ConfigError):
        adamw_step(params, {}, state, lr=0.1, wd=0.0, eps=0.0)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_train_config_full_file(tmp_path):
    text = """
# comment line
data_path = synthetic:n=32,classes=4,seed=1
output_dir = out

variant = micro
epochs = 3
batch_size = 8
lr_base = 0.001
conv_only = true
augment = off
stage_depths = 3,3,15,3
stop_at_train_acc = 0.9
"""
    path = tmp_path / "train.cfg"
    path.write_text(text)
    cfg = parse_train_config(path)
    assert cfg.data_path == "synthetic:n=32,classes=4,seed=1"
    assert cfg.epochs == 3 and cfg.batch_size == 8
    assert cfg.conv_only is True and cfg.augment is False
    assert cfg.stage_depths == (3, 3, 15, 3)
    assert cfg.stop_at_train_acc == 0.9


def test_parse_train_config_unknown_key_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("data_path = x\noutput_dir = y\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=":3"):
        parse_train_config(path)


def test_parse_train_config_missing_required(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = 2\n")
    with pytest.raises(ConfigError, match="data_path"):
        parse_train_config(path)


def test_parse_train_config_bad_values(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("data_path = x\noutput_dir = y\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_train_config(path)
    path.write_text("data_path = x\noutput_dir = y\nconv_only = maybe\n")
    with pytest.raises(ConfigError):
        parse_train_config(path)
    path.write_text("data_path = x\noutput_dir = y\nno equals sign\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_train_config(path)


def test_train_config_validate():
    good = TrainConfig(data_path="synthetic:", output_dir="out")
    good.validate()
    for bad in (
        dict(lr_base=-1.0),
        dict(weight_decay=-0.1),
        dict(beta1=1.0),
        dict(epochs=0),
        dict(batch_size=0),
        dict(warmup_iters=-1),
        dict(label_smoothing=1.0),
        dict(checkpoint_every=-2),
    ):
        cfg = TrainConfig(data_path="x", output_dir="y", **bad)
        with pytest.raises(ConfigError):
            cfg.validate()


def test_model_config_variant_and_overrides():
    cfg = model_config(TrainConfig(data_path="x", output_dir="y"))
    assert cfg.base_width == 8 and cfg.expansion == 2
    cfg = model_config(TrainConfig(data_path="x", output_dir="y", base_width=16))
    assert cfg.base_width == 16
    with pytest.raises(ConfigError):
        model_config(TrainConfig(data_path="x", output_dir="y", variant="huge"))


# ---------------------------------------------------------------------------
# checkpoints


def small_model(**overrides):
    return build_vminet(variant_config("micro", **overrides), seed=1)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model = small_model()
    params = list(model.parameters())
    state = init_opt_state(params)
    rng = np.random.default_rng(92)
    adamw_step(params, {n: rng.standard_normal(p.data.shape) for n, p in params},
               state, lr=1e-3, wd=0.01)
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model, state, epoch=4, step=37)
    loaded, lstate, epoch, step = load_checkpoint(path)
    assert (epoch, step) == (4, 37)
    assert lstate is not None and lstate.step == state.step
    # the checkpoint stores the schedule in resolved form
    from dataclasses import replace

    def resolved(c):
        return replace(c, mask_schedule=c.resolved_mask_schedule())

    assert resolved(loaded.cfg) == resolved(model.cfg)
    for (name, p), (lname, lp) in zip(model.parameters(), loaded.parameters()):
        assert name == lname
        assert np.array_equal(p.data, lp.data)
        assert np.array_equal(state.m[name], lstate.m[name])
        assert np.array_equal(state.v[name], lstate.v[name])


def test_checkpoint_without_optimizer_state(tmp_path):
    model = small_model(conv_only=True)
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model)
    loaded, state, epoch, step = load_checkpoint(path)
    assert state is None and (epoch, step) == (0, 0)
    assert loaded.cfg.conv_only is True


def test_checkpoint_detects_shape_mismatch(tmp_path):
    from vminet.checkpoint import load_tensors, save_tensors

    model = small_model()
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model)
    blob = load_tensors(path)
    blob["param.head.w"] = blob["param.head.w"].reshape(-1)
    save_tensors(path, blob)
    with pytest.raises(FormatError, match="param.head.w"):
        load_checkpoint(path)


def test_checkpoint_meta_records_keep_their_names_and_encodings(tmp_path):
    # files written before the records were derived from the config fields
    # must still load, so the layout is pinned here record by record
    from vminet.checkpoint import load_tensors

    model = small_model(recurrent=True)
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model, epoch=3, step=12)
    meta = {k: v.tolist() for k, v in load_tensors(path).items() if k.startswith("meta.")}
    codes = {"none": 0.0, "lower_triangular": 1.0, "banded": 2.0, "block_diagonal": 3.0}
    assert meta == {
        "meta.epoch": 3.0,
        "meta.step": 12.0,
        "meta.base_width": 8.0,
        "meta.expansion": 2.0,
        "meta.stage_depths": [3.0, 3.0, 15.0, 3.0],
        "meta.input_resolution": [32.0, 32.0],
        "meta.num_classes": 10.0,
        "meta.stem_patch": 2.0,
        "meta.conv_only": 0.0,
        "meta.recurrent": 1.0,
        "meta.norm_eps": 1e-6,
        "meta.mask_schedule": [codes[k] for k in model.cfg.resolved_mask_schedule()],
    }


def corrupted_checkpoint(tmp_path, edit):
    from vminet.checkpoint import load_tensors, save_tensors

    model = small_model()
    params = list(model.parameters())
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model, init_opt_state(params))
    blob = load_tensors(path)
    edit(blob)
    save_tensors(path, blob)
    return path


@pytest.mark.parametrize("record", [
    "meta.mask_schedule", "meta.stage_depths", "meta.input_resolution",
    "adam.m.stem.w", "meta.epoch",
])
def test_checkpoint_missing_record_is_format_error(tmp_path, record):
    path = corrupted_checkpoint(tmp_path, lambda blob: blob.pop(record))
    with pytest.raises(FormatError, match=f"missing record '{record}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("record, value, problem", [
    ("meta.mask_schedule", np.full(24, 7.0), "unknown mask code"),
    ("meta.input_resolution", np.array([32.0, 32.0, 32.0]), "expected 2 values"),
    ("meta.base_width", np.array([8.0, 8.0]), "cannot reshape"),
    ("meta.epoch", np.asarray(np.nan), "cannot convert"),
    ("adam.step", np.asarray(np.inf), "cannot convert"),
    ("adam.v.head.w", np.zeros(3), "has shape"),
])
def test_checkpoint_malformed_record_is_format_error(tmp_path, record, value, problem):
    path = corrupted_checkpoint(tmp_path, lambda blob: blob.update({record: value}))
    with pytest.raises(FormatError, match=f"'{record}': {problem}"):
        load_checkpoint(path)


def test_checkpoint_invalid_config_is_format_error(tmp_path):
    path = corrupted_checkpoint(tmp_path, lambda blob: blob.update(
        {"meta.base_width": np.asarray(0.0)}))
    with pytest.raises(FormatError, match="base_width must be >= 1"):
        load_checkpoint(path)


def test_checkpoint_detects_missing_record(tmp_path):
    from vminet.checkpoint import load_tensors, save_tensors

    model = small_model()
    path = tmp_path / "ck.vmin"
    save_checkpoint(path, model)
    blob = load_tensors(path)
    del blob["param.stem.w"]
    save_tensors(path, blob)
    with pytest.raises(FormatError, match="param.stem.w"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the loop itself (kept tiny: 24 blocks on 8 images)


def tiny_cfg(tmp_path, **overrides):
    base = dict(
        data_path="synthetic:n=8,classes=2,seed=5",
        val_data_path="synthetic:n=8,classes=2,seed=6",
        output_dir=str(tmp_path / "run"),
        num_classes=2,
        epochs=2,
        batch_size=4,
        warmup_iters=2,
        lr_base=1e-3,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_train_writes_metrics_and_final_checkpoint(tmp_path):
    history = train(tiny_cfg(tmp_path))
    rows = read_csv(history.metrics_path)
    assert rows[0] == list(METRICS_HEADER)
    assert len(rows) == 3  # header + one row per epoch
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert [r[1] for r in rows[1:]] == ["2", "4"]  # ceil(8/4) = 2 steps per epoch
    assert history.final_checkpoint.endswith("model.vmin")
    loaded, state, epoch, step = load_checkpoint(history.final_checkpoint)
    assert (epoch, step) == (2, 4)
    # csv mirrors the in-memory history
    for row, stats in zip(rows[1:], history.epochs):
        assert float(row[3]) == pytest.approx(stats.train_loss, rel=1e-12)
        assert float(row[5]) == pytest.approx(stats.val_acc, rel=1e-12)


def test_train_same_seed_same_metrics_modulo_seconds(tmp_path):
    a = train(tiny_cfg(tmp_path, output_dir=str(tmp_path / "a")))
    b = train(tiny_cfg(tmp_path, output_dir=str(tmp_path / "b")))
    rows_a = [r[:-1] for r in read_csv(a.metrics_path)]
    rows_b = [r[:-1] for r in read_csv(b.metrics_path)]
    assert rows_a == rows_b
    c = train(tiny_cfg(tmp_path, output_dir=str(tmp_path / "c"), seed=1))
    assert [r[:-1] for r in read_csv(c.metrics_path)] != rows_a


def check_resume_continues_bitwise(tmp_path, recurrent):
    straight = train(tiny_cfg(tmp_path, output_dir=str(tmp_path / "s"), recurrent=recurrent))
    train(tiny_cfg(tmp_path, output_dir=str(tmp_path / "p1"), checkpoint_every=1,
                   recurrent=recurrent))
    resumed = train(
        tiny_cfg(
            tmp_path,
            output_dir=str(tmp_path / "p2"),
            resume=str(tmp_path / "p1" / "checkpoint_0001.vmin"),
            recurrent=recurrent,
        )
    )
    sm, *_ = load_checkpoint(straight.final_checkpoint)
    rm, *_ = load_checkpoint(resumed.final_checkpoint)
    assert rm.cfg.recurrent is recurrent
    for (name, p), (_, q) in zip(sm.parameters(), rm.parameters()):
        assert np.array_equal(p.data, q.data), name
    # resumed run logs only the remaining epoch
    assert [r.epoch for r in resumed.epochs] == [2]
    assert [r.epoch for r in straight.epochs] == [1, 2]


def test_train_resume_continues_bitwise(tmp_path):
    for recurrent in (False, True):  # both attention forms, in their own run directories
        check_resume_continues_bitwise(tmp_path / f"recurrent={recurrent}", recurrent)


def run_files(run_dir):
    return {name: (run_dir / name).read_bytes() for name in ("metrics.csv", "model.vmin")}


def test_train_refuses_finished_resume_before_touching_the_run(tmp_path):
    first = train(tiny_cfg(tmp_path))
    run_dir = tmp_path / "run"
    before = run_files(run_dir)
    with pytest.raises(ConfigError, match="at epoch 2 of 2"):
        train(tiny_cfg(tmp_path, resume=first.final_checkpoint))
    assert run_files(run_dir) == before


def test_train_refuses_warmup_beyond_total_steps_before_touching_the_run(tmp_path):
    train(tiny_cfg(tmp_path))
    run_dir = tmp_path / "run"
    before = run_files(run_dir)
    with pytest.raises(ConfigError, match="warmup_iters 5"):
        train(tiny_cfg(tmp_path, warmup_iters=5))  # 2 epochs of 2 steps
    assert run_files(run_dir) == before


def test_train_stop_at_train_acc_breaks_early(tmp_path):
    cfg = tiny_cfg(
        tmp_path,
        data_path="synthetic:n=4,classes=2,seed=5",
        val_data_path="",
        epochs=40,
        batch_size=4,
        lr_base=5e-3,
        warmup_iters=4,
        augment=False,
        stop_at_train_acc=1.0,
    )
    history = train(cfg)
    assert history.epochs[-1].train_acc >= 1.0
    assert len(history.epochs) < 40


def test_train_rejects_label_overflow(tmp_path):
    cfg = tiny_cfg(tmp_path, data_path="synthetic:n=8,classes=4,seed=5", num_classes=2)
    with pytest.raises(ConfigError, match="num_classes"):
        train(cfg)
    cfg = tiny_cfg(tmp_path, val_data_path="synthetic:n=8,classes=4,seed=6", num_classes=2)
    with pytest.raises(ConfigError, match="num_classes"):
        train(cfg)
    assert not (tmp_path / "run").exists()


def test_train_reports_nonfinite_loss(tmp_path):
    cfg = tiny_cfg(tmp_path, lr_base=1e18, warmup_iters=0, augment=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="non-finite"):
            train(cfg)


def test_evaluate_counts_top1(tmp_path):
    from vminet.data import synthetic_dataset

    model = small_model()
    ds = synthetic_dataset(n=12, classes=10, seed=2)
    acc = evaluate(model, ds, batch_size=5)
    assert 0.0 <= acc <= 1.0
    assert_allclose(evaluate(model, ds, batch_size=12), acc, rtol=1e-12)


def test_evaluate_rejects_bad_batch_size_and_labels():
    from vminet.data import synthetic_dataset

    model = small_model(num_classes=2)
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        evaluate(model, synthetic_dataset(n=4, classes=2, seed=2), batch_size=0)
    with pytest.raises(ConfigError, match="labels up to 9 but num_classes=2"):
        evaluate(model, synthetic_dataset(n=40, classes=10, seed=2))
