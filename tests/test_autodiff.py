import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gradcheck
import oracles
from kwslab import autodiff as ad
from kwslab.autodiff import (
    CHECKPOINT_MAGIC,
    ParameterVector,
    Segment,
    Sgd,
    SgdConfig,
    Tensor,
    checkpoint_bytes,
    load_checkpoint,
    restore_into,
    save_checkpoint,
)
from kwslab.dsp import CLIP_SAMPLES, num_frames
from kwslab.errors import (
    CheckpointError,
    GraphFreedError,
    NanError,
    NonScalarLossError,
    ShapeError,
)
from kwslab.models import ScalingConfig, TcResNet8, instantiate_subnet, width_multiplier


def sum_of_squares(t: Tensor) -> Tensor:
    return ad.tensor_sum(ad.square(t))


# -- exact examples ---------------------------------------------------------------

def test_softmax_ce_uniform_logits():
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    loss = ad.softmax_cross_entropy(logits, np.array([1]))
    assert float(loss.data) == pytest.approx(np.log(3.0), rel=1e-12)


def test_softmax_ce_matches_loop_oracle():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 4))
    labels = np.array([0, 3, 1, 1, 2])
    loss = ad.softmax_cross_entropy(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(oracles.softmax_ce_loops(logits, labels), rel=1e-12)


def test_conv1d_identity_kernel():
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 7)))
    w = np.zeros((3, 3, 3))
    for c in range(3):
        w[c, c, 1] = 1.0  # center tap
    out = ad.conv1d(x, Tensor(w), stride=1)
    assert np.array_equal(out.data, x.data)


def test_conv1d_forward_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for stride in (1, 2, 3):
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=4)
        got = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        np.testing.assert_allclose(got.data, oracles.conv1d_loops(x, w, b, stride), atol=1e-12)


def test_conv1d_output_length_is_ceil():
    w = Tensor(np.ones((1, 1, 3)))
    for t_in, stride, t_out in [(5, 2, 3), (4, 2, 2), (7, 3, 3), (6, 1, 6)]:
        out = ad.conv1d(Tensor(np.ones((1, 1, t_in))), w, stride=stride)
        assert out.data.shape == (1, 1, t_out)


def test_batch_norm_forward_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 6))
    gamma = rng.normal(size=3)
    beta = rng.normal(size=3)
    got = ad.batch_norm(
        Tensor(x), Tensor(gamma), Tensor(beta), Tensor(np.zeros(3)), Tensor(np.ones(3)),
        training=True, update_running=False,
    )
    np.testing.assert_allclose(got.data, oracles.batch_norm_loops(x, gamma, beta), atol=1e-12)


def test_batch_norm_running_stats():
    x = np.random.default_rng(4).normal(size=(8, 2, 5))
    rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))

    ad.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True, update_running=False)
    assert np.array_equal(rm.data, np.zeros(2))
    assert np.array_equal(rv.data, np.ones(2))

    ad.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
    np.testing.assert_allclose(rm.data, 0.1 * x.mean(axis=(0, 2)), atol=1e-15)
    np.testing.assert_allclose(rv.data, 0.9 + 0.1 * x.var(axis=(0, 2)), atol=1e-15)

    # eval mode normalizes with the running stats and leaves them alone
    out = ad.batch_norm(Tensor(x), gamma, beta, rm, rv, training=False)
    expect = (x - rm.data[None, :, None]) / np.sqrt(rv.data[None, :, None] + 1e-5)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((3, 4, 3))))
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ad.dense(Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ShapeError):
        ad.global_avg_pool(Tensor(np.zeros((2, 3))))


def test_nan_detection():
    x = Tensor(np.array([[[np.inf, 1.0]]]))
    with pytest.raises(NanError):
        ad.conv1d(x, Tensor(np.ones((1, 1, 1))))


# -- bit identity with the plain numpy formulations ------------------------------------

def _model_convs():
    """(name, (c_out, c_in, k), stride, t_in) of every conv in TcResNet8 on a
    default clip, and in the SubNet that instantiate_subnet builds at alpha 0.2
    on the encoder's output."""
    model = TcResNet8()
    scaling = ScalingConfig(mu=1.0, c0=15)
    assert width_multiplier(3, scaling) == pytest.approx(0.2)
    sub = instantiate_subnet(3, scaling, c_in=model.encoder_channels())
    t = num_frames(CLIP_SAMPLES)
    convs = [("stem", model.conv0, t)]
    t_enc = -(-t // model.block1.conv1.stride)
    blocks = [("block1", model.block1, t), ("subnet", sub.blocks[0], t_enc)]
    t_in = t_enc
    for i, block in enumerate(model.tail.blocks, start=2):
        blocks.append((f"block{i}", block, t_in))
        t_in = -(-t_in // block.conv1.stride)
    for name, block, t_in in blocks:
        t_mid = -(-t_in // block.conv1.stride)
        convs += [
            (f"{name}.conv1", block.conv1, t_in),
            (f"{name}.conv2", block.conv2, t_mid),
            (f"{name}.shortcut", block.conv_sc, t_in),
        ]
    return [(name, conv.w.data.shape, conv.stride, t_in) for name, conv, t_in in convs]


MODEL_CONVS = _model_convs()
# shapes where tensordot reshapes its operands without a copy
EDGE_CONVS = [
    ("k1_stride1", (24, 16, 1), 1, 49),
    ("c_in1_unpadded", (24, 1, 1), 2, 98),
    ("t_out1", (24, 16, 3), 2, 2),
]


@pytest.mark.parametrize("batch", [16, 1])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("conv", MODEL_CONVS + EDGE_CONVS, ids=lambda c: c[0])
def test_conv1d_is_bitwise_the_pad_tensordot_formulation(conv, bias, x_grad, batch):
    _, (c_out, c_in, k), stride, t_in = conv
    rng = np.random.default_rng(12)
    x = rng.normal(size=(batch, c_in, t_in))
    w = rng.normal(size=(c_out, c_in, k))
    b = rng.normal(size=c_out) if bias else None
    gy = rng.normal(size=(batch, c_out, -(-t_in // stride)))
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if bias else None

    out = ad.conv1d(xt, wt, bt, stride=stride)
    out._backward(gy)  # an arbitrary upstream gradient, straight into the op
    y, gx, gw, gb = oracles.conv1d_pad_tensordot(x, w, b, stride, gy)

    assert np.array_equal(out.data, y)
    assert np.array_equal(wt.grad, gw)
    if x_grad:
        assert np.array_equal(xt.grad, gx)
    else:
        assert xt.grad is None
    if bias:
        assert np.array_equal(bt.grad, gb)


BN_MODES = {
    "train": dict(training=True, update_running=True),
    "train_frozen_stats": dict(training=True, update_running=False),
    "eval": dict(training=False, update_running=True),
}


# (channels, frames) of the BN after each of those convs
MODEL_BNS = sorted({(shape[0], -(-t_in // stride)) for _, shape, stride, t_in in MODEL_CONVS})


@pytest.mark.parametrize("batch", [16, 1])
@pytest.mark.parametrize("mode", list(BN_MODES))
@pytest.mark.parametrize("c, t", MODEL_BNS, ids=[f"c{c}_t{t}" for c, t in MODEL_BNS])
def test_batch_norm_is_bitwise_the_mean_var_formulation(c, t, mode, batch):
    rng = np.random.default_rng(13)
    x = rng.normal(loc=0.3, size=(batch, c, t))
    gamma = rng.uniform(0.5, 1.5, size=c)
    beta = rng.normal(size=c)
    rm = rng.normal(size=c) * 0.1
    rv = rng.uniform(0.5, 1.5, size=c)
    gy = rng.normal(size=(batch, c, t))
    xt = Tensor(x, requires_grad=True)
    gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
    rmt, rvt = Tensor(rm.copy()), Tensor(rv.copy())

    out = ad.batch_norm(xt, gt, bt, rmt, rvt, **BN_MODES[mode])
    out._backward(gy)
    y, gx, ggamma, gbeta, rm_new, rv_new = oracles.batch_norm_mean_var(
        x, gamma, beta, rm, rv, gy=gy, **BN_MODES[mode]
    )

    assert np.array_equal(out.data, y)
    assert np.array_equal(xt.grad, gx)
    assert np.array_equal(gt.grad, ggamma)
    assert np.array_equal(bt.grad, gbeta)
    assert np.array_equal(rmt.data, rm_new)
    assert np.array_equal(rvt.data, rv_new)


# -- backward semantics -------------------------------------------------------------

def test_backward_sum_gives_ones():
    theta = Tensor(np.random.default_rng(5).normal(size=(4, 3)), requires_grad=True)
    ad.backward(ad.tensor_sum(theta))
    assert np.array_equal(theta.grad, np.ones((4, 3)))


def test_backward_half_norm_squared_gives_theta():
    theta = Tensor(np.random.default_rng(6).normal(size=7), requires_grad=True)
    ad.backward(ad.scale(sum_of_squares(theta), 0.5))
    np.testing.assert_allclose(theta.grad, theta.data, atol=1e-15)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(NonScalarLossError):
        ad.backward(ad.square(x))


def test_backward_frees_graph_by_default():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = sum_of_squares(x)
    ad.backward(loss)
    with pytest.raises(GraphFreedError):
        ad.backward(loss)


def test_diamond_graph_accumulates_through_both_paths():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.square(x)
    loss = ad.tensor_sum(ad.add(y, y))  # d/dx 2x^2 = 4x
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


def test_first_gradient_is_bitwise_zeros_plus_g_and_a_fresh_array():
    """A slot's first gradient is `zeros + g` bit for bit: a new array, with
    -0.0 made +0.0, also from a strided view like conv1d's unpadded input
    gradient. A second gradient adds onto it."""
    rng = np.random.default_rng(5)
    gxp = rng.normal(size=(2, 3, 9))
    gxp[0, 0, 2:5] = -0.0
    gxp[1, 2, 3] = 0.0
    for g in (gxp[:, :, 1:8], np.array([-0.0, 0.0, 1.5, -2.0])):
        t = Tensor(np.zeros(g.shape), requires_grad=True)
        t.accumulate_grad(g)
        expected = np.zeros_like(t.data) + g
        assert t.grad.tobytes() == expected.tobytes()
        assert not np.signbit(t.grad[t.grad == 0.0]).any()
        assert not np.shares_memory(t.grad, g)
        t.accumulate_grad(g)
        assert t.grad.tobytes() == (expected + g).tobytes()


# -- no_grad ------------------------------------------------------------------------

def every_op_output() -> list[Tensor]:
    """One output of each forward op, every input requiring grad."""
    rng = np.random.default_rng(11)
    leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
    x, w, b = leaf(2, 3, 6), leaf(4, 3, 3), leaf(4)
    gamma, beta = leaf(4), leaf(4)
    rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))
    conv = ad.conv1d(x, w, b, stride=2)
    bn = ad.batch_norm(conv, gamma, beta, rm, rv, training=True, update_running=False)
    h = ad.add(ad.relu(bn), conv)
    logits = ad.dense(ad.global_avg_pool(h), leaf(5, 4), leaf(5))
    loss = ad.softmax_cross_entropy(logits, np.array([0, 3]))
    return [conv, bn, h, logits, loss, ad.tensor_sum(ad.square(ad.scale(logits, 0.5)))]


def test_no_grad_ops_record_no_graph_and_compute_the_same_values():
    recorded = every_op_output()
    assert all(out.requires_grad and out._parents for out in recorded)
    with ad.no_grad():
        outs = every_op_output()
    for out, ref in zip(outs, recorded):
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
        assert np.array_equal(out.data, ref.data)
    assert all(out.requires_grad for out in every_op_output())


def test_no_grad_restores_the_flag_after_an_error_and_nested_blocks():
    with pytest.raises(ValueError):
        with ad.no_grad():
            raise ValueError("inside")
    assert ad._grad_enabled is True
    with ad.no_grad():
        with ad.no_grad():
            assert ad._grad_enabled is False
        assert ad._grad_enabled is False
    assert ad._grad_enabled is True


# -- finite-difference gradient checks ----------------------------------------------

def test_conv1d_grads_vs_fd():
    rng = np.random.default_rng(7)
    # block convs (k=3), the unpadded strided shortcut (k=1) and the stem (k=9)
    for k, stride in ((3, 1), (3, 2), (1, 2), (9, 1)):
        x = Tensor(rng.normal(size=(2, 3, 8)))
        w = Tensor(rng.normal(size=(2, 3, k)) * 0.5)
        b = Tensor(rng.normal(size=2))
        gradcheck.check_grads(
            [x, w, b], lambda x=x, w=w, b=b, s=stride: sum_of_squares(ad.conv1d(x, w, b, stride=s))
        )


def test_batch_norm_grads_vs_fd_train_and_eval():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 2, 4)))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=2))
    beta = Tensor(rng.normal(size=2))
    rm = Tensor(rng.normal(size=2) * 0.1)
    rv = Tensor(rng.uniform(0.5, 1.5, size=2))
    for training in (True, False):
        gradcheck.check_grads(
            [x, gamma, beta],
            lambda training=training: sum_of_squares(
                ad.batch_norm(x, gamma, beta, rm, rv, training=training, update_running=False)
            ),
        )


def test_dense_relu_gap_softmax_grads_vs_fd():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 2, 5)))
    w = Tensor(rng.normal(size=(4, 2)) * 0.5)
    b = Tensor(rng.normal(size=4))
    labels = np.array([0, 2, 3])

    def build():
        h = ad.relu(x)
        pooled = ad.global_avg_pool(h)
        logits = ad.dense(pooled, w, b)
        return ad.softmax_cross_entropy(logits, labels)

    # keep inputs away from the relu kink so central differences are valid
    x.data = np.where(np.abs(x.data) < 0.05, x.data + 0.1, x.data)
    gradcheck.check_grads([x, w, b], build)


def test_add_square_scale_grads_vs_fd():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 3)))
    gradcheck.check_grads(
        [a, b], lambda: ad.scale(ad.tensor_sum(ad.square(ad.add(a, b))), 0.7)
    )


# -- sgd ------------------------------------------------------------------------------

def _one_param(value):
    t = Tensor(np.array([value]), requires_grad=True)
    return t, ParameterVector([Segment("theta", t)])


def test_sgd_single_step_no_momentum():
    t, pv = _one_param(1.0)
    Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.0)).step(np.array([0.5]))
    assert t.data[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_momentum_recurrence():
    t, pv = _one_param(1.0)
    sgd = Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.9))
    d1 = sgd.step(np.array([1.0]))
    assert d1[0] == pytest.approx(-0.1, abs=1e-15)
    assert t.data[0] == pytest.approx(0.9, abs=1e-15)
    d2 = sgd.step(np.array([1.0]))
    assert d2[0] == pytest.approx(-0.19, abs=1e-15)
    assert t.data[0] == pytest.approx(0.71, abs=1e-15)


def test_sgd_weight_decay():
    t, pv = _one_param(2.0)
    Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)).step(np.array([0.0]))
    # g_eff = 0 + 0.5 * 2 = 1
    assert t.data[0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_lr_scale_damps_coordinates():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    pv = ParameterVector([Segment("a", a), Segment("b", b)])
    sgd = Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.0), lr_scale=np.array([0.5, 1.0]))
    sgd.step(np.array([1.0, 1.0]))
    assert a.data[0] == pytest.approx(0.95, abs=1e-15)
    assert b.data[0] == pytest.approx(0.90, abs=1e-15)


def test_sgd_step_applies_its_gradient_not_the_grad_slots():
    t, pv = _one_param(1.0)
    t.grad = np.array([100.0])
    delta = Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.0)).step(np.array([0.5]))
    assert delta[0] == pytest.approx(-0.05, abs=1e-15)
    assert t.data[0] == pytest.approx(0.95, abs=1e-15)
    np.testing.assert_array_equal(t.grad, [100.0])


def test_sgd_step_rejects_a_wrong_length_gradient():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    pv = ParameterVector([Segment("a", a), Segment("b", b)])
    sgd = Sgd(pv, SgdConfig(learning_rate=0.1, momentum=0.0))
    for g in (np.array([1.0]), np.ones(4), np.ones((5, 1))):
        with pytest.raises(ShapeError):
            sgd.step(g)
    np.testing.assert_array_equal(sgd.velocity, np.zeros(5))
    np.testing.assert_array_equal(pv.flatten(), np.ones(5))


def test_sgd_training_loss_decreases_on_toy_batch():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(8, 4)))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    w = Tensor(rng.normal(size=(3, 4)) * 0.1, requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    pv = ParameterVector([Segment("w", w), Segment("b", b)])
    sgd = Sgd(pv, SgdConfig(learning_rate=0.5, momentum=0.0))
    losses = []
    for _ in range(10):
        pv.zero_grad()
        loss = ad.softmax_cross_entropy(ad.dense(x, w, b), labels)
        ad.backward(loss)
        sgd.step(pv.grad_vector())
        losses.append(float(loss.data))
    assert all(b < a for a, b in zip(losses, losses[1:]))


# -- parameter vector ------------------------------------------------------------------

def test_duplicate_segment_names_rejected():
    t = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ShapeError):
        ParameterVector([Segment("x", t), Segment("x", t)])


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
def test_flatten_unflatten_round_trip(sizes):
    rng = np.random.default_rng(sum(sizes))
    segs = [
        Segment(f"s{i}", Tensor(rng.normal(size=n), requires_grad=True))
        for i, n in enumerate(sizes)
    ]
    pv = ParameterVector(segs)
    v = rng.normal(size=pv.trainable_count)
    pv.unflatten(v)
    assert pv.flatten().tobytes() == v.tobytes()


def test_flatten_skips_non_trainable():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    stats = Tensor(np.array([9.0]))
    pv = ParameterVector([Segment("a", a), Segment("stats", stats, trainable=False)])
    assert pv.total_count == 3
    assert pv.trainable_count == 2
    np.testing.assert_array_equal(pv.flatten(), [1.0, 2.0])
    pv.unflatten(np.array([5.0, 6.0]))
    assert stats.data[0] == 9.0


def test_grad_vector_fills_zeros_for_missing_grads():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    pv = ParameterVector([Segment("a", a), Segment("b", b)])
    b.grad = np.ones(3)
    np.testing.assert_array_equal(pv.grad_vector(), [0, 0, 1, 1, 1])
    pv.set_grad_vector(np.arange(5.0))
    np.testing.assert_array_equal(a.grad, [0.0, 1.0])
    np.testing.assert_array_equal(b.grad, [2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        pv.set_grad_vector(np.zeros(4))


# -- checkpoints -------------------------------------------------------------------------

def _sample_params():
    rng = np.random.default_rng(12)
    return ParameterVector([
        Segment("conv.w", Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)),
        Segment("bn.running_mean", Tensor(rng.normal(size=2)), trainable=False),
    ])


def test_checkpoint_round_trip_f8_bitwise(tmp_path):
    pv = _sample_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, pv, meta={"task": 3})
    meta, segs = load_checkpoint(path)
    assert meta == {"task": 3}
    assert [s.name for s in segs] == [s.name for s in pv.segments]
    assert [s.trainable for s in segs] == [True, False]
    for got, want in zip(segs, pv.segments):
        assert got.tensor.data.tobytes() == want.tensor.data.tobytes()


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _sample_params(), meta={"task": 0})

    def fail(params, meta=None):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ad, "checkpoint_bytes", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, _sample_params(), meta={"task": 1})
    assert os.listdir(tmp_path) == ["m.ckpt"]
    assert load_checkpoint(path)[0] == {"task": 0}


def test_checkpoint_rejects_a_header_naming_another_dtype(tmp_path):
    blob = checkpoint_bytes(_sample_params())
    assert b'"dtype": "<f8"' in blob
    f4 = tmp_path / "f4.ckpt"
    f4.write_bytes(blob.replace(b'"dtype": "<f8"', b'"dtype": "<f4"'))
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(f4)


def test_checkpoint_rejects_bad_blobs(tmp_path):
    blob = checkpoint_bytes(_sample_params())
    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def _with_header(head: bytes) -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head


@pytest.mark.parametrize("name, blob", [
    ("short_length", CHECKPOINT_MAGIC + b"\x00"),
    ("not_json", _with_header(b"{nope")),
    ("no_segments", _with_header(b'{"dtype": "<f8", "version": 1}')),
    ("no_shape", _with_header(b'{"dtype": "<f8", "segments": [{"name": "w"}], "version": 1}')),
    ("not_an_object", _with_header(b"[]")),
])
def test_checkpoint_rejects_a_malformed_header(tmp_path, name, blob):
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"{name}.ckpt"):
        load_checkpoint(path)


def test_restore_into_checks_names_and_shapes(tmp_path):
    pv = _sample_params()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, pv)
    _, segs = load_checkpoint(path)

    target = _sample_params()
    target.segments[0].tensor.data[:] = 0.0
    restore_into(target, segs)
    assert target.flatten().tobytes() == pv.flatten().tobytes()

    rng = np.random.default_rng(0)
    wrong = ParameterVector([
        Segment("conv.w", Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)),
        Segment("bn.running_mean", Tensor(np.zeros(2)), trainable=False),
    ])
    with pytest.raises(CheckpointError):
        restore_into(wrong, segs)
    missing = ParameterVector([Segment("other", Tensor(np.zeros(2)))])
    with pytest.raises(CheckpointError):
        restore_into(missing, segs)
