import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwslab import dsp, models
from kwslab.autodiff import Tensor
from kwslab.errors import ConfigError, ShapeError
from kwslab.models import (
    BASE_SUBNET_CHANNELS,
    MAX_SUBNET_CHANNELS,
    ScalingConfig,
    SubNet,
    TcResNet8,
    count_parameters,
    describe_json,
    describe_text,
    instantiate_subnet,
    scale_channels,
    width_multiplier,
)


def conv_params(c_in, c_out, k, bias=False):
    return c_out * c_in * k + (c_out if bias else 0)


def bn_params(c):
    return 2 * c  # gamma + beta; running stats are not trainable


def block_params(c_in, c_out, k=3):
    return (
        conv_params(c_in, c_out, k) + bn_params(c_out)
        + conv_params(c_out, c_out, k) + bn_params(c_out)
        + conv_params(c_in, c_out, 1) + bn_params(c_out)
    )


def tcresnet8_count(n_mfcc=40, n_classes=15):
    c0, c1, c2, c3 = 16, 24, 32, 48
    return (
        conv_params(n_mfcc, c0, 9) + bn_params(c0)
        + block_params(c0, c1) + block_params(c1, c2) + block_params(c2, c3)
        + c3 * n_classes + n_classes
    )


def subnet_count(c_in, c1, c2, n_classes):
    return (
        conv_params(c_in, c1, 3) + bn_params(c1)
        + conv_params(c1, c2, 3) + bn_params(c2)
        + conv_params(c_in, c2, 1) + bn_params(c2)
        + c2 * n_classes + n_classes
    )


# -- parameter counts ---------------------------------------------------------

def test_dense_layer_count():
    rng = np.random.default_rng(0)
    layer = models.Dense(rng, "d", 10, 5)
    assert sum(s.size for s in layer.segments) == 55


def test_conv_layer_count():
    rng = np.random.default_rng(0)
    layer = models.Conv1d(rng, "c", 4, 8, 3, bias=True)
    assert sum(s.size for s in layer.segments) == 104


def test_tcresnet8_count_by_construction():
    model = TcResNet8(n_mfcc=40, n_classes=15, seed=0)
    assert count_parameters(model.params) == tcresnet8_count() == 29615
    # running stats: mean + var per channel for the stem BN and 3 BNs per block
    stats = 2 * (16 + 3 * 24 + 3 * 32 + 3 * 48)
    assert model.params.total_count == 29615 + stats


def test_tcresnet8_count_matches_segment_sum():
    model = TcResNet8(n_classes=20, seed=1)
    by_segments = sum(s.size for s in model.params.segments if s.trainable)
    assert count_parameters(model.params) == by_segments == tcresnet8_count(n_classes=20)


def test_subnet_counts_scaled_and_fixed():
    cfg = ScalingConfig(mu=1.0, c0=15)
    scaled = instantiate_subnet(c_t=3, cfg=cfg, c_in=24, fixed=False, seed=0)
    fixed = instantiate_subnet(c_t=3, cfg=cfg, c_in=24, fixed=True, seed=0)
    assert scaled.scaled_channels == (3, 10)
    assert fixed.scaled_channels == (16, 48)
    assert count_parameters(scaled.params) == subnet_count(24, 3, 10, 3) == 625
    assert count_parameters(fixed.params) == subnet_count(24, 16, 48, 3) == 4979
    # the keyword-aware column is far under a fifth of the fixed one here
    assert count_parameters(scaled.params) * 5 < count_parameters(fixed.params)


# -- width scaling ------------------------------------------------------------

def test_width_multiplier_examples():
    assert width_multiplier(3, ScalingConfig(mu=1.0, c0=15)) == pytest.approx(0.2)
    assert width_multiplier(15, ScalingConfig(mu=1.0, c0=15)) == 1.0
    assert width_multiplier(3, ScalingConfig(mu=2.5, c0=15)) == pytest.approx(0.5)


def test_width_multiplier_rejects_bad_inputs():
    # mu and c0 are config keys, checked in config (test_config.py)
    with pytest.raises(ConfigError):
        width_multiplier(0, ScalingConfig())


def test_scale_channels_rounding():
    assert scale_channels(0.2) == (3, 10)  # round(3.2), round(9.6)
    assert scale_channels(1.0) == (16, 48)
    assert scale_channels(0.5) == (8, 24)
    # round half up: 0.65625 * 16 = 10.5 -> 11
    assert scale_channels(0.65625) == (11, 32)


def test_scale_channels_bounds_the_widest_layer():
    widest = max(BASE_SUBNET_CHANNELS)
    assert scale_channels(MAX_SUBNET_CHANNELS / widest)[-1] == MAX_SUBNET_CHANNELS
    for alpha in ((MAX_SUBNET_CHANNELS + 1) / widest, 1e300):
        with pytest.raises(ConfigError) as err:
            scale_channels(alpha)
        assert err.value.field == "pcl.alpha"


def test_scale_channels_clamps_with_warning():
    cfg = ScalingConfig(mu=1.0, c0=48)
    alpha = width_multiplier(1, cfg)
    with pytest.warns(RuntimeWarning):
        assert scale_channels(alpha) == (1, 1)


def test_fixed_spec_ignores_alpha():
    sn = instantiate_subnet(c_t=2, cfg=ScalingConfig(mu=1.0, c0=15), c_in=24, fixed=True)
    assert sn.scaled_channels == (16, 48)
    assert sn.head.w.data.shape == (2, 48)


@given(st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=15))
def test_subnet_count_monotone_in_alpha(ca, cb):
    cfg = ScalingConfig(mu=1.0, c0=15)
    lo, hi = min(ca, cb), max(ca, cb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        n_lo = count_parameters(instantiate_subnet(lo, cfg, c_in=24, seed=0).params)
        n_hi = count_parameters(instantiate_subnet(hi, cfg, c_in=24, seed=0).params)
    if lo < hi:
        assert n_lo < n_hi
    else:
        assert n_lo == n_hi


@given(st.integers(min_value=1, max_value=15))
def test_scaled_never_exceeds_fixed(c_t):
    cfg = ScalingConfig(mu=1.0, c0=15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scaled = count_parameters(instantiate_subnet(c_t, cfg, c_in=24, seed=0).params)
    fixed = count_parameters(instantiate_subnet(c_t, cfg, c_in=24, fixed=True, seed=0).params)
    assert scaled <= fixed


# -- shapes and determinism -----------------------------------------------------

def test_tcresnet8_forward_shape():
    model = TcResNet8(n_mfcc=40, n_classes=15, seed=0)
    out = model(Tensor(np.random.default_rng(0).normal(size=(2, 40, 101))), training=False)
    assert out.data.shape == (2, 15)


def test_tcresnet8_rejects_wrong_input_channels():
    model = TcResNet8(n_mfcc=40, n_classes=15, seed=0)
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((2, 39, 98))), training=True)


def test_tcresnet8_reads_the_frontends_coefficient_count():
    assert TcResNet8().n_mfcc == dsp.N_MFCC


def test_tcresnet8_rejects_single_class():
    with pytest.raises(ConfigError):
        TcResNet8(n_classes=1)


def test_encoder_downsamples_once():
    model = TcResNet8(seed=0)
    h = model.encoder_forward(
        Tensor(np.random.default_rng(1).normal(size=(1, 40, 98))), training=False
    )
    assert h.data.shape == (1, model.encoder_channels(), 49)
    assert model.encoder_channels() == 24


def test_encoder_tail_partition_covers_everything():
    model = TcResNet8(seed=0)
    enc = {s.name for s in model.encoder_segments}
    tail = {s.name for s in model.tail.params.segments}
    assert enc.isdisjoint(tail)
    assert enc | tail == {s.name for s in model.params.segments}
    assert all(n.startswith(("stem.", "block1.")) for n in enc)


def test_subnet_head_matches_keyword_count():
    for c_t in (1, 2, 3, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sn = instantiate_subnet(c_t, ScalingConfig(mu=1.0, c0=15), c_in=24, seed=0)
        out = sn(Tensor(np.random.default_rng(2).normal(size=(3, 24, 49))), training=False)
        assert out.data.shape == (3, c_t)


def test_same_seed_builds_identical_models():
    a = TcResNet8(n_classes=9, seed=5)
    b = TcResNet8(n_classes=9, seed=5)
    assert a.params.flatten().tobytes() == b.params.flatten().tobytes()
    c = TcResNet8(n_classes=9, seed=6)
    assert a.params.flatten().tobytes() != c.params.flatten().tobytes()


def test_subnet_seed_determinism():
    spec_cfg = ScalingConfig(mu=1.0, c0=15)
    a = instantiate_subnet(3, spec_cfg, c_in=24, seed=11)
    b = instantiate_subnet(3, spec_cfg, c_in=24, seed=11)
    assert a.params.flatten().tobytes() == b.params.flatten().tobytes()


def test_describe_outputs():
    model = TcResNet8(seed=0)
    text = describe_text(model)
    assert "29615 trainable" in text
    assert "stem.conv.w" in text
    doc = json.loads(describe_json(model))
    assert doc["trainable_params"] == 29615
    assert doc["total_params"] == model.params.total_count
