import os
import struct
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import GOLDEN_DIR
from kwslab import dsp
from kwslab.errors import EmptyDataError, ShapeError, WavFormatError

CFG = dsp.FrontendConfig()


def sine_clip(freq=1000.0, amp=0.5, n=16000):
    t = np.arange(n) / dsp.SAMPLE_RATE
    return dsp.AudioClip(amp * np.sin(2 * np.pi * freq * t))


def noise_clip(seed=42, amp=0.1, n=16000):
    return dsp.AudioClip(np.random.default_rng(seed).standard_normal(n) * amp)


# -- pad_or_trim ---------------------------------------------------------------

def test_pad_or_trim_identity():
    clip = sine_clip(n=16000)
    out = dsp.pad_or_trim(clip, 16000)
    assert np.array_equal(out.samples, clip.samples)


def test_pad_or_trim_pads_tail_with_zeros():
    clip = sine_clip(n=12000)
    out = dsp.pad_or_trim(clip, 16000)
    assert out.samples.size == 16000
    assert np.array_equal(out.samples[:12000], clip.samples)
    assert np.all(out.samples[12000:] == 0.0)


def test_pad_or_trim_truncates():
    clip = sine_clip(n=20000)
    out = dsp.pad_or_trim(clip, 16000)
    assert np.array_equal(out.samples, clip.samples[:16000])


def test_pad_or_trim_rejects_empty_and_bad_target():
    with pytest.raises(EmptyDataError):
        dsp.pad_or_trim(dsp.AudioClip(np.array([])), 16000)
    with pytest.raises(ShapeError):
        dsp.pad_or_trim(sine_clip(), 0)


# -- frame count -----------------------------------------------------------------

def test_num_frames_closed_form():
    assert dsp.num_frames(16000, CFG) == 98
    assert dsp.num_frames(480, CFG) == 1
    assert dsp.num_frames(639, CFG) == 1
    assert dsp.num_frames(640, CFG) == 2


def test_num_frames_too_short():
    with pytest.raises(ShapeError):
        dsp.num_frames(479, CFG)


@given(st.integers(min_value=480, max_value=40000))
def test_mfcc_shape_matches_closed_form(n):
    clip = dsp.AudioClip(np.linspace(-0.5, 0.5, n))
    feat = dsp.mfcc(clip, CFG)
    assert feat.shape == (dsp.num_frames(n, CFG), CFG.n_mfcc)
    assert np.all(np.isfinite(feat))


# -- mfcc ------------------------------------------------------------------------

def test_mfcc_all_zero_clip():
    # log(floor) in every band; orthonormal DCT of a constant hits only coeff 0
    feat = dsp.mfcc(dsp.AudioClip(np.zeros(16000)), CFG)
    expected_c0 = np.log(CFG.log_floor) * np.sqrt(CFG.n_mels)
    assert np.allclose(feat[:, 0], expected_c0, rtol=1e-12)
    assert np.allclose(feat[:, 1:], 0.0, atol=1e-9)


@pytest.mark.parametrize(
    "name,make",
    [("sine_1khz", lambda: sine_clip()), ("noise_seed42", lambda: noise_clip())],
)
def test_mfcc_matches_golden(name, make):
    golden = np.loadtxt(os.path.join(GOLDEN_DIR, f"{name}.csv"), delimiter=",")
    got = dsp.mfcc(make(), CFG)
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, atol=1e-8)


def test_mfcc_matches_naive_oracle_short_clip():
    # direct oracle comparison on a short clip, independent of the stored files
    sig = np.random.default_rng(7).uniform(-0.3, 0.3, 1600)
    got = dsp.mfcc(dsp.AudioClip(sig), CFG)
    ref = oracles.naive_mfcc(sig)
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_mfcc_sine_energy_lands_near_1khz():
    feat = dsp.mfcc(sine_clip(), CFG)
    fb = dsp.mel_filterbank(CFG)
    bin_hz = np.arange(fb.shape[1]) * CFG.sample_rate / CFG.n_fft
    centers = (fb * bin_hz).sum(axis=1) / np.maximum(fb.sum(axis=1), 1e-12)
    # invert the DCT to recover log mel energies, find the hottest band
    dct = dsp.dct_matrix(CFG.n_mfcc, CFG.n_mels)
    log_mel = feat[0] @ dct
    assert abs(centers[np.argmax(log_mel)] - 1000.0) < 200.0


def test_mfcc_determinism_bitwise():
    clip = noise_clip(seed=3)
    a = dsp.mfcc(clip, CFG)
    b = dsp.mfcc(dsp.AudioClip(clip.samples.copy()), CFG)
    assert a.tobytes() == b.tobytes()


def test_mfcc_scaling_shifts_only_coefficient_zero():
    # power scales by c^2 -> every log mel band gains 2 ln c (none floored for
    # broadband noise) -> orthonormal DCT maps the constant shift to coeff 0
    clip = noise_clip(seed=5, amp=0.1)
    c = 2.0
    base = dsp.mfcc(clip, CFG)
    scaled = dsp.mfcc(dsp.AudioClip(clip.samples * c), CFG)
    diff = scaled - base
    np.testing.assert_allclose(diff[:, 0], 2.0 * np.log(c) * np.sqrt(CFG.n_mels), rtol=1e-9)
    np.testing.assert_allclose(diff[:, 1:], 0.0, atol=1e-9)


def test_mfcc_rejects_bad_config_and_input():
    with pytest.raises(ShapeError):
        dsp.mfcc(sine_clip(), dsp.FrontendConfig(n_mfcc=41, n_mels=40))
    with pytest.raises(ShapeError):
        dsp.mfcc(dsp.AudioClip(np.zeros(100)), CFG)  # shorter than one frame
    with pytest.raises(ShapeError):
        dsp.mfcc(dsp.AudioClip(np.zeros(16000), sample_rate=8000), CFG)
    with pytest.raises(EmptyDataError):
        dsp.mfcc(dsp.AudioClip(np.array([])), CFG)


def test_dct_matrix_is_orthonormal():
    mat = dsp.dct_matrix(40, 40)
    np.testing.assert_allclose(mat @ mat.T, np.eye(40), atol=1e-12)


def test_frontend_tables_are_memoised_and_read_only():
    fb = dsp.mel_filterbank(CFG)
    assert dsp.mel_filterbank(dsp.FrontendConfig()) is fb
    assert dsp.dct_matrix(CFG.n_mfcc, CFG.n_mels) is dsp.dct_matrix(CFG.n_mfcc, CFG.n_mels)
    for table in (fb, dsp.dct_matrix(CFG.n_mfcc, CFG.n_mels), dsp.hann_window(CFG.frame_len)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_mel_filterbank_covers_band():
    fb = dsp.mel_filterbank(CFG)
    assert fb.shape == (40, CFG.n_fft // 2 + 1)
    assert np.all(fb >= 0.0)
    assert np.all(fb.max(axis=1) > 0.0)


# -- wav io ----------------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    path = tmp_path / "clip.wav"
    samples = np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000) * 0.7
    dsp.write_wav(path, samples)
    back = dsp.read_wav(path)
    assert back.samples.size == 16000
    # write scales by 32767, read divides by 32768: error <= (|x| + 0.5) / 32768
    assert np.abs(back.samples - samples).max() <= 1.2 / 32768.0


def _raw_wav(path, n_channels=1, sampwidth=2, rate=16000):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(n_channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(b"\x00" * (sampwidth * n_channels * 100))


def test_read_wav_rejects_wrong_formats(tmp_path):
    stereo = tmp_path / "stereo.wav"
    _raw_wav(stereo, n_channels=2)
    with pytest.raises(WavFormatError):
        dsp.read_wav(stereo)

    eight_bit = tmp_path / "eight.wav"
    _raw_wav(eight_bit, sampwidth=1)
    with pytest.raises(WavFormatError):
        dsp.read_wav(eight_bit)

    wrong_rate = tmp_path / "rate.wav"
    _raw_wav(wrong_rate, rate=22050)
    with pytest.raises(WavFormatError):
        dsp.read_wav(wrong_rate)

    not_wav = tmp_path / "not.wav"
    not_wav.write_bytes(b"RIFFxxxx" + struct.pack("<I", 0))
    with pytest.raises(WavFormatError):
        dsp.read_wav(not_wav)


def test_feature_csv_round_trip(tmp_path):
    feat = dsp.mfcc(noise_clip(seed=9), CFG)
    path = tmp_path / "feat.csv"
    dsp.save_feature_csv(path, feat)
    back = dsp.load_feature_csv(path)
    np.testing.assert_array_equal(back, feat)
