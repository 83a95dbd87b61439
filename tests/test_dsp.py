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


def sine_clip(freq=1000.0, amp=0.5, n=16000):
    t = np.arange(n) / dsp.SAMPLE_RATE
    return dsp.AudioClip(amp * np.sin(2 * np.pi * freq * t))


def noise_clip(seed=42, amp=0.1, n=16000):
    return dsp.AudioClip(np.random.default_rng(seed).standard_normal(n) * amp)


# -- pad_or_trim ---------------------------------------------------------------

def test_pad_or_trim_identity():
    clip = sine_clip(n=16000)
    out = dsp.pad_or_trim(clip)
    assert np.array_equal(out.samples, clip.samples)


def test_pad_or_trim_pads_tail_with_zeros():
    clip = sine_clip(n=12000)
    out = dsp.pad_or_trim(clip)
    assert out.samples.size == 16000
    assert np.array_equal(out.samples[:12000], clip.samples)
    assert np.all(out.samples[12000:] == 0.0)


def test_pad_or_trim_truncates():
    clip = sine_clip(n=20000)
    out = dsp.pad_or_trim(clip)
    assert np.array_equal(out.samples, clip.samples[:16000])


def test_pad_or_trim_rejects_empty():
    with pytest.raises(EmptyDataError):
        dsp.pad_or_trim(dsp.AudioClip(np.array([])))


# -- frame count -----------------------------------------------------------------

def test_num_frames_closed_form():
    assert dsp.num_frames(16000) == 98
    assert dsp.num_frames(480) == 1
    assert dsp.num_frames(639) == 1
    assert dsp.num_frames(640) == 2


def test_num_frames_too_short():
    with pytest.raises(ShapeError):
        dsp.num_frames(479)


@given(st.integers(min_value=480, max_value=40000))
def test_mfcc_shape_matches_closed_form(n):
    clip = dsp.AudioClip(np.linspace(-0.5, 0.5, n))
    feat = dsp.mfcc(clip)
    assert feat.shape == (dsp.num_frames(n), dsp.N_MFCC)
    assert np.all(np.isfinite(feat))


# -- mfcc ------------------------------------------------------------------------

def test_mfcc_all_zero_clip():
    # log(floor) in every band; orthonormal DCT of a constant hits only coeff 0
    feat = dsp.mfcc(dsp.AudioClip(np.zeros(16000)))
    expected_c0 = np.log(dsp.LOG_FLOOR) * np.sqrt(dsp.N_MELS)
    assert np.allclose(feat[:, 0], expected_c0, rtol=1e-12)
    assert np.allclose(feat[:, 1:], 0.0, atol=1e-9)


@pytest.mark.parametrize(
    "name,make",
    [("sine_1khz", lambda: sine_clip()), ("noise_seed42", lambda: noise_clip())],
)
def test_mfcc_matches_golden(name, make):
    golden = np.loadtxt(os.path.join(GOLDEN_DIR, f"{name}.csv"), delimiter=",")
    got = dsp.mfcc(make())
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, atol=1e-8)


@pytest.mark.parametrize("make", [
    sine_clip, noise_clip,
    lambda: dsp.AudioClip(np.random.default_rng(7).uniform(-0.3, 0.3, 1601)),
])
def test_mfcc_is_bitwise_the_gather_formulation(make):
    clip = make()
    expected = oracles.mfcc_gather(
        clip.samples, dsp.HANN_WINDOW, dsp.MEL_FILTERBANK, dsp.DCT_MATRIX)
    assert np.array_equal(dsp.mfcc(clip), expected)


def test_mfcc_matches_naive_oracle_short_clip():
    # direct oracle comparison on a short clip, independent of the stored files
    sig = np.random.default_rng(7).uniform(-0.3, 0.3, 1600)
    got = dsp.mfcc(dsp.AudioClip(sig))
    ref = oracles.naive_mfcc(sig)
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_mfcc_sine_energy_lands_near_1khz():
    feat = dsp.mfcc(sine_clip())
    fb = dsp.MEL_FILTERBANK
    bin_hz = np.arange(fb.shape[1]) * dsp.SAMPLE_RATE / dsp.N_FFT
    centers = (fb * bin_hz).sum(axis=1) / np.maximum(fb.sum(axis=1), 1e-12)
    # invert the DCT to recover log mel energies, find the hottest band
    log_mel = feat[0] @ dsp.DCT_MATRIX
    assert abs(centers[np.argmax(log_mel)] - 1000.0) < 200.0


def test_mfcc_determinism_bitwise():
    clip = noise_clip(seed=3)
    a = dsp.mfcc(clip)
    b = dsp.mfcc(dsp.AudioClip(clip.samples.copy()))
    assert a.tobytes() == b.tobytes()


def test_mfcc_scaling_shifts_only_coefficient_zero():
    # power scales by c^2 -> every log mel band gains 2 ln c (none floored for
    # broadband noise) -> orthonormal DCT maps the constant shift to coeff 0
    clip = noise_clip(seed=5, amp=0.1)
    c = 2.0
    base = dsp.mfcc(clip)
    scaled = dsp.mfcc(dsp.AudioClip(clip.samples * c))
    diff = scaled - base
    np.testing.assert_allclose(diff[:, 0], 2.0 * np.log(c) * np.sqrt(dsp.N_MELS), rtol=1e-9)
    np.testing.assert_allclose(diff[:, 1:], 0.0, atol=1e-9)


def test_mfcc_rejects_bad_input():
    with pytest.raises(ShapeError):
        dsp.mfcc(dsp.AudioClip(np.zeros(100)))  # shorter than one frame
    with pytest.raises(EmptyDataError):
        dsp.mfcc(dsp.AudioClip(np.array([])))


def test_dct_matrix_is_orthonormal():
    mat = dsp.DCT_MATRIX
    np.testing.assert_allclose(mat @ mat.T, np.eye(40), atol=1e-12)


def test_frontend_tables_are_read_only():
    for table in (dsp.MEL_FILTERBANK, dsp.DCT_MATRIX, dsp.HANN_WINDOW):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_mel_filterbank_covers_band():
    fb = dsp.MEL_FILTERBANK
    assert fb.shape == (40, dsp.N_FFT // 2 + 1)
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

    # a file cut inside its header, one cut in the middle of a sample, and
    # one cut by a whole sample
    whole = tmp_path / "whole.wav"
    _raw_wav(whole)
    data = whole.read_bytes()
    for name, cut in (("header.wav", 30), ("sample.wav", len(data) - 1),
                      ("short.wav", len(data) - 2)):
        truncated = tmp_path / name
        truncated.write_bytes(data[:cut])
        with pytest.raises(WavFormatError, match=name):
            dsp.read_wav(truncated)

    empty = tmp_path / "empty.wav"
    with wave.open(str(empty), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
    with pytest.raises(EmptyDataError):
        dsp.read_wav(empty)

    # the stream-build check raises what a read raises, type and text alike
    def check(path):
        with open(path, "rb") as fh:
            return dsp.check_wav(fh, path)

    assert check(whole) == 100
    for path in sorted(set(tmp_path.glob("*.wav")) - {whole}):
        with pytest.raises((WavFormatError, EmptyDataError)) as read:
            dsp.read_wav(path)
        with pytest.raises(read.type) as checked:
            check(path)
        assert str(checked.value) == str(read.value)
