"""MFCC frontend for one-second 16 kHz keyword clips.

Pipeline: pre-emphasis, framing, Hann window, power spectrum, triangular
mel filterbank (HTK scale), floored log, orthonormal DCT-II. Everything is
a pure function of the input clip and the config, so results are bitwise
reproducible and safe to call from multiple threads. The window, filterbank
and DCT depend only on the config; they are built once per config and
shared as read-only arrays.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError, ShapeError, WavFormatError

SAMPLE_RATE = 16000
CLIP_SAMPLES = 16000


@dataclass(frozen=True)
class FrontendConfig:
    """Feature extraction parameters. Defaults are conventional KWS settings."""

    sample_rate: int = SAMPLE_RATE
    frame_ms: float = 30.0
    hop_ms: float = 10.0
    n_mels: int = 40
    n_mfcc: int = 40
    preemphasis: float = 0.97
    log_floor: float = 1e-10
    fmin: float = 0.0
    fmax: float | None = None  # None means Nyquist

    @property
    def frame_len(self) -> int:
        return int(round(self.sample_rate * self.frame_ms / 1000.0))

    @property
    def hop_len(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    @property
    def n_fft(self) -> int:
        # next power of two >= frame length
        n = 1
        while n < self.frame_len:
            n *= 2
        return n

    @property
    def fmax_hz(self) -> float:
        return self.sample_rate / 2.0 if self.fmax is None else self.fmax


@dataclass
class AudioClip:
    """One mono audio clip with samples scaled into [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    label: str = ""
    source_id: str = ""


def num_frames(n_samples: int, cfg: FrontendConfig) -> int:
    """Closed-form frame count: 1 + floor((n - frame_len) / hop)."""
    if n_samples < cfg.frame_len:
        raise ShapeError(
            f"clip of {n_samples} samples is shorter than one frame ({cfg.frame_len})"
        )
    return 1 + (n_samples - cfg.frame_len) // cfg.hop_len


def pad_or_trim(clip: AudioClip, target_len: int = CLIP_SAMPLES) -> AudioClip:
    """Zero-pad the tail or truncate so the clip has exactly target_len samples."""
    if target_len <= 0:
        raise ShapeError(f"target_len must be positive, got {target_len}")
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyDataError(f"clip {clip.source_id!r} has no samples")
    if x.size > target_len:
        y = x[:target_len].copy()
    elif x.size < target_len:
        y = np.concatenate([x, np.zeros(target_len - x.size)])
    else:
        y = x.copy()
    return AudioClip(y, clip.sample_rate, clip.label, clip.source_id)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filters sampled at FFT bin centers.

    Returns [n_mels, n_fft//2 + 1], read-only and memoised per config. HTK
    mel scale, unit peak, no area normalization.
    """
    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (cfg.sample_rate / cfg.n_fft)
    edges_mel = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)

    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, ctr, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_hz - lo) / (ctr - lo)
        down = (hi - bin_hz) / (hi - ctr)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=16)
def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows are basis vectors; read-only, memoised."""
    n = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    mat = np.cos(np.pi * (2 * n + 1) * k / (2.0 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=16)
def hann_window(n: int) -> np.ndarray:
    # periodic Hann, the usual STFT analysis window; read-only, memoised
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    win.setflags(write=False)
    return win


def mfcc(clip: AudioClip, cfg: FrontendConfig = FrontendConfig()) -> np.ndarray:
    """Extract the [n_frames, n_mfcc] MFCC matrix of one clip.

    The projection steps use einsum with a fixed summation order instead of
    BLAS so the output is bitwise identical regardless of thread count.
    """
    if cfg.n_mfcc > cfg.n_mels:
        raise ShapeError(f"n_mfcc ({cfg.n_mfcc}) exceeds n_mels ({cfg.n_mels})")
    if clip.sample_rate != cfg.sample_rate:
        raise ShapeError(
            f"clip sample rate {clip.sample_rate} != config {cfg.sample_rate}"
        )
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyDataError(f"clip {clip.source_id!r} has no samples")
    n_fr = num_frames(x.size, cfg)

    # pre-emphasis; first sample passes through unchanged
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - cfg.preemphasis * x[:-1]

    idx = np.arange(cfg.frame_len)[None, :] + cfg.hop_len * np.arange(n_fr)[:, None]
    frames = y[idx] * hann_window(cfg.frame_len)[None, :]

    spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = spec.real**2 + spec.imag**2

    fb = mel_filterbank(cfg)
    mel_energy = np.einsum("fb,mb->fm", power, fb, optimize=False)
    log_mel = np.log(np.maximum(mel_energy, cfg.log_floor))

    dct = dct_matrix(cfg.n_mfcc, cfg.n_mels)
    coeffs = np.einsum("fm,km->fk", log_mel, dct, optimize=False)
    if not np.all(np.isfinite(coeffs)):
        raise ShapeError(f"non-finite MFCC output for clip {clip.source_id!r}")
    return coeffs


def read_wav(path, label: str = "", source_id: str = "") -> AudioClip:
    """Read a RIFF PCM WAV file: 16-bit signed little-endian, mono, 16 kHz.

    Anything else is rejected with WavFormatError.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise WavFormatError(f"{path}: compressed WAV ({wf.getcomptype()})")
            if wf.getnchannels() != 1:
                raise WavFormatError(f"{path}: expected mono, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise WavFormatError(
                    f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit"
                )
            if wf.getframerate() != SAMPLE_RATE:
                raise WavFormatError(
                    f"{path}: expected {SAMPLE_RATE} Hz, got {wf.getframerate()} Hz"
                )
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise WavFormatError(f"{path}: not a valid RIFF WAV file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise EmptyDataError(f"{path}: WAV file holds no samples")
    return AudioClip(samples, SAMPLE_RATE, label, source_id or str(path))


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    """Write samples in [-1, 1] as 16-bit PCM mono."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


def save_feature_csv(path, feat: np.ndarray) -> None:
    """Golden-vector format: one CSV row per frame, full float precision."""
    np.savetxt(path, feat, delimiter=",", fmt="%.17g")


def load_feature_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))
