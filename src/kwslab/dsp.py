"""MFCC frontend for one-second 16 kHz keyword clips.

Pipeline: pre-emphasis, framing, Hann window, power spectrum, triangular
mel filterbank (HTK scale), floored log, orthonormal DCT-II. The settings
are fixed module constants (conventional KWS values), so the window,
filterbank and DCT are built once at import and shared as read-only arrays.
Everything else is a pure function of the input clip, so results are
bitwise reproducible in any process: the package starts no threads, and
its extraction helpers are forked processes.

Every clip the package makes is SAMPLE_RATE audio (`read_wav` rejects any
other rate), and a clip padded or trimmed to CLIP_SAMPLES gives one feature
row of FEATURE_SHAPE, the layout of every feature block and model input.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyDataError, ShapeError, WavFormatError
from .fileio import replace_on_success

SAMPLE_RATE = 16000
CLIP_SAMPLES = 16000
FRAME_LEN = 480  # 30 ms
HOP_LEN = 160  # 10 ms
N_FFT = 512  # next power of two >= FRAME_LEN
N_MELS = 40
N_MFCC = 40
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
FMIN_HZ = 0.0
FMAX_HZ = SAMPLE_RATE / 2.0  # Nyquist


@dataclass
class AudioClip:
    """One mono SAMPLE_RATE audio clip with samples scaled into [-1, 1]."""

    samples: np.ndarray
    source_id: str = ""


def num_frames(n_samples: int) -> int:
    """Closed-form frame count: 1 + floor((n - frame_len) / hop)."""
    if n_samples < FRAME_LEN:
        raise ShapeError(
            f"clip of {n_samples} samples is shorter than one frame ({FRAME_LEN})"
        )
    return 1 + (n_samples - FRAME_LEN) // HOP_LEN


# [N_MFCC, n_frames] of one clip, the row layout of every feature block
FEATURE_SHAPE = (N_MFCC, num_frames(CLIP_SAMPLES))


def pad_or_trim(clip: AudioClip) -> AudioClip:
    """Zero-pad the tail or truncate so the clip has exactly CLIP_SAMPLES samples."""
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyDataError(f"clip {clip.source_id!r} has no samples")
    if x.size > CLIP_SAMPLES:
        y = x[:CLIP_SAMPLES].copy()
    elif x.size < CLIP_SAMPLES:
        y = np.concatenate([x, np.zeros(CLIP_SAMPLES - x.size)])
    else:
        y = x.copy()
    return AudioClip(y, clip.source_id)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _mel_filterbank() -> np.ndarray:
    """Triangular mel filters sampled at FFT bin centers, [N_MELS, N_FFT//2 + 1].

    HTK mel scale, unit peak, no area normalization.
    """
    n_bins = N_FFT // 2 + 1
    bin_hz = np.arange(n_bins) * (SAMPLE_RATE / N_FFT)
    edges_mel = np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2)
    edges_hz = mel_to_hz(edges_mel)

    fb = np.zeros((N_MELS, n_bins))
    for m in range(N_MELS):
        lo, ctr, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_hz - lo) / (ctr - lo)
        down = (hi - bin_hz) / (hi - ctr)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def _dct_matrix() -> np.ndarray:
    """Orthonormal DCT-II matrix [N_MFCC, N_MELS]; rows are basis vectors."""
    n = np.arange(N_MELS)
    k = np.arange(N_MFCC)[:, None]
    mat = np.cos(np.pi * (2 * n + 1) * k / (2.0 * N_MELS))
    mat *= np.sqrt(2.0 / N_MELS)
    mat[0] *= np.sqrt(0.5)
    return mat


# periodic Hann, the usual STFT analysis window
HANN_WINDOW = _read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN))
MEL_FILTERBANK = _read_only(_mel_filterbank())
DCT_MATRIX = _read_only(_dct_matrix())


def mfcc(clip: AudioClip) -> np.ndarray:
    """Extract the [n_frames, N_MFCC] MFCC matrix of one clip.

    The projection steps use einsum with a fixed summation order instead of
    BLAS so the output is bitwise identical regardless of thread count.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyDataError(f"clip {clip.source_id!r} has no samples")
    num_frames(x.size)  # a clip shorter than one frame is a ShapeError

    # pre-emphasis; first sample passes through unchanged
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - PREEMPHASIS * x[:-1]

    frames = sliding_window_view(y, FRAME_LEN)[::HOP_LEN] * HANN_WINDOW

    spec = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = spec.real**2 + spec.imag**2

    mel_energy = np.einsum("fb,mb->fm", power, MEL_FILTERBANK, optimize=False)
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))

    coeffs = np.einsum("fm,km->fk", log_mel, DCT_MATRIX, optimize=False)
    if not np.all(np.isfinite(coeffs)):
        raise ShapeError(f"non-finite MFCC output for clip {clip.source_id!r}")
    return coeffs


def check_wav(fh, path) -> int:
    """Every check on the header and size of the WAV file `fh` at `path`:
    RIFF PCM, 16-bit signed little-endian, mono, SAMPLE_RATE, and a data
    chunk of at least one sample that the file holds whole. Reads only the
    header and leaves `fh` at the data; returns the sample count."""
    try:
        wf = wave.open(fh, "rb")
    except (wave.Error, EOFError) as exc:  # EOFError: a header cut short
        raise WavFormatError(f"{path}: not a valid RIFF WAV file ({exc or 'truncated'})") from exc
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
    n = wf.getnframes()
    held = os.fstat(fh.fileno()).st_size - fh.tell()  # wave.open stops at the data
    if 2 * n > held:
        raise WavFormatError(f"{path}: data chunk of {2 * n} bytes is cut short to {held}")
    if n == 0:
        raise EmptyDataError(f"{path}: WAV file holds no samples")
    return n


def read_wav(path, source_id: str = "") -> AudioClip:
    """Read a RIFF PCM WAV file: 16-bit signed little-endian, mono, 16 kHz.

    Anything else, a file cut short included, is rejected with WavFormatError.
    """
    with open(str(path), "rb") as fh:
        raw = fh.read(2 * check_wav(fh, path))
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples, source_id or str(path))


def write_wav(path, samples: np.ndarray) -> None:
    """Write samples in [-1, 1] as 16-bit PCM mono at SAMPLE_RATE."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2")
    with replace_on_success(path, "wb") as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())

