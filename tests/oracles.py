"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: explicit O(N^2) DFT,
pointwise loops, exhaustive enumeration. Nothing imports from kwslab, so a
bug in the package cannot hide in its own oracle.
"""

import numpy as np
from scipy.fftpack import dct as scipy_dct


# -- MFCC reference (naive DFT + scipy DCT) -----------------------------------

def naive_mfcc(samples, sample_rate=16000, frame_len=480, hop=160, n_fft=512,
               n_mels=40, n_mfcc=40, preemphasis=0.97, log_floor=1e-10,
               fmin=0.0, fmax=None):
    x = np.asarray(samples, dtype=np.float64)
    if fmax is None:
        fmax = sample_rate / 2.0

    y = np.empty_like(x)
    y[0] = x[0]
    for n in range(1, len(x)):
        y[n] = x[n] - preemphasis * x[n - 1]

    n_frames = 1 + (len(x) - frame_len) // hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len)

    n_bins = n_fft // 2 + 1
    # explicit DFT matrix, no FFT anywhere
    n_idx = np.arange(n_fft)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), n_idx) / n_fft)

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = inv_mel(np.linspace(mel(fmin), mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_bins) * sample_rate / n_fft

    out = np.zeros((n_frames, n_mfcc))
    for f in range(n_frames):
        frame = np.zeros(n_fft)
        frame[:frame_len] = y[f * hop : f * hop + frame_len] * window
        spectrum = dft @ frame
        power = spectrum.real**2 + spectrum.imag**2

        mel_e = np.zeros(n_mels)
        for m in range(n_mels):
            lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
            for b in range(n_bins):
                w = min((bin_hz[b] - lo) / (ctr - lo), (hi - bin_hz[b]) / (hi - ctr))
                if w > 0:
                    mel_e[m] += w * power[b]
        log_mel = np.log(np.maximum(mel_e, log_floor))
        out[f] = scipy_dct(log_mel, type=2, norm="ortho")[:n_mfcc]
    return out


def mfcc_gather(samples, window, filterbank, dct, frame_len=480, hop=160, n_fft=512,
                preemphasis=0.97, log_floor=1e-10):
    """MFCC with its frames gathered through an index array, the
    formulation kwslab.dsp.mfcc must reproduce bit for bit. It takes the
    window, mel filterbank and DCT tables, so only the steps are compared."""
    x = np.asarray(samples, dtype=np.float64)
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - preemphasis * x[:-1]
    n_frames = 1 + (x.size - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = y[idx] * window[None, :]
    spec = np.fft.rfft(frames, n=n_fft, axis=1)
    power = spec.real**2 + spec.imag**2
    mel_energy = np.einsum("fb,mb->fm", power, filterbank, optimize=False)
    log_mel = np.log(np.maximum(mel_energy, log_floor))
    return np.einsum("fm,km->fk", log_mel, dct, optimize=False)


# -- finite differences --------------------------------------------------------

def central_diff(f, x, h=1e-4):
    """Gradient of scalar f at flat vector x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


# -- projection QP by active-set enumeration -----------------------------------

def qp_project_enum(g_t, G, feas_tol=1e-9):
    """argmin 0.5*||z - g_t||^2 s.t. G z >= 0, by trying every active set.

    For each subset S of constraints, project g_t onto the null space of G_S
    and keep the primal-feasible candidates; the optimum of this strictly
    convex QP is the feasible candidate with smallest objective.
    """
    g_t = np.asarray(g_t, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if G.size == 0:
        return g_t.copy()
    rows = [i for i in range(G.shape[0]) if np.dot(G[i], G[i]) > 0.0]

    best = None
    best_obj = np.inf
    for mask in range(1 << len(rows)):
        active = [rows[i] for i in range(len(rows)) if mask >> i & 1]
        if not active:
            z = g_t.copy()
        else:
            Gs = G[active]
            z = g_t - Gs.T @ np.linalg.pinv(Gs @ Gs.T) @ (Gs @ g_t)
        if np.all(G @ z >= -feas_tol):
            obj = 0.5 * float(np.dot(z - g_t, z - g_t))
            if obj < best_obj - 1e-15:
                best_obj = obj
                best = z
    assert best is not None, "no feasible candidate (should be impossible)"
    return best


# -- summary metrics as plain loops ---------------------------------------------

def acc_loop(rows, include_pretrain=True):
    T = len(rows) - 1
    lo = 0 if include_pretrain else 1
    vals = [rows[T][k] for k in range(lo, T + 1)]
    return sum(vals) / len(vals)


def la_loop(rows, include_pretrain=True):
    T = len(rows) - 1
    lo = 0 if include_pretrain else 1
    vals = [rows[t][t] for t in range(lo, T + 1)]
    return sum(vals) / len(vals)


def bwt_loop(rows, include_pretrain=True):
    T = len(rows) - 1
    lo = 0 if include_pretrain else 1
    vals = [rows[T][k] - rows[k][k] for k in range(lo, T)]
    return sum(vals) / len(vals)


# -- conv / batch norm / cross entropy forward by loops --------------------------

def conv1d_loops(x, w, b=None, stride=1):
    """Same-padded temporal conv, scalar loops only."""
    B, c_in, t_in = x.shape
    c_out, _, k = w.shape
    t_out = -(-t_in // stride)
    total = max(0, (t_out - 1) * stride + k - t_in)
    left = total // 2
    y = np.zeros((B, c_out, t_out))
    for n in range(B):
        for co in range(c_out):
            for t in range(t_out):
                s = 0.0
                for ci in range(c_in):
                    for j in range(k):
                        src = t * stride + j - left
                        if 0 <= src < t_in:
                            s += w[co, ci, j] * x[n, ci, src]
                if b is not None:
                    s += b[co]
                y[n, co, t] = s
    return y


def batch_norm_loops(x, gamma, beta, eps=1e-5):
    """Training-mode BN over [B, C, T] with biased variance."""
    B, C, T = x.shape
    y = np.zeros_like(x)
    for c in range(C):
        vals = x[:, c, :].ravel()
        mean = vals.mean()
        var = ((vals - mean) ** 2).mean()
        y[:, c, :] = gamma[c] * (x[:, c, :] - mean) / np.sqrt(var + eps) + beta[c]
    return y


def softmax_ce_loops(logits, labels):
    B = logits.shape[0]
    total = 0.0
    for n in range(B):
        z = logits[n] - logits[n].max()
        p = np.exp(z) / np.exp(z).sum()
        total += -np.log(p[labels[n]])
    return total / B


# -- conv1d / batch norm forward and backward as plain numpy ---------------------
#
# The plain formulations whose results kwslab.autodiff's kernels must reproduce
# bit for bit: np.pad plus a per-tap matmul and tensordot for conv1d, and
# ndarray.mean/var for batch norm.

def conv1d_pad_tensordot(x, w, b, stride, gy):
    """Same-padded conv1d and its gradients for upstream gradient gy.

    Returns (y, gx, gw, gb); gb is None without a bias.
    """
    B, c_in, t_in = x.shape
    c_out, _, k = w.shape
    t_out = -(-t_in // stride)
    total = max(0, (t_out - 1) * stride + k - t_in)
    left = total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, total - left)))

    y = np.zeros((B, c_out, t_out))
    for j in range(k):
        y += np.matmul(w[:, :, j], xp[:, :, j : j + stride * t_out : stride])
    if b is not None:
        y += b[None, :, None]

    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + stride * t_out : stride] += np.matmul(w[:, :, j].T, gy)
    gw = np.zeros_like(w)
    for j in range(k):
        xs = xp[:, :, j : j + stride * t_out : stride]
        gw[:, :, j] = np.tensordot(gy, xs, axes=([0, 2], [0, 2]))
    gb = None if b is None else gy.sum(axis=(0, 2))
    return y, gxp[:, :, left : left + t_in], gw, gb


def batch_norm_mean_var(x, gamma, beta, running_mean, running_var, training, gy,
                        update_running=True, momentum=0.1, eps=1e-5):
    """Batch norm over [B, C, T] and its gradients for upstream gradient gy.

    Returns (y, gx, ggamma, gbeta, running_mean, running_var); the running
    stats come back as updated copies.
    """
    running_mean = running_mean.copy()
    running_var = running_var.copy()
    if training:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
            running_var *= 1.0 - momentum
            running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]

    ggamma = (gy * xhat).sum(axis=(0, 2))
    gbeta = gy.sum(axis=(0, 2))
    scale = (gamma * inv_std)[None, :, None]
    if training:
        n = x.shape[0] * x.shape[2]
        mean_gy = gy.mean(axis=(0, 2))[None, :, None]
        mean_gy_xhat = (gy * xhat).sum(axis=(0, 2))[None, :, None] / n
        gx = scale * (gy - mean_gy - xhat * mean_gy_xhat)
    else:
        gx = scale * gy
    return y, gx, ggamma, gbeta, running_mean, running_var
