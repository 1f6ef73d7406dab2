"""Naive reference implementations used as oracles.

Everything here favors obviousness over speed: explicit loops, no shared
code with the package internals beyond plain numpy. The one exception is
``taped_bffn``, a composition of the package's own taped operators: it is
the oracle for the bits of the gradients, which loops cannot reproduce.
"""

from __future__ import annotations

import math

import numpy as np

import evit.tensor as T


def naive_conv2d(x, w, stride=1, padding=0):
    n, c, hh, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (hh + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for b in range(n):
        for oc in range(o):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, oc, i, j] = np.sum(patch * w[oc])
    return out


def naive_dwconv2d(x, w, stride=1, padding=0):
    n, c, hh, ww = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (hh + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, ch, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, ch, i, j] = np.sum(patch * w[ch, 0])
    return out


def softmax_longdouble(x):
    """Row softmax computed in extended precision, returned as float64."""
    xl = x.astype(np.longdouble)
    shifted = xl - xl.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float64)


def layernorm_twopass(x, gamma, beta, eps=1e-5):
    """Two-pass mean/variance, explicit loops over rows."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        row = flat[r]
        mu = row.sum() / row.size
        var = ((row - mu) ** 2).sum() / row.size
        out[r] = (row - mu) / math.sqrt(var + eps) * gamma + beta
    return out.reshape(x.shape)


def naive_single_head_attention(tokens, q_w, k_w, v_w, out_w):
    """Plain O(N^2) attention for one batch of token matrices (N, T, D)."""
    n, t, d = tokens.shape
    out = np.zeros_like(tokens)
    scale = 1.0 / math.sqrt(d)
    for b in range(n):
        q = tokens[b] @ q_w
        k = tokens[b] @ k_w
        v = tokens[b] @ v_w
        mixed = np.zeros((t, d))
        for i in range(t):
            scores = np.array([np.dot(q[i], k[j]) * scale for j in range(t)])
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            for j in range(t):
                mixed[i] += weights[j] * v[j]
        out[b] = mixed @ out_w
    return out


def naive_fovea_attention(x, heads, reduction, q_w, k_w, v_w, out_w, reduce_w, reduce_b):
    """Loop-based multi-head attention over a (N, C, H, W) map.

    Mirrors the production contract: queries from the full grid, keys/values
    from a strided depthwise pooling conv (skipped at reduction 1), per-head
    scaling by 1/sqrt(head_dim), output projection at the end.
    """
    n, c, h, w = x.shape
    hd = c // heads
    scale = 1.0 / math.sqrt(hd)
    tokens = x.transpose(0, 2, 3, 1).reshape(n, h * w, c)
    if reduction > 1:
        pooled = naive_dwconv2d(x, reduce_w, stride=reduction) + reduce_b[None, :, None, None]
        kv = pooled.transpose(0, 2, 3, 1).reshape(n, -1, c)
    else:
        kv = tokens
    out = np.zeros_like(tokens)
    for b in range(n):
        q = tokens[b] @ q_w
        k = kv[b] @ k_w
        v = kv[b] @ v_w
        merged = np.zeros((h * w, c))
        for head in range(heads):
            sl = slice(head * hd, (head + 1) * hd)
            for i in range(h * w):
                scores = np.array([np.dot(q[i, sl], k[j, sl]) * scale for j in range(k.shape[0])])
                scores -= scores.max()
                weights = np.exp(scores)
                weights /= weights.sum()
                for j in range(k.shape[0]):
                    merged[i, sl] += weights[j] * v[j, sl]
        out[b] = merged @ out_w
    return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def naive_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def taped_bffn(hidden, cfg, params):
    """The BFFN after fc1 as one taped node per operator: split, shallow
    depthwise conv, add, deep depthwise conv, concat, gated GELU and fc2.

    Every node records its own adjoint, and the walk sums the pieces, so
    these gradients are the bits the BFFN's single node must reproduce.
    """
    hs, hd = cfg.shallow_width, cfg.deep_width
    shallow_dw, deep_dw, fc2 = params["shallow_dw"], params["deep_dw"], params["fc2"]
    shallow, deep = T.split(hidden, [hs, hd])
    shallow = T.dwconv2d(shallow, shallow_dw["weight"], 1, 1, shallow_dw["bias"])
    deep = T.add(shallow if hs == hd else T.split(shallow, [hd, hs - hd])[0], deep)
    deep = T.dwconv2d(deep, deep_dw["weight"], 1, 1, deep_dw["bias"])
    gated = T.gelu(T.concat([shallow, deep]), params["fuse"]["weight"])
    return T.linear(gated, fc2["weight"], fc2["bias"])
