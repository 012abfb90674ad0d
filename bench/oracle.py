"""Independent float64 reference for the benchmark's output checks.

Plain numpy, no imports from ``spt``: a masked forward pass with the
top-K prune schedule, the batch MSE loss, a hand-written backward pass and
the Adam update.  Formulas (layer-norm epsilon, tanh GELU, pre-norm block,
logit scaling, round-half-up K, ties toward the lower column) follow the
library's documented choices, so agreement is expected to rounding level;
the operation order differs, which is why checks use tolerances.

Parameters are a dict of arrays keyed like ``PoseModelParams.named_parameters``
(``encoder.3.mlp_w1``, ``head_w2``, ...); the config is any object with the
``ModelConfig`` attribute names.
"""

from __future__ import annotations

import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
LN_EPS = 1e-5

BLOCK_FIELDS = ("qkv_projection", "output_projection", "norm1_gain", "norm1_bias",
                "norm2_gain", "norm2_bias", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")


def _layer_norm(x, gain, bias):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = centered * inv
    return xhat * gain + bias, (xhat, inv)


def _layer_norm_back(dy, gain, cache, grads, prefix):
    xhat, inv = cache
    grads[prefix + "gain"] += (dy * xhat).sum(axis=0)
    grads[prefix + "bias"] += dy.sum(axis=0)
    dxhat = dy * gain
    return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def _gelu(u):
    t = np.tanh(GELU_C * (u + GELU_A * u * u * u))
    return 0.5 * u * (1.0 + t), t


def _gelu_back(dy, u, t):
    du = GELU_C * (1.0 + 3.0 * GELU_A * u * u)
    return dy * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * du)


def _block(x, live, p, heads):
    """One pre-norm block under a boolean ``live`` mask; returns (out, probs, cache)."""
    n, d = x.shape
    hd = d // heads
    a, ln1 = _layer_norm(x, p["norm1_gain"], p["norm1_bias"])
    packed = (a @ p["qkv_projection"]).reshape(n, 3, heads, hd).transpose(1, 2, 0, 3)
    q, k, v = packed[0], packed[1], packed[2]
    logits = (q @ k.transpose(0, 2, 1)) / math.sqrt(hd)
    logits = logits + np.where(live, 0.0, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    merged = (probs @ v).transpose(1, 0, 2).reshape(n, d)
    h = x + merged @ p["output_projection"]
    z, ln2 = _layer_norm(h, p["norm2_gain"], p["norm2_bias"])
    u = z @ p["mlp_w1"] + p["mlp_b1"]
    g, t = _gelu(u)
    out = h + g @ p["mlp_w2"] + p["mlp_b2"]
    cache = (a, ln1, q, k, v, probs, merged, z, ln2, u, g, t)
    return out, probs, cache


def _block_back(dout, p, heads, cache, grads, prefix):
    a, ln1, q, k, v, probs, merged, z, ln2, u, g, t = cache
    n, d = dout.shape
    hd = d // heads
    grads[prefix + "mlp_w2"] += g.T @ dout
    grads[prefix + "mlp_b2"] += dout.sum(axis=0)
    du = _gelu_back(dout @ p["mlp_w2"].T, u, t)
    grads[prefix + "mlp_w1"] += z.T @ du
    grads[prefix + "mlp_b1"] += du.sum(axis=0)
    dh = dout + _layer_norm_back(du @ p["mlp_w1"].T, p["norm2_gain"], ln2, grads,
                                 prefix + "norm2_")
    grads[prefix + "output_projection"] += merged.T @ dh
    dctx = (dh @ p["output_projection"].T).reshape(n, heads, hd).transpose(1, 0, 2)
    dprobs = dctx @ v.transpose(0, 2, 1)
    dv = probs.transpose(0, 2, 1) @ dctx
    dlogits = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dlogits /= math.sqrt(hd)
    dq = dlogits @ k
    dk = dlogits.transpose(0, 2, 1) @ q
    dpacked = np.stack([dq, dk, dv]).transpose(2, 0, 1, 3).reshape(n, 3 * d)
    grads[prefix + "qkv_projection"] += a.T @ dpacked
    da = dpacked @ p["qkv_projection"].T
    return dh + _layer_norm_back(da, p["norm1_gain"], ln1, grads, prefix + "norm1_")


def topk_rows(scores, live, keep_ratio, k_mode):
    """Per row, the K highest scores among live columns (ties: lower column)."""
    n, cols = live.shape
    out = np.zeros_like(live)
    for i in range(n):
        kept = np.flatnonzero(live[i])
        basis = kept.size if k_mode == "support" else cols
        k = min(kept.size, max(1, int(math.floor(keep_ratio * basis + 0.5))))
        order = np.lexsort((kept, -scores[i, kept]))
        out[i, kept[order[:k]]] = True
    return out


def _block_params(params, prefix):
    return {f: params[f"{prefix}.{f}"] for f in BLOCK_FIELDS}


def _patches(image, config):
    x = np.asarray(image, dtype=np.float64).reshape(config.channels, config.image_h,
                                                     config.image_w)
    s = config.downsample
    c, h, w = x.shape
    x = x.reshape(c, h // s, s, w // s, s).mean(axis=(2, 4))
    x = x.reshape(c, config.grid_h, config.patch_h, config.grid_w, config.patch_w)
    return x.transpose(1, 3, 0, 2, 4).reshape(config.num_patches, config.patch_dim)


def forward(image, params, config, joint_bits, keep_cache=False):
    """Heatmaps (J, H, W), the kept cells of each mask stage, and the backward cache.

    ``kept`` lists the visual-block mask cell count in force before the first
    update and after each update.
    """
    j, n = config.joint_count, config.num_patches
    sched = config.schedule
    patches = _patches(image, config)
    tokens = np.concatenate([params["keypoint_tokens"],
                             patches @ params["patch_projection"]
                             + params["positional_encoding"]])
    visual = np.ones((n, n), dtype=bool)
    live = np.ones((j + n, j + n), dtype=bool)
    kept = [n * n]
    encoder_caches, graph_caches = [], []
    for layer in range(1, config.encoder_layers + 1):
        prefix = f"encoder.{layer - 1}"
        tokens, probs, cache = _block(tokens, live, _block_params(params, prefix), config.heads)
        if keep_cache:
            encoder_caches.append((prefix, cache))
        if layer in sched.update_layers:
            avg = probs.mean(axis=0)[j:, j:]
            visual = topk_rows(avg, visual, sched.keep_ratio, sched.k_mode)
            live = np.ones_like(live)
            live[j:, j:] = visual
            kept.append(int(visual.sum()))
    kp = tokens[:j]
    joint_live = np.asarray(joint_bits).astype(bool)
    for i in range(config.graph_layers):
        prefix = f"graph.{i}"
        kp, _, cache = _block(kp, joint_live, _block_params(params, prefix), config.heads)
        if keep_cache:
            graph_caches.append((prefix, cache))
    z, ln = _layer_norm(kp, params["head_norm_gain"], params["head_norm_bias"])
    u = z @ params["head_w1"] + params["head_b1"]
    g, t = _gelu(u)
    out = g @ params["head_w2"] + params["head_b2"]
    heatmaps = out.reshape(j, config.heatmap_h, config.heatmap_w)
    cache = (patches, encoder_caches, graph_caches, z, ln, u, g, t) if keep_cache else None
    return heatmaps, kept, cache


def _forward_back(dheat, params, config, cache, grads):
    patches, encoder_caches, graph_caches, z, ln, u, g, t = cache
    j = config.joint_count
    dout = dheat.reshape(j, -1)
    grads["head_w2"] += g.T @ dout
    grads["head_b2"] += dout.sum(axis=0)
    du = _gelu_back(dout @ params["head_w2"].T, u, t)
    grads["head_w1"] += z.T @ du
    grads["head_b1"] += du.sum(axis=0)
    dx = _layer_norm_back(du @ params["head_w1"].T, params["head_norm_gain"], ln, grads,
                          "head_norm_")
    for prefix, block_cache in reversed(graph_caches):
        dx = _block_back(dx, _block_params(params, prefix), config.heads, block_cache,
                         grads, prefix + ".")
    dkp, dx = dx, np.zeros((j + config.num_patches, config.embed_dim))
    dx[:j] = dkp
    for prefix, block_cache in reversed(encoder_caches):
        dx = _block_back(dx, _block_params(params, prefix), config.heads, block_cache,
                         grads, prefix + ".")
    grads["keypoint_tokens"] += dx[:j]
    grads["positional_encoding"] += dx[j:]
    grads["patch_projection"] += patches.T @ dx[j:]


def _sample_loss(heatmaps, target, visibility):
    vis = np.asarray(visibility, dtype=bool).reshape(-1)
    visible = int(vis.sum())
    diff = np.where(vis[:, None, None], heatmaps - target, 0.0)
    denom = visible * heatmaps.shape[1] * heatmaps.shape[2]
    return float((diff * diff).sum()) / denom, 2.0 * diff / denom


class AdamReference:
    """Reference training state: parameters, moments and the step count."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
        self.m = {name: np.zeros_like(value) for name, value in self.params.items()}
        self.v = {name: np.zeros_like(value) for name, value in self.params.items()}
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.steps = 0

    def train_step(self, batch, config, joint_bits):
        """Mean loss over the batch, then one Adam update; returns the loss."""
        grads = {name: np.zeros_like(value) for name, value in self.params.items()}
        total = 0.0
        for image, target, visibility in batch:
            heatmaps, _, cache = forward(image, self.params, config, joint_bits,
                                         keep_cache=True)
            loss, dheat = _sample_loss(heatmaps, target, visibility)
            total += loss
            _forward_back(dheat / len(batch), self.params, config, cache, grads)
        self.steps += 1
        bc1 = 1.0 - self.beta1 ** self.steps
        bc2 = 1.0 - self.beta2 ** self.steps
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            self.params[name] = p - self.lr * (self.m[name] / bc1) / (
                np.sqrt(self.v[name] / bc2) + self.eps)
        return total / len(batch)


def decode(heatmaps, image_h, image_w):
    """Argmax plus a quarter-pixel shift toward the larger axis neighbour, per joint."""
    out = []
    for grid in heatmaps:
        h, w = grid.shape
        row, col = divmod(int(np.argmax(grid)), w)
        x, y = float(col), float(row)
        if 0 < col < w - 1 and grid[row, col + 1] != grid[row, col - 1]:
            x += 0.25 if grid[row, col + 1] > grid[row, col - 1] else -0.25
        if 0 < row < h - 1 and grid[row + 1, col] != grid[row - 1, col]:
            y += 0.25 if grid[row + 1, col] > grid[row - 1, col] else -0.25
        out.append((x * image_w / w, y * image_h / h))
    return np.array(out)


def pckh_rates(keypoints, joints, visibility, head_size, alphas):
    """Per alpha, per joint 1.0/0.0 correctness for one sample (NaN if invisible)."""
    dist = np.sqrt(((np.asarray(keypoints) - joints) ** 2).sum(axis=1))
    vis = np.asarray(visibility, dtype=bool)
    return {a: np.where(vis, (dist <= a * head_size).astype(float), np.nan) for a in alphas}
