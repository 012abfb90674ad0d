"""Central finite-difference gradient checking used across the test suite."""

import numpy as np

from spt.tensor import ComputationTape, backward


def finite_difference_check(build_loss, tensors, h=1e-5, rtol=1e-4, atol=1e-8,
                            max_coords=None, seed=0):
    """Compare taped gradients of ``build_loss()`` against central differences.

    ``build_loss`` must rebuild the scalar loss from scratch on every call
    (it runs grad-free during the probing).  When ``max_coords`` is set,
    a seeded random subset of coordinates is probed per tensor.
    """
    for t in tensors:
        t.grad = None
    with ComputationTape() as tape:
        loss = build_loss()
    backward(loss, tape)

    rng = np.random.default_rng(seed)
    failures = []
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        if max_coords is None or flat.size <= max_coords:
            coords = range(flat.size)
        else:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            original = flat[i]
            flat[i] = original + h
            plus = build_loss().item()
            flat[i] = original - h
            minus = build_loss().item()
            flat[i] = original
            fd = (plus - minus) / (2.0 * h)
            analytic = grad[i]
            if abs(analytic - fd) > rtol * max(abs(analytic), abs(fd)) + atol:
                failures.append((int(i), float(analytic), float(fd)))
    assert not failures, f"gradient mismatches (index, analytic, fd): {failures[:5]}"
