"""Eval-mode forwards keep no backward state, and the strided-slice max pool.

A forward in eval mode must not cache activations for a backward pass that
never comes: inference then holds nothing alive between calls, and a
backward after it raises exactly like one before any forward.  The max
pool's strided-slice forward/backward must match the im2col formulation it
replaced bit for bit, tie-breaking included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F

#: (layer factory, input shape, the attributes holding its backward state)
LAYERS = {
    "Conv2d": (lambda: nn.Conv2d(3, 4, 3, padding=1), (2, 3, 6, 6), ("_cache_cols", "_cache_shape")),
    "LeakyReLU": (lambda: nn.LeakyReLU(0.1), (2, 3, 6, 6), ("_mask",)),
    "MaxPool2d": (lambda: nn.MaxPool2d(2), (2, 3, 6, 6), ("_cache",)),
    "BatchNorm2d": (lambda: nn.BatchNorm2d(3), (4, 3, 5, 5), ("_cache",)),
    "BatchRenorm2d": (lambda: nn.BatchRenorm2d(3), (4, 3, 5, 5), ("_cache",)),
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_eval_forward_keeps_no_backward_state(name, rng):
    factory, shape, cache_attrs = LAYERS[name]
    layer = factory()
    x = rng.normal(size=shape)
    # a training pass first, so the eval pass must also drop stale state
    out = layer.forward(x)
    assert all(getattr(layer, attr) is not None for attr in cache_attrs)
    layer.backward(np.ones_like(out))

    layer.eval()
    out = layer.forward(x)
    assert all(getattr(layer, attr) is None for attr in cache_attrs)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


def _im2col_max_pool(x: np.ndarray, kernel: int, stride: int, grad: np.ndarray):
    """The im2col max pool (argmax over unfolded windows), as reference."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, 0)
    out_w = F.conv_output_size(w, kernel, stride, 0)
    cols = F.im2col(x.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    argmax = cols.argmax(axis=1)
    rows = np.arange(cols.shape[0])
    out = cols[rows, argmax].reshape(n, c, out_h, out_w)
    grad_cols = np.zeros(cols.shape)
    grad_cols[rows, argmax] = grad.reshape(-1)
    dx = F.col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, 0)
    return out, dx.reshape(n, c, h, w)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    h=st.integers(3, 9),
    w=st.integers(3, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_strided_max_pool_matches_im2col_bit_for_bit(n, c, h, w, kernel, stride, seed):
    """Forward and backward equal the im2col path, ties and signed zeros too.

    Inputs draw from five values, so most windows hold tied maxima, and
    both zeros appear: a tie between -0.0 and +0.0 must keep the sign of
    the first window offset, as ``argmax`` did.
    """
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0, 2.0]), size=(n, c, h, w))
    layer = nn.MaxPool2d(kernel, stride)
    out = layer.forward(x)
    grad = rng.normal(size=out.shape)
    dx = layer.backward(grad)

    ref_out, ref_dx = _im2col_max_pool(x, kernel, stride, grad)
    assert out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()

    layer.eval()
    assert layer.forward(x).tobytes() == ref_out.tobytes()
