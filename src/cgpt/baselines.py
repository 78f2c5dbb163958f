"""Reference forecasters: trend/remainder linear maps and a flat MLP."""

from __future__ import annotations

import numpy as np

from .layers import glorot_uniform, init_rng, load_param_arrays
from .preprocessing import revin_forecast
from .tensor import Tensor, matmul, relu, reshape


def moving_average_matrix(l_ctx, kernel):
    """Matrix M with (x @ M) the centered moving average of x, edges replicated.

    Column i holds the averaging weights for output step i; indices that
    fall off either end are clamped, so their weight piles up on the edge
    sample exactly like padding the series with its first/last value.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and positive, got {kernel}")
    half = kernel // 2
    i = np.arange(l_ctx)
    lo, hi = i - half, i + half  # output step i averages source steps lo..hi
    # counts[j, i]: how many of those clamp to source step j
    counts = (np.abs(i[:, None] - i) <= half).astype(np.intp)
    counts[0] += np.maximum(0, np.minimum(hi, -1) - lo + 1)
    counts[-1] += np.maximum(0, hi - np.maximum(lo, l_ctx) + 1)
    # table[c]: 1/kernel added c times in sequence, as a loop of += would
    table = np.concatenate([[0.0], np.cumsum(np.full(kernel, 1.0 / kernel))])
    return table[counts]


class _Baseline:
    """Parameter and header plumbing shared by the baselines.

    Their hyperparameters are the integer constructor arguments named in
    ``header_keys``; the checkpoint header lists them in that order.
    ``seed=None`` draws no weights: ``load_arrays`` supplies them.
    """

    header_keys = ()

    def parameters(self):
        return dict(self.params)

    def load_arrays(self, arrays):
        load_param_arrays(self.params, arrays)

    def config_header(self):
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.header_keys}}

    @classmethod
    def from_header(cls, header, seed=0):
        """Inverse of config_header() on read values; absent ones keep their defaults."""
        return cls(**{k: header[k] for k in cls.header_keys if k in header}, seed=seed)


class DLinearModel(_Baseline):
    """Two affine maps over a trend/remainder split of the target history."""

    kind = "dlinear"
    header_keys = ("l_ctx", "h_pred", "kernel")

    def __init__(self, l_ctx, h_pred, kernel=25, seed=0):
        if l_ctx < 1 or h_pred < 1:
            raise ValueError(f"l_ctx and h_pred must be >= 1, got {l_ctx}, {h_pred}")
        self.l_ctx = l_ctx
        self.h_pred = h_pred
        self.kernel = kernel
        self._avg = Tensor(moving_average_matrix(l_ctx, kernel))
        rng = init_rng(seed)
        self.params = {
            "trend.w": Tensor(glorot_uniform(rng, (l_ctx, h_pred)), requires_grad=True),
            "trend.b": Tensor(np.zeros(h_pred), requires_grad=True),
            "seasonal.w": Tensor(glorot_uniform(rng, (l_ctx, h_pred)), requires_grad=True),
            "seasonal.b": Tensor(np.zeros(h_pred), requires_grad=True),
        }

    def forward(self, batch, revin=False):
        def forecast(context):
            x = Tensor(np.ascontiguousarray(context[:, :, batch.target_channel]))
            trend = matmul(x, self._avg)
            remainder = x - trend
            p = self.params
            return (matmul(trend, p["trend.w"]) + p["trend.b"]) \
                + (matmul(remainder, p["seasonal.w"]) + p["seasonal.b"])

        return revin_forecast(forecast, batch, revin)


class MlpBaseline(_Baseline):
    """Flatten every channel's history into one vector and regress the horizon.

    The input width is bound to ``n_vars`` at construction; feeding a batch
    with a different channel count is an error rather than a silent reshape.
    """

    kind = "mlp"
    header_keys = ("l_ctx", "h_pred", "n_vars", "hidden")

    def __init__(self, l_ctx, h_pred, n_vars, hidden=512, seed=0):
        if min(l_ctx, h_pred, n_vars, hidden) < 1:
            raise ValueError("all MLP dimensions must be >= 1")
        self.l_ctx = l_ctx
        self.h_pred = h_pred
        self.n_vars = n_vars
        self.hidden = hidden
        rng = init_rng(seed)
        width = l_ctx * n_vars
        self.params = {
            "fc1.w": Tensor(glorot_uniform(rng, (width, hidden)), requires_grad=True),
            "fc1.b": Tensor(np.zeros(hidden), requires_grad=True),
            "fc2.w": Tensor(glorot_uniform(rng, (hidden, hidden)), requires_grad=True),
            "fc2.b": Tensor(np.zeros(hidden), requires_grad=True),
            "out.w": Tensor(glorot_uniform(rng, (hidden, h_pred)), requires_grad=True),
            "out.b": Tensor(np.zeros(h_pred), requires_grad=True),
        }

    def forward(self, batch, revin=False):
        n_channels = batch.context.shape[2]
        if n_channels != self.n_vars:
            raise ValueError(
                f"model was built for {self.n_vars} channels, batch has {n_channels}")

        def forecast(context):
            # row-major flatten: time-major order, channels fastest
            flat = reshape(Tensor(context), (context.shape[0], self.l_ctx * self.n_vars))
            p = self.params
            h = relu(matmul(flat, p["fc1.w"]) + p["fc1.b"])
            h = relu(matmul(h, p["fc2.w"]) + p["fc2.b"])
            return matmul(h, p["out.w"]) + p["out.b"]

        return revin_forecast(forecast, batch, revin)
