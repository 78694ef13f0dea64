"""Dense tensors with reverse-mode automatic differentiation.

Everything the forecaster's forward pass needs is implemented here as a
differentiable operation on numpy arrays. The canonical layout is
[batch, channel, node, time], C-contiguous, so the time axis is the
fastest-varying one and the 1x3 temporal kernels read contiguously.

The autodiff graph is dynamic: each op closes over its inputs and records
a backward closure on the output. ``Tensor.backward()`` walks the graph in
reverse topological order exactly once, releasing each intermediate node as
soon as its closure has run, so a graph cannot be differentiated twice.

A tensor owns its ``.grad``. A backward closure hands each array to one
input at most, and ``_accumulate`` takes it over as is when it is writable,
C-contiguous and of the input's dtype, and copies it otherwise.

Every contraction runs one BLAS GEMM per sample, so each sample's result
is bitwise the same whether or not it is part of a larger batch:

* ``channel_linear``, ``cosine_correlate`` and ``edge_mix`` are one
  ``np.matmul`` over a [b, ., .] stack;
* ``gated_block`` is a whole temporal block in one op: it stacks the 1x3
  taps of its input as channels (im2col) with shifted slices of the flat
  (node, time) axis, above a row of ones that carries the biases, and runs
  both convolutions as one ``np.matmul`` against the stacked kernels. The
  tanh/sigmoid gate and the channel layer norm follow in place. It works
  in chunks of whole samples, so every elementwise pass reads a chunk
  while it is in cache. Its backward keeps the two activations and
  1/sigma, not a chain of seven nodes, and rebuilds the columns and the
  normalized product chunk by chunk from its input;
* ``edge_max`` forms the b x c x n x n relational tensor in cache-sized
  blocks of (sample, source) pairs, one GEMM per pair, and reduces each
  block over channels before the next. ``edge_mix`` never forms that
  tensor: it contracts it away by associativity.

Both blocked ops size their blocks from one budget, ``CACHE_BLOCK``
elements.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
# elements of an intermediate that gated_block and edge_max hold at once: 512 KiB
# in float32, so that each pass over it reads from cache
CACHE_BLOCK = 1 << 17


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class DetachedTensorError(RuntimeError):
    """Raised when backward() is called on a tensor with no graph."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Context in which ops do not record backward closures."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus optional gradient and autodiff linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "op", "kinks")

    def __init__(self, data, requires_grad: bool = False, dtype=None, op: str = "leaf"):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        if isinstance(data, (np.ndarray, np.generic)):
            # keep numpy's dtype: reductions of 0-d arrays hand back scalars
            arr = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self.op = op
        # a recorded op whose output is piecewise in its inputs keeps the
        # piece it took here (a relu mask, an argmax)
        self.kinks: np.ndarray | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- reverse mode -------------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every reachable leaf; consumes the graph."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise DetachedTensorError("backward() on a tensor with no gradient path")
        if self._backward_fn is None and self.op != "leaf":
            raise DetachedTensorError("backward() on a consumed graph")
        topo = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                # an intermediate is done once its closure has run: drop its
                # gradient and linkage now; leaves keep their grads
                node._backward_fn = None
                node._parents = ()
                node.grad = None


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS; inputs of every node precede it in the result."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _first_nonfinite(root: Tensor) -> Tensor | None:
    """The first node of root's graph, inputs first, whose value is not all finite."""
    return next((t for t in _topo_order(root) if not np.isfinite(t.data).all()), None)


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on these parents joins the graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str,
          kinks: np.ndarray | None = None) -> Tensor:
    out = Tensor(data, op=op)
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out.kinks = kinks
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad, which a first g becomes: g itself (the caller gives
    it up) if it is a writable, C-contiguous array of t's dtype, else a copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.require(g, t.dtype, "CW")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary_shapes(a: Tensor, b: Tensor, opname: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not conform") from None


# -- elementwise ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        gb = _unbroadcast(g, b.shape)
        _accumulate(b, gb.copy() if gb is a.grad else gb)   # b's own where a took g

    return _make(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward, "mul")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward, "neg")


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - y * y))

    return _make(y, (a,), backward, "tanh")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    # np.maximum keeps a NaN, where a masked copy would turn it into 0
    return _make(np.maximum(a.data, 0), (a,), backward, "relu", kinks=mask)


# -- reductions ---------------------------------------------------------------


def sum_over_axis(a: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    y = a.data.sum()

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(np.asarray(y), (a,), backward, "sum")


# -- shape ops ----------------------------------------------------------------


def take_time(a: Tensor, index: int) -> Tensor:
    """Select one index on the trailing (time) axis, dropping the axis."""
    t = a.shape[-1]
    if not -t <= index < t:
        raise ShapeError(f"take_time index {index} out of range for extent {t}")

    def backward(g):
        # add into the one slice; a whole zero input only for the first gradient
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[..., index] += g

    return _make(np.ascontiguousarray(a.data[..., index]), (a,), backward, "take_time")


# -- linear algebra -----------------------------------------------------------


def channel_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Map the channel axis of x [b, c, ...] through weight [d, c] (+ bias [d]).

    This is a 1x1 convolution over channels: every trailing position is
    transformed independently. The trailing axes are flattened into a
    [b, c, m] stack and multiplied by one GEMM per sample, so per-sample
    results are bitwise independent of the batch extent.
    """
    if x.data.ndim < 2 or weight.data.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise ShapeError(f"channel_linear: x {x.shape} incompatible with weight {weight.shape}")
    b, c = x.shape[:2]
    d = weight.shape[0]
    w = weight.data
    if bias is not None and bias.shape != (d,):
        raise ShapeError(f"channel_linear: bias {bias.shape} incompatible with weight {weight.shape}")
    xs = x.data.reshape(b, c, -1)
    y = np.matmul(w, xs)
    if bias is not None:
        y += bias.data[:, None]

    def backward(g):
        gs = g.reshape(b, d, -1)
        _accumulate(weight, np.matmul(gs, xs.transpose(0, 2, 1)).sum(axis=0))
        _accumulate(x, np.matmul(w.T, gs).reshape(x.shape))
        if bias is not None:
            _accumulate(bias, gs.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(y.reshape((b, d) + x.shape[2:]), parents, backward, "channel_linear")


# -- the gated temporal block ----------------------------------------------------

KERNEL_T = 3
PAD_T = 1


def conv_time_length(t: int, stride: int) -> int:
    return (t + 2 * PAD_T - KERNEL_T) // stride + 1


def _taps(xf: np.ndarray, cols: np.ndarray, stride: int, t_out: int) -> None:
    """Fill cols [b, c, 3, n*t_out] with the zero-padded 1x3 taps of xf.

    xf [b, c, n*t'] is x flattened over (node, time) with t' = stride*t_out,
    so tap k of flat output p reads flat input stride*p + k - 1. Each tap is
    one shifted (stride 1) or step-2 (stride 2) slice of the whole flat
    axis. Where that slice reaches into the neighbouring node, the tap
    should read the zero pad: those boundary columns are zeroed afterwards.
    """
    left, mid, right = cols[:, :, 0], cols[:, :, 1], cols[:, :, 2]
    mid[...] = xf[..., ::stride]
    if stride == 1:
        left[..., 1:] = xf[..., :-1]
        right[..., :-1] = xf[..., 1:]
        right[..., t_out - 1::t_out] = 0
    else:
        left[..., 1:] = xf[..., 1:-1:2]
        right[...] = xf[..., 1::2]
    left[..., ::t_out] = 0


def _taps_grad(dcols: np.ndarray, dxf: np.ndarray, stride: int, t_out: int) -> None:
    """The adjoint of _taps: scatter dcols back into dxf, overwriting it.

    The boundary columns of dcols, which read the pad, are zeroed in place.
    """
    left, mid, right = dcols[:, :, 0], dcols[:, :, 1], dcols[:, :, 2]
    left[..., ::t_out] = 0
    if stride == 1:
        right[..., t_out - 1::t_out] = 0
        dxf[...] = mid
        dxf[..., :-1] += left[..., 1:]
        dxf[..., 1:] += right[..., :-1]
    else:
        dxf[..., ::2] = mid
        dxf[..., 1::2] = right
        dxf[..., 1:-1:2] += left[..., 1:]


def gated_block(x: Tensor, embed_w: Tensor, embed_b: Tensor, gate_w: Tensor, gate_b: Tensor,
                gamma: Tensor, beta: Tensor, stride: int, eps: float = 1e-5) -> Tensor:
    """One gated node-wise temporal block, fused into a single op.

    x [b, c, n, t] -> [b, d, n, t_out], t_out = conv_time_length(t, stride):
    the product tanh(conv(x, embed_w) + embed_b) * sigmoid(conv(x, gate_w) +
    gate_b), normalized over channels at each (sample, node, time), scaled
    by gamma and shifted by beta. Both kernels are [d, c, 1, 3], 1x3 over
    time with one zero step of padding at each end; they never span the
    node axis. The taps of x are stacked as channels (im2col: row 3*j + k
    holds tap k of channel j, the row-major flatten of a kernel) above a
    row of ones, and both convolutions with their biases are one GEMM per
    sample against the kernels and biases stacked to [2d, 3c + 1], so
    per-sample results are bitwise independent of the batch extent. The
    gate rows of that stack are halved, which is exact: the gate is then
    1 + tanh = 2 * sigmoid, and the norm's eps is scaled by 4 to match. An
    odd t under stride 2 is padded by one trailing zero step, which the
    last right tap reads in place of the padding.

    Forward and backward run in chunks of whole samples whose [chunk, d,
    n*t_out] slice holds at most CACHE_BLOCK elements, so that the
    elementwise passes and the channel reductions (a GEMM against a 1/d
    row) read each chunk while it is in cache. Backward keeps the two
    activations and 1/sigma at full size; under no_grad those buffers hold
    one chunk and are reused. It rebuilds each chunk's columns from x and
    its normalized product from the activations, with the forward's own
    ops in the forward's order, so its gradients are bitwise those of kept
    copies; x.data must not change between forward and backward.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"gated_block input must be 4-axis, got {x.shape}")
    if stride not in (1, 2):
        raise ValueError(f"gated_block stride must be 1 or 2, got {stride}")
    b, c, n, t = x.shape
    d = embed_w.shape[0] if embed_w.shape else 0
    if embed_w.shape != (d, c, 1, KERNEL_T) or gate_w.shape != embed_w.shape:
        raise ShapeError(f"gated_block: kernels {embed_w.shape}/{gate_w.shape} "
                         f"vs input {x.shape}, want [d, {c}, 1, {KERNEL_T}]")
    if any(p.shape != (d,) for p in (embed_b, gate_b, gamma, beta)):
        raise ShapeError(f"gated_block: biases {embed_b.shape}/{gate_b.shape} and affine "
                         f"{gamma.shape}/{beta.shape} vs {d} output channels")
    t_out = conv_time_length(t, stride)
    if t_out < 1:
        raise ShapeError(f"gated_block: time extent {t} collapses under stride {stride}")

    parents = (x, embed_w, embed_b, gate_w, gate_b, gamma, beta)
    record = _records(parents)
    m = n * t_out
    ck = c * KERNEL_T
    dt = embed_w.dtype
    w = np.empty((2 * d, ck + 1), dtype=dt)
    w[:d, :ck], w[:d, ck] = embed_w.data.reshape(d, ck), embed_b.data
    w[d:, :ck], w[d:, ck] = gate_w.data.reshape(d, ck), gate_b.data
    w[d:] *= 0.5
    per = max(1, min(b, CACHE_BLOCK // (d * m)))     # samples per chunk
    kept = b if record else per
    z = np.empty((kept, 2 * d, m), dtype=dt)
    inv_std = np.empty((kept, 1, m), dtype=dt)
    mean_row = np.full((1, d), 1.0 / d, dtype=dt)
    eps4 = np.asarray(4.0 * eps, dtype=dt)
    y = np.empty((b, d, m), dtype=dt)

    def chunk_buffers():
        """The im2col columns of one chunk, with their ones row, and the
        zero-padded input that an odd t under stride 2 reads."""
        cols = np.empty((per, ck + 1, m), dtype=x.dtype)
        cols[:, ck] = 1
        xpad = np.zeros((per, c, n, stride * t_out), dtype=x.dtype) if stride * t_out != t else None
        return cols, xpad

    def columns(s0, s1, cols, xpad):
        xc = x.data[s0:s1]
        if xpad is not None:
            xpad[:s1 - s0, ..., :t] = xc
            xc = xpad[:s1 - s0]
        cc = cols[:s1 - s0]
        _taps(xc.reshape(s1 - s0, c, -1), cc[:, :ck].reshape(s1 - s0, c, KERNEL_T, m),
              stride, t_out)
        return cc

    def normalized(zc, xh):
        """Fill xh with the product e * q of activations zc, centred over channels."""
        np.multiply(zc[:, :d], zc[:, d:], out=xh)
        xh -= np.matmul(mean_row, xh)
        return xh

    cols, xpad = chunk_buffers()
    xhat = np.empty((per, d, m), dtype=dt)
    sq = np.empty((per, d, m), dtype=dt)
    for s0 in range(0, b, per):
        s1 = min(s0 + per, b)
        rows = slice(s0, s1) if record else slice(0, s1 - s0)
        zc = np.matmul(w, columns(s0, s1, cols, xpad), out=z[rows])
        np.tanh(zc, out=zc)
        zc[:, d:] += 1.0
        xh = normalized(zc, xhat[:s1 - s0])
        # the variance, then 1/sigma in place
        inv = np.matmul(mean_row, np.square(xh, out=sq[:s1 - s0]), out=inv_std[rows])
        inv += eps4
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xh *= inv
        yc = np.multiply(xh, gamma.data[:, None], out=y[s0:s1])
        yc += beta.data[:, None]

    def backward(g):
        g = g.reshape(b, d, m)
        # the channel means of layer-norm backward, with gamma folded into the row
        norm_row = (gamma.data / d)[None, :]
        dgamma = np.zeros(d, dtype=dt)
        dbeta = np.zeros(d, dtype=dt)
        dw = np.zeros((2 * d, ck + 1), dtype=dt)
        dws = np.empty_like(dw)
        cols, xpad = chunk_buffers()
        xhat = np.empty((per, d, m), dtype=dt)
        work = np.empty((per, d, m), dtype=dt)
        dz = np.empty((per, 2 * d, m), dtype=dt)
        dcols = np.empty((per, ck, m), dtype=dt) if x.requires_grad else None
        dxf = np.empty((b, c, stride * m), dtype=x.dtype) if x.requires_grad else None
        for s0 in range(0, b, per):
            s1 = min(s0 + per, b)
            cc = columns(s0, s1, cols, xpad)
            gc, dzc = g[s0:s1], dz[:s1 - s0]
            # x-hat as the forward left it: the same ops in the same order
            xh = normalized(z[s0:s1], xhat[:s1 - s0])
            xh *= inv_std[s0:s1]
            tmp = np.multiply(gc, xh, out=work[:s1 - s0])
            dgamma += tmp.sum(axis=(0, 2))
            dbeta += gc.sum(axis=(0, 2))
            m2 = np.matmul(norm_row, tmp)
            dp = np.multiply(gc, gamma.data[:, None], out=tmp)
            dp -= np.matmul(norm_row, gc)
            xh *= m2
            dp -= xh
            dp *= inv_std[s0:s1]
            # with e = tanh and q = 1 + tanh(u) for the halved gate row u:
            # d/d(embed row) = dp * q * (1 - e^2), d/du = dp * e * q * (2 - q);
            # e and q are spent here
            e, q = z[s0:s1, :d], z[s0:s1, d:]
            de, du = dzc[:, :d], dzc[:, d:]
            np.multiply(dp, q, out=de)
            np.multiply(dp, e, out=du)
            du *= q
            np.subtract(2.0, q, out=q)
            du *= q
            np.square(e, out=e)
            np.subtract(1.0, e, out=e)
            de *= e
            for i in range(s1 - s0):
                dw += np.matmul(dzc[i], cc[i].T, out=dws)
            if dxf is not None:
                dcc = np.matmul(w[:, :ck].T, dzc, out=dcols[:s1 - s0])
                _taps_grad(dcc.reshape(s1 - s0, c, KERNEL_T, m), dxf[s0:s1], stride, t_out)
        dw[d:] *= 0.5
        _accumulate(gamma, dgamma)
        _accumulate(beta, dbeta)
        _accumulate(embed_w, dw[:d, :ck].reshape(embed_w.shape))
        _accumulate(embed_b, dw[:d, ck])
        _accumulate(gate_w, dw[d:, :ck].reshape(gate_w.shape))
        _accumulate(gate_b, dw[d:, ck])
        if dxf is not None:
            _accumulate(x, dxf.reshape(b, c, n, -1)[..., :t])

    return _make(y.reshape(b, d, n, t_out), parents, backward, "gated_block")


# -- correlation / edge ops ------------------------------------------------------

def cosine_correlate(rep: Tensor, feat: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine similarity over channels between representatives and features.

    rep [b, c, n], feat [b, c, n, l] -> S [b, n, n, l] with
    S[b, i, j, t] = cos(rep[b, :, i], feat[b, :, j, t]), one GEMM u^T v per sample
    of the unit vectors u = rep / |rep| and v = feat / |feat| over channels. A
    vector whose norm is at most eps has unit vector 0: no relation.
    """
    if rep.data.ndim != 3 or feat.data.ndim != 4:
        raise ShapeError(f"cosine_correlate: rep {rep.shape}, feat {feat.shape}")
    if rep.shape[:2] != feat.shape[:2]:
        raise ShapeError(f"cosine_correlate: channel mismatch {rep.shape} vs {feat.shape}")

    def unit(x):
        # x [b, c, k] over its norm, and 1/|x| [b, 1, k], which is 0 where |x| <= eps
        norm = np.sqrt(np.einsum("bck,bck->bk", x, x, optimize=False))[:, None]
        inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > eps)
        return x * inv, inv

    b, c, n = rep.shape
    _, _, m, l = feat.shape
    u, inv_rep = unit(rep.data)
    v, inv_feat = unit(feat.data.reshape(b, c, m * l))
    s = np.matmul(u.transpose(0, 2, 1), v)
    # rounding can push |cos| a few ulp past 1; the bound is part of the contract
    np.clip(s, -1.0, 1.0, out=s)

    def backward(g):
        # d rep = (v g^T - u sum_jt g S) / |rep|, d feat = (u g - v sum_i g S) / |feat|
        g = g.reshape(b, n, m * l)
        gs = g * s
        drep = (np.matmul(v, g.transpose(0, 2, 1)) - u * gs.sum(axis=2)[:, None]) * inv_rep
        dfeat = (np.matmul(u, g) - v * gs.sum(axis=1)[:, None]) * inv_feat
        _accumulate(rep, drep)
        _accumulate(feat, dfeat.reshape(b, c, m, l))

    return _make(s.reshape(b, n, m, l), (rep, feat), backward, "cosine_correlate")


def _edge_operands(opname: str, corr: Tensor, feat: Tensor) -> None:
    if corr.data.ndim != 4 or feat.data.ndim != 4:
        raise ShapeError(f"{opname}: corr {corr.shape}, feat {feat.shape}")
    if corr.shape[0] != feat.shape[0] or corr.shape[2:] != feat.shape[2:]:
        raise ShapeError(f"{opname}: batch/node/time extents differ, "
                         f"corr {corr.shape} vs feat {feat.shape}")


def edge_max(corr: Tensor, feat: Tensor) -> Tensor:
    """Channel max of the relational edge features, oriented [b, target, source].

    corr [b, n_tgt, n_src, l], feat [b, c, n_src, l] -> [b, n_tgt, n_src] with
    out[b, k, i] = max_c R[b, c, i, k], R[b, c, i, k] = sum_t corr[b, k, i, t]
    * feat[b, c, i, t]. R is formed in blocks of (sample, source) pairs of at
    most CACHE_BLOCK elements, one GEMM per pair, and each block is reduced
    while it is in cache. Only the argmax channel survives for backward, which
    gathers and scatters through it; it is found only when a graph is
    recorded. Ties break toward the lowest channel.
    """
    _edge_operands("edge_max", corr, feat)
    b, c, n, l = feat.shape
    k = corr.shape[1]
    record = _records((corr, feat))
    y = np.empty((b, k, n), dtype=feat.dtype)
    # the argmax in the narrowest type that holds c - 1; backward widens it
    idx = np.empty((b, k, n), dtype=np.min_scalar_type(c)) if record else None
    # per pair (s, i) one GEMM rel[c, k] = feat[s, :, i, :] @ corr[s, :, i, :]^T,
    # written channels-outermost so that the max over c is elementwise over rows
    feat_si = feat.data.transpose(0, 2, 1, 3)          # [b, i, c, l]
    corr_si = corr.data.transpose(0, 2, 3, 1)          # [b, i, l, k]
    step = max(1, CACHE_BLOCK // (c * k))               # sources per block
    per = max(1, step // n)                             # whole samples per block
    span = min(step, n)
    buf = np.empty(c * min(per, b) * span * k, dtype=y.dtype)
    # c - first channel at the max, as the max of a reversed channel index
    rev = (c - np.arange(c)).astype(np.min_scalar_type(c))[:, None, None, None]
    y_si = y.transpose(0, 2, 1)
    idx_si = idx.transpose(0, 2, 1) if record else None
    for s0 in range(0, b, per):
        s1 = min(s0 + per, b)
        for i0 in range(0, n, span):
            i1 = min(i0 + span, n)
            rel = buf[:c * (s1 - s0) * (i1 - i0) * k].reshape(c, s1 - s0, i1 - i0, k)
            np.matmul(feat_si[s0:s1, i0:i1], corr_si[s0:s1, i0:i1], out=rel.transpose(1, 2, 0, 3))
            top = rel.max(axis=0)
            y_si[s0:s1, i0:i1] = top
            if record:
                hit = (rel == top).view(np.uint8) * rev
                idx_si[s0:s1, i0:i1] = (c - hit.max(axis=0)) % c

    def backward(g):
        # the row of feat viewed as [b*c*n, l] that won each edge [s, k, i]
        rows = ((np.arange(b)[:, None, None] * c + idx) * n + np.arange(n)).ravel()
        # feat[s, c, i, t] collects g * corr from every target whose max it is;
        # the products, rounded in their own dtype, go into the float64
        # buffer that bincount reads without a copy
        dfeat = np.empty_like(feat.data)
        weights = np.empty(rows.size)
        for t in range(l):
            np.multiply(g, corr.data[..., t], out=weights.reshape(g.shape))
            dfeat[..., t] = np.bincount(rows, weights, minlength=b * c * n).reshape(b, c, n)
        del weights             # each batch-sized temporary goes before the next comes
        _accumulate(feat, dfeat)
        dcorr = np.take(feat.data.reshape(b * c * n, l), rows, axis=0).reshape(corr.shape)
        del rows
        dcorr *= g[..., None]
        _accumulate(corr, dcorr)

    return _make(y, (corr, feat), backward, "edge_max", kinks=idx)


def edge_mix(corr: Tensor, feat: Tensor, adj: Tensor) -> Tensor:
    """Aggregate the relational edge features through an adjacency.

    corr [b, n_tgt, n_src, l], feat [b, c, n_src, l], adj [b, n_tgt, n_src]
    -> [b, c, n_tgt] with out[b, c, k] = sum_i R[b, c, i, k] * adj[b, k, i]
    = sum_{i, t} feat[b, c, i, t] * corr[b, k, i, t] * adj[b, k, i]. By
    associativity R is never formed: per sample this is one GEMM,
    feat [c, n*l] @ (corr * adj) [n_tgt, n*l]^T.
    """
    _edge_operands("edge_mix", corr, feat)
    b, c, n, l = feat.shape
    k = corr.shape[1]
    if adj.shape != (b, k, n):
        raise ShapeError(f"edge_mix: adj {adj.shape} vs corr {corr.shape}")

    def weights():
        # corr * adj one time plane at a time: a broadcast over the short
        # trailing axis is several times slower
        w = np.empty_like(corr.data)
        for t in range(l):
            np.multiply(corr.data[..., t], adj.data, out=w[..., t])
        return w.reshape(b, k, n * l)

    feat2 = feat.data.reshape(b, c, n * l)
    y = np.matmul(feat2, weights().transpose(0, 2, 1))

    def backward(g):
        _accumulate(feat, np.matmul(g, weights()).reshape(b, c, n, l))
        dw = np.matmul(g.transpose(0, 2, 1), feat2).reshape(b, k, n, l)
        dadj = np.zeros_like(adj.data)
        for t in range(l):
            dadj += dw[..., t] * corr.data[..., t]
            dw[..., t] *= adj.data
        _accumulate(adj, dadj)
        _accumulate(corr, dw)

    return _make(y, (corr, feat, adj), backward, "edge_mix")


# -- loss kernels ----------------------------------------------------------------


def huber(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Mean elementwise Huber value: quadratic below delta, linear above."""
    if pred.shape != target.shape:
        raise ShapeError(f"huber: shapes {pred.shape} and {target.shape} differ")
    if delta <= 0:
        raise ValueError("huber delta must be positive")
    r = pred.data - target.data
    absr = np.abs(r)
    quad = absr < delta
    vals = np.where(quad, 0.5 * r * r, delta * absr - 0.5 * delta * delta)
    y = np.asarray(vals.mean(dtype=pred.dtype))
    count = r.size

    def backward(g):
        d = g * np.where(quad, r, delta * np.sign(r)) / count
        _accumulate(pred, d)
        _accumulate(target, -d)

    return _make(y, (pred, target), backward, "huber")
