import numpy as np
import pytest

import flowcast.tensor as T
from flowcast import graph as G
from flowcast.config import ModelConfig


def rand_f4(rng, b=2, c=8, n=5, l=2, dtype=np.float32):
    return T.Tensor(rng.normal(size=(b, c, n, l)).astype(dtype))


def build_edge_graph(attention_op="max", representative="last", c=8, seed=0):
    cfg = ModelConfig(channels=(c, c, c, c), head_hidden=c,
                      attention_op=attention_op, representative=representative)
    store = {}
    return G.EdgeGraph(cfg, np.random.default_rng(seed), store), store


class TestRepresentative:
    @pytest.mark.parametrize("position,index", [("last", 1), ("middle", 1), ("first", 0)])
    def test_position_indexing_l2(self, position, index):
        x = T.Tensor(np.arange(12, dtype=np.float32).reshape(1, 2, 3, 2))
        out = G.representative(x, position)
        assert np.array_equal(out.data, x.data[..., index])

    def test_middle_of_longer_axis(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 5)).astype(np.float32))
        assert np.array_equal(G.representative(x, "middle").data, x.data[..., 2])


class TestReduceChannels:
    def test_quarter_channels(self):
        eg, _ = build_edge_graph(c=64)
        f4 = T.Tensor(np.zeros((1, 64, 3, 2), dtype=np.float32))
        assert eg.reduce_channels(f4).shape == (1, 16, 3, 2)

    def test_indivisible_channels_rejected(self):
        eg, _ = build_edge_graph(c=8)
        with pytest.raises(T.ShapeError):
            eg.reduce_channels(T.Tensor(np.zeros((1, 6, 3, 2), dtype=np.float32)))

    def test_permuted_identity_selects_channels(self):
        eg, _ = build_edge_graph(c=16)
        eg.reduce_w.data[:] = 0
        eg.reduce_b.data[:] = 0
        picks = [5, 1, 7, 2]  # rows of a permuted identity
        for row, col in enumerate(picks):
            eg.reduce_w.data[row, col] = 1.0
        f4 = T.Tensor(np.random.default_rng(1).normal(size=(2, 16, 4, 2)).astype(np.float32))
        out = eg.reduce_channels(f4)
        assert np.array_equal(out.data, f4.data[:, picks])

    def test_zero_input_yields_bias(self):
        eg, _ = build_edge_graph(c=8)
        eg.reduce_b.data[:] = 3.0
        out = eg.reduce_channels(T.Tensor(np.zeros((1, 8, 3, 2), dtype=np.float32)))
        assert np.allclose(out.data, 3.0)


class TestCorrelations:
    def test_self_similarity_diagonal(self):
        eg, _ = build_edge_graph()
        rng = np.random.default_rng(2)
        f4 = rand_f4(rng)
        f_c = eg.reduce_channels(f4)
        f_l = G.representative(f_c, "last")
        s = T.cosine_correlate(f_l, f_c)
        l = f_c.shape[-1]
        diag = s.data[:, np.arange(5), np.arange(5), l - 1]
        assert np.allclose(diag, 1.0, atol=1e-5)

    def test_bounds(self):
        eg, _ = build_edge_graph()
        f4 = rand_f4(np.random.default_rng(3))
        f_c = eg.reduce_channels(f4)
        s = T.cosine_correlate(G.representative(f_c, "last"), f_c)
        assert s.data.min() >= -1.0 and s.data.max() <= 1.0

    def test_orthogonal_nodes_uncorrelated(self):
        # two nodes with orthogonal constant features
        f_c = np.zeros((1, 2, 2, 2), dtype=np.float32)
        f_c[0, 0, 0] = 1.0   # node 0 lives on channel 0
        f_c[0, 1, 1] = 1.0   # node 1 lives on channel 1
        rep = T.Tensor(f_c[..., -1])
        s = T.cosine_correlate(rep, T.Tensor(f_c))
        assert np.allclose(s.data[0, 0, 1], 0.0)
        assert np.allclose(s.data[0, 1, 0], 0.0)


def explicit_rel(s, f4):
    """R [b, c, n_src, n_tgt] in float64, written out in full."""
    return np.einsum("bkit,bcit->bcik", np.asarray(s, np.float64), np.asarray(f4, np.float64))


def f64(t):
    return np.asarray(t.data, np.float64)


class TestSqueezeAttention:
    def edges_with_channel_max(self, value):
        # one channel, one node, one time step and s = 1, so R is exactly
        # `value`; float64 is the verification precision for analytic values
        s = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float64))
        f4 = T.Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64))
        return s, f4

    @pytest.mark.parametrize("value,a,ar", [
        (0.0, 0.0, 0.0),
        (-2.0, 0.0, np.tanh(2.0)),
        (1.0, np.tanh(1.0), 0.0),
    ])
    def test_analytic_entries(self, value, a, ar):
        s, f4 = self.edges_with_channel_max(value)
        adj, adj_rev = G.squeeze_adjacency(s, f4, "max")
        assert adj.data.item() == pytest.approx(a, abs=1e-9)
        assert adj_rev.data.item() == pytest.approx(ar, abs=1e-9)

    def test_avg_reduces_mean(self):
        s = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float64))
        f4 = np.zeros((1, 2, 1, 1), dtype=np.float64)
        f4[0, 0] = 3.0
        f4[0, 1] = -1.0
        out, _ = G.squeeze_adjacency(s, T.Tensor(f4), "avg")
        assert out.data.item() == pytest.approx(np.tanh(1.0), abs=1e-9)

    def test_max_learned_identity_at_init(self):
        eg, _ = build_edge_graph(attention_op="max_learned")
        rng = np.random.default_rng(8)
        s = T.Tensor(rng.uniform(-1.0, 1.0, size=(2, 4, 4, 2)).astype(np.float32))
        f4 = rand_f4(rng, b=2, c=8, n=4)
        plain, _ = G.squeeze_adjacency(s, f4, "max")
        learned, _ = G.squeeze_adjacency(s, f4, "max_learned",
                                         affine_w=eg.affine_w, affine_b=eg.affine_b)
        assert np.allclose(plain.data, learned.data)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            G.squeeze_adjacency(*self.edges_with_channel_max(0.0), "softmax")

    def test_scalar_case_uses_item(self):
        out, _ = G.squeeze_adjacency(*self.edges_with_channel_max(3.0), "max")
        assert out.shape == (1, 1, 1)

    @pytest.mark.parametrize("op", ["max", "avg"])
    def test_matches_explicit_relation(self, op):
        rng = np.random.default_rng(14)
        s = T.Tensor(rng.uniform(-1.0, 1.0, size=(2, 5, 5, 3)))
        f4 = rand_f4(rng, b=2, c=6, n=5, l=3, dtype=np.float64)
        rel = explicit_rel(s.data, f4.data)
        squeezed = rel.max(axis=1) if op == "max" else rel.mean(axis=1)
        expected = np.tanh(squeezed.transpose(0, 2, 1))
        adj, adj_rev = G.squeeze_adjacency(s, f4, op)
        # one of relu(x) and relu(-x) is 0, so their difference is x exactly
        assert np.allclose(adj.data - adj_rev.data, expected, rtol=1e-12, atol=1e-12)


class TestGraphConv:
    def test_one_hot_row_selects_source(self):
        rng = np.random.default_rng(9)
        c, n = 4, 5
        s = T.Tensor(rng.uniform(-1.0, 1.0, size=(1, n, n, 2)).astype(np.float32))
        f4 = rand_f4(rng, b=1, c=c, n=n)
        rel = explicit_rel(s.data, f4.data)
        adj = np.zeros((1, n, n), dtype=np.float32)
        j0 = 3
        adj[0, :, j0] = 1.0  # every target attends only to source j0
        w = T.Tensor(np.eye(c, dtype=np.float32))
        b = T.Tensor(np.zeros(c, dtype=np.float32))
        out = G.gcn(s, f4, T.Tensor(adj), w, b)
        for k in range(n):
            assert np.allclose(out.data[0, :, k], rel[0, :, j0, k], atol=1e-6)

    def test_zero_adjacency_yields_bias(self):
        rng = np.random.default_rng(10)
        s = T.Tensor(rng.uniform(-1.0, 1.0, size=(1, 5, 5, 2)).astype(np.float32))
        f4 = rand_f4(rng, b=1, c=4, n=5)
        adj = T.Tensor(np.zeros((1, 5, 5), dtype=np.float32))
        w = T.Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        b = T.Tensor(np.arange(4, dtype=np.float32))
        out = G.gcn(s, f4, adj, w, b)
        assert np.allclose(out.data, np.arange(4, dtype=np.float32).reshape(1, 4, 1))

    def test_scalar_case(self):
        s = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        f4 = T.Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32))  # R = 3
        adj = T.Tensor(np.full((1, 1, 1), 0.5, dtype=np.float32))
        w = T.Tensor(np.full((1, 1), 2.0, dtype=np.float32))
        b = T.Tensor(np.zeros(1, dtype=np.float32))
        assert G.gcn(s, f4, adj, w, b).data.item() == pytest.approx(3.0)


class TestAgainstExplicitRelation:
    """The forward pass never forms R; a float64 numpy restatement that does
    must give the same correlations, adjacencies and aggregations."""

    @pytest.mark.parametrize("attention_op", ["max", "avg", "max_learned"])
    def test_edge_state_matches_reference(self, attention_op):
        eg, _ = build_edge_graph(attention_op=attention_op)
        if eg.affine_w is not None:
            eg.affine_w.data[...] = 1.3
            eg.affine_b.data[...] = -0.2
        f4 = rand_f4(np.random.default_rng(15), b=3, n=7)
        state = eg.forward(f4)

        fc = np.einsum("dc,bcnl->bdnl", f64(eg.reduce_w), f64(f4)) \
            + f64(eg.reduce_b)[None, :, None, None]
        rep = fc[..., -1]
        dots = np.einsum("bdk,bdit->bkit", rep, fc)
        norms = np.linalg.norm(rep, axis=1)[:, :, None, None] * np.linalg.norm(fc, axis=1)[:, None]
        s = dots / norms
        rel = explicit_rel(s, f4.data)
        if attention_op == "avg":
            pre = rel.mean(axis=1)
        else:
            pre = rel.max(axis=1)
            if attention_op == "max_learned":
                pre = 1.3 * pre - 0.2
        base = np.tanh(pre.transpose(0, 2, 1))              # [b, target, source]
        adj, adj_r = np.maximum(base, 0.0), np.maximum(-base, 0.0)

        def aggregate(a):
            return np.einsum("dc,bcik,bki->bdk", f64(eg.gcn_w), rel, a) \
                + f64(eg.gcn_b)[None, :, None]

        for name, got, want in (("s", state.s, s), ("adj", state.adj, adj),
                                ("adj_reversed", state.adj_reversed, adj_r),
                                ("f_g", state.f_g, aggregate(adj)),
                                ("f_gr", state.f_gr, aggregate(adj_r))):
            dev = float(np.abs(f64(got) - want).max()) / max(float(np.abs(want).max()), 1e-6)
            assert dev <= 1e-5, f"{name}: relative deviation {dev:.2e}"


def buffer_elements(arr: np.ndarray) -> int:
    """Elements of the array that owns arr's memory: a view counts as its buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes // arr.itemsize


def oversized_buffers(nodes, limit: int) -> list[str]:
    """Each node's output, and each array its backward closure keeps, whose
    buffer holds limit elements or more."""
    found = []
    for node in nodes:
        if buffer_elements(node.data) >= limit:
            found.append(f"{node.op} holds {buffer_elements(node.data)} elements")
        cells = (node._backward_fn.__closure__ or ()) if node._backward_fn else ()
        for cell in cells:
            kept = cell.cell_contents
            if isinstance(kept, np.ndarray) and buffer_elements(kept) >= limit:
                found.append(f"{node.op} backward keeps {buffer_elements(kept)} elements")
    return found


class TestNoDenseRelation:
    def test_training_graph_holds_no_b_c_n2_buffer(self):
        """Every node of a training step's graph, and every array its backward
        closure keeps, lives in a buffer smaller than one b x c x n x n
        relation tensor."""
        from flowcast.losses import total_loss
        from flowcast.model import Forecaster

        # the largest temporal buffer is stage 1's pre-activation, [b, 2c, n * t_in];
        # n > 2 * t_in keeps it below b*c*n^2
        b, c, n = 2, 8, 40
        cfg = ModelConfig(channels=(c,) * 4, head_hidden=c)
        model = Forecaster(cfg, seed=0)
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.normal(size=(b, 1, n, cfg.t_in)).astype(np.float32))
        y = T.Tensor(rng.normal(size=(b, cfg.horizon, n)).astype(np.float32))
        yhat, state = model.forward(x)
        loss, _, _ = total_loss(yhat, y, state.f_g, state.f_gr, contrast_weight=0.1)
        nodes = T._topo_order(loss)
        assert any(node.op == "edge_max" for node in nodes)
        assert oversized_buffers(nodes, b * c * n * n) == []
        loss.backward()

    def test_avg_squeeze_holds_nothing_of_the_correlations_size(self):
        """The avg squeeze goes through edge_max over the channel mean; no
        node or closure past the correlations is as large as they are."""
        b, c, n = 2, 8, 24
        rng = np.random.default_rng(18)
        s = T.Tensor(rng.uniform(-1.0, 1.0, size=(b, n, n, 2)).astype(np.float32),
                     requires_grad=True)
        f4 = rand_f4(rng, b=b, c=c, n=n)
        f4.requires_grad = True
        adj, adj_rev = G.squeeze_adjacency(s, f4, "avg")
        nodes = [node for node in T._topo_order(T.add(T.sum_over_axis(adj),
                                                       T.sum_over_axis(adj_rev)))
                 if node is not s]
        assert oversized_buffers(nodes, s.size) == []

    def test_a_small_view_of_a_dense_relation_is_caught(self):
        b, c, n = 2, 8, 24
        dense = np.zeros((b, c, n, n), dtype=np.float32)
        kept = dense[:, :1, :1, :1]        # 2 elements, backed by b*c*n^2
        x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = T._make(x.data * 2.0, (x,), lambda g: T._accumulate(x, g + kept.sum()), "planted")
        assert kept.size < b * c * n * n
        assert oversized_buffers([out], b * c * n * n) == [
            f"planted backward keeps {b * c * n * n} elements"]


class TestAdjacencyInvariants:
    @pytest.mark.parametrize("attention_op", ["max", "avg", "max_learned"])
    def test_disjoint_and_bounded(self, attention_op):
        eg, _ = build_edge_graph(attention_op=attention_op)
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = eg.forward(rand_f4(rng))
            a, ar = state.adj.data, state.adj_reversed.data
            assert np.all(a * ar == 0.0)
            assert a.min() >= 0.0 and a.max() < 1.0
            assert ar.min() >= 0.0 and ar.max() < 1.0

    def test_permutation_equivariance(self):
        eg, _ = build_edge_graph()
        rng = np.random.default_rng(12)
        f4 = rand_f4(rng, b=1, n=6)
        perm = rng.permutation(6)
        base = eg.forward(f4)
        permuted = eg.forward(T.Tensor(f4.data[:, :, perm, :]))
        atol = 1e-6
        assert np.allclose(base.s.data[:, perm][:, :, perm], permuted.s.data, atol=atol)
        assert np.allclose(base.adj.data[:, perm][:, :, perm], permuted.adj.data, atol=atol)
        assert np.allclose(base.f_g.data[:, :, perm], permuted.f_g.data, atol=1e-5)

    def test_batched_matches_unbatched_bitwise(self):
        eg, _ = build_edge_graph()
        rng = np.random.default_rng(13)
        f4 = rand_f4(rng, b=4)
        batch = eg.forward(f4)
        for i in range(4):
            single = eg.forward(T.Tensor(f4.data[i:i + 1]))
            for attr in ("s", "adj", "adj_reversed", "f_g", "f_gr"):
                got = getattr(batch, attr).data[i]
                alone = getattr(single, attr).data[0]
                assert np.array_equal(got, alone), f"{attr} differs between batch sizes"
