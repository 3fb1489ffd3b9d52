"""Tests for computational-graph extraction (UPAQ Algorithm 1 substrate)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, compute_graph, layer_map, topological_layers
from repro.nn.graph import DAG


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class ResidualBlock(nn.Module):
    def __init__(self, channels, rng):
        super().__init__()
        self.conv1 = nn.Conv2d(channels, channels, 3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(channels, channels, 3, padding=1, rng=rng)

    def forward(self, x):
        return (self.conv2(self.conv1(x).relu()) + x).relu()


class TwoBranch(nn.Module):
    """A root conv feeding two parallel leaf convs, then fused."""

    def __init__(self, rng):
        super().__init__()
        self.stem = nn.Conv2d(1, 4, 3, padding=1, rng=rng)
        self.branch_a = nn.Conv2d(4, 4, 3, padding=1, rng=rng)
        self.branch_b = nn.Conv2d(4, 4, 3, padding=1, rng=rng)
        self.fuse = nn.Conv2d(8, 2, 1, rng=rng)

    def forward(self, x):
        stem = self.stem(x).relu()
        a = self.branch_a(stem).relu()
        b = self.branch_b(stem).relu()
        return self.fuse(Tensor.concatenate([a, b], axis=1))


class TestLayerMap:
    def test_finds_kernel_layers_only(self, rng):
        model = nn.Sequential(nn.Conv2d(1, 2, 3, rng=rng),
                              nn.BatchNorm2d(2),
                              nn.ReLU(),
                              nn.Conv2d(2, 2, 3, rng=rng))
        layers = layer_map(model)
        assert set(layers) == {"0", "3"}

    def test_includes_linear_and_deconv(self, rng):
        class Mixed(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(1, 2, 3, rng=rng)
                self.deconv = nn.ConvTranspose2d(2, 2, 2, stride=2, rng=rng)
                self.head = nn.Linear(8, 4, rng=rng)

            def forward(self, x):
                h = self.deconv(self.conv(x))
                return self.head(h.reshape(h.shape[0], -1))

        assert set(layer_map(Mixed())) == {"conv", "deconv", "head"}


class TestComputeGraph:
    def test_sequential_chain(self, rng):
        model = nn.Sequential(
            nn.Conv2d(1, 2, 3, padding=1, rng=rng),
            nn.BatchNorm2d(2),
            nn.ReLU(),
            nn.Conv2d(2, 4, 3, padding=1, rng=rng),
            nn.Conv2d(4, 2, 1, rng=rng),
        )
        x = Tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        graph = compute_graph(model, x)
        assert set(graph.edges) == {("0", "3"), ("3", "4")}

    def test_residual_block_edges(self, rng):
        model = ResidualBlock(3, rng)
        x = Tensor(rng.standard_normal((1, 3, 5, 5)).astype(np.float32))
        graph = compute_graph(model, x)
        assert ("conv1", "conv2") in graph.edges

    def test_two_branch_topology(self, rng):
        model = TwoBranch(rng)
        x = Tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        graph = compute_graph(model, x)
        assert ("stem", "branch_a") in graph.edges
        assert ("stem", "branch_b") in graph.edges
        assert ("branch_a", "fuse") in graph.edges
        assert ("branch_b", "fuse") in graph.edges
        # Branches are parallel, not chained.
        assert ("branch_a", "branch_b") not in graph.edges
        assert ("stem", "fuse") not in graph.edges

    def test_graph_is_acyclic(self, rng):
        model = TwoBranch(rng)
        x = Tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        graph = compute_graph(model, x)
        order = topological_layers(graph)
        assert sorted(order) == sorted(graph.nodes)
        position = {name: index for index, name in enumerate(order)}
        assert all(position[source] < position[target]
                   for source, target in graph.edges)

    def test_topological_order(self, rng):
        model = TwoBranch(rng)
        x = Tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32))
        order = topological_layers(compute_graph(model, x))
        assert order.index("stem") < order.index("branch_a")
        assert order.index("branch_a") < order.index("fuse")

    def test_restores_training_mode(self, rng):
        model = ResidualBlock(2, rng)
        model.train()
        compute_graph(model,
                      Tensor(rng.standard_normal((1, 2, 4, 4))
                             .astype(np.float32)))
        assert model.training

    def test_multi_output_model(self, rng):
        class TwoHeads(nn.Module):
            def __init__(self):
                super().__init__()
                self.backbone = nn.Conv2d(1, 4, 3, padding=1, rng=rng)
                self.head_cls = nn.Conv2d(4, 2, 1, rng=rng)
                self.head_reg = nn.Conv2d(4, 6, 1, rng=rng)

            def forward(self, x):
                feats = self.backbone(x).relu()
                return {"cls": self.head_cls(feats),
                        "reg": self.head_reg(feats)}

        model = TwoHeads()
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        graph = compute_graph(model, x)
        assert ("backbone", "head_cls") in graph.edges
        assert ("backbone", "head_reg") in graph.edges


class TestDAG:
    def test_generation_order_follows_insertion(self):
        graph = DAG()
        graph.add_nodes_from(["c", "a", "b", "d"])
        graph.add_edges_from([("a", "d"), ("c", "b"), ("b", "d"),
                              ("a", "b")])
        assert graph.nodes == ["c", "a", "b", "d"]
        assert list(graph.predecessors("b")) == ["c", "a"]
        assert list(graph.successors("a")) == ["d", "b"]
        assert graph.number_of_edges() == 4
        # Sources first in node order, then each generation in the
        # order its nodes' last incoming edge was removed.
        assert topological_layers(graph) == ["c", "a", "b", "d"]

    def test_cycle_raises(self):
        graph = DAG()
        graph.add_edges_from([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="cycle"):
            topological_layers(graph)
