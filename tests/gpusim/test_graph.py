"""Task-graph tests: topology validation and launch-overhead amortization."""

import pytest

from repro.errors import GraphError
from repro.gpusim.calibration import Calibration
from repro.gpusim.graph import TaskGraph
from repro.gpusim.stream import Timeline

CAL = Calibration()


def _fork_join_graph():
    g = TaskGraph("fj")
    a = g.add_kernel("fors", 1e-3, 0.5)
    b = g.add_kernel("tree", 2e-3, 0.5)
    g.add_kernel("wots", 5e-4, 1.0, deps=(a, b))
    return g


class TestConstruction:
    def test_node_count(self):
        assert len(_fork_join_graph().instantiate().nodes) == 3

    def test_instantiate_topo_order(self):
        exe = _fork_join_graph().instantiate()
        order = list(exe.topo_order)
        assert order.index(2) > order.index(0)
        assert order.index(2) > order.index(1)

    def test_foreign_dependency_rejected(self):
        g1, g2 = TaskGraph("a"), TaskGraph("b")
        node = g1.add_kernel("x", 1e-3)
        with pytest.raises(GraphError, match="not a node"):
            g2.add_kernel("y", 1e-3, deps=(node,))

    def test_empty_graph_instantiates(self):
        exe = TaskGraph("empty").instantiate()
        assert exe.nodes == ()


class TestExecution:
    def test_dependences_respected(self, rtx4090):
        tl = Timeline(rtx4090, CAL)
        records = _fork_join_graph().instantiate().launch(tl, CAL)
        tl.run()
        fors, tree, wots = records
        assert wots.start_time >= max(fors.end_time, tree.end_time)

    def test_fork_overlaps(self, rtx4090):
        tl = Timeline(rtx4090, CAL)
        _fork_join_graph().instantiate().launch(tl, CAL)
        result = tl.run()
        # fors (1ms) hides under tree (2ms); + wots 0.5ms.
        assert result.makespan_s < 3e-3

    def test_graph_launch_cheaper_than_streams(self, rtx4090):
        """The Figure 12 mechanism: graphs amortize launch overhead."""
        stream_tl = Timeline(rtx4090, CAL)
        s = stream_tl.stream("s")
        for i in range(20):
            stream_tl.launch(s, f"k{i}", 1e-5)
        stream_result = stream_tl.run()

        graph = TaskGraph("g")
        prev = None
        for i in range(20):
            prev = graph.add_kernel(f"k{i}", 1e-5, deps=(prev,) if prev else ())
        graph_tl = Timeline(rtx4090, CAL)
        graph.instantiate().launch(graph_tl, CAL)
        graph_result = graph_tl.run()

        assert graph_result.launch_overhead_s < stream_result.launch_overhead_s / 5

    def test_repeated_launches(self, rtx4090):
        exe = _fork_join_graph().instantiate()
        tl = Timeline(rtx4090, CAL)
        for _ in range(4):
            exe.launch(tl, CAL)
        result = tl.run()
        assert len(result.records) == 12
