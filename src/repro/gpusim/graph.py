"""Task graphs — the CUDA Graph analog.

A :class:`TaskGraph` is a DAG of kernel nodes.  ``instantiate`` freezes it
into a :class:`GraphExec` (validating acyclicity, as ``cudaGraphInstantiate``
does), and ``launch`` replays the whole DAG onto a
:class:`~repro.gpusim.stream.Timeline` with *one* graph-launch overhead plus
a tiny per-node residual instead of a full host launch per kernel — the
mechanism behind the paper's up-to-221x kernel-launch-latency reduction
(Figure 12; graph instantiation time is excluded there, and is likewise not
charged to the timeline here).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError
from .calibration import Calibration, DEFAULT_CALIBRATION
from .stream import LaunchRecord, Timeline

__all__ = ["GraphNode", "TaskGraph", "GraphExec"]


@dataclass(frozen=True)
class GraphNode:
    """One kernel node in a task graph."""

    node_id: int
    name: str
    work_s: float
    demand: float
    deps: tuple[int, ...]


class TaskGraph:
    """Mutable task-graph builder."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self._nodes: list[GraphNode] = []

    def add_kernel(
        self,
        name: str,
        work_s: float,
        demand: float = 1.0,
        deps: tuple[GraphNode, ...] | list[GraphNode] = (),
    ) -> GraphNode:
        """Add a kernel node; *deps* must be nodes of this graph."""
        for dep in deps:
            if dep.node_id >= len(self._nodes) or self._nodes[dep.node_id] is not dep:
                raise GraphError(f"dependency {dep.name!r} is not a node of {self.name!r}")
        node = GraphNode(
            node_id=len(self._nodes),
            name=name,
            work_s=work_s,
            demand=demand,
            deps=tuple(dep.node_id for dep in deps),
        )
        self._nodes.append(node)
        return node

    def instantiate(self) -> "GraphExec":
        """Freeze into an executable graph (validates topology)."""
        order = self._topo_order()
        return GraphExec(self.name, tuple(self._nodes), tuple(order))

    def _topo_order(self) -> list[int]:
        indegree = [len(node.deps) for node in self._nodes]
        children: dict[int, list[int]] = {i: [] for i in range(len(self._nodes))}
        for node in self._nodes:
            for dep in node.deps:
                children[dep].append(node.node_id)
        frontier = [i for i, deg in enumerate(indegree) if deg == 0]
        order: list[int] = []
        while frontier:
            nid = frontier.pop()
            order.append(nid)
            for child in children[nid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order


@dataclass(frozen=True)
class GraphExec:
    """An instantiated task graph, launchable many times."""

    name: str
    nodes: tuple[GraphNode, ...]
    topo_order: tuple[int, ...]

    def launch(
        self,
        timeline: Timeline,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> list[LaunchRecord]:
        """Replay the DAG onto *timeline* with graph-launch overheads.

        Every node runs on its own anonymous stream so only the explicit
        graph dependences order execution, exactly as CUDA graphs behave.
        """
        records: dict[int, LaunchRecord] = {}
        first = True
        for nid in self.topo_order:
            node = self.nodes[nid]
            overhead = calibration.graph_node_us * 1e-6
            if first:
                overhead += calibration.graph_launch_us * 1e-6
                first = False
            records[nid] = timeline.launch(
                stream=timeline.stream(f"{self.name}.n{nid}"),
                name=node.name,
                work_s=node.work_s,
                demand=node.demand,
                deps=tuple(records[d] for d in node.deps),
                overhead_s=overhead,
            )
        return [records[nid] for nid in range(len(self.nodes))]
