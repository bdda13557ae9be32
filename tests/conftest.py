"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.gpusim.device import DEVICES, get_device
from repro.gpusim.engine import TimingEngine
from repro.params import get_params


def pytest_addoption(parser):
    parser.addoption(
        "--regen-api-surface", action="store_true", default=False,
        help="rewrite tests/api_surface.json from the current repro.api "
             "public surface (the deliberate-change workflow, mirroring "
             "`repro conformance --regen-kats` for KAT vectors)")


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX 4090")


@pytest.fixture(scope="session")
def engine():
    return TimingEngine()


@pytest.fixture(scope="session", params=["128f", "192f", "256f"])
def fast_params(request):
    """Each of the paper's three -f parameter sets."""
    return get_params(request.param)


@pytest.fixture(scope="session", params=sorted(DEVICES))
def any_device(request):
    """Each device in the catalog."""
    return DEVICES[request.param]


@pytest.fixture(scope="session")
def walked_region():
    """``walked_region(params, keys, floor) -> (trees, links)``: the
    pinned region above *floor* built the slow, obvious way — a subtree
    build per pinned tree, then a second WOTS walk per link between
    pinned trees.  The oracle for what a key's layer cache may hold;
    each region is built once per session."""
    from repro.hashes.thash import HashContext
    from repro.runtime.fastops import FastOps

    regions = {}

    def region(params, keys, floor: int):
        key = (params.name, keys.sk_seed, keys.pk_seed, floor)
        if key not in regions:
            ops = FastOps(HashContext(params), keys.sk_seed, keys.pk_seed)
            leaves, trees, links = params.tree_leaves, {}, {}
            for layer in range(floor, params.d):
                for tree in range(leaves ** (params.d - 1 - layer)):
                    trees[layer, tree] = ops.build_subtree(layer, tree)[0]
                    for leaf in range(leaves) if layer > floor else ():
                        child = trees[layer - 1, tree * leaves + leaf]
                        links[layer, tree, leaf] = b"".join(ops.wots_sign(
                            child[-params.n:], layer, tree, leaf))
            regions[key] = trees, links
        return regions[key]

    return region


@pytest.fixture(scope="session")
def warm_key(walked_region):
    """``warm_key(backend, keys)``: seed the vectorized *backend*'s layer
    cache for *keys* with the whole walked region — what a fully warm key
    holds — and return that cache."""
    def seed(backend, keys):
        cache, seed = backend.cache, (keys.sk_seed, keys.pk_seed)
        trees, links = walked_region(backend.params, keys,
                                     cache.pinned_floor)
        for (layer, tree), nodes in trees.items():
            cache.store_tree(seed, layer, tree, nodes)
        for (layer, tree, leaf), chains in links.items():
            cache.store_link(seed, layer, tree, leaf, chains)
        return cache

    return seed


class RawWire:
    """The read side of a raw test connection (an ``asyncio``
    ``StreamReader``), split by the protocol's own splitters."""

    def __init__(self, reader):
        self.reader = reader
        self.held = b""

    async def read(self, split):
        """The next item *split* — ``protocol.read_frame``, or a
        dialect's ``read_reply`` / ``read_request`` — takes off the
        stream; ``None`` at a clean EOF."""
        eof = False
        while True:
            item, stop = split(memoryview(self.held), 0, len(self.held), eof)
            if item is not None or eof:
                self.held = self.held[stop:]
                return item
            chunk = await self.reader.read(1 << 16)
            eof = not chunk
            self.held += chunk


@pytest.fixture
def raw_wire():
    """``raw_wire(reader) -> RawWire``: read frames or replies off a raw
    test connection."""
    return RawWire
