"""Merkle treehash / authentication-path tests, including the property the
whole scheme rests on: every leaf's auth path reproduces the root."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureFormatError
from repro.hashes.address import Address, AddressType
from repro.hashes.thash import HashContext
from repro.params import get_params
from repro.sphincs.merkle import auth_path, root_from_auth, treehash

PK_SEED = b"P" * 16


def _ctx():
    return HashContext(get_params("128f"))


def _tree_adrs():
    adrs = Address().set_layer(0).set_tree(0)
    adrs.set_type(AddressType.TREE)
    return adrs


def _leaves(count, seed=0):
    return [bytes([seed + i]) * 16 for i in range(count)]


class TestTreehash:
    def test_levels_shape(self):
        levels = treehash(_leaves(8), _ctx(), PK_SEED, _tree_adrs())
        assert [len(level) for level in levels] == [8, 4, 2, 1]

    def test_single_leaf(self):
        levels = treehash(_leaves(1), _ctx(), PK_SEED, _tree_adrs())
        assert levels == [[_leaves(1)[0]]]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SignatureFormatError):
            treehash(_leaves(6), _ctx(), PK_SEED, _tree_adrs())

    def test_root_depends_on_every_leaf(self):
        base = treehash(_leaves(8), _ctx(), PK_SEED, _tree_adrs())[-1][0]
        for i in range(8):
            mutated = _leaves(8)
            mutated[i] = b"\xff" * 16
            other = treehash(mutated, _ctx(), PK_SEED, _tree_adrs())[-1][0]
            assert other != base, f"leaf {i} did not affect the root"

    def test_leaf_order_matters(self):
        leaves = _leaves(4)
        a = treehash(leaves, _ctx(), PK_SEED, _tree_adrs())[-1][0]
        b = treehash(leaves[::-1], _ctx(), PK_SEED, _tree_adrs())[-1][0]
        assert a != b


class TestAuthPath:
    def test_path_length(self):
        levels = treehash(_leaves(16), _ctx(), PK_SEED, _tree_adrs())
        assert len(auth_path(levels, 5)) == 4

    def test_every_leaf_authenticates(self):
        ctx = _ctx()
        leaves = _leaves(16)
        levels = treehash(leaves, ctx, PK_SEED, _tree_adrs())
        root = levels[-1][0]
        for idx, leaf in enumerate(leaves):
            path = auth_path(levels, idx)
            assert root_from_auth(
                leaf, idx, path, ctx, PK_SEED, _tree_adrs()
            ) == root

    def test_wrong_index_fails(self):
        ctx = _ctx()
        leaves = _leaves(8)
        levels = treehash(leaves, ctx, PK_SEED, _tree_adrs())
        root = levels[-1][0]
        path = auth_path(levels, 3)
        assert root_from_auth(leaves[3], 2, path, ctx, PK_SEED, _tree_adrs()) != root

    def test_tampered_sibling_fails(self):
        ctx = _ctx()
        leaves = _leaves(8)
        levels = treehash(leaves, ctx, PK_SEED, _tree_adrs())
        root = levels[-1][0]
        path = auth_path(levels, 3)
        path[1] = b"\x00" * 16
        assert root_from_auth(leaves[3], 3, path, ctx, PK_SEED, _tree_adrs()) != root

    @given(
        height=st.integers(1, 5),
        leaf_index=st.integers(0, 31),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_auth_path_property(self, height, leaf_index, seed):
        """For random tree heights, contents and leaf choices, the auth
        path always recovers the root."""
        ctx = _ctx()
        count = 1 << height
        leaf_index %= count
        leaves = _leaves(count, seed % 50)
        levels = treehash(leaves, ctx, PK_SEED, _tree_adrs())
        path = auth_path(levels, leaf_index)
        assert root_from_auth(
            leaves[leaf_index], leaf_index, path, ctx, PK_SEED, _tree_adrs()
        ) == levels[-1][0]


class _IndexRecorder(HashContext):
    """A context that notes the ``(tree_height, tree_index)`` of every
    node it hashes."""

    def __init__(self):
        super().__init__(get_params("128f"))
        self.nodes = []

    def thash(self, pk_seed, adrs, *blocks):
        self.nodes.append((adrs.tree_height, adrs.word3))  # tree_index
        return super().thash(pk_seed, adrs, *blocks)


class TestForestOffset:
    """``base`` places a tree inside a forest (FORS tree ``i`` starts at
    leaf ``i * t``): node ``j`` of level ``h`` is ``(base >> h) + j``."""

    @pytest.mark.parametrize("base", [0, 8, 24, 5 * 64])
    def test_treehash_indexes_nodes_from_base(self, base):
        ctx = _IndexRecorder()
        treehash(_leaves(8), ctx, PK_SEED, _tree_adrs(), base)
        assert ctx.nodes == [(height, (base >> height) + j)
                             for height in (1, 2, 3)
                             for j in range(8 >> height)]

    @pytest.mark.parametrize("base", [0, 8, 24, 5 * 64])
    def test_root_from_auth_walks_the_same_nodes(self, base):
        leaves = _leaves(8)
        levels = treehash(leaves, _ctx(), PK_SEED, _tree_adrs(), base)
        for leaf_index in (0, 5):
            ctx = _IndexRecorder()
            root = root_from_auth(leaves[leaf_index], leaf_index,
                                  auth_path(levels, leaf_index), ctx,
                                  PK_SEED, _tree_adrs(), base)
            assert root == levels[-1][0]
            assert ctx.nodes == [(height, (base >> height)
                                  + (leaf_index >> height))
                                 for height in (1, 2, 3)]

    def test_base_changes_the_root(self):
        roots = {treehash(_leaves(8), _ctx(), PK_SEED, _tree_adrs(),
                          base)[-1][0] for base in (0, 8, 16)}
        assert len(roots) == 3
