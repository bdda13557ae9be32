"""The per-kernel SHA-256 choice: every candidate computes SHA-256, the
rule puts the one-block kernel on the builtin ``_sha256`` where it imports
and ``T_len`` on ``hashlib``, and whichever is forced, every KAT set signs
and verifies to its pinned bytes in-process and on a pool forked after it."""

import hashlib
import importlib.util

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes import thash
from repro.hashes.sha256 import Sha256
from repro.hashes.thash import (KERNELS, HashContext, sha256_candidates,
                                sha256_choice)
from repro.params import get_params
from repro.runtime import WorkerPool, get_backend
from repro.runtime.fastops import FastVerifier
from repro.testing.kat import KAT_SETS, load_kat

CANDIDATES = sorted(sha256_candidates())
HASHLIB = next(iter(sha256_candidates()))


@pytest.mark.parametrize("name", CANDIDATES)
@settings(max_examples=60, deadline=None)
@given(seed=st.binary(min_size=16, max_size=32),
       chunks=st.lists(st.binary(max_size=175), min_size=1, max_size=4))
def test_every_candidate_is_sha256_off_a_copied_midstate(name, seed, chunks):
    block = seed + bytes(64 - len(seed))
    mid = sha256_candidates()[name](block)
    h = mid.copy()
    for chunk in chunks:
        h.update(chunk)
    whole = block + b"".join(chunks)
    assert h.digest() == hashlib.sha256(whole).digest()
    assert h.digest() == Sha256().update(whole).digest()
    assert mid.digest() == hashlib.sha256(block).digest()  # copied, untouched


class TestRule:
    def test_one_block_runs_on_the_builtin_sha256_where_it_imports(self):
        has_builtin = importlib.util.find_spec("_sha256") is not None
        assert sha256_choice()["one_block"] == (
            "builtin" if has_builtin else HASHLIB)

    def test_multi_block_runs_on_the_references_midstate(self):
        ctx = HashContext(get_params("128f"))
        seed = bytes(16)
        assert sha256_choice()["multi_block"] == HASHLIB
        assert ctx.kernel_midstates(seed)[1] is ctx.midstate(seed)

    def test_without_the_builtin_every_kernel_runs_on_hashlib(
            self, monkeypatch):
        monkeypatch.setattr(thash, "sha256_candidates",
                            lambda: {"openssl": hashlib.sha256})
        assert sha256_choice() == dict.fromkeys(KERNELS, "openssl")


@pytest.mark.parametrize("name", CANDIDATES)
def test_forced_candidate_signs_and_verifies_every_kat_set(name,
                                                           monkeypatch):
    """Both kernels on *name*, patched before the pool forks: each KAT
    set's key, its ``abc`` signature in-process and its empty-message
    signature on two workers are the pinned bytes, and verify."""
    forced = dict.fromkeys(KERNELS, name)
    monkeypatch.setattr(thash, "sha256_choice", lambda: forced)
    new = sha256_candidates()[name]
    with WorkerPool(workers=2) as pool:
        for params_name in KAT_SETS:
            params = get_params(params_name)
            assert all(type(state) is type(new()) for state in
                       HashContext(params).kernel_midstates(bytes(params.n)))
            vector = load_kat(params_name)
            pinned = {bytes.fromhex(entry["message_hex"]):
                      entry["signature_sha256"]
                      for entry in vector["messages"]}
            verifier = FastVerifier(params)
            for message, backend in (
                    (b"abc", get_backend("vectorized", params_name,
                                         deterministic=True)),
                    (b"", get_backend("vectorized", params_name,
                                      deterministic=True, pool=pool))):
                keys = backend.keygen(seed=bytes.fromhex(vector["seed_hex"]))
                assert keys.public.hex() == vector["public_key_hex"]
                [signature] = backend.sign_batch([message], keys).signatures
                assert (hashlib.sha256(signature).hexdigest()
                        == pinned[message]), (params_name, backend.name)
                assert verifier.verify_batch([message], [signature],
                                             keys.public) == [True]
