"""Real (wall-clock) throughput of the functional pure-Python SPHINCS+.

Not a paper table — this grounds the repository: the numbers here are
honest Python measurements (pytest-benchmark), establishing the baseline
the GPU model's orders-of-magnitude speedups are claimed over.  Being a
wall-clock timing, its table has no tracked copy to be held against: it
is printed and left under ``benchmarks/out/``, and the gated forms of the
same figures are ``bench/``'s ``sphincs.sign_kh`` / ``sphincs.verify_kh``.
"""

import pytest

from repro.analysis import format_table
from repro.sphincs.signer import Sphincs


@pytest.fixture(scope="module")
def scheme():
    return Sphincs("128f", deterministic=True)


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(seed=bytes(48))


def test_sign_128f(scheme, keys, benchmark, emit):
    sig = benchmark(scheme.sign, b"functional throughput", keys)
    assert len(sig) == 17088
    stats = benchmark.stats.stats
    emit("functional_throughput", format_table(
        ["operation", "mean s", "ops/s"],
        [["sign 128f (pure Python)", round(stats.mean, 4),
          round(1.0 / stats.mean, 3)]],
        title="Functional layer wall-clock throughput",
    ), tracked=False)


def test_verify_128f(scheme, keys, benchmark):
    sig = scheme.sign(b"functional throughput", keys)
    ok = benchmark(scheme.verify, b"functional throughput", sig, keys.public)
    assert ok


def test_keygen_128f(scheme, benchmark):
    keys = benchmark(scheme.keygen, seed=bytes(48))
    assert len(keys.public) == 32
