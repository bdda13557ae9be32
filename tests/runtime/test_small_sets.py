"""Runtime-level coverage for the small (-s) parameter sets.

The paper evaluates the fast sets; the functional layer has always
supported 128s/192s/256s but nothing exercised them through the batch
runtime.  One message per set end-to-end (they sign in seconds, not
milliseconds — that's what "small signature, slow signing" buys).
"""

import pytest

from repro.params import get_params
from repro.runtime import BatchScheduler

SMALL_SETS = ("128s", "192s", "256s")


@pytest.mark.parametrize("params", SMALL_SETS)
def test_scheduler_sign_verify_small_set(params):
    scheduler = BatchScheduler(target_batch_size=1, deterministic=True,
                               verify=True)
    message = f"small-set {params}".encode()
    [ticket] = scheduler.run([message], params=params, backend="vectorized")

    stats = scheduler.batches[-1]
    assert stats.params == get_params(params).name
    assert stats.verified is True

    signature = scheduler.claim(ticket)
    assert len(signature) == get_params(params).sig_bytes

    backend = scheduler.backend_for(params, "vectorized")
    keys = scheduler.keys_for(params)
    assert backend.verify_batch([message], [signature],
                                keys.public) == [True]
    # Tampered input must not verify.
    assert backend.verify_batch([message + b"!"], [signature],
                                keys.public) == [False]
