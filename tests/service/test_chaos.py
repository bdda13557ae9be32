"""Chaos tests: the service tier behind a deterministic flaky network.

The contract under chaos is the oracle's contract: a client may see typed
errors and may have to reconnect, but every signature it does receive is
byte-identical to the deterministic reference — and nothing hangs.
"""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed)
from repro.sphincs.signer import Sphincs
from repro.testing import FlakyProxy

ATTEMPTS = 12


@pytest.fixture
def flaky_proxy_factory():
    """Factory: ``make(target_port, **proxy_kwargs)`` -> unstarted proxy.

    Every proxy the test started is stopped when it ends (the test runs
    its own event loop, so teardown runs the coroutines).
    """
    proxies: list[FlakyProxy] = []

    def make(target_port: int, **kwargs) -> FlakyProxy:
        proxy = FlakyProxy(target_port, **kwargs)
        proxies.append(proxy)
        return proxy

    yield make
    for proxy in proxies:
        if proxy._server is not None:
            asyncio.run(proxy.stop())


def make_service():
    keystore = Keystore()
    keystore.add_tenant("demo", "128f")
    keystore.generate_key("demo", "default",
                          seed=derive_seed("demo/default",
                                           get_params("128f").n))
    return SigningService(keystore, target_batch_size=1, max_wait_s=0.02,
                          deterministic=True)


def expected_signature(service, message):
    keys, params = service.keystore.resolve("demo")
    return Sphincs(params, deterministic=True).sign(message, keys), keys


class TestFlakyNetwork:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_wrong_signature_no_hang(self, flaky_proxy_factory, seed):
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            proxy = flaky_proxy_factory(server.port, seed=seed,
                                        drop_rate=0.08, split_rate=0.4,
                                        delay_rate=0.3, max_delay_s=0.002)
            await proxy.start()
            message = b"chaos victim"
            reference, keys = expected_signature(service, message)
            succeeded, failed = 0, 0
            client = None
            try:
                for _ in range(ATTEMPTS):
                    try:
                        if client is None:
                            client = await asyncio.wait_for(
                                ServiceClient.open(port=proxy.port),
                                timeout=10)
                        response = await asyncio.wait_for(
                            client.call("sign", tenant="demo",
                                        key="default", message=message),
                            timeout=30)
                    except (ServiceError, ConnectionError, OSError,
                            asyncio.TimeoutError):
                        # Typed failure: reconnect and carry on.
                        failed += 1
                        if client is not None:
                            await client.close()
                            client = None
                        continue
                    # Anything the flaky network did deliver must be the
                    # exact deterministic signature — never corrupt bytes.
                    assert response["signature"] == reference
                    scheme = Sphincs("128f")
                    assert scheme.verify(message, response["signature"],
                                         keys.public)
                    succeeded += 1
            finally:
                if client is not None:
                    await client.close()
                await proxy.stop()
                await server.stop()
            # The run exercised both sides of the contract: some traffic
            # made it through intact, and the proxy genuinely misbehaved.
            assert succeeded > 0
            assert proxy.splits + proxy.delays + proxy.dropped > 0
            return succeeded, failed

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_mid_stream_drop_fails_typed_not_silent(self, flaky_proxy_factory):
        """Force a drop on every chunk: the client must get a typed
        connection error — a partial frame must never surface as data."""
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            proxy = flaky_proxy_factory(server.port, seed=3, drop_rate=1.0)
            await proxy.start()
            try:
                # The first chunk, the hello itself, is already dropped.
                with pytest.raises((ServiceError, ConnectionError,
                                    OSError)):
                    await asyncio.wait_for(
                        ServiceClient.open(port=proxy.port), timeout=15)
                assert proxy.dropped >= 1
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))
