"""Protocol fuzzing: malformed frames must yield typed errors, not crashes.

Two layers: the pure codec (`protocol.decode` / `unpack_bytes`) under the
seeded malformed-frame generator, and a live `SigningServer` fed the same
frames over TCP — every frame must come back as a structured ``ok: false``
response on a connection that stays usable.
"""

import asyncio
import json

import pytest

from repro.errors import ProtocolError
from repro.params import get_params
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed, protocol)
from repro.testing import malformed_frames

FRAMES = malformed_frames(seed=1234)


def make_server_service():
    keystore = Keystore()
    keystore.add_tenant("demo", "128f")
    keystore.generate_key("demo", "default",
                          seed=derive_seed("demo/default",
                                           get_params("128f").n))
    return SigningService(keystore, target_batch_size=2, max_wait_s=0.05,
                          deterministic=True)


class TestCodecFuzz:
    @pytest.mark.parametrize("case,frame", FRAMES,
                             ids=[case for case, _ in FRAMES])
    def test_decode_raises_typed_or_returns_dict(self, case, frame):
        """decode() never leaks a raw json/unicode error.  Frames that do
        parse into an object are the server's problem (unknown op etc.),
        also covered below."""
        try:
            message = protocol.decode(frame)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    def test_unpack_bytes_rejects_non_base64(self):
        for field in (None, 7, [1], "!!%%", "aGk", "====="):
            with pytest.raises(ProtocolError):
                protocol.unpack_bytes(field)

    def test_round_trip_survives_fuzzed_payloads(self):
        import random

        rng = random.Random(99)
        for _ in range(32):
            blob = rng.randbytes(rng.randrange(0, 4096))
            assert protocol.unpack_bytes(protocol.pack_bytes(blob)) == blob


class TestServerFuzz:
    def test_every_malformed_frame_gets_structured_error(self):
        async def scenario():
            service = make_server_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(protocol.encode(
                    {"op": "hello", "id": 0, "version": 2}))
                assert json.loads(await reader.readline())["ok"] is True
                for case, frame in FRAMES:
                    writer.write(frame)
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(),
                                                  timeout=10)
                    response = json.loads(line)
                    assert response["ok"] is False, case
                    assert response["error"] in (
                        protocol.ERROR_PROTOCOL, protocol.ERROR_UNKNOWN_KEY,
                        protocol.ERROR_UNKNOWN_VERB,
                    ), case
                # The connection survived all of it.
                writer.write(protocol.encode({"op": "ping", "id": 1}))
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                assert json.loads(line)["ok"] is True
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())
