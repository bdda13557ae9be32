"""Wire efficiency: protocol-v3 binary frames vs v2 JSON lines.

Not a paper table: the v3 framing PR's acceptance baseline.  Two
phases, both recorded to ``wire_efficiency.json`` next to the other
JSON perf baselines and gated by ``compare_baselines.py``:

``codec``
    The serialization stack in isolation — encode+decode one ``sign``
    result (a 17 KiB SPHINCS+-128f signature) through the v2 path
    (base64 + JSON line) and the v3 path (binary frame), measured with
    ``time.process_time`` so the numbers are CPU, not wall.

``live``
    A real server on localhost, one v2 client and one v3 client
    *replaying* the same working set through the facade — every
    signature after the warm-up pass is a memo lookup, so what is
    measured is the wire, not signing (pipelined
    single ``sign`` calls, so both modes form the same server-side
    batches).  Wire bytes come from the client's own
    ``bytes_sent``/``bytes_received`` counters.  CPU-seconds per
    signature is measured in *paired rounds*: each round runs one v2
    pass then one v3 pass back-to-back and records the difference, so
    slow machine-level drift (frequency scaling, noisy neighbours)
    cancels within the pair; the verdict is the median of the paired
    deltas, with GC parked during the measured passes (client and
    server share the process, so this is the whole stack).

The in-test acceptance gate: v3 must move >=25% fewer bytes per
signature and spend less CPU per signature than v2 on replayed
traffic.

Set ``REPRO_SMOKE=1`` for the tiny CI configuration.
"""

import asyncio
import gc
import json
import time

from conftest import SMOKE, json_baseline_dir

from repro.api import AsyncClient
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed, protocol)

MESSAGES = 16 if SMOKE else 24   # signatures per measured pass
BATCH = 8                        # concurrent signs per pipelined burst
MESSAGE_BYTES = 4096             # attestation payload; big enough that
                                 # the v2 request pays base64+JSON too
CODEC_ITERS = 300 if SMOKE else 3000
ROUNDS = 5 if SMOKE else 9       # paired v2/v3 rounds (median delta)
CACHE_BUDGET_MB = 32.0           # prewarmed hypertree layer cache

_SIGNATURE = b"\xa5" * 17088     # SPHINCS+-128f signature size
_MESSAGE = b"\x5a" * MESSAGE_BYTES


def _codec_phase() -> dict:
    """CPU and bytes for one encoded sign result, v2 line vs v3 frame."""
    def v2_encode() -> bytes:
        return protocol.encode({
            "ok": True, "op": "sign", "id": 7,
            "signature": protocol.pack_bytes(_SIGNATURE),
            "params": "SPHINCS+-128f", "backend": "vectorized",
            "batch_size": BATCH, "wait_ms": 1.0, "total_ms": 2.0})

    def v2_decode(line: bytes) -> None:
        response = protocol.decode(line)
        protocol.unpack_bytes(response["signature"], name="signature")

    def v3_encode() -> bytes:
        return protocol.encode_frame(
            protocol.FRAME_CODES["sign"],
            protocol.pack_sign_result(_SIGNATURE, "SPHINCS+-128f",
                                      "vectorized", BATCH, 1.0, 2.0),
            id=7, flags=protocol.FLAG_OK)

    def v3_decode(body: bytes) -> None:
        frame = protocol.decode_frame(memoryview(body)[4:])
        protocol.unpack_sign_result(frame.payload)

    def cpu_us_per_op(encode, decode) -> float:
        body = encode()
        start = time.process_time()
        for _ in range(CODEC_ITERS):
            decode(encode())
        return (time.process_time() - start) / CODEC_ITERS * 1e6

    v2_bytes, v3_bytes = len(v2_encode()), len(v3_encode())
    v2_cpu = cpu_us_per_op(v2_encode, v2_decode)
    v3_cpu = cpu_us_per_op(v3_encode, v3_decode)
    return {
        "iters": CODEC_ITERS,
        "v2_bytes_per_result": v2_bytes,
        "v3_bytes_per_result": v3_bytes,
        "bytes_reduction": round(1.0 - v3_bytes / v2_bytes, 4),
        "v2_cpu_us_per_op": round(v2_cpu, 2),
        "v3_cpu_us_per_op": round(v3_cpu, 2),
        "cpu_speedup": round(v2_cpu / v3_cpu, 2) if v3_cpu > 0 else 0.0,
    }


def _live_phase() -> dict:
    """Same replayed working set through a live server, v2 then v3."""
    service = SigningService(
        Keystore(), backend="vectorized",
        target_batch_size=BATCH, max_wait_s=0.02,
        max_pending=4 * MESSAGES, deterministic=True,
        cache_budget_mb=CACHE_BUDGET_MB,
    )
    service.keystore.add_tenant("bench", "128f")
    service.keystore.generate_key("bench", seed=derive_seed("bench", 16))
    server = SigningServer(service, port=0)
    messages = [f"attestation #{i:04d}".encode().ljust(MESSAGE_BYTES,
                                                       b".")
                for i in range(MESSAGES)]
    chunks = [messages[i:i + BATCH] for i in range(0, MESSAGES, BATCH)]

    async def one_pass(client) -> dict:
        """One measured pass: pipelined signs in bursts of BATCH."""
        wire = client._wire
        sent, received = wire.bytes_sent, wire.bytes_received
        cpu_start = time.process_time()
        for chunk in chunks:
            await asyncio.gather(*[client.sign("bench", message)
                                   for message in chunk])
        cpu = (time.process_time() - cpu_start) / MESSAGES
        moved = ((wire.bytes_sent - sent)
                 + (wire.bytes_received - received))
        return {"cpu": cpu, "bytes_per_sig": moved / MESSAGES}

    async def scenario():
        await server.start()
        try:
            v2 = await AsyncClient.connect(port=server.port, version=2)
            v3 = await AsyncClient.connect(port=server.port, version=3)
            try:
                assert v2._wire.binary is False
                assert v3._wire.binary is True
                # Warm-up both modes before anything is measured: fill
                # the replay memo and fault in both code paths.
                await one_pass(v2)
                await one_pass(v3)
                samples2, samples3 = [], []
                gc.collect()
                gc.disable()
                try:
                    for _ in range(ROUNDS):
                        samples2.append(await one_pass(v2))
                        samples3.append(await one_pass(v3))
                finally:
                    gc.enable()
                return samples2, samples3
            finally:
                await v2.close()
                await v3.close()
        finally:
            await server.stop()

    samples2, samples3 = asyncio.run(scenario())
    deltas = sorted(s2["cpu"] - s3["cpu"]
                    for s2, s3 in zip(samples2, samples3))
    median_delta = deltas[len(deltas) // 2]
    cpu2 = min(sample["cpu"] for sample in samples2)
    cpu3 = min(sample["cpu"] for sample in samples3)
    return {
        "messages": MESSAGES,
        "batch": BATCH,
        "message_bytes": MESSAGE_BYTES,
        "rounds": ROUNDS,
        "v2_bytes_per_sig": round(samples2[-1]["bytes_per_sig"], 1),
        "v3_bytes_per_sig": round(samples3[-1]["bytes_per_sig"], 1),
        "bytes_reduction": round(
            1.0 - samples3[-1]["bytes_per_sig"]
            / samples2[-1]["bytes_per_sig"], 4),
        "v2_cpu_s_per_sig": round(cpu2, 6),
        "v3_cpu_s_per_sig": round(cpu3, 6),
        "cpu_ratio": round(cpu3 / cpu2, 4),
        # Positive = v3 spends less CPU per signature than v2 when the
        # two are measured back-to-back (drift-cancelling pairs).
        "cpu_saved_s_per_sig": round(median_delta, 6),
    }


def test_wire_efficiency(emit):
    codec = _codec_phase()
    live = _live_phase()

    # The acceptance gate for the v3 framing work: fewer bytes moved
    # per signature (>=25%) and less CPU spent per signature, both on
    # replayed traffic.
    assert live["bytes_reduction"] >= 0.25, (
        f"v3 moved only {live['bytes_reduction']:.1%} fewer bytes/sig "
        f"than v2 (need >= 25%)")
    assert live["cpu_saved_s_per_sig"] > 0, (
        f"v3 did not spend less CPU per signature than v2: median "
        f"paired delta {live['cpu_saved_s_per_sig']} s/sig "
        f"(v2 best {live['v2_cpu_s_per_sig']}, "
        f"v3 best {live['v3_cpu_s_per_sig']})")
    assert codec["v3_cpu_us_per_op"] < codec["v2_cpu_us_per_op"]

    record = {
        "params": "SPHINCS+-128f",
        "backend": "vectorized",
        "smoke": SMOKE,
        "codec": codec,
        "live": live,
    }
    (json_baseline_dir() / "wire_efficiency.json").write_text(
        json.dumps(record, indent=2) + "\n")

    from repro.analysis import format_table

    emit("wire_efficiency", format_table(
        ["phase", "v2", "v3", "delta"],
        [["codec bytes/result", codec["v2_bytes_per_result"],
          codec["v3_bytes_per_result"],
          f"-{codec['bytes_reduction']:.1%}"],
         ["codec CPU us/op", codec["v2_cpu_us_per_op"],
          codec["v3_cpu_us_per_op"], f"{codec['cpu_speedup']}x"],
         ["live bytes/sig", live["v2_bytes_per_sig"],
          live["v3_bytes_per_sig"], f"-{live['bytes_reduction']:.1%}"],
         ["live CPU s/sig", live["v2_cpu_s_per_sig"],
          live["v3_cpu_s_per_sig"],
          f"-{live['cpu_saved_s_per_sig'] * 1e6:.0f} us (median "
          f"paired)"]],
        title=f"Wire efficiency, v2 JSON lines vs v3 binary frames "
              f"({MESSAGES} msgs x {MESSAGE_BYTES} B, batch {BATCH}, "
              f"replay)",
    ))
