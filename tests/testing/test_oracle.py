"""The differential oracle: clean passes, fault catches, extensibility."""

from repro.runtime import registry
from repro.runtime.scalar import ScalarBackend
from repro.testing import (DifferentialOracle, localize_divergence,
                           message_corpus, parse_fault)
from repro.sphincs.signer import Sphincs

SMALL_CORPUS = message_corpus(smoke=True)[:3]


def smoke_oracle(params: str = "128f", **kwargs) -> DifferentialOracle:
    """An oracle over the smoke corpus with no service or client pass,
    unless the test asks for one."""
    kwargs = {"smoke": True, "include_service": False,
              "include_clients": False, **kwargs}
    return DifferentialOracle(params, **kwargs)


class TestCleanTree:
    def test_all_paths_byte_identical(self):
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"], corpus=SMALL_CORPUS)
        report = oracle.run()
        assert report.passed
        assert report.first_divergence() is None
        paths = {result.path for result in report.results}
        assert paths == {"reference", "backend:scalar", "backend:vectorized",
                         "backend:vectorized+warm",
                         "scheduler:scalar", "scheduler:vectorized",
                         "ledger:audit"}
        for result in report.results:
            assert result.count == result.matched == result.verified == 3
        assert "ok" in report.render()

    def test_ledger_path_appends_proves_and_audits(self):
        """The ledger:audit path appends the corpus through a real
        LedgerService, byte-compares the entry payload signatures,
        requires every receipt's inclusion proof to verify, and replays
        the on-disk log through the differential audit."""
        oracle = smoke_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS,
            include_scheduler=False)
        report = oracle.run()
        assert report.passed, report.render()
        ledger = next(result for result in report.results
                      if result.path == "ledger:audit")
        assert ledger.count == ledger.matched == ledger.verified == 3
        assert not ledger.error

        without = smoke_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS,
            include_scheduler=False, include_ledger=False).run()
        assert not any(result.path == "ledger:audit"
                       for result in without.results)

    def test_service_path_included(self):
        oracle = smoke_oracle(
            "128f", backends=["vectorized"], corpus=SMALL_CORPUS,
            include_scheduler=False, include_service=True)
        report = oracle.run()
        assert report.passed
        assert any(result.path == "service:vectorized"
                   for result in report.results)

    def test_client_facade_paths_byte_identical(self):
        """Acceptance: the repro.api facade joins the oracle —
        client:local, client:pooled, client:tcp (pinned to the v2 line
        protocol), client:tcp-v3 (binary frames), and the cluster router
        (including the kill-a-node chaos variant) all byte-identical to
        the reference scheme."""
        oracle = smoke_oracle(
            "128f", backends=["vectorized", "pooled"], corpus=SMALL_CORPUS,
            include_scheduler=False, include_clients=True)
        report = oracle.run()
        assert report.passed, report.render()
        client_paths = {result.path for result in report.results
                        if result.path.startswith("client:")}
        assert client_paths == {"client:local", "client:pooled",
                                "client:tcp", "client:tcp-v3",
                                "client:cluster", "client:cluster-chaos"}
        for result in report.results:
            if result.path.startswith("client:"):
                assert result.count == result.matched == result.verified == 3


class TestFaultInjection:
    def test_fault_caught_named_and_localized(self):
        fault = parse_fault("thash:bitflip:7:0")
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"], corpus=SMALL_CORPUS,
            include_scheduler=False, fault=fault)
        report = oracle.run()
        assert not report.passed
        assert report.fault_fired
        divergence = report.first_divergence()
        assert divergence is not None
        assert divergence.path == "backend:scalar"
        # The flip lands in the first FORS tree, and the grafted tree
        # still verifies: only the byte compare catches it.
        assert divergence.stage == "fors (tree 0 auth path)"
        assert divergence.verify_failed is False
        # The untouched backend stays clean.
        vectorized = [r for r in report.results
                      if r.path == "backend:vectorized"]
        assert vectorized[0].ok

    def test_unfired_fault_reports_not_fired(self):
        fault = parse_fault("thash:bitflip:999999999")
        oracle = smoke_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS[:1],
            include_scheduler=False, fault=fault)
        report = oracle.run()
        assert report.passed  # nothing corrupted...
        assert not report.fault_fired  # ...and the report says why
        assert "NEVER FIRED" in report.render()


class TestVerifyStage:
    def test_verify_cases_cover_every_region_and_agree(self):
        """A clean tree: every path's verdicts over the verify cases
        (valid pairs, one flip per signature region, resized blobs, wrong
        message) equal the reference's."""
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"],
            corpus=SMALL_CORPUS[:1], include_scheduler=False,
            include_ledger=False)
        assert oracle.run().passed
        labels = [label for label, _, _, _ in oracle._verify_cases]
        assert labels[0] == "empty"
        for fragment in ("randomizer", "fors-secret", "fors-auth",
                         "wots-chain-L0", "xmss-auth-L21", "truncated",
                         "extended", "empty/empty", "wrong-message"):
            assert any(fragment in label for label in labels), fragment
        assert [wanted for _, _, _, wanted in oracle._verify_cases] == (
            [True] + [False] * (len(labels) - 1))

    def test_verifier_without_root_compare_rings(self):
        """The alarm: a fast verifier that never compares the root leaves
        every signature byte-identical and is still reported — by the
        fast paths only, as the accept-what-the-reference-rejects class."""
        from repro.runtime.fastops import FastVerifier

        genuine = FastVerifier.verify_batch
        fault = parse_fault("verify:no-root-compare")
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"],
            corpus=SMALL_CORPUS[:1], include_clients=True, fault=fault)
        report = oracle.run()
        assert FastVerifier.verify_batch is genuine  # uninstalled again
        assert not report.passed
        assert report.fault_fired and fault.calls_seen >= 2
        by_path = {result.path: result for result in report.results}
        assert set(by_path) == {"reference", "backend:scalar",
                                "backend:vectorized", "client:local"}
        assert by_path["backend:scalar"].ok  # the reference walk
        for path in ("backend:vectorized", "client:local"):
            result = by_path[path]
            assert result.matched == result.count == 1  # signing untouched
            assert result.divergences
            assert all(d.stage == "verify" and not d.verify_failed
                       for d in result.divergences)
        assert report.first_divergence().stage == "verify"


    def test_signature_blind_verify_memo_rings(self):
        """The alarm for the verify memo: keyed without the signature, it
        answers for every well-sized corruption of a signature it has
        accepted — and only because the verify stage checks those after
        their valid twin does anything diverge."""
        from repro.runtime.fastops import FastVerifier

        genuine = FastVerifier._memo_key
        fault = parse_fault("verify:memo-ignores-signature")
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"],
            corpus=SMALL_CORPUS[:1], include_clients=True, fault=fault)
        report = oracle.run()
        assert FastVerifier._memo_key is genuine  # uninstalled again
        assert not report.passed and report.fault_fired
        by_path = {result.path: result for result in report.results}
        assert by_path["backend:scalar"].ok  # the reference walk
        for path in ("backend:vectorized", "client:local"):
            result = by_path[path]
            assert result.matched == result.count == 1  # signing untouched
            assert {d.case.split("/")[-1].split("-")[0]
                    for d in result.divergences} == {"bitflip"}
            assert all(d.stage == "verify" and not d.verify_failed
                       for d in result.divergences)

    def test_signature_blind_layer_memo_rings(self):
        """The alarm for the upper-layer memo: keyed without a layer's
        signature bytes, it answers for a corruption inside a memoized
        layer — the top one's chains and auth path among the oracle's
        cases — once the valid twin has taught it that layer."""
        from repro.runtime.fastops import FastVerifier

        genuine = FastVerifier._layer_key
        fault = parse_fault("verify:layer-memo-ignores-signature")
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized"],
            corpus=SMALL_CORPUS[:1], include_clients=True, fault=fault)
        report = oracle.run()
        assert FastVerifier._layer_key is genuine  # uninstalled again
        assert not report.passed and report.fault_fired
        by_path = {result.path: result for result in report.results}
        assert by_path["backend:scalar"].ok  # the reference walk
        for path in ("backend:vectorized", "client:local"):
            result = by_path[path]
            assert result.matched == result.count == 1  # signing untouched
            assert {d.case.split("/")[-1] for d in result.divergences} == {
                "bitflip-wots-chain-L21", "bitflip-xmss-auth-L21"}
            assert all(d.stage == "verify" and not d.verify_failed
                       for d in result.divergences)

    def test_chain_table_off_by_one_rings(self):
        """The alarm for the signing plan's stitch: a WOTS signature read
        one table position too far passes the plan's own root check, and
        must be reported — as a wots divergence that fails verification —
        by both plan executors and by nothing else."""
        from repro.runtime import plan

        genuine = plan.chain_values
        fault = parse_fault("plan:chain-table-off-by-one")
        oracle = smoke_oracle(
            "128f", backends=["scalar", "vectorized", "pooled"],
            corpus=SMALL_CORPUS[:1], include_clients=True, fault=fault)
        report = oracle.run()
        assert plan.chain_values is genuine  # uninstalled again
        assert not report.passed
        assert report.fault_fired and fault.calls_seen >= 3 * 22
        by_path = {result.path: result for result in report.results}
        assert by_path["backend:scalar"].ok  # never touches a table
        for path in ("backend:vectorized", "backend:pooled", "client:local"):
            [divergence] = [d for d in by_path[path].divergences
                            if d.stage != "verify"]
            assert divergence.stage == "wots (layer 0)"
            assert divergence.verify_failed  # caught by verify, not served
        assert report.first_divergence().stage == "wots (layer 0)"

    def test_off_by_one_rings_from_inside_the_workers(self, warm_key):
        """An uncut run looks every layer below the floor up in its
        worker, which has the fault only because its pool was forked
        inside ``install()``: eight messages on a warm key are eight
        tasks with no lookup left for the coordinator, every signature
        must fail verification, and the workers' count must come home."""
        from repro.runtime import WorkerPool, get_backend

        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        messages = [f"uncut {i}".encode() for i in range(8)]
        fault = parse_fault("plan:chain-table-off-by-one")
        with fault.install(), WorkerPool(workers=2) as pool:
            backend = get_backend("vectorized", "128f", deterministic=True,
                                  pool=pool)
            warm_key(backend, keys)
            result = backend.sign_batch(messages, keys)
        assert result.cache_stats["tasks"] == 8
        assert not any(scheme.verify(message, signature, keys.public)
                       for message, signature
                       in zip(messages, result.signatures))
        # 19 layers below the floor per message, all in the workers; the
        # links between pinned trees came out of the warm cache, and the
        # coordinator walked the floor's link without a table.
        assert fault.fired and fault.calls_seen == 8 * 19

        fault = parse_fault("plan:chain-table-off-by-one")
        report = smoke_oracle(
            "128f", backends=["pooled"], fault=fault, corpus=[
                (f"uncut-{i}", message)
                for i, message in enumerate(messages)]).run()
        assert report.fault_fired and not report.passed
        [pooled] = [result for result in report.results
                    if result.path == "backend:pooled"]
        signing = [d for d in pooled.divergences if d.stage != "verify"]
        assert len(signing) == 8 and all(
            d.stage == "wots (layer 0)" and d.verify_failed for d in signing)


class TestExtensibility:
    def test_registered_backend_joins_and_gets_caught(self, monkeypatch):
        class CorruptedBackend(ScalarBackend):
            name = "test-corrupted"

            def sign_batch(self, messages, keys):
                result = super().sign_batch(messages, keys)
                blob = bytearray(result.signatures[0])
                blob[-1] ^= 0x01  # last byte: top-layer merkle auth path
                result.signatures[0] = bytes(blob)
                return result

        monkeypatch.setitem(registry.BACKENDS, "test-corrupted",
                            CorruptedBackend)
        oracle = DifferentialOracle(
            "128f", backends=["test-corrupted"], corpus=SMALL_CORPUS[:1],
            include_scheduler=False, include_service=False,
            include_clients=False)
        report = oracle.run()
        assert not report.passed
        divergence = report.first_divergence()
        assert divergence.path == "backend:test-corrupted"
        assert divergence.stage.startswith("merkle (layer")
        assert divergence.verify_failed  # tampering breaks the root walk

    def test_unknown_backend_is_an_error_not_a_crash(self):
        oracle = DifferentialOracle(
            "128f", backends=["no-such-backend"], corpus=SMALL_CORPUS[:1],
            include_scheduler=False, include_service=False,
                include_clients=False)
        report = oracle.run()
        assert not report.passed
        broken = [r for r in report.results
                  if r.path == "backend:no-such-backend"]
        assert "BackendError" in broken[0].error
        assert "ERROR" in report.render()


class TestLocalizeDivergence:
    def test_component_walk_names_the_right_hop(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        clean = scheme.sign(b"hop", keys)
        params = scheme.params

        tampered = bytearray(clean)
        tampered[0] ^= 1
        assert localize_divergence(scheme, clean,
                                   bytes(tampered)) == "randomizer"

        tampered = bytearray(clean)
        tampered[params.n] ^= 1  # first FORS revealed secret
        assert localize_divergence(
            scheme, clean, bytes(tampered)) == "fors (tree 0 revealed secret)"

        fors_bytes = params.n + params.k * (1 + params.log_t) * params.n
        tampered = bytearray(clean)
        tampered[fors_bytes] ^= 1  # first WOTS chain value, layer 0
        assert localize_divergence(scheme, clean,
                                   bytes(tampered)) == "wots (layer 0)"

        assert localize_divergence(scheme, clean, clean[:-1]).startswith(
            "length")

    def test_identical_blobs_name_no_hop(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        clean = scheme.sign(b"same", keys)
        assert localize_divergence(scheme, clean, bytes(clean)) == (
            "none (byte-identical)")

    def test_length_mismatch_names_both_sizes(self):
        scheme = Sphincs("128f", deterministic=True)
        size = scheme.params.sig_bytes
        blob = bytes(size)
        assert localize_divergence(scheme, blob, blob[:-1]) == (
            f"length ({size - 1} bytes, expected {size})")
        assert localize_divergence(scheme, blob, blob + b"\x00") == (
            f"length ({size + 1} bytes, expected {size})")

    def test_auth_paths_name_their_tree_and_layer(self):
        scheme = Sphincs("128f", deterministic=True)
        params = scheme.params
        clean = bytes(params.sig_bytes)
        n, fors_tree = params.n, (1 + params.log_t) * params.n
        fors_bytes = n + params.k * fors_tree
        wots_bytes = params.wots_len * n

        def flipped(offset: int) -> bytes:
            blob = bytearray(clean)
            blob[offset] ^= 1
            return bytes(blob)

        cases = {
            n + n: "fors (tree 0 auth path)",
            n + (params.k - 1) * fors_tree + n:
                f"fors (tree {params.k - 1} auth path)",
            fors_bytes + wots_bytes: "merkle (layer 0 auth path)",
            params.sig_bytes - 1:
                f"merkle (layer {params.d - 1} auth path)",
        }
        for offset, stage in cases.items():
            assert localize_divergence(scheme, clean, flipped(offset)) == (
                stage), offset

    def test_the_first_hop_in_signing_order_wins(self):
        scheme = Sphincs("128f", deterministic=True)
        params = scheme.params
        clean = bytes(params.sig_bytes)
        fors_bytes = params.n + params.k * (1 + params.log_t) * params.n
        for offsets, stage in (((0, params.sig_bytes - 1), "randomizer"),
                               ((fors_bytes, params.n), "fors (tree 0 "
                                                        "revealed secret)")):
            blob = bytearray(clean)
            for offset in offsets:
                blob[offset] ^= 1
            assert localize_divergence(scheme, clean, bytes(blob)) == stage
