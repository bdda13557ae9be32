"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_tune(self, capsys):
        assert main(["tune", "--params", "128f", "--device", "RTX 4090"]) == 0
        out = capsys.readouterr().out
        assert "fusion F      : 3" in out
        assert "threads/block : 704" in out

    def test_tune_relax(self, capsys):
        assert main(["tune", "--params", "256f"]) == 0
        assert "relax-FORS    : True" in capsys.readouterr().out

    def test_model(self, capsys):
        assert main(["model", "--params", "128f", "--messages", "256",
                     "--batches", "4"]) == 0
        out = capsys.readouterr().out
        assert "graph" in out and "KOPS" in out

    def test_sign_deterministic(self, capsys):
        assert main(["sign", "--params", "128f", "--deterministic",
                     "--message", "cli test"]) == 0
        out = capsys.readouterr().out
        assert "signature     : 17088 bytes" in out
        assert "self-verify   : True" in out

    def test_sign_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "sig.bin"
        assert main(["sign", "--deterministic", "--out", str(out_file)]) == 0
        assert out_file.stat().st_size == 17088

    def test_serve(self, capsys):
        assert main(["serve", "--params", "128f", "--backends", "vectorized",
                     "--messages", "2", "--deterministic", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out
        assert "SPHINCS+-128f" in out
        assert "sig/s" in out and "verified" in out and "1/1" in out

    def test_serve_on_worker_pool(self, capsys):
        assert main(["serve", "--params", "128f", "--backends", "vectorized",
                     "--workers", "2", "--messages", "4",
                     "--deterministic", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "pooled" in out

    def test_serve_workers_rejects_backend_list(self, capsys):
        assert main(["serve", "--backends", "scalar,vectorized",
                     "--workers", "2", "--messages", "2"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_serve_workers_rejects_nested_pool(self, capsys):
        """``pooled`` is not a backend: the name table's error, and where
        a pool's size goes."""
        for argv in (
                ["serve", "--backends", "pooled", "--workers", "2"],
                ["serve", "--backends", "vectorized,pooled"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert "unknown backend 'pooled'; known: scalar, vectorized" in err
            assert "--workers N" in err

    @pytest.mark.parametrize("command", ("serve-async", "serve-cluster",
                                         "loadtest"))
    def test_served_commands_take_no_backend(self, command, capsys):
        """Every served front signs on the vectorized plan: there is no
        ``--backend`` to pick another."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--backend", "scalar", "--port", "0"]
                 if command != "loadtest" else
                 [command, "--backend", "scalar"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --backend scalar" in \
            capsys.readouterr().err

    def test_serve_verify_fails_on_a_bad_signature(self, capsys,
                                                   monkeypatch):
        """``--verify`` is a gate: one flipped byte exits 1 and the table
        names the (set, backend) whose batch failed."""
        from repro.runtime.vectorized import VectorizedBackend

        genuine = VectorizedBackend.sign_batch

        def flip_one_byte(self, messages, keys):
            result = genuine(self, messages, keys)
            blob = bytearray(result.signatures[0])
            blob[-1] ^= 0x01
            result.signatures[0] = bytes(blob)
            return result

        monkeypatch.setattr(VectorizedBackend, "sign_batch", flip_one_byte)
        assert main(["serve", "--backends", "scalar,vectorized",
                     "--messages", "2", "--deterministic", "--verify"]) == 1
        captured = capsys.readouterr()
        assert "a batch failed verification" in captured.err
        rows = {line.split()[1]: line for line in captured.out.splitlines()
                if line.startswith("SPHINCS+-128f")}
        assert rows["scalar"].rstrip().endswith("1/1")
        assert rows["vectorized"].rstrip().endswith("0/1 FAILED")

    def test_serve_workers_rejects_backends_without_a_plan(self, capsys):
        assert main(["serve", "--backends", "scalar",
                     "--workers", "2", "--messages", "2"]) == 2
        assert "vectorized" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBadInputCli:
    """A command's bad input exits 2 with one stderr line naming the
    command, no table and no traceback.  For the served commands the
    library's refusal (a typed ``ReproError`` where the command builds
    its objects) comes before any port is announced or message signed,
    so nothing reaches stdout and no server is left running."""

    @pytest.mark.parametrize("argv", [
        ["model", "--device", "bogus"],
        ["tune", "--device", "bogus"],
        ["tune", "--params", "999x"],
        ["model", "--messages", "1001"],   # not a multiple of --batches
        ["model", "--messages", "0"],      # a grid of zero blocks
        ["model", "--batches", "0"],
        ["loadtest", "--verify-fraction", "2"],
        ["loadtest", "--rate", "0"],
        ["loadtest", "--trace", "bursty", "--rate", "-1"],
        ["serve-async", "--port", "0", "--tenants", "bad/name"],
        ["serve-async", "--port", "0", "--tenants", "demo:999x"],
        ["serve-async", "--port", "0", "--batch-size", "0"],
        ["serve-async", "--port", "0", "--max-pending", "-1"],
        ["serve-async", "--port", "0", "--cache-budget-mb", "-1"],
        ["serve-cluster", "--port", "0", "--nodes", "1",
         "--cache-budget-mb", "-1"],
        ["sign", "--params", "999x"],
        ["serve", "--params", "999x"],
    ], ids=" ".join)
    def test_bad_input_exits_two_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestTraceCli:
    """`repro trace` exit codes: 0 rendered, 2 unusable input."""

    def test_missing_spans_file_exits_two_with_one_line(self, capsys):
        assert main(["trace", "--input", "/nonexistent/spans.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace: cannot read")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_empty_spans_file_exits_two_with_one_line(self, tmp_path,
                                                      capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text("")
        assert main(["trace", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace: ")
        assert "no spans found" in err
        assert err.count("\n") == 1

    def test_junk_only_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text("not json\n{}\n")
        assert main(["trace", "--input", str(path)]) == 2
        assert "no spans found" in capsys.readouterr().err


class TestServiceCli:
    def test_loadtest_self_hosted_bursty(self, capsys):
        """The acceptance flow: loadtest against a live serve-async
        service (self-hosted on an ephemeral port) prints the telemetry
        report with batch histogram and latency percentiles."""
        assert main([
            "loadtest", "--trace", "bursty", "--messages", "6",
            "--rate", "60", "--batch-size", "3", "--max-wait-ms", "40",
            "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "self-hosted signing service" in out
        assert "signed" in out and "shed" in out
        assert "Batch-size histogram" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "Server telemetry" in out

    def test_loadtest_multi_tenant_keystore_persists(self, tmp_path, capsys):
        keystore = tmp_path / "keys"
        assert main([
            "loadtest", "--trace", "poisson", "--messages", "3",
            "--rate", "60", "--batch-size", "2", "--max-wait-ms", "40",
            "--tenants", "acme:128f,edge:128f",
            "--keystore", str(keystore), "--deterministic",
        ]) == 0
        # Both tenants were provisioned and persisted, one shard file
        # each under the sharded layout.
        from repro.service.keystore import shard_prefix

        assert sorted(p.name for p in keystore.iterdir()) == ["shards"]
        for tenant in ("acme", "edge"):
            assert (keystore / "shards" / shard_prefix(tenant)
                    / f"{tenant}.json").exists()
        assert "acme" in capsys.readouterr().out

    def test_loadtest_rejects_bad_messages(self, capsys):
        assert main(["loadtest", "--messages", "0"]) == 2
        assert "--messages" in capsys.readouterr().err

    def test_loadtest_rejects_bad_connect(self, capsys):
        assert main(["loadtest", "--connect", "localhost"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["loadtest", "--connect", "host:notaport"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_loadtest_rejects_empty_tenants(self, capsys):
        assert main(["loadtest", "--tenants", ","]) == 2
        assert "--tenants" in capsys.readouterr().err


class TestConformanceCli:
    """The `repro conformance` acceptance flow, end to end."""

    def test_smoke_clean_tree_exits_zero(self, capsys):
        assert main(["conformance", "--params", "128f", "--smoke",
                     "--backends", "scalar,vectorized"]) == 0
        out = capsys.readouterr().out
        assert "backend:scalar" in out and "scheduler:vectorized" in out
        assert "all paths byte-identical and verified" in out

    def test_injected_fault_exits_nonzero_naming_stage(self, capsys):
        code = main(["conformance", "--params", "128f", "--smoke",
                     "--backends", "scalar,vectorized",
                     "--inject-fault", "thash:bitflip"])
        assert code == 1
        captured = capsys.readouterr()
        assert "DIVERGED" in captured.out
        assert "injected fault thash:bitflip:7:0: fired" in captured.out
        assert "first divergence at fors (tree 0 auth path)" in captured.err

    def test_fault_target_flag_is_gone(self, capsys):
        """A bit flip always goes on the scalar backend's context; the
        old one-valued seat for choosing another is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["conformance", "--params", "128f", "--smoke",
                  "--inject-fault", "thash:bitflip",
                  "--fault-target", "scalar"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fault-target" in (
            capsys.readouterr().err)

    def test_unfired_fault_exits_two(self, capsys):
        code = main(["conformance", "--params", "128f", "--smoke",
                     "--backends", "scalar",
                     "--inject-fault", "thash:bitflip:999999999"])
        assert code == 2
        assert "never fired" in capsys.readouterr().err

    def test_bad_fault_spec_exits_two(self, capsys):
        assert main(["conformance", "--inject-fault", "thash:stuckat"]) == 2
        assert "fault spec" in capsys.readouterr().err

    def test_unknown_params_exits_two_not_one(self, capsys):
        """Misconfiguration must never masquerade as a divergence."""
        assert main(["conformance", "--params", "640k", "--smoke"]) == 2
        assert "640k" in capsys.readouterr().err
        assert main(["conformance", "--check-kats",
                     "--params", "640k"]) == 2

    def test_kat_regen_and_check_round_trip(self, tmp_path, capsys):
        assert main(["conformance", "--regen-kats", "--params", "128f",
                     "--vectors-dir", str(tmp_path)]) == 0
        assert (tmp_path / "kat_128f.json").exists()
        assert main(["conformance", "--check-kats", "--params", "128f",
                     "--vectors-dir", str(tmp_path)]) == 0
        assert "kat 128f: ok" in capsys.readouterr().out

    def test_kat_drift_exits_nonzero(self, tmp_path, capsys):
        import json

        assert main(["conformance", "--regen-kats", "--params", "128f",
                     "--vectors-dir", str(tmp_path)]) == 0
        path = tmp_path / "kat_128f.json"
        payload = json.loads(path.read_text())
        payload["messages"][0]["signature_sha256"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert main(["conformance", "--check-kats", "--params", "128f",
                     "--vectors-dir", str(tmp_path)]) == 1
        assert "KAT DRIFT" in capsys.readouterr().out
