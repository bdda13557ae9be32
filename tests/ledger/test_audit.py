"""Audit-job tests: replay detection, first-bad-index precision, CLI.

The audit trusts nothing but the on-disk bytes and the tenant key, so
every test here builds a genuine log, damages it in one precise way, and
checks the digest report names the damage — entry-level findings give an
exact index, checkpoint-level ones fall back to the covered boundary.
"""

import asyncio
import base64
import json

import pytest

from repro.__main__ import main
from repro.api import LocalClient
from repro.errors import LedgerError
from repro.ledger import LedgerService, run_audit
from repro.params import get_params
from repro.service import Keystore, derive_seed

TENANT = "ledger"


def make_keystore(root=None):
    keystore = Keystore(root=root)
    keystore.add_tenant(TENANT, "128f")
    keystore.generate_key(TENANT, "default",
                          seed=derive_seed(f"{TENANT}/default",
                                           get_params("128f").n))
    return keystore


def build_log(tmp_path, entries=5, batch_size=2, keystore_root=None):
    keystore = make_keystore(root=keystore_root)

    async def scenario():
        client = LocalClient(keystore, deterministic=True)
        ledger = LedgerService(client, tenant=TENANT,
                               root=tmp_path / "log",
                               batch_size=batch_size)
        await ledger.append_many(
            [f"audit event {i}".encode() for i in range(entries)])
        await ledger.close()
        client.close()

    asyncio.run(scenario())
    return keystore


def corrupt_entry(tmp_path, index):
    """Flip one payload byte of entry *index* inside its segment file."""
    for segment in sorted((tmp_path / "log" / "segments").glob("*.seg")):
        record = json.loads(segment.read_text())
        start = record["start"]
        if start <= index < start + len(record["entries"]):
            blob = bytearray(base64.b64decode(
                record["entries"][index - start]))
            blob[5] ^= 0xFF  # inside the payload, not the length header
            record["entries"][index - start] = base64.b64encode(
                bytes(blob)).decode("ascii")
            segment.write_text(json.dumps(record))
            return
    raise AssertionError(f"entry {index} not found in any segment")


class TestRunAudit:
    def test_clean_log_is_ok(self, tmp_path):
        keystore = build_log(tmp_path, entries=5, batch_size=2)
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT,
                           deterministic=True)
        assert report["ok"] is True
        assert report["entries"] == 5
        assert report["entries_verified"] == 5
        assert report["checkpoints"] == report["checkpoints_verified"]
        assert report["signatures_matched"] == report["checkpoints"]
        assert report["first_bad_index"] is None
        assert report["problems"] == []

    def test_non_deterministic_audit_skips_byte_compare(self, tmp_path):
        keystore = build_log(tmp_path, entries=2, batch_size=2)
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT)
        assert report["ok"] is True
        assert report["signatures_matched"] is None

    def test_corrupt_entry_names_exact_index(self, tmp_path):
        keystore = build_log(tmp_path, entries=5, batch_size=2)
        corrupt_entry(tmp_path, 3)
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT,
                           deterministic=True)
        assert report["ok"] is False
        # The entry finding is precise even though the covering
        # checkpoint's recomputed root also breaks (a weaker, boundary
        # finding that must not drag the index down).
        assert report["first_bad_index"] == 3
        assert any("entry 3" in problem for problem in report["problems"])

    def test_tampered_checkpoint_signature_flags_boundary(self, tmp_path):
        keystore = build_log(tmp_path, entries=4, batch_size=2)
        checkpoints = sorted(
            (tmp_path / "log" / "checkpoints").glob("*.json"))
        record = json.loads(checkpoints[-1].read_text())
        signature = bytearray(base64.b64decode(record["signature"]))
        signature[0] ^= 0xFF
        record["signature"] = base64.b64encode(
            bytes(signature)).decode("ascii")
        checkpoints[-1].write_text(json.dumps(record))
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT,
                           deterministic=True)
        assert report["ok"] is False
        # All entries still verify; the finding is checkpoint-level, so
        # the index is the previous sealed boundary.
        assert report["entries_verified"] == 4
        assert report["first_bad_index"] is not None
        assert any("tree-head signature" in problem
                   for problem in report["problems"])

    def test_unacked_tail_is_reported_not_flagged(self, tmp_path):
        keystore = build_log(tmp_path, entries=4, batch_size=2)
        # A tail segment without a covering checkpoint: never acked.
        from repro.ledger import MerkleLog

        MerkleLog(tmp_path / "log").write_segment(4, [b"never acked"])
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT,
                           deterministic=True)
        assert report["ok"] is True
        assert report["entries"] == 5
        assert report["entries_covered"] == 4
        assert report["entries_uncovered"] == 1

    def test_checkpoint_beyond_disk_is_flagged(self, tmp_path):
        keystore = build_log(tmp_path, entries=4, batch_size=4)
        segments = sorted((tmp_path / "log" / "segments").glob("*.seg"))
        segments[-1].unlink()
        report = run_audit(tmp_path / "log", keystore, tenant=TENANT)
        assert report["ok"] is False
        assert any("only" in problem for problem in report["problems"])

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no ledger directory"):
            run_audit(tmp_path / "nope", make_keystore(), tenant=TENANT)


class TestAuditCli:
    def test_clean_log_exits_zero_with_report(self, tmp_path, capsys):
        build_log(tmp_path, entries=4, batch_size=2,
                  keystore_root=tmp_path / "keys")
        code = main(["audit", "--root", str(tmp_path / "log"),
                     "--keystore", str(tmp_path / "keys"),
                     "--deterministic"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["entries"] == 4

    def test_corruption_exits_one_naming_first_bad_index(self, tmp_path,
                                                         capsys):
        build_log(tmp_path, entries=4, batch_size=2,
                  keystore_root=tmp_path / "keys")
        corrupt_entry(tmp_path, 2)
        code = main(["audit", "--root", str(tmp_path / "log"),
                     "--keystore", str(tmp_path / "keys"),
                     "--deterministic"])
        assert code == 1
        captured = capsys.readouterr()
        assert "first bad entry index: 2" in captured.err
        assert json.loads(captured.out)["ok"] is False

    def test_report_to_file(self, tmp_path, capsys):
        build_log(tmp_path, entries=2, batch_size=2,
                  keystore_root=tmp_path / "keys")
        out = tmp_path / "digest.json"
        code = main(["audit", "--root", str(tmp_path / "log"),
                     "--keystore", str(tmp_path / "keys"),
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_missing_log_exits_two(self, tmp_path, capsys):
        make_keystore(root=tmp_path / "keys")
        code = main(["audit", "--root", str(tmp_path / "nope"),
                     "--keystore", str(tmp_path / "keys")])
        assert code == 2
        assert "no ledger directory" in capsys.readouterr().err
