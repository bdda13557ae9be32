"""Keystore fuzzing: every corrupt tenant file is quarantined + typed.

The generator in `repro.testing.corpus` produces truncated JSON, wrong
top-level types, bad hex, short key material, and name mismatches.  For
every one of them the keystore must (a) raise KeystoreError — never a raw
JSONDecodeError / KeyError / TypeError — (b) move the file aside as
``<name>.json.corrupt``, and (c) come up cleanly on the next load.
"""

import pytest

from repro.errors import KeystoreError
from repro.service import Keystore
from repro.service.keystore import shard_prefix
from repro.testing import corrupt_keystore_payloads

PAYLOADS = corrupt_keystore_payloads(seed=7)


def _shard_file(root, tenant):
    """Where a keystore at *root* keeps *tenant*'s file, its directory
    made."""
    path = root / "shards" / shard_prefix(tenant) / f"{tenant}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@pytest.mark.parametrize("case,body", PAYLOADS,
                         ids=[case for case, _ in PAYLOADS])
def test_corrupt_tenant_file_quarantined(tmp_path, case, body):
    path = _shard_file(tmp_path, "acme")
    path.write_text(body)
    with pytest.raises(KeystoreError, match="quarantined"):
        Keystore(tmp_path)
    # The corrupt bytes moved aside, preserved for inspection...
    assert not path.exists()
    quarantined = path.with_name("acme.json.corrupt")
    assert quarantined.read_text() == body
    # ... and the next load comes up cleanly without the tenant.
    keystore = Keystore(tmp_path)
    assert keystore.tenants() == ()


def test_quarantine_spares_healthy_tenants(tmp_path):
    keystore = Keystore(tmp_path)
    keystore.add_tenant("good", "128f")
    keystore.generate_key("good", "default", seed=bytes(48))
    bad = _shard_file(tmp_path, "bad")
    bad.write_text("{truncated")
    with pytest.raises(KeystoreError, match="quarantined"):
        Keystore(tmp_path)
    reloaded = Keystore(tmp_path)
    assert reloaded.tenants() == ("good",)
    keys, params = reloaded.resolve("good")
    assert params == "SPHINCS+-128f"
    assert bad.with_name("bad.json.corrupt").exists()


def test_multiple_corrupt_files_quarantined_in_one_pass(tmp_path):
    """N corrupt files must not need N restarts: one failing load
    quarantines them all, and the very next load is clean."""
    keystore = Keystore(tmp_path)
    keystore.add_tenant("good", "128f")
    bad_a = _shard_file(tmp_path, "bad-a")
    bad_b = _shard_file(tmp_path, "bad-b")
    bad_a.write_text("{truncated")
    bad_b.write_text("[]")
    with pytest.raises(KeystoreError) as excinfo:
        Keystore(tmp_path)
    assert "bad-a.json" in str(excinfo.value)
    assert "bad-b.json" in str(excinfo.value)
    assert bad_a.with_name("bad-a.json.corrupt").exists()
    assert bad_b.with_name("bad-b.json.corrupt").exists()
    assert Keystore(tmp_path).tenants() == ("good",)


def test_quarantine_overwrites_stale_quarantine(tmp_path):
    path = _shard_file(tmp_path, "acme")
    path.with_name("acme.json.corrupt").write_text("old corpse")
    path.write_text("{new corpse")
    with pytest.raises(KeystoreError, match="quarantined"):
        Keystore(tmp_path)
    assert path.with_name("acme.json.corrupt").read_text() == "{new corpse"
