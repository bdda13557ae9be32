"""The periodic digest/audit job: replay the log, trust nothing.

:func:`run_audit` re-derives everything a :class:`~.service.LedgerService`
ever acknowledged, from the on-disk bytes alone:

1. **Entry signatures** — every entry's batch signature re-verifies
   under the log tenant's public key (the first failure pinpoints the
   first corrupted entry index).
2. **Tree heads** — every sealed checkpoint's root is recomputed from
   the entries it covers and compared byte-for-byte, and each
   checkpoint must chain (``prev_root`` equals the previous sealed
   root, consistency proof included).
3. **Checkpoint signatures** — each signed tree head re-verifies; in
   deterministic mode the audit additionally *re-signs* every
   checkpoint body with the reference scheme and byte-compares, the
   same differential check the conformance oracle applies
   (``ledger:audit`` path), so a checkpoint that verifies but was not
   produced by the reference pipeline still fails.

The result is a JSON-serializable digest report.  ``ok`` is the overall
verdict; ``first_bad_index`` names the first entry (or checkpoint
boundary) that broke, which is what the CLI exit path reports.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import LedgerError
from ..service.keystore import Keystore
from ..sphincs.signer import Sphincs
from .merkle import EMPTY_ROOT, MerkleLog, verify_consistency_path
from .service import decode_entry, load_checkpoints

__all__ = ["run_audit"]


def run_audit(root: str | Path, keystore: Keystore, *,
              tenant: str = "ledger", key: str = "default",
              deterministic: bool = False) -> dict:
    """Replay the log at *root* and return the digest report.

    *keystore* supplies the log tenant's key pair: the public half
    verifies entries and checkpoints; with ``deterministic=True`` the
    secret half re-signs each checkpoint body on the reference scheme
    for the byte-compare cross-check.  Never raises for integrity
    failures — they land in the report (``ok: false`` plus
    ``first_bad_index`` / ``problems``); only setup errors (missing
    directory, unknown tenant) raise.
    """
    root = Path(root)
    if not root.is_dir():
        raise LedgerError(f"no ledger directory at {root}")
    keys, params_name = keystore.resolve(tenant, key)
    scheme = Sphincs(params_name, deterministic=deterministic)
    checkpoints = load_checkpoints(root)
    log = MerkleLog(root)  # untruncated: audit sees the raw segment tail
    problems: list[str] = []
    first_bad: int | None = None
    first_weak: int | None = None

    def flag(index: int | None, message: str, weak: bool = False) -> None:
        # Entry-level findings pinpoint the corrupted index exactly;
        # checkpoint-level ("weak") findings only know the boundary of
        # the covered range, so they name an index only when no entry
        # finding already has.
        nonlocal first_bad, first_weak
        problems.append(message)
        if index is None:
            return
        if weak:
            if first_weak is None or index < first_weak:
                first_weak = index
        elif first_bad is None or index < first_bad:
            first_bad = index

    covered = checkpoints[-1].size if checkpoints else 0
    if covered > log.size:
        flag(log.size, f"checkpoint covers {covered} entries but only "
                       f"{log.size} are on disk")
        covered = log.size

    # 1. Every covered entry's batch signature re-verifies.
    entries_verified = 0
    for index in range(covered):
        try:
            payload, signature = decode_entry(log.entry(index))
        except LedgerError as exc:
            flag(index, f"entry {index}: {exc}")
            continue
        if scheme.verify(payload, signature, keys.public):
            entries_verified += 1
        else:
            flag(index, f"entry {index}: batch signature does not verify")

    # 2 + 3. Every checkpoint's recomputed root, chain link, signature,
    # and (deterministic) reference re-sign.
    checkpoints_verified = 0
    matched = 0
    prev_size, prev_root = 0, EMPTY_ROOT
    for checkpoint in checkpoints:
        ok = True
        if checkpoint.size > log.size:
            flag(log.size,
                 f"checkpoint {checkpoint.size}: covers more entries "
                 f"than the segments hold ({log.size})", weak=True)
            continue
        recomputed = log.root_hash(checkpoint.size)
        if recomputed != checkpoint.root:
            ok = False
            flag(prev_size,
                 f"checkpoint {checkpoint.size}: recomputed root "
                 f"{recomputed.hex()[:16]}... does not match the sealed "
                 f"root {checkpoint.root.hex()[:16]}...", weak=True)
        if checkpoint.prev_root != prev_root:
            ok = False
            flag(prev_size,
                 f"checkpoint {checkpoint.size}: prev_root does not "
                 f"chain from the previous sealed head ({prev_size})",
                 weak=True)
        try:
            path = log.consistency_path(prev_size, checkpoint.size)
            if not verify_consistency_path(
                    prev_size, prev_root, checkpoint.size, recomputed,
                    path):
                ok = False
                flag(prev_size,
                     f"checkpoint {checkpoint.size}: consistency proof "
                     f"from {prev_size} does not verify", weak=True)
        except LedgerError as exc:
            ok = False
            flag(prev_size,
                 f"checkpoint {checkpoint.size}: consistency replay "
                 f"failed: {exc}", weak=True)
        if not scheme.verify(checkpoint.body, checkpoint.signature,
                             keys.public):
            ok = False
            flag(prev_size,
                 f"checkpoint {checkpoint.size}: tree-head signature "
                 "does not verify", weak=True)
        if deterministic:
            # The differential cross-check: the reference scheme signing
            # the same body must reproduce the sealed signature byte for
            # byte (deterministic mode pins the randomizer).
            reference = scheme.sign(checkpoint.body, keys)
            if reference == checkpoint.signature:
                matched += 1
            else:
                ok = False
                flag(prev_size,
                     f"checkpoint {checkpoint.size}: signature diverges "
                     "from the reference scheme (differential check)",
                     weak=True)
        if ok:
            checkpoints_verified += 1
        prev_size, prev_root = checkpoint.size, checkpoint.root
    return {
        "root": str(root),
        "tenant": tenant, "key": key, "params": params_name,
        "entries": log.size,
        "entries_covered": covered,
        "entries_uncovered": log.size - covered,  # never acknowledged
        "entries_verified": entries_verified,
        "checkpoints": len(checkpoints),
        "checkpoints_verified": checkpoints_verified,
        "deterministic": deterministic,
        "signatures_matched": matched if deterministic else None,
        "ok": not problems,
        "first_bad_index": first_bad if first_bad is not None else first_weak,
        "problems": problems,
    }

