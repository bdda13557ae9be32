"""Conformance & fault-injection subsystem.

Correctness in this repository is enforced by machinery, not eyeballs:

* :mod:`.oracle` — the cross-backend **differential oracle**: every
  signing path (backends, scheduler, async service, the :mod:`repro.api`
  clients over each transport, the transparency-log ledger) over one
  adversarial corpus, byte-compared against the reference scheme,
  divergences named by the first diverging signature component.
* :mod:`.kat` — **pinned KAT vectors** for 128s/128f/192s/256s under
  ``tests/vectors/``, with regeneration and drift checking.
* :mod:`.corpus` — seeded, stdlib-only **fuzz generation**: message edge
  cases, malformed protocol frames, corrupt keystore files, corrupted
  signatures.
* :mod:`.faults` — deterministic **fault injection**, one family per
  layer the oracle must catch a fault in: ``thash`` / ``prf`` bit flips
  in the tweakable-hash layer (the Genet-style SPHINCS+ fault model),
  ``cache:flip`` in a pinned layer-cache subtree, ``memo:flip`` in the
  replay memo, ``verify:*`` in the fast verifier and ``plan:*`` in the
  signing plan.
* :mod:`.chaos` — a seeded **flaky-TCP proxy** for service-tier chaos
  tests.

CLI entry point: ``python -m repro conformance`` (see the README's
"Correctness: machine-checked" section).
"""

from .chaos import FlakyProxy
from .corpus import (corrupt_keystore_payloads, malformed_frames,
                     message_corpus, signature_mutations, signature_regions)
from .faults import (BitFlipFault, CachedNodeFault, MemoFault, PlanFault,
                     VerifyFault, VerifyLayerMemoFault, VerifyMemoFault,
                     flip_bit, parse_fault)
from .kat import (KAT_SETS, check_kat, default_vectors_dir, generate_kat,
                  kat_corpus, load_kat)
from .oracle import (ConformanceReport, DifferentialOracle, Divergence,
                     PathResult, localize_divergence)

__all__ = [
    "BitFlipFault",
    "CachedNodeFault",
    "ConformanceReport",
    "DifferentialOracle",
    "Divergence",
    "FlakyProxy",
    "KAT_SETS",
    "MemoFault",
    "PathResult",
    "PlanFault",
    "VerifyFault",
    "VerifyLayerMemoFault",
    "VerifyMemoFault",
    "check_kat",
    "corrupt_keystore_payloads",
    "default_vectors_dir",
    "flip_bit",
    "generate_kat",
    "kat_corpus",
    "load_kat",
    "localize_divergence",
    "malformed_frames",
    "message_corpus",
    "parse_fault",
    "signature_mutations",
    "signature_regions",
]
