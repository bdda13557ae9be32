"""Instruction classes and per-architecture timing properties.

The compiler model (:mod:`repro.gpusim.compiler`) lowers the measured
SHA-256 operation profile into a mix over these classes.  Throughput and
latency values follow the published instruction tables and micro-benchmark
literature for NVIDIA parts; what matters for the reproduction is their
*relative* structure:

* ``PRMT`` has single-instruction byte-permute semantics but lower
  throughput than simple shifts (it issues on a reduced-rate path) — the
  trade-off paper §III-C.1 describes.
* ``LOP3`` fuses up to two logical ops; ``IADD3`` fuses adds; funnel shifts
  (``SHF``) implement rotates in one instruction on Volta+ but two on
  Pascal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["InstructionClass", "InstructionTimings", "InstructionMix"]


# Canonical instruction classes used by the mixes.
InstructionClass = str

SHF = "SHF"       # funnel shift / rotate
SHL = "SHL"       # plain shift
LOP3 = "LOP3"     # 3-input logic
IADD3 = "IADD3"   # 3-input add
MAD = "MAD"       # multiply-add kept live by the auxiliary-operand trick
PRMT = "PRMT"     # byte permutation
LDS = "LDS"       # shared-memory load
STS = "STS"       # shared-memory store
LDG = "LDG"       # global load
LDC = "LDC"       # constant load (broadcast)
MISC = "MISC"     # control flow, address math, moves


@dataclass(frozen=True)
class InstructionTimings:
    """Issue cost (reciprocal throughput, cycles/instr per scheduler) and
    dependent latency (cycles) for each instruction class on one device.

    ``for_device`` derives the table from the SM version: the only
    architecture-dependent quirks the model needs are Pascal's two-
    instruction rotate and the uniform 4-cycle ALU pipe on Volta+.
    """

    issue_cost: dict[InstructionClass, float]
    latency: dict[InstructionClass, float]

    @classmethod
    def for_device(cls, sm_version: int) -> "InstructionTimings":
        pre_volta = sm_version < 70
        issue = {
            SHF: 2.0 if pre_volta else 1.0,
            SHL: 1.0,
            LOP3: 1.0,
            IADD3: 1.0,
            MAD: 2.0 if pre_volta else 1.0,
            PRMT: 2.0,            # quarter-rate byte path on most parts
            LDS: 1.0,
            STS: 1.0,
            LDG: 2.0,
            LDC: 0.5,             # broadcast amortizes across the warp
            MISC: 1.0,
        }
        lat = {
            SHF: 6.0 if pre_volta else 4.0,
            SHL: 6.0 if pre_volta else 4.0,
            LOP3: 6.0 if pre_volta else 4.0,
            IADD3: 6.0 if pre_volta else 4.0,
            MAD: 6.0 if pre_volta else 5.0,
            PRMT: 8.0 if pre_volta else 6.0,
            LDS: 22.0,
            STS: 22.0,
            LDG: 300.0,
            LDC: 8.0,
            MISC: 6.0 if pre_volta else 4.0,
        }
        return cls(issue_cost=issue, latency=lat)


@dataclass
class InstructionMix:
    """A weighted bag of instructions (per one SHA-256 compression call,
    or any other unit the caller chooses).
    """

    counts: dict[InstructionClass, float] = field(default_factory=dict)

    def add(self, cls_: InstructionClass, count: float) -> "InstructionMix":
        self.counts[cls_] = self.counts.get(cls_, 0.0) + count
        return self

    def total(self) -> float:
        return sum(self.counts.values())

    def issue_cycles(self, timings: InstructionTimings) -> float:
        """Scheduler cycles to *issue* the whole mix (throughput view)."""
        return sum(
            count * timings.issue_cost[cls_]
            for cls_, count in self.counts.items()
        )

    def dependent_cycles(
        self,
        timings: InstructionTimings,
        ilp: float,
    ) -> float:
        """Cycles for one thread to *execute* the mix as a dependent chain
        softened by instruction-level parallelism *ilp* (latency view).

        The MISC address-math/bookkeeping overhead is off the critical
        dependence path (it interleaves with the hash rounds) and is left
        out.
        """
        weighted = sum(
            count * timings.latency[cls_]
            for cls_, count in self.counts.items()
            if cls_ != MISC
        )
        return weighted / max(ilp, 1.0)

    def merged(self, other: "InstructionMix") -> "InstructionMix":
        out = InstructionMix(dict(self.counts))
        for cls_, count in other.counts.items():
            out.add(cls_, count)
        return out
