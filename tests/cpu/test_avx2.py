"""AVX2 CPU-model tests against paper Table X.

The single-thread column is the model's one calibrated point (128f);
192f/256f follow from hash-count ratios alone, which independently
validates the hash accounting shared with the GPU workload builders.
"""

import pytest

from repro.analysis import PAPER
from repro.cpu.avx2 import Avx2Model
from repro.params import get_params


@pytest.fixture(scope="module")
def model():
    return Avx2Model()


class TestSingleThread:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_matches_paper_within_5pct(self, model, alias):
        paper = PAPER["table10_avx2"]["single"][alias]
        assert model.kops(get_params(alias)) == pytest.approx(paper, rel=0.05)


class TestSixteenThreads:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_matches_paper_within_30pct(self, model, alias):
        """The paper's measured 16-thread scaling varies by set (5.8x for
        128f up to 8.1x for 256f); one exponent cannot match all three, so
        this column gets a wider band than the single-thread one."""
        paper = PAPER["table10_avx2"]["threads16"][alias]
        assert model.kops(get_params(alias), threads=16) == pytest.approx(
            paper, rel=0.30
        )

    def test_scaling_is_sublinear(self, model):
        p = get_params("128f")
        one = model.kops(p, 1)
        sixteen = model.kops(p, 16)
        assert one < sixteen < 16 * one


class TestInterface:
    def test_invalid_thread_count(self, model):
        with pytest.raises(ValueError):
            model.kops(get_params("128f"), threads=0)

    def test_throughput_monotonic_in_security_level(self, model):
        kops = [model.kops(get_params(a)) for a in ("128f", "192f", "256f")]
        assert kops == sorted(kops, reverse=True)
