"""Quick-scale perf regression gate.

Fails loudly when an optimized kernel falls back to within 2x of its
reference implementation — the symptom of someone accidentally
reverting a fast path.  Relative (same-machine, same-process) ratios
keep this robust on slow shared runners; the expected speedups are
5x or more, so a 2x floor has ample margin.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import bench_kernels, bench_sweep
from repro.utils.accel import HAVE_NUMPY


@pytest.fixture(scope="module")
def kernels():
    return bench_kernels("quick")


class TestKernelSpeedups:
    def test_xor_line_beats_reference(self, kernels):
        assert kernels["xor_line64"]["speedup_vs_reference"] >= 2.0

    def test_ttable_aes_beats_reference(self, kernels):
        assert kernels["aes_block"]["speedup_vs_reference"] >= 2.0

    def test_otp_aes_beats_reference_3x(self, kernels):
        """The ISSUE's acceptance bar: >= 3x on the OTP microbenchmark."""
        assert kernels["otp_encrypt_aes"]["speedup_vs_reference"] >= 3.0

    def test_otp_prf_not_slower_than_reference(self, kernels):
        assert kernels["otp_encrypt_prf"]["speedup_vs_reference"] >= 1.0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_batched_aes_beats_per_block_calls(self, kernels):
        """Vectorized T-table rounds vs a per-block encrypt_block loop."""
        assert kernels["aes_blocks_batch"]["speedup_vs_reference"] >= 2.0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_batched_otp_lines_beat_per_line_calls(self, kernels):
        """encrypt_lines (batched pads + one XOR pass) vs encrypt per line."""
        assert kernels["otp_encrypt_lines_batch"]["speedup_vs_reference"] >= 2.0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_batched_prf_beats_per_block_calls(self, kernels):
        """SplitMix64 over 1,024 numpy uint64 lanes vs the scalar loop
        (measured ~14x; the 3x floor catches a fall back to scalar)."""
        assert kernels["prf_blocks_batch"]["speedup_vs_reference"] >= 3.0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_tag_many_beats_per_line_tags(self, kernels):
        """One image's 450 ECC-lane tags as five lane passes vs per-line
        tag (measured ~23x)."""
        assert kernels["integrity_tag_many"]["speedup_vs_reference"] >= 5.0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_tree_root_lanes_beat_scalar_walk(self, kernels):
        """One recovery-sized image's tree root (400 leaf groups), grouped
        as arrays and hashed as uint64 lanes, vs the scalar walk
        (measured ~5-7x; the 2x floor catches a fall back to scalar)."""
        assert kernels["tree_root_over"]["speedup_vs_reference"] >= 2.0

    def test_kv_put_indexed_beats_probe_chain(self, kernels):
        """The KV service's volatile index vs probing the chain per put.

        Measured ~1.9x on an adversarial 32-bucket collision chain; the
        1.2 floor catches the index being accidentally disabled while
        tolerating commit-path overhead dominating on slow runners.
        """
        assert kernels["kv_put_txn"]["speedup_vs_reference"] >= 1.2


class TestSweepEngine:
    def test_sweep_modes_agree_and_cache_wins(self):
        report = bench_sweep(workers=2, scale="quick", experiment="fig12")
        assert report["identical_values"]
        # The warm-cache rerun must be dramatically cheaper than the
        # cold sweep; 10x is a very generous floor (measured: >1000x).
        assert report["cache_speedup"] >= 10.0
