"""Benchmark regression harness: kernel and sweep timings.

``repro-bench perf`` times the simulator's hot-path kernels against
their retained reference implementations and a representative sweep
under the parallel engine, then emits a JSON document (``BENCH_*.json``
by convention, e.g. ``BENCH_PR1.json``) that seeds the repo's recorded
perf trajectory.  Future PRs rerun the harness and compare documents to
prove speedups — or to catch regressions, which the pytest smoke test
(``tests/test_perf_smoke.py``) turns into loud failures when a kernel
falls back to within 2x of its reference implementation.

Scales:

* ``"smoke"`` — tiny iteration counts for CI smoke tests (seconds),
* ``"quick"`` — the default for ``repro-bench perf`` (tens of seconds),
* ``"full"``  — more iterations for low-noise numbers.

All timings are best-of-N wall-clock; speedups are ratios of per-op
times measured on the same machine in the same process, which keeps
them meaningful on noisy shared runners.
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Callable, Dict, List, Optional

from ..config import CounterCacheConfig, EncryptionConfig
from ..crypto import aes as aes_module
from ..crypto.counter_cache import CounterCache
from ..crypto.integrity import IntegrityEngine
from ..crypto.otp import OTPCipher, _xor, make_block_cipher
from ..crypto.prf import SplitMixPRF
from ..errors import ConfigurationError
from ..integrity.tree import IntegrityTreeEngine
from ..mem.writequeue import WriteQueue
from ..nvm.address import AddressMap
from ..utils.accel import HAVE_NUMPY
from .oracles import encrypt_block_reference, xor_reference

#: Iteration counts per scale: (fast-path ops, reference-path ops).
_SCALE_OPS = {
    "smoke": 1,
    "quick": 8,
    "full": 32,
}


def _check_scale(scale: str) -> int:
    try:
        return _SCALE_OPS[scale]
    except KeyError:
        raise ConfigurationError(
            "perf scale must be one of %s" % (tuple(_SCALE_OPS),)
        ) from None


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``repeats`` invocations."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _kernel(fast_s: float, fast_ops: int, ref_s: float, ref_ops: int) -> Dict[str, float]:
    fast_ns = fast_s / fast_ops * 1e9
    ref_ns = ref_s / ref_ops * 1e9
    return {
        "ns_per_op": round(fast_ns, 1),
        "reference_ns_per_op": round(ref_ns, 1),
        "speedup_vs_reference": round(ref_ns / fast_ns, 2) if fast_ns > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Kernel benchmarks


def bench_kernels(scale: str = "quick") -> Dict[str, Dict[str, float]]:
    """Time each hot-path kernel against its reference implementation."""
    mult = _check_scale(scale)
    results: Dict[str, Dict[str, float]] = {}
    line = bytes(range(64)) * 1  # one 64 B cache line
    other = bytes((i * 37 + 11) % 256 for i in range(64))

    # -- 64 B line XOR: big-int vs per-byte generator -------------------
    xor_fast_n = 20000 * mult
    xor_ref_n = 2000 * mult
    fast_s = _best_of(lambda: [_xor(line, other) for _ in range(xor_fast_n)])
    ref_s = _best_of(lambda: [xor_reference(line, other) for _ in range(xor_ref_n)])
    results["xor_line64"] = _kernel(fast_s, xor_fast_n, ref_s, xor_ref_n)

    # -- AES block encryption: T-tables vs textbook rounds ---------------
    aes = aes_module.AES128(b"repro-perf-key!!"[:16])
    block = bytes(range(16))
    aes_fast_n = 2000 * mult
    aes_ref_n = 200 * mult
    fast_s = _best_of(lambda: [aes.encrypt_block(block) for _ in range(aes_fast_n)])
    ref_s = _best_of(
        lambda: [encrypt_block_reference(aes, block) for _ in range(aes_ref_n)]
    )
    results["aes_block"] = _kernel(fast_s, aes_fast_n, ref_s, aes_ref_n)

    # -- OTP line encrypt/decrypt with the AES backend -------------------
    # Real pad generation + XOR; the reference path is the
    # pre-optimization construction (textbook AES + per-byte XOR).
    cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="aes")))
    otp_fast_n = 300 * mult
    otp_ref_n = 40 * mult

    def run_otp_fast() -> None:
        for index in range(otp_fast_n):
            cipher.encrypt(index * 64, index + 1, line)

    def run_otp_reference() -> None:
        for index in range(otp_ref_n):
            pad = b"".join(
                encrypt_block_reference(
                    aes, _seed_block(index * 64, index + 1, block_index)
                )
                for block_index in range(4)
            )
            xor_reference(pad, line)

    fast_s = _best_of(run_otp_fast)
    ref_s = _best_of(run_otp_reference)
    results["otp_encrypt_aes"] = _kernel(fast_s, otp_fast_n, ref_s, otp_ref_n)

    # -- OTP with the default PRF backend (the sweep hot path) -----------
    prf_cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
    prf_fast_n = 2000 * mult
    prf_ref_n = 400 * mult

    def run_prf_fast() -> None:
        for index in range(prf_fast_n):
            prf_cipher.encrypt(index * 64, index + 1, line)

    prf_block = prf_cipher._cipher

    def run_prf_reference() -> None:
        for index in range(prf_ref_n):
            pad = b"".join(
                prf_block.encrypt_block(_seed_block(index * 64, index + 1, b))
                for b in range(4)
            )
            xor_reference(pad, line)

    fast_s = _best_of(run_prf_fast)
    ref_s = _best_of(run_prf_reference)
    results["otp_encrypt_prf"] = _kernel(fast_s, prf_fast_n, ref_s, prf_ref_n)

    # -- Counter cache lookup (every simulated load) ---------------------
    cache = CounterCache(CounterCacheConfig(size_bytes=64 * 1024, ways=8))
    for group in range(64):
        cache.fill(group * 512, tuple(range(8)))
    lookup_n = 20000 * mult
    addresses = [(i % 64) * 512 + (i % 8) * 64 for i in range(lookup_n)]
    fast_s = _best_of(lambda: [cache.lookup_for_read(a) for a in addresses])
    results["counter_cache_lookup"] = {
        "ns_per_op": round(fast_s / lookup_n * 1e9, 1),
    }

    # -- Bonsai tree root update: incremental path vs full rebuild --------
    # Every counter persist in a +bmt design hashes its leaf with
    # update_group, and the interior path settles when the root is next
    # read; reading tree.root after each update times one whole
    # incremental root update.  root_over is the from-scratch sparse
    # rebuild the post-crash verifier uses, retained here as the
    # reference.  Both must agree on the root (checked once below).
    tree = IntegrityTreeEngine(
        EncryptionConfig(cipher="prf"), AddressMap(memory_size_bytes=1024 * 1024)
    )
    tree_groups = 64
    tree_counters: Dict[int, int] = {}
    for group in range(tree_groups):
        base = group * 512
        values = tuple(group * 8 + i + 1 for i in range(8))
        tree.update_group(base, values)
        for i, value in enumerate(values):
            tree_counters[base + i * 64] = value
    if tree.root != tree.root_over(tree_counters):
        raise ConfigurationError("bmt kernel setup: incremental root != rebuild")
    bmt_fast_n = 2000 * mult
    bmt_ref_n = 20 * mult

    def run_bmt_fast() -> None:
        for index in range(bmt_fast_n):
            base = (index % tree_groups) * 512
            tree.update_group(base, tuple(index + i + 1 for i in range(8)))
            tree.root

    fast_s = _best_of(run_bmt_fast)
    ref_s = _best_of(lambda: [tree.root_over(tree_counters) for _ in range(bmt_ref_n)])
    results["bmt_root_update"] = _kernel(fast_s, bmt_fast_n, ref_s, bmt_ref_n)

    # -- Tree root over a crash image: uint64 lanes vs the scalar walk ---
    # One recovery-sized image: 400 leaf groups spread over the region,
    # 1-7 counters each.  root_over groups them as arrays and hashes each
    # level of NP_BATCH_MIN nodes or more as lanes; the reference is the
    # scalar walk it otherwise takes.
    image_counters = {
        group * 2 * 512 + slot * 64: group * 8 + slot + 1
        for group in range(400)
        for slot in range(1 + group % 7)
    }

    def scalar_root() -> int:
        return tree._walk_up(0, tree._leaf_digests(image_counters))

    if tree.root_over(image_counters) != scalar_root():
        raise ConfigurationError("tree kernel setup: lanes root != scalar walk")
    root_n = 4 * mult
    fast_s = _best_of(lambda: [tree.root_over(image_counters) for _ in range(root_n)])
    ref_s = _best_of(lambda: [scalar_root() for _ in range(root_n)])
    results["tree_root_over"] = _kernel(fast_s, root_n, ref_s, root_n)
    results["tree_root_over"]["numpy"] = HAVE_NUMPY

    # -- Write queue protocol (every simulated writeback) ----------------
    # The probe -> accept -> schedule sequence every fresh write runs.
    accept_n = 5000 * mult

    def run_accepts() -> None:
        queue = WriteQueue("perf", capacity=64)
        for index in range(accept_n):
            address = index * 64
            now = float(index)
            if queue.probe(address, now) is None:
                entry = queue.accept(address, now, None, False)
                drain = entry.accept_ns + 300.0
                queue.schedule(entry, entry.accept_ns, drain, drain)

    fast_s = _best_of(run_accepts)
    results["writequeue_accept"] = {
        "ns_per_op": round(fast_s / accept_n * 1e9, 1),
    }

    # -- Batched AES: numpy-vectorized rounds vs per-block T-tables ------
    # Falls back to the scalar loop when numpy is absent/disabled, in
    # which case the speedup hovers around 1x and the entry records
    # numpy=False so comparisons know why.
    batch_blocks = [bytes((i + j) % 256 for j in range(16)) for i in range(256)]
    batch_rounds = 4 * mult
    fast_s = _best_of(
        lambda: [aes.encrypt_blocks(batch_blocks) for _ in range(batch_rounds)]
    )
    ref_s = _best_of(
        lambda: [
            [aes.encrypt_block(b) for b in batch_blocks] for _ in range(batch_rounds)
        ]
    )
    batch_ops = batch_rounds * len(batch_blocks)
    results["aes_blocks_batch"] = _kernel(fast_s, batch_ops, ref_s, batch_ops)
    results["aes_blocks_batch"]["numpy"] = HAVE_NUMPY

    # -- Batched OTP lines: pads_many + one vectorized XOR ---------------
    batch_cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="aes")))
    line_items = [
        ((index + 1) * 64, index + 1, line) for index in range(128)
    ]
    otp_batch_rounds = 2 * mult

    def run_otp_batch() -> None:
        for _ in range(otp_batch_rounds):
            batch_cipher.encrypt_lines(line_items)

    def run_otp_batch_reference() -> None:
        for _ in range(otp_batch_rounds):
            for address, counter, text in line_items:
                batch_cipher.encrypt(address, counter, text)

    fast_s = _best_of(run_otp_batch)
    ref_s = _best_of(run_otp_batch_reference)
    otp_batch_ops = otp_batch_rounds * len(line_items)
    results["otp_encrypt_lines_batch"] = _kernel(
        fast_s, otp_batch_ops, ref_s, otp_batch_ops
    )
    results["otp_encrypt_lines_batch"]["numpy"] = HAVE_NUMPY

    # -- Batched PRF: SplitMix64 over numpy uint64 lanes -----------------
    # Crash-image decryption hands the PRF a whole image's pad blocks at
    # once; from NP_BATCH_MIN blocks up they run as numpy lanes.  The
    # reference is the scalar per-block loop.
    prf = SplitMixPRF(b"repro-perf-key!!")
    prf_blocks = [(i * 0x9E3779B97F4A7C15).to_bytes(16, "little") for i in range(1024)]
    prf_rounds = 2 * mult
    if prf.encrypt_blocks(prf_blocks) != [prf.encrypt_block(b) for b in prf_blocks]:
        raise ConfigurationError("prf kernel setup: batched blocks != per-block")
    fast_s = _best_of(
        lambda: [prf.encrypt_blocks(prf_blocks) for _ in range(prf_rounds)]
    )
    ref_s = _best_of(
        lambda: [[prf.encrypt_block(b) for b in prf_blocks] for _ in range(prf_rounds)]
    )
    prf_ops = prf_rounds * len(prf_blocks)
    results["prf_blocks_batch"] = _kernel(fast_s, prf_ops, ref_s, prf_ops)
    results["prf_blocks_batch"]["numpy"] = HAVE_NUMPY

    # -- Batched ECC-lane tags: one image's lines vs per-line tag --------
    # 450 lines is one crash image of the e2e ``recovery`` workload; its
    # tag capture, collect_tags and verify passes are one tag_many each.
    tag_engine = IntegrityEngine(EncryptionConfig(cipher="prf"))
    tag_items = [((i + 1) * 64, i + 1, line if i % 2 else other) for i in range(450)]
    tag_rounds = mult
    if tag_engine.tag_many(tag_items) != [tag_engine.tag(*item) for item in tag_items]:
        raise ConfigurationError("tag kernel setup: tag_many != per-line tag")
    fast_s = _best_of(
        lambda: [tag_engine.tag_many(tag_items) for _ in range(tag_rounds)]
    )
    ref_s = _best_of(
        lambda: [
            [tag_engine.tag(a, c, t) for a, c, t in tag_items] for _ in range(tag_rounds)
        ]
    )
    tag_ops = tag_rounds * len(tag_items)
    results["integrity_tag_many"] = _kernel(fast_s, tag_ops, ref_s, tag_ops)
    results["integrity_tag_many"]["numpy"] = HAVE_NUMPY

    # -- KV service put transaction: volatile index vs persistent probe --
    results["kv_put_txn"] = _bench_kv_put(mult)
    return results


def _bench_kv_put(mult: int) -> Dict[str, float]:
    """Time one KV-service put transaction, indexed vs probe-only.

    The service engine keeps a volatile key->slot index (rebuilt after
    splits, never persisted) so a put's locate step is one timed line
    read; the retained reference path (``use_index=False``) probes the
    open-addressing chain through the recorder on every access, exactly
    like the pre-index engine.  Keys are chosen to collide into one
    home bucket — the adversarial chain an aged, tombstone-riddled
    table develops — so the kernel measures the probe work the index
    removes rather than a near-empty table's single-bucket best case.
    """
    from ..config import fast_config
    from ..service.kv import ServiceWorkload, TenantKV

    config = fast_config()
    nbuckets = 64
    chain_keys: List[int] = []
    key = 1
    while len(chain_keys) < 128:
        if TenantKV._home_bucket(key, nbuckets) == 0:
            chain_keys.append(key)
        key += 1

    def build(use_index: bool) -> TenantKV:
        workload = ServiceWorkload(
            config,
            tenants=1,
            initial_buckets=nbuckets,
            use_index=use_index,
            name="perf-kv-%s" % ("index" if use_index else "probe"),
        )
        store = workload.stores[0]
        for position, chain_key in enumerate(chain_keys):
            store.put(chain_key, position)
        return store

    indexed = build(use_index=True)
    probing = build(use_index=False)
    fast_n = 400 * mult
    ref_n = 100 * mult

    def run_puts(store: TenantKV, count: int) -> None:
        for index in range(count):
            store.put(chain_keys[index % len(chain_keys)], index)

    fast_s = _best_of(lambda: run_puts(indexed, fast_n))
    ref_s = _best_of(lambda: run_puts(probing, ref_n))
    return _kernel(fast_s, fast_n, ref_s, ref_n)


def _seed_block(address: int, counter: int, block_index: int) -> bytes:
    """The OTP seed layout, duplicated here for the reference path."""
    import struct

    return struct.pack(
        "<QIHH", address, counter & 0xFFFFFFFF, (counter >> 32) & 0xFFFF, block_index
    )


# ---------------------------------------------------------------------------
# Sweep benchmark


def bench_sweep(
    workers: int = 4, scale: str = "quick", experiment: str = "fig12"
) -> Dict[str, object]:
    """Time one experiment sweep: serial vs parallel vs warm cache.

    Values are asserted identical across all three execution modes; the
    parallel speedup is hardware-bound (a single-CPU container cannot
    beat serial), so the host's CPU count is recorded alongside.
    """
    import os
    import shutil
    import tempfile

    from .experiments import get_experiment
    from ..utils.store import JsonStore
    from .parallel import SweepExecutor

    exp = get_experiment(experiment)
    serial_s = _best_of(lambda: exp.run(scale), repeats=2)
    serial_result = exp.run(scale)

    parallel_executor = SweepExecutor(workers=workers)
    started = time.perf_counter()
    parallel_result = exp.run(scale, executor=parallel_executor)
    parallel_s = time.perf_counter() - started

    cache_dir = tempfile.mkdtemp(prefix="repro-perf-cache-")
    try:
        cache = JsonStore(cache_dir)
        cold_executor = SweepExecutor(workers=1, cache=cache)
        started = time.perf_counter()
        exp.run(scale, executor=cold_executor)
        cold_s = time.perf_counter() - started
        warm_executor = SweepExecutor(workers=1, cache=cache)
        started = time.perf_counter()
        warm_result = exp.run(scale, executor=warm_executor)
        warm_s = time.perf_counter() - started
        cache_hits = warm_executor.cache_hits
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = (
        serial_result.as_dict()["series"] == parallel_result.as_dict()["series"]
        and serial_result.as_dict()["series"] == warm_result.as_dict()["series"]
    )
    return {
        "experiment": experiment,
        "scale": scale,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2) if parallel_s > 0 else 0.0,
        "cache_cold_s": round(cold_s, 3),
        "cache_warm_s": round(warm_s, 4),
        "cache_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else 0.0,
        "cache_hits_on_warm_run": cache_hits,
        "identical_values": identical,
        "note": (
            "parallel_speedup is bounded by cpu_count: on a single-CPU "
            "host the pool cannot beat serial, while the warm result "
            "cache makes repeated sweeps effectively free on any host"
        ),
    }


# ---------------------------------------------------------------------------
# Harness entry points


def run_perf(
    scale: str = "quick", workers: int = 4, include_sweep: bool = True
) -> Dict[str, object]:
    """Run the full perf suite and return the JSON-ready document."""
    _check_scale(scale)
    document: Dict[str, object] = {
        "meta": {
            "schema": 1,
            "scale": scale,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "kernels": bench_kernels(scale),
    }
    if include_sweep:
        document["sweep"] = bench_sweep(workers=workers, scale="quick")
    return document


def render_perf_report(document: Dict[str, object]) -> str:
    """Human-readable rendering of a perf document."""
    lines: List[str] = ["perf kernels (best-of wall clock):"]
    kernels = document.get("kernels", {})
    for name in sorted(kernels):
        entry = kernels[name]
        if "speedup_vs_reference" in entry:
            lines.append(
                "  %-22s %10.1f ns/op   (reference %10.1f ns/op, speedup %5.2fx)"
                % (
                    name,
                    entry["ns_per_op"],
                    entry["reference_ns_per_op"],
                    entry["speedup_vs_reference"],
                )
            )
        else:
            lines.append("  %-22s %10.1f ns/op" % (name, entry["ns_per_op"]))
    sweep = document.get("sweep")
    if sweep:
        lines.append(
            "sweep %s/%s (%d worker(s), %d cpu(s)):"
            % (sweep["experiment"], sweep["scale"], sweep["workers"], sweep["cpu_count"])
        )
        lines.append(
            "  serial %.2fs, parallel %.2fs (%.2fx), warm cache %.3fs (%.0fx), "
            "values identical: %s"
            % (
                sweep["serial_s"],
                sweep["parallel_s"],
                sweep["parallel_speedup"],
                sweep["cache_warm_s"],
                sweep["cache_speedup"],
                sweep["identical_values"],
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Document comparison (perf trajectory across PRs)


def compare_documents(
    current: Dict[str, object],
    baseline: Dict[str, object],
    regression_threshold: float = 3.0,
) -> Dict[str, object]:
    """Compare two perf documents kernel by kernel.

    For each kernel present in both, computes the ``ns_per_op`` ratio
    ``current / baseline`` (< 1.0 is a speedup).  Kernels slower than
    ``regression_threshold`` times the baseline land in
    ``regressions``; absolute numbers are machine-dependent, so the
    threshold is deliberately generous (default 3.0) and CI treats
    anything below it as warn-only.  The end-to-end sweep ``serial_s``
    is compared the same way when both documents carry one.
    """
    current_kernels = current.get("kernels", {}) or {}
    baseline_kernels = baseline.get("kernels", {}) or {}
    kernels: Dict[str, Dict[str, object]] = {}
    regressions: List[str] = []
    warnings: List[str] = []

    def _ns_per_op(entry: object, name: str, which: str) -> Optional[float]:
        # Documents come from other machines and other PRs; a kernel
        # that one side renamed or recorded badly should downgrade to
        # a warning, not abort the whole comparison.
        try:
            value = float(entry["ns_per_op"])  # type: ignore[index,call-overload]
        except (KeyError, TypeError, ValueError):
            warnings.append(
                "kernel %r skipped: %s entry has no numeric ns_per_op" % (name, which)
            )
            return None
        return value

    for name in sorted(set(current_kernels) & set(baseline_kernels)):
        now_ns = _ns_per_op(current_kernels[name], name, "current")
        then_ns = _ns_per_op(baseline_kernels[name], name, "baseline")
        if now_ns is None or then_ns is None:
            continue
        ratio = now_ns / then_ns if then_ns > 0 else float("inf")
        entry: Dict[str, object] = {
            "ns_per_op": now_ns,
            "baseline_ns_per_op": then_ns,
            "ratio": round(ratio, 3),
            "delta_ns_per_op": round(now_ns - then_ns, 1),
        }
        if ratio > regression_threshold:
            entry["regression"] = True
            regressions.append(name)
        kernels[name] = entry
    only_current = sorted(set(current_kernels) - set(baseline_kernels))
    only_baseline = sorted(set(baseline_kernels) - set(current_kernels))
    for name in only_current:
        warnings.append(
            "kernel %r skipped: present only in the current document" % name
        )
    for name in only_baseline:
        warnings.append(
            "kernel %r skipped: present only in the baseline document" % name
        )
    result: Dict[str, object] = {
        "regression_threshold": regression_threshold,
        "kernels": kernels,
        "regressions": regressions,
        "new_kernels": only_current,
        "removed_kernels": only_baseline,
        "warnings": warnings,
    }
    current_sweep = current.get("sweep") or {}
    baseline_sweep = baseline.get("sweep") or {}
    if "serial_s" in current_sweep and "serial_s" in baseline_sweep:
        try:
            now_s = float(current_sweep["serial_s"])
            then_s = float(baseline_sweep["serial_s"])
        except (TypeError, ValueError):
            warnings.append("sweep comparison skipped: non-numeric serial_s")
        else:
            ratio = now_s / then_s if then_s > 0 else float("inf")
            result["sweep"] = {
                "experiment": current_sweep.get("experiment"),
                "serial_s": now_s,
                "baseline_serial_s": then_s,
                "ratio": round(ratio, 3),
                "speedup_vs_baseline": round(then_s / now_s, 2) if now_s > 0 else 0.0,
            }
            if ratio > regression_threshold:
                result["regressions"] = regressions + ["sweep.serial_s"]
    return result


def render_comparison(comparison: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`compare_documents` output."""
    lines: List[str] = [
        "perf vs baseline (ratio < 1.00 is faster; regression threshold %.1fx):"
        % comparison["regression_threshold"]
    ]
    for name, entry in sorted(comparison["kernels"].items()):
        marker = "  REGRESSION" if entry.get("regression") else ""
        lines.append(
            "  %-24s %10.1f ns/op   vs %10.1f   (%.3fx)%s"
            % (
                name,
                entry["ns_per_op"],
                entry["baseline_ns_per_op"],
                entry["ratio"],
                marker,
            )
        )
    for name in comparison["new_kernels"]:
        lines.append("  %-24s (new kernel, no baseline)" % name)
    for name in comparison["removed_kernels"]:
        lines.append("  %-24s (baseline only; kernel removed)" % name)
    sweep = comparison.get("sweep")
    if sweep:
        lines.append(
            "  sweep %s serial     %8.2f s      vs %8.2f s  (%.2fx faster)"
            % (
                sweep["experiment"],
                sweep["serial_s"],
                sweep["baseline_serial_s"],
                sweep["speedup_vs_baseline"],
            )
        )
    for warning in comparison.get("warnings", []):
        lines.append("  warning: %s" % warning)
    if comparison["regressions"]:
        lines.append("regressions: %s" % ", ".join(comparison["regressions"]))
    else:
        lines.append("no regressions beyond threshold")
    return "\n".join(lines)
