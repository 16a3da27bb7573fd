"""Oracle: ciphertext built at the crash equals what eager encryption stored.

The live device and the persist journal keep plaintext, and crash
images encipher their lines as they are built (each journal record
version once).  The reference here is the eager encryptor that path
replaced: every record version of a finished run's journal encrypted
on its own with ``OTPCipher.encrypt`` under its counter, as each write
once was, then replayed with the reference replay of
``tests/test_persist_journal.py``.  The images the injector builds must
equal the reference's: the device and the counter store (through the
state walker), the secure root and the ECC-lane tags.

Every registered design, with the PRF and with AES, on one core and on
four cores with two shards, at post-event and midpoint instants, under
an ADR budget, and without ADR; sharded cells also compare shard-subset
failure images (one injector per run, every field), and every cell the
final image ``result_fingerprint`` hashes.  Deferring is sound only
while the journal's payloads are immutable copies; the last test pins
that.
"""

import dataclasses

import pytest

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.core.designs import list_designs
from repro.crash.injector import CrashInjector, tag_data_lines
from repro.crypto.counters import CounterStore
from repro.crypto.integrity import IntegrityEngine
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.integrity.tree import IntegrityTreeEngine
from repro.nvm.device import NVMDevice
from repro.persist.journal import PersistJournal
from repro.workloads.base import WorkloadParams
from tests.state_walker import assert_same_state
from tests.test_persist_journal import reference_adr_pending, reference_reconstruct

PARAMS = WorkloadParams(operations=8, footprint_bytes=16 * KB)
DESIGNS = list_designs(include_unsafe=True, include_integrity=True)
#: (label, cores, shards)
SHAPES = [("1core", 1, 1), ("4cores-2shards", 4, 2)]


def run_cell(design, cipher, cores, shards):
    config = fast_config(num_cores=cores, shards=shards)
    config = config.scaled(encryption=dataclasses.replace(config.encryption, cipher=cipher))
    return run_workload(design, "hash", config=config, params=PARAMS).result


def eager_journal(result, journal):
    """``journal`` as the eager write path kept it: each version encrypted."""
    cipher = OTPCipher(make_block_cipher(result.config.encryption))

    def stored(address, version):
        if not result.policy.encrypts or version.payload is None:
            return version.payload
        return cipher.encrypt(address, version.encrypted_with, version.payload)

    eager = PersistJournal()
    eager.records = [
        dataclasses.replace(
            record,
            payload=stored(record.address, record),
            amendments=[
                dataclasses.replace(amendment, payload=stored(record.address, amendment))
                for amendment in record.amendments
            ],
        )
        for record in journal.records
    ]
    return eager


def reference_image(result, images, covered):
    """Install ``images`` (``(data, counters)`` pairs) line by line.

    Lines and slots are installed in ascending address order, as in
    every crash image.  Returns ``(device, store, secure_root,
    line_tags)``; the last two are None unless the design keeps an
    integrity tree.
    """
    address_map = result.controller.address_map
    device = NVMDevice(address_map, track_wear=False)
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    lines, slots = {}, {}
    for data, counters in images:
        lines.update(data)
        slots.update(counters)
    for address, (payload, encrypted_with) in sorted(lines.items()):
        device.persist_line(address, payload, encrypted_with)
    for address, value in sorted(slots.items()):
        store.write(address, value)
    device.line_writes = 0
    if not result.policy.integrity_tree:
        return device, store, None, None
    tree = IntegrityTreeEngine(
        result.config.encryption, address_map, arity=result.config.integrity.arity
    )
    tags = tag_data_lines(device, IntegrityEngine(result.config.encryption))
    return device, store, tree.root_over(covered), tags


def assert_same_image(image, reference, where):
    device, store, root, tags = reference
    assert_same_state(image.device, device)
    assert_same_state(image.counter_store, store)
    assert image.secure_root == root, where
    assert image.line_tags == tags, where


@pytest.mark.parametrize("shape, cores, shards", SHAPES, ids=[s[0] for s in SHAPES])
@pytest.mark.parametrize("cipher", ["prf", "aes"])
@pytest.mark.parametrize("design", DESIGNS)
def test_images_equal_the_eager_encryptor(design, cipher, shape, cores, shards):
    result = run_cell(design, cipher, cores, shards)
    injector = CrashInjector(result)
    eager = eager_journal(result, result.controller.journal)
    post_event = injector.interesting_times(limit=6)
    midpoints = injector.midpoint_times(limit=6)
    assert len(post_event) >= 5 and len(midpoints) >= 5
    cases = [(t, True, None) for t in post_event + midpoints]
    cases += [(midpoints[len(midpoints) // 2], True, 1), (midpoints[-1], False, None)]
    for crash_ns, adr, budget in cases:
        where = "%s/%s/%s at %r (adr=%s, budget=%s)" % (
            design, cipher, shape, crash_ns, adr, budget
        )
        image = injector.crash_at(crash_ns, adr=adr, adr_budget=budget)
        data, counters = reference_reconstruct(eager, crash_ns, adr, budget)
        covered = reference_reconstruct(eager, crash_ns)[1]
        assert_same_image(image, reference_image(result, [(data, counters)], covered), where)
    # The final image result_fingerprint hashes, after the images above
    # memoized most versions' ciphertext.
    final_cipher = (
        OTPCipher(make_block_cipher(result.config.encryption))
        if result.policy.encrypts
        else None
    )
    assert result.controller.journal.final_image(final_cipher) == reference_reconstruct(
        eager, float("inf")
    )


@pytest.mark.parametrize("cipher", ["prf", "aes"])
@pytest.mark.parametrize("design", DESIGNS)
def test_shard_images_equal_the_eager_encryptor(design, cipher):
    """A run's shard-subset images, all from one injector.

    The instants run ascending and then descending, so every shard
    cursor also restarts.  Besides the device, counter store, secure
    root and tags, each image holds the replay's version objects and
    the reference's cipher config and ADR-pending count, every mapping
    in ascending address order.
    """
    result = run_cell(design, cipher, 4, 2)
    controller = result.controller
    journals = [controller.shard_journal(s) for s in range(2)]
    eager = [eager_journal(result, journal) for journal in journals]
    injector = CrashInjector(result)
    enciphered_with = result.config.encryption if result.policy.encrypts else None
    times = injector.midpoint_times(limit=3)
    for crash_ns in times + times[::-1]:
        for failed in ((), (0,), (1,), (0, 1)):
            for budget in (None, 0, 2):
                where = "%s/%s at %r, shards %s failed (budget=%s)" % (
                    design, cipher, crash_ns, failed, budget
                )
                image = injector.crash_shards(crash_ns, failed, adr_budget=budget)
                images, versions, covered, pending = [], {}, {}, 0
                for shard, journal in enumerate(journals):
                    adr = shard not in failed or budget is not None
                    shard_budget = budget if shard in failed else None
                    images.append(
                        reference_reconstruct(eager[shard], crash_ns, adr, shard_budget)
                    )
                    versions.update(journal.persisted_at(crash_ns, adr, shard_budget)[0])
                    covered.update(reference_reconstruct(eager[shard], crash_ns)[1])
                    if shard not in failed:
                        pending += reference_adr_pending(journal, crash_ns)
                reference = reference_image(result, images, covered)
                assert_same_image(image, reference, where)
                assert list(image.versions) == sorted(versions), where
                assert all(image.versions[a] is v for a, v in versions.items()), where
                assert image.enciphered_with == enciphered_with, where
                assert image.adr_pending == pending, where
                if image.line_tags is not None:
                    assert list(image.line_tags) == list(reference[3]), where


@pytest.mark.parametrize("shape, cores, shards", SHAPES, ids=[s[0] for s in SHAPES])
def test_journal_and_device_hold_immutable_payloads(shape, cores, shards):
    """The journal keeps the written payload objects themselves, so each
    must be an immutable ``bytes`` copy, never a cache line's live
    ``bytearray`` that later stores would change under a finished record."""
    result = run_cell("sca", "prf", cores, shards)
    controllers = getattr(result.controller, "controllers", [result.controller])
    for controller in controllers:
        versions = [
            version
            for record in controller.journal.records
            for version in [record, *record.amendments]
            if version.payload is not None
        ]
        assert versions
        assert all(type(version.payload) is bytes for version in versions), shape
        lines = [controller.device.read_line(a) for a in controller.device.touched_lines()]
        assert all(type(line.payload) is bytes for line in lines), shape
