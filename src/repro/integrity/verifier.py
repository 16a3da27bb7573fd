"""Post-crash integrity verification and repair over crash images.

Recovery with a Bonsai Merkle Tree has two independent checks:

* **Root walk** — rebuild the tree root from the *persisted* counters
  (:meth:`IntegrityTreeEngine.root_over`) and compare it to the secure
  register captured at the crash.  Any counter-region corruption —
  torn counter lines, counter bit-flips, ADR entries that were dropped
  after the register covered them — moves the computed root.
* **Tag sweep** — re-verify each data line's ECC-lane MAC against the
  line's persisted ciphertext and its architectural counter.  Data
  corruption (torn or flipped lines) and stale counters both fail the
  tag even when the counter region itself hashes clean.

Both checks use only post-crash-visible state (the image, the register,
the persisted tags) — no simulator ground truth — so a passing
verification is exactly what real recovery firmware could conclude.

Repair is Phoenix + Osiris: search each failing line's counter
neighborhood until its tag verifies (:mod:`repro.crash.counter_recovery`),
then rebuild the tree over the recovered counters and reseal the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..config import SystemConfig
from ..crash.counter_recovery import CounterRecoverer, CounterRecoveryReport
from ..crash.injector import CrashImage
from ..crypto.integrity import IntegrityEngine, TaggedLine
from .tree import IntegrityTreeEngine

if TYPE_CHECKING:  # pragma: no cover - typing only (session imports us)
    from ..crash.session import RecoveryContext

__all__ = ["TreeVerificationReport", "repair_image", "verify_image"]


@dataclass
class TreeVerificationReport:
    """Outcome of one post-crash verification walk."""

    design: str
    crash_ns: float
    #: The secure register at the crash; None when the image predates
    #: integrity capture (verification then only runs the tag sweep).
    root_expected: Optional[int]
    #: Root rebuilt from the image's persisted counters.
    root_computed: int
    #: Data lines whose ECC-lane MAC verifies under *no* counter in the
    #: Osiris search window — genuine corruption.
    tag_failures: List[int] = field(default_factory=list)
    #: Lines whose MAC failed the architectural counter but verified at
    #: a forward lag: legitimate in-flight state (data persisted before
    #: its counter writeback), repairable by counter search.
    stale_lines: int = 0
    lines_checked: int = 0

    @property
    def root_match(self) -> bool:
        return self.root_expected is None or self.root_expected == self.root_computed

    @property
    def clean(self) -> bool:
        return self.root_match and not self.tag_failures

    def describe(self) -> str:
        if self.clean:
            return "tree verification clean (%d lines)" % self.lines_checked
        parts = []
        if not self.root_match:
            parts.append(
                "root mismatch (register %016x != computed %016x)"
                % (self.root_expected, self.root_computed)
            )
        if self.tag_failures:
            parts.append(
                "%d tag failure(s) at %s"
                % (
                    len(self.tag_failures),
                    ", ".join("0x%x" % a for a in self.tag_failures[:4])
                    + ("..." if len(self.tag_failures) > 4 else ""),
                )
            )
        return "; ".join(parts)


def _tree_engine(image: CrashImage, config: SystemConfig) -> IntegrityTreeEngine:
    return IntegrityTreeEngine(
        config.encryption, image.address_map, arity=config.integrity.arity
    )


def verify_image(
    image: CrashImage, config: SystemConfig, max_lag: Optional[int] = None
) -> TreeVerificationReport:
    """Run the root walk and the tag sweep over a crash image.

    Consumes the integrity capture the injector stores on the image
    (``secure_root``, ``line_tags``); faults mutate the image *after*
    capture, so any mutation surfaces as a mismatch here.

    The tag sweep mirrors Osiris semantics: a line whose MAC fails the
    architectural counter but verifies at a forward lag (within
    ``max_lag``) is legitimate in-flight state — SCA lets non-atomic
    data drain before its counter writeback — and counts as *stale*,
    not corrupt.  Only a line no candidate counter can authenticate is
    a tag failure.
    """
    if max_lag is None:
        max_lag = config.integrity.max_counter_lag
    engine = _tree_engine(image, config)
    report = TreeVerificationReport(
        design=image.design,
        crash_ns=image.crash_ns,
        root_expected=image.secure_root,
        root_computed=engine.root_over(image.counter_store.snapshot()),
    )
    tags = image.line_tags or {}
    mac = IntegrityEngine(config.encryption)
    lines: List[Tuple[TaggedLine, int]] = []
    for address in sorted(tags):
        if not image.address_map.is_data_address(address):
            continue
        stored = image.device.read_line(address)
        line = TaggedLine(address=address, ciphertext=stored.payload, tag=tags[address])
        lines.append((line, image.counter_store.read(address)))
    report.lines_checked = len(lines)
    # The architectural pass tags every line in one batch; each line it
    # fails gets one batch over its forward window.  A tag that is not
    # 8 bytes never matches here, and the window search rejects it.
    computed = mac.tag_many(
        [(line.address, architectural, line.ciphertext) for line, architectural in lines]
    )
    for (line, architectural), tag in zip(lines, computed):
        if tag == line.tag:
            continue
        window = range(architectural + 1, architectural + max_lag + 1)
        if line.first_verifying(mac, window) is not None:
            report.stale_lines += 1
        else:
            report.tag_failures.append(line.address)
    return report


def repair_image(
    image: CrashImage,
    config: SystemConfig,
    max_lag: Optional[int] = None,
    context: Optional["RecoveryContext"] = None,
) -> Tuple[CounterRecoveryReport, TreeVerificationReport]:
    """Osiris counter search + Phoenix root reseal, in place.

    Searches each tagged line's counter neighborhood until its MAC
    verifies (bounded by ``max_lag``), writes recovered counters back
    into the image, then recomputes the tree over the repaired
    counters and installs the new root in the image's register —
    recovery *reseals* the tree rather than proving the old root.

    Returns the recovery report and the post-repair verification
    (clean iff every tagged line now decrypts consistently).

    Restartable in two phases: the counter sweep steps per line under
    the ``counter-search`` phase (inside :meth:`recover_image`), then
    the reseal is one ``tree-repair`` step.  Both mutate the image in
    place with crash-atomic writes, so re-running after a nested crash
    resumes from the repaired state; an interrupted reseal just
    recomputes the same root.
    """
    if max_lag is None:
        max_lag = config.integrity.max_counter_lag
    if context is None:
        from ..crash.session import RecoveryContext

        context = RecoveryContext()
    context.enter_phase("tree-repair")
    recoverer = CounterRecoverer(config.encryption, max_lag=max_lag)
    recovery = recoverer.recover_image(image, tags=image.line_tags, context=context)
    context.enter_phase("tree-repair")
    context.step()
    engine = _tree_engine(image, config)
    image.secure_root = engine.root_over(image.counter_store.snapshot())
    context.step()
    return recovery, verify_image(image, config)
