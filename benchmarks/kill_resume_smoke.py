#!/usr/bin/env python
"""Kill-and-resume smoke test for checkpointed crash campaigns.

The campaign engine promises two-level crash consistency: finished jobs
resume from the journal, and an interrupted job's *simulation* resumes
from its newest valid snapshot (``--checkpoint-every``).  This script
proves it the honest way:

1. run a small seeded campaign uninterrupted and record its triage
   totals (the baseline);
2. start the same campaign with checkpointing in a subprocess, wait for
   the first snapshot file to appear, and SIGKILL the process — no
   warning, no cleanup, exactly like a power cut;
3. rerun the same command and assert that (a) it restored at least one
   snapshot and (b) its triage totals are identical to the baseline.

A kill can race a very fast job (snapshot seen, but the job journals
and cleans up before the signal lands); the smoke retries a few times
before declaring failure.  Exit 0 on success, 1 on failure.

The killed process's snapshots are pickled machines, so ``--designs``
and ``--shards`` choose what a snapshot holds: the defaults run ``sca``
on one controller, and ``--designs fca+bmt --shards 2`` kills a job
whose machine holds two sharded controllers, each with its integrity
tree, tree-node cache and tree write queue.

Usage::

    python benchmarks/kill_resume_smoke.py [--attempts 3] [--workdir DIR]
        [--designs sca] [--shards 1]
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECKPOINT_EVERY = 100
POLL_S = 0.005
FIRST_SNAPSHOT_TIMEOUT_S = 120.0


def campaign_command(campaign_dir, operations, args, json_path=None):
    command = [
        sys.executable, "-m", "repro.bench.cli", "campaign",
        "--workloads", "array",
        "--designs", args.designs,
        "--mechanisms", "undo",
        "--faults", "none,torn-counter",
        "--crash-points", "6",
        "--operations", str(operations),
        "--seed", "42",
        "--shards", str(args.shards),
        "--campaign-dir", campaign_dir,
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]
    if json_path is not None:
        command += ["--json", json_path]
    return command


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def run_baseline(workdir, operations, args):
    json_path = os.path.join(workdir, "baseline.json")
    command = campaign_command(
        os.path.join(workdir, "baseline"), operations, args, json_path
    )
    subprocess.run(command, env=child_env(), check=True)
    with open(json_path, "r", encoding="utf-8") as handle:
        return json.load(handle)["totals"]


def attempt_kill_resume(workdir, operations, attempt, args):
    """One kill-and-resume round; returns the resumed document or None
    when the kill raced the campaign to completion."""
    campaign_dir = os.path.join(workdir, "killed-%d" % attempt)
    process = subprocess.Popen(
        campaign_command(campaign_dir, operations, args),
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    snapshot_glob = os.path.join(campaign_dir, "checkpoints", "*", "*.ckpt")
    deadline = time.time() + FIRST_SNAPSHOT_TIMEOUT_S
    saw_snapshot = False
    try:
        while time.time() < deadline:
            if glob.glob(snapshot_glob):
                saw_snapshot = True
                break
            if process.poll() is not None:
                break
            time.sleep(POLL_S)
    finally:
        process.kill()
        process.wait()
    if not saw_snapshot:
        print("attempt %d: campaign finished before its first snapshot; "
              "retrying with more work" % attempt)
        return None
    json_path = os.path.join(workdir, "resumed-%d.json" % attempt)
    resumed = subprocess.run(
        campaign_command(campaign_dir, operations, args, json_path),
        env=child_env(),
    )
    if resumed.returncode != 0:
        raise SystemExit("resumed campaign exited %d" % resumed.returncode)
    with open(json_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document["resilience"]["restored"] < 1:
        print("attempt %d: kill raced job completion (nothing restored); "
              "retrying" % attempt)
        return None
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--attempts", type=int, default=3)
    parser.add_argument("--operations", type=int, default=60)
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--designs", default="sca",
                        help="comma-separated designs of the campaign")
    parser.add_argument("--shards", type=int, default=1,
                        help="memory controllers per machine")
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="kill-resume-smoke-")
    os.makedirs(workdir, exist_ok=True)
    try:
        baseline_totals = run_baseline(workdir, args.operations, args)
        print("baseline totals: %s" % json.dumps(baseline_totals, sort_keys=True))
        document = None
        operations = args.operations
        for attempt in range(1, args.attempts + 1):
            document = attempt_kill_resume(workdir, operations, attempt, args)
            if document is not None:
                break
            # More simulated work widens the kill window for the retry —
            # but changes the job key, so rebuild the baseline to match.
            operations *= 2
            baseline_totals = run_baseline(
                os.path.join(workdir, "baseline-%d" % attempt), operations, args
            )
        if document is None:
            print("FAIL: no attempt managed to kill the campaign mid-run")
            return 1
        restored = document["resilience"]["restored"]
        print("resumed run restored %d snapshot(s); totals: %s"
              % (restored, json.dumps(document["totals"], sort_keys=True)))
        if document["totals"] != baseline_totals:
            print("FAIL: resumed triage totals differ from the baseline")
            return 1
        print("PASS: kill-and-resume reproduced the baseline triage exactly")
        return 0
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
