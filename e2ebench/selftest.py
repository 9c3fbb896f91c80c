#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark's own guarantees (see README.md).

Run from the repository root:

    python3 e2ebench/selftest.py [--expect-defects]

Checks, each printed as PASS/FAIL:

1. Seed handling: on every workload the same seed yields a byte-identical
   operation stream, and another seed a different one.
2. Exact counts: two traced solo_edit runs with the same seed report
   identical values for the counts later changes may gate exactly.
3. Spread: the same counts on the 4-client workloads, where interleaving
   varies, are printed with their relative difference between two runs
   (informational, never fails).
4. With --expect-defects, the ledger must show the serving-path defects of
   the code this benchmark was written against: on solo_edit the time spent
   outside the server is at least 90% of the client operation time (the
   reply-path delayed-ACK stall), and on team_commit the WAL batch factor is
   1.00 +- 0.05 (group commit never batches through the serve loop).

Exits non-zero when any check fails. Builds like run.py does.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (run.py: build directory and build step)

SEED = 7
EXACT = ["crypto.hashes_per_op", "cvs.client_hashes_per_op",
         "mtree.vo_bytes_per_op", "net.bytes_per_op",
         "storage.wal_bytes_per_op"]
WORKLOADS = ["solo_edit", "team_commit", "team_read"]

failures = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def digest(binary: Path, workload: str, seed: int) -> str:
    out = subprocess.run([str(binary), "--workload", workload, "--seed",
                          str(seed), "--stream-digest", "2000"],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                          workload, "--seed", str(SEED), "--seconds", "1",
                          "--trace", "1"],
                         stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(out.returncode == 0 and result["correct"],
          f"traced {workload} run is correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect-defects", action="store_true")
    args = parser.parse_args()

    out = run.build_dir()
    if not run.build(out):
        print("selftest: build failed", file=sys.stderr)
        return 2
    binary = out / run.TARGET

    for w in WORKLOADS:
        a, b, c = (digest(binary, w, s) for s in (SEED, SEED, SEED + 1))
        check(a == b, f"{w}: same seed, byte-identical stream ({a[:16]})")
        check(a != c, f"{w}: another seed, another stream")

    runs = {w: (traced(w), traced(w)) for w in WORKLOADS}
    first, second = runs["solo_edit"]
    for name in EXACT:
        check(first[name] == second[name],
              f"solo_edit: {name} repeats exactly "
              f"({first[name]} vs {second[name]})")
    for w in WORKLOADS[1:]:
        first, second = runs[w]
        for name in EXACT:
            base = max(abs(first[name]), abs(second[name])) or 1
            print(f"INFO {w}: {name} {first[name]} vs {second[name]} "
                  f"(spread {abs(first[name] - second[name]) / base:.4f})")

    solo = runs["solo_edit"][0]
    share = solo["ledger.outside_server_share"]
    batch = runs["team_commit"][0]["storage.batch_factor"]
    print(f"INFO solo_edit: rpc.outside_server_us_per_op is {share:.4f} of "
          f"the client operation time")
    print(f"INFO team_commit: storage.batch_factor {batch:.4f}")
    if args.expect_defects:
        check(share >= 0.90, "solo_edit: reply stall visible (share >= 0.90)")
        check(abs(batch - 1.0) <= 0.05,
              "team_commit: no group-commit batching (batch factor 1.00 +- 0.05)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
