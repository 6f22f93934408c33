"""Record the golden digest of every pool seed for full_scale and wide_d.

    python3 bench/record_golden.py [workload ...]

The digest is sha256 over the run's nine deterministic files (rep.DIGEST_FILES).
Re-record only for a change whose new results are intended, and say why.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, POOL, WORK, run_rep


def main(workloads: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    recorded = {}
    for workload in workloads:
        digests = {}
        for seed in range(POOL):
            rep = run_rep(workload, seed, False, f"golden-{workload}-{seed}")
            if rep["errors"]:
                print(f"{workload} seed {seed}: {rep['errors'][:3]}", file=sys.stderr)
                return 1
            digests[str(seed)] = rep["digest"]
            print(workload, seed, f"wall_s={rep['wall_s']:.3f}", rep["digest"][:16], flush=True)
        recorded[workload] = digests
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update(recorded)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["full_scale", "wide_d"]))
