"""Regenerate reference.json, the exact output digest of every job.

    python3 perfbench/make_reference.py

Covers the default and the hold-out corpus seeds.  Before a digest is
recorded, each output is checked independently: a face-sum job must pass
``check_reciprocity``; a Todd job must equal ``build_gfun(P, phi).poly``,
the identity the two routes are built to satisfy; a CLI call must exit 0.
Run it only on a commit whose outputs are known to be right.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads as wl


def main() -> int:
    lg = wl.import_latticegfun()
    digests = {}
    counts = {}
    for seeds in (wl.DEFAULT_CORPUS_SEEDS, wl.HOLDOUT_CORPUS_SEEDS):
        facesum = wl.facesum_jobs(lg, seeds)
        for job in facesum:
            out = job.run(None)
            if out["reciprocity"] is not True:
                raise SystemExit(f"reciprocity fails on {job.key}")
            digests[job.key] = wl.canonical_digest(out)
        todd = wl.todd_jobs(lg, seeds)
        for job in todd:
            out = job.run(None)
            _, vertices, phi = job.run.args
            if out["todd"] != lg.build_gfun(lg.build_polytope(vertices), phi).poly:
                raise SystemExit(f"Todd route disagrees with the face sum on {job.key}")
            digests[job.key] = wl.canonical_digest(out)
        counts[",".join(map(str, seeds))] = {"facesum": len(facesum), "todd": len(todd)}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=wl.HERE) as workdir:
        for job in wl.cli_jobs(workdir):
            out = job.run(None)
            if out["exit"] != 0:
                raise SystemExit(f"{job.key} exited {out['exit']}")
            digests[job.key] = wl.canonical_digest(out)
    path = os.path.join(wl.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(counts), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
