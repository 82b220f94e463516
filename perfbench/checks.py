"""Output checks: recorded digests and the independent oracles.

Both run outside the timed region.  A job fails when its exit code is not
0, when it raised, when its stdout differs from the same job in the first
pass, when its (exit code, stdout sha256) differs from the digest recorded
for the default seed, or when an oracle disagrees with it.
"""

from __future__ import annotations

import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


def load_digests(workload):
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload)
    return {key: tuple(value) for key, value in table.items()} if table else None


def record_digests(workload, results):
    """Store the first pass's (exit code, sha256) per job for ``workload``."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = {key: [code, digest] for key, code, digest, *_ in results[0]}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def failed_runs(results, expected):
    """(pass, index) of every job run that fails the exit-code or digest check."""
    first = {}
    for key, code, digest, *_ in results[0]:
        first.setdefault(key, (code, digest))
    bad = {}
    for p, run in enumerate(results):
        for i, (key, code, digest, err, _) in enumerate(run):
            if code != 0:
                why = f"exit {code}: {err.strip()[:200]}"
            elif first.get(key) != (code, digest):
                why = "stdout differs from the first pass"
            elif expected is not None and expected.get(key) != (code, digest):
                why = "stdout or exit code differs from the recorded digest"
            else:
                continue
            bad[(p, i)] = f"{key}: {why}"
    return bad


def oracle_failures(cases):
    """Check each (document, r) case against the independent oracles.

    The Schouten cyclic sum must equal the Yang-Baxter tensor entry by entry
    and must vanish exactly when the CLI said "r-matrix"; for an r-matrix,
    ``reconstruct_r`` of its leaf data must give r back.
    """
    from lieps import catalog
    from lieps.foliation import leaf_cocycle, reconstruct_r
    from lieps.ybe import canonical_lift, make_bivector, schouten_oracle, yang_baxter_tensor

    failures = {}
    for case in cases:
        key = case["key"]
        try:
            L, iso = catalog.realize(catalog.parse(case["text"]))
            r = make_bivector(iso, case["coords"])
            oracle = schouten_oracle(canonical_lift(r))
            if yang_baxter_tensor(r).values != oracle.values:
                failures[key] = "Yang-Baxter tensor differs from the Schouten oracle"
            elif oracle.is_zero() != case["r_matrix"]:
                failures[key] = "ybe verdict disagrees with the Schouten oracle"
            elif case["r_matrix"]:
                data = leaf_cocycle(r)
                back = reconstruct_r(L, iso, data.a_basis, data.omega)
                if back.r_mat != r.r_mat:
                    failures[key] = "reconstruct_r of the leaf data does not give r back"
        except Exception as e:  # an oracle that cannot run has not agreed
            failures[key] = f"oracle raised {type(e).__name__}: {e}"
    return failures
