"""Regenerate expected.json from the program as it stands, without relabelling.

    python3 bench/make_expected.py

Records every bundled group's (status, rule), the contradiction count of
the exclusion subset, and the facts of both witness bundles, including
agreement of the unreduced lift search (about a minute at order 6144).
Run it only when a change is meant to alter answers; the runner then
cross-checks the new table against the pinned facts in workloads.py.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import Program


def main() -> int:
    gz = Program()
    entries = gz.catalog.load_bundled_catalog()
    report = gz.catalog.classify(entries, check_exclusion=False)
    groups = {g["name"]: [g["status"], g["rule"]] for g in report["groups"]}
    subset = [e for e in entries if workloads.EXCLUSION_TAG in e.tags]
    exclusion = gz.catalog.classify(subset, check_exclusion=True)["summary"]

    N = gz.catalog.build_named_group(workloads.WITNESS_BASE)
    bundle = gz.witness.verify_znthm(gz.witness.build_znthm(N, workloads.WITNESS_Q),
                                     full_search=True)
    witness = workloads.witness_facts(bundle)
    witness["full_search_agrees"] = any(
        line.startswith("full lift search agreed") for line in bundle.nonexistence.evidence
    )
    baer = workloads.baer_facts(gz.witness.baer_bundle())

    doc = {"groups": groups, "exclusion_contradictions": exclusion["contradictions"],
           "witness": witness, "baer": baer}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
