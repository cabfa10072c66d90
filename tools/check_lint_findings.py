#!/usr/bin/env python3
"""Per-rule baseline gate for xh_lint findings documents.

Usage: check_lint_findings.py CURRENT.json BASELINE.json

Both files are xh-lint-findings/1 documents (xh_lint --json). The gate
compares the per-rule counts in "by_rule":

  * a rule whose count EXCEEDS the baseline fails the gate — new findings
    slipped in (the tree gate normally catches this first; this check is
    the evidence trail when it does, and the ratchet when a rule is ever
    grandfathered in with a non-zero baseline);
  * a rule whose count DROPPED BELOW the baseline also fails — findings
    were fixed, so the baseline must be tightened in the same change
    (tools/lint/findings_baseline.json), keeping it an exact record rather
    than a stale ceiling.

Rule ids are validated against the known family prefixes (the registry's
families, including the interprocedural XH-IPA-/XH-RACE- tier): a document
mentioning a rule from an unknown family is unusable input — the gate is
out of date relative to the linter and must be taught the family before
its counts mean anything.

Stdlib only; exit 0 on match, 1 on any divergence, 2 on unusable input.
"""

import json
import sys

KNOWN_FAMILIES = (
    "XH-DET-",
    "XH-ERR-",
    "XH-PARSE-",
    "XH-HDR-",
    "XH-INC-",
    "XH-OBS-",
    "XH-SUP-",
    "XH-FLOW-",
    "XH-IPA-",
    "XH-RACE-",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "xh-lint-findings/1":
        print(f"error: {path}: not an xh-lint-findings/1 document",
              file=sys.stderr)
        sys.exit(2)
    by_rule = doc.get("by_rule", {})
    if not isinstance(by_rule, dict):
        print(f"error: {path}: by_rule is not an object", file=sys.stderr)
        sys.exit(2)
    for rule in by_rule:
        if not any(rule.startswith(fam) for fam in KNOWN_FAMILIES):
            print(f"error: {path}: rule '{rule}' is from an unknown family; "
                  "teach tools/check_lint_findings.py the family before "
                  "gating on it", file=sys.stderr)
            sys.exit(2)
    return by_rule


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])

    failures = []
    for rule in sorted(set(current) | set(baseline)):
        now = int(current.get(rule, 0))
        base = int(baseline.get(rule, 0))
        if now > base:
            failures.append(
                f"{rule}: {now} findings, baseline allows {base} — fix them "
                "or suppress with a justification")
        elif now < base:
            failures.append(
                f"{rule}: {now} findings, baseline records {base} — tighten "
                "the baseline in tools/lint/findings_baseline.json")
        else:
            print(f"ok: {rule}: {now}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"ok: per-rule counts match the baseline "
          f"({len(set(current) | set(baseline))} rules with findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
