"""Correctness check of one pass's output against the workload's expectations.

Independent of gencong: ``pow`` lines are compared with the residues the
generator computed with builtin ``pow``; ``verify`` must exit 0 and report
``0 failures`` over exactly the generated number of pairs.
"""

from __future__ import annotations

import json
import re

from workloads import Workload

_VERIFY_SUMMARY = re.compile(r"(\d+) checked, (\d+) failures\n")


def failed_records(workload: Workload, exit_code: int, output: str) -> int:
    """Records of one pass that are wrong, missing or errored (0 when all are right)."""
    if not workload.expected:
        return _failed_verify(workload.records, exit_code, output)
    lines = output.splitlines()
    failed = abs(len(lines) - len(workload.expected))
    for line, (a, m, residue) in zip(lines, workload.expected):
        try:
            got = json.loads(line)
            ok = (got["a"], got["m"], got["residue"]) == (str(a), str(m), str(residue))
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    if exit_code != 0:
        failed = max(failed, 1)
    return min(failed, workload.records)


def _failed_verify(pairs: int, exit_code: int, output: str) -> int:
    match = _VERIFY_SUMMARY.fullmatch(output)
    if exit_code != 0 or match is None:
        return pairs
    checked, failures = int(match.group(1)), int(match.group(2))
    return min(pairs, abs(pairs - checked) + failures)
