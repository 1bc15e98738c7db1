"""The finding reporter: GCC-style text lines plus a summary."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.lint.engine import Finding

__all__ = ["render_text"]


def render_text(findings: Sequence[Finding], *, checked_files: int = 0) -> str:
    """GCC-style ``path:line:col: CODE message`` lines plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(
            f"{code} x{count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"reprolint: {len(findings)} finding(s) in {checked_files} "
            f"file(s) [{breakdown}]"
        )
    else:
        lines.append(f"reprolint: 0 findings in {checked_files} file(s)")
    return "\n".join(lines)
