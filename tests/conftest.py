"""Shared pytest config: prints one verdict line per acceptance criterion,
and holds the fixtures that more than one test module uses."""

import re

import pytest

CRITERIA = {
    1: "algebraic identity suite (reshape, conv chain, CP mapping)",
    2: "noiseless rank-1 exact recovery",
    3: "geometric decay of the recovery error",
    4: "gradient matches central finite differences",
    5: "desk-scale circle study beats ridge",
    6: "full-scale circle spot check (flag-gated)",
    7: "rank selection by BIC",
    8: "parameter-count arithmetic",
    9: "contraction constants and noiseless reduction",
    10: "CLI byte-for-byte determinism",
}

@pytest.fixture
def malformed_dkt():
    """A function from a good DKT1 file's bytes to malformed variants of
    them, keyed by file name: each one that a reader must refuse."""

    def cases(raw):
        order = raw[4]
        return {
            "magic.dkt": b"NOPE" + raw[4:],
            "short.dkt": raw[:3],
            "order0.dkt": raw[:4] + bytes([0]) + raw[5:],
            "order9.dkt": raw[:4] + bytes([9]) + raw[5:],
            "extents.dkt": raw[: 5 + 8 * order - 1],
            "zero.dkt": raw[:5] + (0).to_bytes(8, "little") + raw[13:],
            "length.dkt": raw[:-8],
            "trailing.dkt": raw + b"\x00",
        }

    return cases


_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(getattr(report, "nodeid", ""))
            if m is None:
                continue
            if status == "passed" and getattr(report, "when", "call") != "call":
                continue
            num = int(m.group(1))
            seen.setdefault(num, set()).add("failed" if status == "error" else status)
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(seen):
        outcomes = seen[num]
        if "failed" in outcomes:
            verdict = "FAIL"
        elif "passed" in outcomes:
            verdict = "PASS"
        else:
            verdict = "SKIP"
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num:02d} {verdict}  {label}")
