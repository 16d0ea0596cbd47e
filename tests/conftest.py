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


@pytest.fixture
def crop_shares():
    """A function giving, for probes 0..n_probes-1 of ``probe_rip`` at
    ``seed``, |C|_F^2 over the energy of C's crop to the unpadded extents
    ``padded_from``: the factor that takes a padded copy's ratio, which
    divides by the whole probe's energy, to the unpadded images' ratio,
    which divides by the crop's."""
    import numpy as np

    from dkn import rng
    from dkn.kron_ops import compose_coeff

    def shares(structure, padded_from, seed, n_probes):
        crop = tuple(slice(0, e) for e in padded_from)
        out = []
        for j in range(n_probes):
            p = rng.stream(seed, rng.PURPOSE_PROBE, j)
            c = compose_coeff([[p.standard_normal(fd) for fd in structure.factor_dims]
                               for _ in range(2)])
            c = c.reshape(structure.dims3, order="F")
            out.append(float(np.sum(c * c)) / float(np.sum(c[crop] ** 2)))
        return out

    return shares


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
