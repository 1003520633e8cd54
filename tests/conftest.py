"""Shared pytest plumbing.

BLAS is pinned to one thread before numpy loads (an explicit setting in
the environment wins): the library's matrices are small, and on a busy
host extra BLAS threads only contend, which makes the timing tests
(criterion 8) noisy.

The acceptance tests record one verdict line per criterion here; the hook
below re-prints them after the run so they are visible regardless of
pytest's output capturing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
