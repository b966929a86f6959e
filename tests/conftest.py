"""Reports the run's peak resident memory after the summary, and fails a
run that otherwise passed when the peak of the session or of its children
exceeds the Tier-1 memory budget of 1 GiB.  The Tier-1 time budget, 60 s,
is read from the summary but not enforced: wall time is noisy on a shared
host."""

import resource
import sys

import pytest

MEMORY_BUDGET_MIB = 1024.0


def _peak_mib(who) -> float:
    peak = resource.getrusage(who).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _peaks() -> dict:
    return {"self": _peak_mib(resource.RUSAGE_SELF),
            "children": _peak_mib(resource.RUSAGE_CHILDREN)}


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    if session.exitstatus == pytest.ExitCode.OK \
            and max(_peaks().values()) > MEMORY_BUDGET_MIB:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    peaks = _peaks()
    terminalreporter.write_line(
        f"peak RSS: {peaks['self']:.1f} MiB (self), "
        f"{peaks['children']:.1f} MiB (children)")
    if max(peaks.values()) > MEMORY_BUDGET_MIB:
        terminalreporter.write_line(
            f"peak RSS exceeds the Tier-1 budget of {MEMORY_BUDGET_MIB:.0f} MiB",
            red=True)
