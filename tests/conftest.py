"""Reports the run's peak resident memory after the summary, so the Tier-1
budget (60 s, 1 GiB) can be read from every run."""

import resource
import sys

import pytest


def _peak_mib(who) -> float:
    peak = resource.getrusage(who).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"peak RSS: {_peak_mib(resource.RUSAGE_SELF):.1f} MiB (self), "
        f"{_peak_mib(resource.RUSAGE_CHILDREN):.1f} MiB (children)")
