"""Reports the run's peak resident memory after the summary, each figure
with the test that set it, and fails a run that otherwise passed when the
peak of the session or of its children exceeds the Tier-1 memory budget of
1 GiB.  The Tier-1 time budget, 60 s, is read from the summary but not
enforced: wall time is noisy on a shared host."""

import resource
import sys

import pytest

MEMORY_BUDGET_MIB = 1024.0

# the peaks after the last test, and what last raised each: a test's node id,
# or "no test" for a rise outside every test (imports, collection)
_last = {"self": 0.0, "children": 0.0}
_setter = {"self": "no test", "children": "no test"}


def _peak_mib(who) -> float:
    peak = resource.getrusage(who).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _peaks() -> dict:
    return {"self": _peak_mib(resource.RUSAGE_SELF),
            "children": _peak_mib(resource.RUSAGE_CHILDREN)}


def _note(where: str) -> None:
    """Credit each peak that rose since the last call to `where`."""
    for who, peak in _peaks().items():
        if peak > _last[who]:
            _last[who], _setter[who] = peak, where


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    _note("no test")
    yield
    _note(item.nodeid)


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    if session.exitstatus == pytest.ExitCode.OK \
            and max(_peaks().values()) > MEMORY_BUDGET_MIB:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    _note("no test")
    peaks = _peaks()
    terminalreporter.write_line(
        f"peak RSS: {peaks['self']:.1f} MiB (self, set by {_setter['self']}), "
        f"{peaks['children']:.1f} MiB (children, set by {_setter['children']})")
    if max(peaks.values()) > MEMORY_BUDGET_MIB:
        terminalreporter.write_line(
            f"peak RSS exceeds the Tier-1 budget of {MEMORY_BUDGET_MIB:.0f} MiB",
            red=True)
