"""Shared test plumbing: the acceptance-criteria report and the property-test
profile.

Acceptance tests register one line per criterion through record_criterion;
the terminal summary prints them all, PASS or FAIL, after the run.

Property tests run derandomized and without an example database, so every
run draws the same examples and none is saved to or replayed from
.hypothesis/ (hypothesis still caches constants it reads from the source
there).
"""
from typing import List, Tuple

try:
    from hypothesis import settings
except ImportError:  # the property tests need it; everything else runs without
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")

_ACCEPTANCE: List[Tuple[float, str, bool, str]] = []


def record_criterion(sort_key: float, label: str, passed: bool, detail: str) -> None:
    _ACCEPTANCE.append((sort_key, label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for _, label, passed, detail in sorted(_ACCEPTANCE, key=lambda r: r[0]):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {label} {verdict}: {detail}")
