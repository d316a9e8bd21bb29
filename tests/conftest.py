import sys
import warnings

import pytest


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] {name}: {outcome}", file=sys.stderr)


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # When a Hypothesis test fails, the Hypothesis plugin's report hook
    # imports libcst to write its failing-example patch, and libcst's import
    # of mypy_extensions warns. Under -W error that one warning would turn
    # the failure into an INTERNALERROR that hides the assertion, so it is
    # ignored while reports are made; test bodies and imports still run
    # with every warning an error.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict", category=DeprecationWarning
        )
        return (yield)
