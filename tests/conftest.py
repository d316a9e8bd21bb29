import sys
import warnings

import pytest

from debruijn import graphcore


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


@pytest.fixture(autouse=True)
def _window_digraphs_keep_their_w(monkeypatch):
    """Every W x {0..a-1} digraph a test builds keeps its W as
    ``Digraph.windows``: ``window_set(d, k)`` for a generated subdigraph,
    every (k-1)-string for G(a, k). Both go through ``_window_digraph``,
    which is checked here on each call."""
    build = graphcore._window_digraph

    def checked(alphabet, k, windows, provenance):
        g = build(alphabet, k, windows, provenance)
        assert g.windows == tuple(windows), (alphabet.size, k, provenance)
        return g

    monkeypatch.setattr(graphcore, "_window_digraph", checked)
