import numpy as np
import pytest

# Collected (criterion number, description, passed, detail) tuples; printed
# as a block at the end of the run so the per-criterion verdicts are visible
# regardless of pytest's capture settings.
_ACCEPTANCE_RESULTS = []


@pytest.fixture
def record_criterion():
    def _record(number: int, description: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append((number, description, passed, detail))

    return _record


@pytest.fixture
def svd_values_calls(monkeypatch):
    """Shapes of the values-only np.linalg.svd calls made during the test."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True) is False:
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{verdict}] {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
