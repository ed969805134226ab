"""The `verify` invariant batteries, gated inside the test suite."""

import pytest

from splitdg import verify


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_passes(suite):
    failed = [f"{c.name}: {c.value:.3e} vs {c.bound:.1e}"
              for c in verify.run_suite(suite) if not c.ok]
    assert not failed
