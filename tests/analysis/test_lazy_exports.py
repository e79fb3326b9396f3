"""``repro.analysis`` resolves its exports lazily (PEP 562)."""

import os
import subprocess
import sys

import pytest

import repro
import repro.analysis

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env).stdout.strip()


def test_scaling_import_leaves_scipy_out():
    out = _run("import sys, repro.analysis.scaling; "
               "print('scipy' in sys.modules)")
    assert out == "False"


def test_package_exports_resolve_on_access():
    from repro.analysis import Summary, compare_distributions
    from repro.analysis.distributions import (
        compare_distributions as direct,
    )
    from repro.analysis.statistics import Summary as summary_direct

    assert compare_distributions is direct
    assert Summary is summary_direct


def test_every_listed_export_resolves():
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name) is not None
    assert set(repro.analysis.__all__) <= set(dir(repro.analysis))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        repro.analysis.no_such_export
