"""Extension: large-scale O(n^2) scaling via the batched numpy kernel."""

from conftest import run_and_check


def test_ext4(benchmark):
    """Extension: large-scale O(n^2) scaling via the batched numpy kernel."""
    run_and_check(benchmark, "ext4")
