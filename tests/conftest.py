"""Shared fixtures."""

import pytest

from thetadiag import theta


class KernelCounter:
    """What the theta kernel did while a test ran: one (tol, items) entry per
    call of theta._jet, and one (eps of each group, rows of each group)
    entry per lattice pass of theta._ellipsoid_points; `stray` counts the
    passes made outside a kernel call."""

    def __init__(self):
        self.calls = []
        self.passes = []
        self.stray = 0
        self.depth = 0

    @property
    def tols(self):
        return [tol for tol, _ in self.calls]

    @property
    def groups(self):
        return sum(len(epses) for epses, _ in self.passes)

    @property
    def rows(self):
        return sum(sum(rows) for _, rows in self.passes)


@pytest.fixture
def kernel(monkeypatch):
    """Counts the calls, lattice passes, groups and rows of the theta kernel
    in this process (a forked child counts into its own copy)."""
    counter = KernelCounter()
    jet, points = theta._jet, theta._ellipsoid_points

    def counting_jet(items, multi_indices, tol, max_order):
        counter.calls.append((tol, len(items)))
        counter.depth += 1
        try:
            return jet(items, multi_indices, tol, max_order)
        finally:
            counter.depth -= 1

    def counting_points(factors, epses, radii):
        rows, bounds, zeros = points(factors, epses, radii)
        counter.stray += not counter.depth
        counter.passes.append(([tuple(map(int, eps)) for eps in epses],
                               [stop - start for start, stop in zip(bounds, bounds[1:])]))
        return rows, bounds, zeros

    monkeypatch.setattr(theta, "_jet", counting_jet)
    monkeypatch.setattr(theta, "_ellipsoid_points", counting_points)
    return counter
