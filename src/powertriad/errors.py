"""Exception types shared across the toolkit."""

from __future__ import annotations


class PowerTriadError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteSample(PowerTriadError):
    """A sample pair contains NaN or infinity."""

    def __init__(self, index: int, x: float, v: float):
        super().__init__(f"non-finite sample at index {index}: x={x!r}, v={v!r}")
        self.index = index
        self.x = x
        self.v = v


class EmptySummary(PowerTriadError):
    """finalize() was called on a summary holding no samples."""


class ZeroSignalPower(PowerTriadError):
    """The reference signal has zero mean power; ratios and regimes are undefined."""


class ZeroCandidatePower(PowerTriadError):
    """The candidate has zero mean power; no scale can be fitted to it."""


class DegenerateWindow(PowerTriadError):
    """The forgotten candidate power underflowed to zero while tracking."""

    def __init__(self, index: int):
        super().__init__(f"candidate power window is zero at step {index}")
        self.index = index


class InvalidSpec(PowerTriadError):
    """A problem or estimator specification is malformed."""


class EmptyInput(PowerTriadError):
    """A map builder received no points."""
