"""Right-continuous step functions on the positive half line."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StepCurve:
    """A right-continuous step function.

    The value at ``x`` is ``cumulative_values[k]`` for the largest ``k`` with
    ``jump_times[k] <= x``, and ``value_before_first`` if there is no such
    jump.  Jump times must be strictly increasing.  Monotone curves
    (cumulative hazards) enforce nondecreasing values; sensitivity curves with
    signed increments opt out via ``monotone=False``.
    """

    jump_times: np.ndarray
    cumulative_values: np.ndarray
    value_before_first: float = 0.0
    monotone: bool = field(default=True)

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        values = np.asarray(self.cumulative_values, dtype=float)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "cumulative_values", values)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("jump_times and cumulative_values must be 1-d of equal length")
        if times.size and not np.all(np.isfinite(times)):
            raise ValueError("jump times must be finite")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if self.monotone and values.size:
            lead = np.concatenate(([self.value_before_first], values))
            if np.any(np.diff(lead) < 0):
                raise ValueError("cumulative values must be nondecreasing")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        k = np.searchsorted(self.jump_times, x_arr, side="right") - 1
        padded = np.concatenate(([self.value_before_first], self.cumulative_values))
        out = padded[k + 1]
        return out if x_arr.ndim else float(out)

