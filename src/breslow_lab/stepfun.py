"""Right-continuous step functions on the positive half line."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StepCurve:
    """A right-continuous step function, 0 before its first jump.

    The value at ``x`` is ``cumulative_values[k]`` for the largest ``k`` with
    ``jump_times[k] <= x``.  ``cumulative_values`` holds one value per jump
    (shape ``(m,)``) or one row of columns per jump (shape ``(m, k)``); one
    search reads every column.  Jump times must be strictly increasing.
    Monotone curves (cumulative hazards) enforce nondecreasing values from
    0; sensitivity curves with signed increments opt out via
    ``monotone=False``.
    """

    jump_times: np.ndarray
    cumulative_values: np.ndarray
    monotone: bool = field(default=True)

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        values = np.asarray(self.cumulative_values, dtype=float)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "cumulative_values", values)
        if times.ndim != 1 or values.ndim not in (1, 2) or values.shape[0] != times.size:
            raise ValueError("cumulative_values must have one value or row per jump time")
        if times.size and not np.all(np.isfinite(times)):
            raise ValueError("jump times must be finite")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if self.monotone and np.any(np.diff(self._padded(), axis=0) < 0):
            raise ValueError("cumulative values must be nondecreasing")

    def _padded(self) -> np.ndarray:
        zero = np.zeros((1,) + self.cumulative_values.shape[1:])
        return np.concatenate((zero, self.cumulative_values))

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        k = np.searchsorted(self.jump_times, x_arr, side="right")
        out = self._padded()[k]
        return float(out) if out.ndim == 0 else out
