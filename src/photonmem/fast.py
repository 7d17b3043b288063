"""Fast (photon-echo style) retrieval and storage.

A resonant control much stronger than the collective coupling acts as an
instantaneous swap between the optical polarization and the spin wave.  The
subsequent free emission of the swapped polarization has the closed form

    E_out(tau) = -sqrt(d) * exp(-tau) * integral_0^1 J0(2 sqrt(d zeta tau))
                 * s(1 - zeta) dzeta,   tau >= 0,

for a spin wave s given in the retrieval propagation frame.  Because the
swap cannot be shaped, exactly one input mode per optical depth is stored
optimally: the time reverse of the optimal-mode emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .core import FieldMode, SpaceGrid, SpinWave, TimeGrid, _chebyshev_interpolant, time_reverse
from .kernel import optimal_spin_wave

__all__ = [
    "retrieve_fast",
    "optimal_fast_input",
    "FastInputResult",
    "recommended_fast_grid",
]


def recommended_fast_grid(d: float, t_max: float = 12.0) -> TimeGrid:
    """Output grid resolving the ~1/d emission burst with a decayed tail.

    The envelope decays like exp(-2 tau) in energy, so by tau ~ 12 the
    truncated fraction is negligible at any depth; the step tracks both the
    oscillation of the Bessel factor and the burst duration.
    """
    dtau = min(5e-3, 0.1 / d)
    n = int(math.ceil(t_max / dtau)) + 1
    return TimeGrid(tau0=0.0, dtau=dtau, n=n)


def retrieve_fast(s: SpinWave, d: float, grid: TimeGrid) -> FieldMode:
    """Free-emission output mode after a perfect swap pulse.

    ``s`` must be expressed in the retrieval propagation frame (flip first
    for backward retrieval).  The quadrature F(x) = sum_j w_j s(1 - zeta_j)
    J0(2 x sqrt(d zeta_j)) over the spin wave's own spatial grid is smooth
    in x = sqrt(tau), so it is sampled at a few Chebyshev points and read
    off the interpolant at every output time; the factor sqrt(d) e^{-tau}
    is applied exactly there.
    """
    if d <= 0:
        raise ValueError("optical depth must be positive")
    tau = grid.times - grid.tau0
    if np.any(tau < 0):
        raise ValueError("fast retrieval output starts at the pulse time")
    if not s.grid.is_symmetric:
        raise ValueError("retrieve_fast requires a grid symmetric under zeta -> 1 - zeta")
    k = 2.0 * np.sqrt(d * s.grid.nodes)
    weights = s.grid.weights * s.samples[::-1]
    quad = _chebyshev_interpolant(lambda x: j0(np.outer(x, k)) @ weights, 0.0, math.sqrt(tau[-1]))
    out = -math.sqrt(d) * np.exp(-tau) * quad(np.sqrt(tau))
    return FieldMode(grid=grid, samples=out)


@dataclass(frozen=True, eq=False)
class FastInputResult:
    """Normalized optimal fast-storage input plus its raw emission energy.

    ``raw_norm2`` is the pre-normalization energy of the time-reversed
    emission, i.e. the maximum retrieval efficiency at this depth.
    """

    mode: FieldMode
    raw_norm2: float


def optimal_fast_input(
    d: float,
    grid: TimeGrid,
    space_grid: SpaceGrid | None = None,
) -> FastInputResult:
    """The unique input mode that fast storage maps onto the optimal spin wave.

    Built as the time reverse of the free emission from the optimal
    retrieval mode, renormalized to unit energy.
    """
    s_opt, _ = optimal_spin_wave(d, space_grid)
    emission = retrieve_fast(s_opt, d, grid)
    reversed_mode = time_reverse(emission)
    n2 = reversed_mode.norm2()
    if n2 <= 0:
        raise ValueError("empty emission; grid too short")
    return FastInputResult(
        mode=FieldMode(grid=grid, samples=reversed_mode.samples / math.sqrt(n2)),
        raw_norm2=n2,
    )
