"""Request-rate helpers shared by the simulation engines.

The virtual client's page draws and steady-state coins are buffered by
:class:`~repro.client.virtual.VirtualClient` itself, which applies cache
absorption to each buffer as it is drawn.
"""

from __future__ import annotations

__all__ = ["think_time_rate"]


def think_time_rate(mc_think_time: float, think_time_ratio: float) -> float:
    """Virtual-client request rate in requests per broadcast unit.

    The VC draws think times from an exponential distribution with mean
    ``MCThinkTime / ThinkTimeRatio`` (Section 3.1), i.e. it is a Poisson
    request source of this rate.
    """
    if mc_think_time <= 0:
        raise ValueError("mc_think_time must be positive")
    if think_time_ratio <= 0:
        raise ValueError("think_time_ratio must be positive")
    return think_time_ratio / mc_think_time
