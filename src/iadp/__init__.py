"""Incremental adaptive dynamic programming: a model-free robust optimal
regulator built from time-delay-estimated incremental dynamics and a
single-critic HJB approximator, with model-based baselines and a pendulum
benchmark harness."""

__version__ = "0.1.0"

from .critic import BasisSet, CostConfig
from .plant import ControlAffinePlant, DisturbanceSignal, EventSchedule, NoiseSpec
from .scenarios import run_scenario
from .sim import SimConfig, TrajectoryLog, run_episode

__all__ = [
    "BasisSet", "ControlAffinePlant", "CostConfig", "DisturbanceSignal",
    "EventSchedule", "NoiseSpec", "SimConfig", "TrajectoryLog",
    "run_episode", "run_scenario", "__version__",
]
