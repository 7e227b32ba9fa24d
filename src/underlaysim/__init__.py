"""Underlay spectrum sharing under imperfect channel knowledge.

Analytic performance of a secondary link that must learn how strongly it
interferes with a primary receiver before it may transmit: estimator laws
and their gamma surrogates (dists), the outage-constrained power rule and
its operating regimes (power_control), the estimation-throughput tradeoff
(throughput), a trial-level Monte Carlo oracle (montecarlo), and a CLI for
figure data, sweeps, and validation (cli).
"""

__version__ = "0.1.0"

from .dists import (CapacityDist, GammaApprox, NakagamiGain, NcChiSq,
                    gamma_match)
from .power_control import (FadingLinks, PowerControlResult, Regime,
                            ScenarioParams, controlled_power_det,
                            controlled_power_fading, default_fading,
                            perf_bound)
from .specfun import BracketError, ConvergenceError
from .throughput import TradeoffCurve, optimize_tradeoff

__all__ = [
    "__version__",
    "BracketError",
    "CapacityDist",
    "ConvergenceError",
    "FadingLinks",
    "GammaApprox",
    "NakagamiGain",
    "NcChiSq",
    "PowerControlResult",
    "Regime",
    "ScenarioParams",
    "TradeoffCurve",
    "controlled_power_det",
    "controlled_power_fading",
    "default_fading",
    "gamma_match",
    "optimize_tradeoff",
    "perf_bound",
]
