"""Gossip-based dominant-value voting: simulator, observer metrics, forecast replay."""

import importlib

# Each public name and the module that defines it, the one list of public
# names (__all__ is its sorted copy). Names load on first use (PEP 562), so a
# command imports only the modules it runs. No command loads numpy; only
# SimState.snapshot does.
_EXPORTS = {
    "engine": ("SimState", "TickEvents", "Trajectory", "run", "step"),
    "forecast": (
        "VARIANTS", "Comparison", "DatasetError", "EvalReport", "ForecastDataset",
        "GossipParams", "VariantSpec", "evaluate", "load_dataset",
    ),
    "metrics": (
        "Observation", "convergence_tick", "dissent_change_rate", "live_change_rate",
        "observe", "steady_change_rate",
    ),
    "model": ("ConfigError", "FriendGraph", "SimConfig", "make_friend_graph"),
    "scenario": (
        "Scenario", "load_scenario", "parse_grid", "simulate_scenario", "sweep_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so the package always hands out what its module holds now
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
