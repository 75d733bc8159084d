"""Optimizer/scheduler layer strategies (middle layer of Fig. 3).

NewMadeleine applies "dynamic scheduling optimizations on multiple
communication flows such as reordering, aggregation, multirail
distribution" (§3.1, [2]). A strategy owns one gate's pending-send list
and decides, at flush time, how pending requests become wire packets.
"""

from typing import Any

from .aggreg import AggregationStrategy
from .base import PacketPlan, RailInfo, SendEntry, Strategy, stripe_by_bandwidth
from .default import DefaultStrategy
from .split import MultirailSplitStrategy

__all__ = [
    "Strategy",
    "PacketPlan",
    "RailInfo",
    "SendEntry",
    "stripe_by_bandwidth",
    "DefaultStrategy",
    "AggregationStrategy",
    "MultirailSplitStrategy",
    "make_strategy",
]


def make_strategy(name: str, **kwargs: Any) -> Strategy:
    """Factory: ``default``, ``aggreg``, ``split``."""
    table: dict[str, type[Strategy]] = {
        "default": DefaultStrategy,
        "aggreg": AggregationStrategy,
        "split": MultirailSplitStrategy,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(table)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:  # unknown keyword: a config error, not a bug
        raise ValueError(f"bad arguments for strategy {name!r}: {exc}") from None
