"""Measurement simulators: Skitter and Mercator campaigns over ground truth."""

from repro.measure.alias import merge_members, resolve_aliases
from repro.measure.artifacts import (
    FilterReport,
    clean_inventory,
    discard_destinations,
    discard_private,
    drop_nodes,
)
from repro.measure.inventory import RawInventory
from repro.measure.mercator import run_mercator
from repro.measure.skitter import (
    SkitterCampaign,
    choose_monitors,
    plan_campaign,
    run_skitter,
)

__all__ = [
    "merge_members",
    "resolve_aliases",
    "FilterReport",
    "clean_inventory",
    "discard_destinations",
    "discard_private",
    "drop_nodes",
    "RawInventory",
    "run_mercator",
    "SkitterCampaign",
    "choose_monitors",
    "plan_campaign",
    "run_skitter",
]
