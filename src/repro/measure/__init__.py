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
from repro.lazy import lazy_exports

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

# The campaign simulators route over the topology (scipy); the inventory
# and delta-stream modules of this package are used by processes that never
# measure, so the simulators load on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "run_mercator": "repro.measure.mercator",
        "SkitterCampaign": "repro.measure.skitter",
        "choose_monitors": "repro.measure.skitter",
        "plan_campaign": "repro.measure.skitter",
        "run_skitter": "repro.measure.skitter",
    },
)
