"""Ground-truth network model: the planted Internet under measurement.

Exports the AS record, IP/prefix utilities, the topology container,
and the population-driven ground-truth generator.
"""

from repro.net.addressing import AddressPlan, AsBlock
from repro.net.annotate import (
    BANDWIDTH_CLASSES_MBPS,
    LinkAnnotations,
    annotate_links,
    latency_matrix_sample,
    path_latency_ms,
)
from repro.net.elements import AutonomousSystem
from repro.net.generate import (
    GenerationReport,
    GroundTruthGenerator,
    generate_ground_truth,
)
from repro.net.hostnames import extract_city_code, make_hostname
from repro.net.ip import (
    ADDRESS_BITS,
    ADDRESS_SPACE,
    Prefix,
    check_address,
    format_address,
    is_private,
    parse_address,
    prefix_mask,
)
from repro.net.topology import Topology

__all__ = [
    "AddressPlan",
    "BANDWIDTH_CLASSES_MBPS",
    "LinkAnnotations",
    "annotate_links",
    "latency_matrix_sample",
    "path_latency_ms",
    "AsBlock",
    "AutonomousSystem",
    "GenerationReport",
    "GroundTruthGenerator",
    "generate_ground_truth",
    "extract_city_code",
    "make_hostname",
    "ADDRESS_BITS",
    "ADDRESS_SPACE",
    "Prefix",
    "check_address",
    "format_address",
    "is_private",
    "parse_address",
    "prefix_mask",
    "Topology",
]
