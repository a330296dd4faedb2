"""Link catalog: standard decompositions of rank-one fibre spaces, the
numerical classification of links, and replayable mutation scripts.

`core` holds the fibre spaces and the classification, `scripts` the stored
cases and their replay; the mutation engine itself is `sodatlas.mutation`."""

from .core import (
    LinkDescriptor,
    MoriFibreSpace,
    birationally_rich,
    e_bundle_class,
    geiser_bertini_involution,
    opaque_block_for,
    orthogonal_span,
    standard_sod,
    validate_link,
)
from .scripts import LinkScript, catalog_ids, link_script, verify_link

__all__ = [
    "LinkDescriptor",
    "LinkScript",
    "MoriFibreSpace",
    "birationally_rich",
    "catalog_ids",
    "e_bundle_class",
    "geiser_bertini_involution",
    "link_script",
    "opaque_block_for",
    "orthogonal_span",
    "standard_sod",
    "validate_link",
    "verify_link",
]
