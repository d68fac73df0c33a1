"""Group negotiation: one builder of the element that carries a station's
signing key and its groups (an AP's full group list, or the one group a
client chose), and the rule that picks the strongest curve both stations
support or falls back to legacy WPA-PSK when they share none."""

from __future__ import annotations

from .crypto import (
    KeyPair,
    Point,
    UnknownGroupError,
    group_for_key_size,
    point_from_x_octets,
    point_x_octets,
    registry_lookup,
    strongest_group_id,
)
from .frames import MalformedFrameError, SoapIe


def select_group(ap_group_ids, client_group_ids) -> int | None:
    """The strongest common group id, or None (WPA-PSK fallback) when the two
    lists share no registered group.

    Ids absent from the local registry are ignored, never an error, so a
    station interoperates with peers advertising groups it does not know.
    """
    return strongest_group_id(set(ap_group_ids) & set(client_group_ids))


def advertisement_ie(signing_key: KeyPair, group_ids) -> SoapIe:
    """The element for `group_ids` plus the signing key: an AP advertises
    every group it supports, a client answers with the one it chose."""
    ids = sorted(set(group_ids))
    if not ids:
        raise ValueError("at least one group must be advertised")
    for gid in ids:
        registry_lookup(gid)  # raises UnknownGroupError on bad config
    return SoapIe(
        tuple(ids), point_x_octets(signing_key.group, signing_key.public_point)
    )


def resolve_signer(ie: SoapIe):
    """Recover (curve, public point) for the key carried in an element.

    The element's key-size octet identifies the signer's curve, since every
    registered curve has a distinct coordinate width.
    """
    group = group_for_key_size(ie.key_size_octets)
    if group is None:
        raise UnknownGroupError(
            f"no registered curve has {ie.key_size_octets}-octet coordinates"
        )
    try:
        point: Point = point_from_x_octets(group, ie.ecdsa_public_x)
    except ValueError as exc:
        raise MalformedFrameError(f"advertised key does not decode: {exc}") from None
    return group, point
