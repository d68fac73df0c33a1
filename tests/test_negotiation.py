"""Group selection algebra and the advertisement/response elements."""

from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soapsim import crypto
from soapsim.crypto import (
    SeededRng,
    UnknownGroupError,
    ecdsa_generate,
    known_group_ids,
    point_from_x_octets,
    registry_lookup,
)
from soapsim.frames import MalformedFrameError, SoapIe, encode_soap_ie, parse_soap_ie
from soapsim.negotiation import (
    advertisement_ie,
    resolve_signer,
    select_group,
)

ALL_IDS = tuple(known_group_ids())


def subsets(ids):
    return chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1))


def oracle_select(ap_ids, client_ids):
    """Brute force: walk the intersection, track the best by (size, -id)."""
    best = None
    for gid in set(ap_ids) & set(client_ids):
        size = registry_lookup(gid).key_size_octets
        if best is None or (size, -gid) > (registry_lookup(best).key_size_octets, -best):
            best = gid
    return best


class TestSelectGroup:
    """The selection rule over every subset pair of the registry."""

    def test_exhaustive_against_oracle(self):
        pairs = 0
        for ap_ids in subsets(ALL_IDS):
            for client_ids in subsets(ALL_IDS):
                expected = oracle_select(ap_ids, client_ids)
                assert select_group(ap_ids, client_ids) == expected, (ap_ids, client_ids)
                pairs += 1
        assert pairs == 256

    def test_empty_intersection_falls_back(self):
        assert select_group((26,), (19,)) is None
        assert select_group((), ()) is None

    def test_prefers_largest_key_size(self):
        assert select_group((26, 19, 20), (19, 20)) == 20
        assert select_group(ALL_IDS, ALL_IDS) == 21

    def test_unknown_ids_ignored(self):
        assert select_group((26, 99), (26, 150)) == 26
        assert select_group((99,), (99,)) is None

    def test_order_irrelevant(self):
        assert select_group((21, 26), (26, 21)) == select_group((26, 21), (21, 26))

    @given(
        ap=st.lists(st.integers(min_value=0, max_value=255), max_size=10),
        client=st.lists(st.integers(min_value=0, max_value=255), max_size=10),
    )
    def test_selection_is_in_intersection(self, ap, client):
        group_id = select_group(ap, client)
        if group_id is not None:
            assert group_id in set(ap) & set(client) & set(ALL_IDS)
        else:
            assert not (set(ap) & set(client) & set(ALL_IDS))


class TestElements:
    """Advertisements, responses, and signer recovery from the key field."""

    def signer(self, gid=26, seed=b"neg"):
        return ecdsa_generate(registry_lookup(gid), SeededRng(seed))

    def test_advertisement_sorts_and_dedups(self):
        ie = advertisement_ie(self.signer(), (26, 19, 26, 21))
        assert ie.group_ids == (19, 21, 26)

    def test_advertisement_rejects_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            advertisement_ie(self.signer(), (26, 99))

    def test_advertisement_rejects_empty(self):
        with pytest.raises(ValueError):
            advertisement_ie(self.signer(), ())

    def test_response_single_group(self):
        ie = advertisement_ie(self.signer(), (26,))
        assert ie.group_ids == (26,)

    def test_resolver_recovers_signer(self):
        for gid in ALL_IDS:
            key = self.signer(gid, b"resolve-%d" % gid)
            group, point = resolve_signer(advertisement_ie(key, (gid,)))
            assert group.group_id == gid
            assert point == key.public_point

    def test_resolver_uses_key_width_not_group_list(self):
        # a P-256 signing key may advertise P-224 support
        key = self.signer(19, b"mixed")
        group, point = resolve_signer(advertisement_ie(key, (26, 19)))
        assert group.group_id == 19
        assert point == key.public_point

    def test_unmapped_key_width_rejected(self):
        with pytest.raises(UnknownGroupError):
            resolve_signer(SoapIe((26,), bytes(30)))

    def test_off_curve_x_rejected(self):
        # find an x with no curve point by perturbing a valid key
        key = self.signer(26, b"offcurve")
        raw = bytearray(encode_soap_ie(advertisement_ie(key, (26,))))
        for attempt in range(256):
            raw[-1] = attempt
            try:
                resolve_signer(parse_soap_ie(bytes(raw)))
            except MalformedFrameError:
                return
        pytest.fail("every x decoded, which is statistically implausible")

    def test_element_survives_the_wire(self):
        key = self.signer(21, b"wire")
        ie = advertisement_ie(key, ALL_IDS)
        parsed = parse_soap_ie(encode_soap_ie(ie))
        group, point = resolve_signer(parsed)
        assert (group.group_id, point) == (21, key.public_point)


class TestSignerDecodeCache:
    """resolve_signer decodes each (curve, x octets) once; a bad x never sticks."""

    @pytest.fixture
    def decodes(self, monkeypatch, fresh_memos):
        """Every square root an x-only decode takes, from an empty decode memo."""
        roots = []
        root = crypto._mod_sqrt

        def counted(group, a):
            roots.append(a)
            return root(group, a)

        monkeypatch.setattr(crypto, "_mod_sqrt", counted)
        return roots

    def test_repeated_resolve_decodes_once(self, decodes):
        key = ecdsa_generate(registry_lookup(26), SeededRng(b"decode-once"))
        ie = advertisement_ie(key, (26,))
        for _ in range(3):
            group, point = resolve_signer(parse_soap_ie(encode_soap_ie(ie)))
            assert (group.group_id, point) == (26, key.public_point)
        assert len(decodes) == 1

    def test_bad_x_raises_every_time_and_is_not_cached(self, decodes):
        group = registry_lookup(26)
        x = 1
        while True:  # the least x with no curve point
            try:
                point_from_x_octets(group, x.to_bytes(group.key_size_octets, "big"))
            except ValueError:
                break
            x += 1
        cached = len(crypto._decode_memo)
        decodes.clear()
        ie = SoapIe((26,), x.to_bytes(group.key_size_octets, "big"))
        for _ in range(3):
            with pytest.raises(MalformedFrameError):
                resolve_signer(ie)
        assert len(decodes) == 3
        assert len(crypto._decode_memo) == cached
