"""Session state machines for the authenticated ephemeral key agreement.

One client session tracks: advertisement seen, association, Message 1
verification, Message 2 emission. One AP session tracks the mirror image.
Both end in PskAgreed with a fresh 32-octet PSK, or Aborted.
``run_exchange`` drives one lossless exchange between two identities in
memory, from the advertisement through the 4-Way Handshake.

Authentication binds each signature to the session by default: the signed
payload covers a role tag, both MAC addresses, the negotiated group and an
8-octet session nonce along with the ephemeral public key. strict_frames
mode drops the nonce trailer and signs the raw public key only, matching
the minimal message layout at the cost of the cross-session replay check.
A strict session's nonce is None, as on the wire, and ``signed_payload`` is
the one place that rule is written; the message layouts live in ``frames``.
A peer's signing key is one (curve, point) pair, ``peer_signer``, resolved
from its element; a client's pinned AP key is such a pair, compared whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import negotiation
from .crypto import (
    EcGroup,
    KeyPair,
    Point,
    SeededRng,
    SharedPsk,
    ecdh_agree,
    ecdh_generate,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
    octets_to_point,
    point_to_octets,
    registry_lookup,
    strongest_group_id,
)
from .fourway import Authenticator, FourwayState, Supplicant, run_fourway
from .frames import SESSION_NONCE_OCTETS, EapolKeyFrame, SoapIe, SoapMessage

TAG_MESSAGE1 = b"\x01"
TAG_MESSAGE2 = b"\x02"


class Role(Enum):
    CLIENT = "client"
    AP = "ap"


class Phase(Enum):
    IDLE = "idle"
    ADVERTISEMENT_SEEN = "advertisement-seen"
    AWAIT_MSG1 = "await-msg1"
    AWAIT_MSG2 = "await-msg2"
    PSK_AGREED = "psk-agreed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class StationIdentity:
    """Long-lived station identity: MAC, supported groups, signing key.

    The signing key lives on the curve of the strongest supported group;
    the key-size octet in the advertisement tells peers which curve that is.
    """

    mac: bytes
    role: Role
    group_ids: tuple[int, ...]
    ecdsa: KeyPair


def make_identity(mac: bytes, role: Role, group_ids, rng: SeededRng) -> StationIdentity:
    ids = tuple(sorted(set(group_ids)))
    strongest = strongest_group_id(ids)
    if strongest is None:
        raise ValueError("identity requires at least one registered group")
    group = registry_lookup(strongest)
    return StationIdentity(bytes(mac), role, ids, ecdsa_generate(group, rng))


def signed_payload(
    tag: bytes,
    sender_mac: bytes,
    receiver_mac: bytes,
    group_id: int,
    session_nonce: bytes | None,
    ecdh_public: bytes,
) -> bytes:
    """The octets an agreement signature covers; with no session nonce
    (strict frames) the ephemeral public key alone."""
    if session_nonce is None:
        return ecdh_public
    return tag + sender_mac + receiver_mac + bytes([group_id]) + session_nonce + ecdh_public


@dataclass
class _SessionCore:
    identity: StationIdentity
    rng: SeededRng
    strict_frames: bool = False
    phase: Phase = Phase.IDLE
    abort_reason: str | None = None
    group: EcGroup | None = None
    peer_mac: bytes | None = None
    peer_signer: tuple[EcGroup, Point] | None = None
    psk: SharedPsk | None = None
    _ephemeral: KeyPair | None = field(default=None, repr=False)

    def abort(self, reason: str) -> None:
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        self._drop_ephemeral()

    def _drop_ephemeral(self) -> None:
        # The private scalar is never serialized; dropping the reference is
        # the zeroization this model supports.
        self._ephemeral = None

    def _verify_peer(self, tag: bytes, sender: bytes, receiver: bytes,
                     nonce: bytes | None, msg: SoapMessage) -> bool:
        assert self.group is not None and self.peer_signer is not None
        payload = signed_payload(
            tag, sender, receiver, self.group.group_id, nonce, msg.ecdh_public
        )
        return ecdsa_verify(*self.peer_signer, payload, msg.signature)

    def _sign_own(self, tag: bytes, receiver: bytes, nonce: bytes | None,
                  ecdh_public: bytes) -> bytes:
        assert self.group is not None
        payload = signed_payload(
            tag, self.identity.mac, receiver, self.group.group_id, nonce, ecdh_public
        )
        return ecdsa_sign(self.identity.ecdsa, payload)


class ClientSession(_SessionCore):
    """Client half: latch an advertisement, answer Message 1 with Message 2."""

    def __init__(
        self,
        identity: StationIdentity,
        rng: SeededRng,
        *,
        strict_frames: bool = False,
        pinned_ap_key: tuple[EcGroup, Point] | None = None,
        seen_nonces: set | None = None,
    ):
        super().__init__(identity, rng, strict_frames)
        self.pinned_ap_key = pinned_ap_key
        self.seen_nonces = seen_nonces if seen_nonces is not None else set()
        self.session_nonce: bytes | None = None

    def on_advertisement(self, ie: SoapIe, ap_mac: bytes):
        """Returns (response element or None, event)."""
        if self.phase is not Phase.IDLE:
            return None, "phase"
        try:
            signer = negotiation.resolve_signer(ie)
        except ValueError:
            return None, "bad-signer"
        if self.pinned_ap_key is not None and signer != self.pinned_ap_key:
            return None, "pinned-mismatch"
        group_id = negotiation.select_group(ie.group_ids, self.identity.group_ids)
        if group_id is None:
            return None, "fallback"
        self.group = registry_lookup(group_id)
        self.peer_mac = bytes(ap_mac)
        self.peer_signer = signer
        self.phase = Phase.ADVERTISEMENT_SEEN
        return negotiation.advertisement_ie(self.identity.ecdsa, (group_id,)), "respond"

    def mark_associated(self) -> None:
        if self.phase is Phase.ADVERTISEMENT_SEEN:
            self.phase = Phase.AWAIT_MSG1

    def on_message1(self, msg: SoapMessage, src_mac: bytes):
        """Returns (Message 2 or None, event)."""
        if self.phase is not Phase.AWAIT_MSG1:
            return None, "duplicate" if self.phase is Phase.PSK_AGREED else "phase"
        if src_mac != self.peer_mac:
            return None, "phase"
        if self.strict_frames:
            nonce = None
        else:
            if msg.session_nonce is None or len(msg.session_nonce) != SESSION_NONCE_OCTETS:
                return None, "malformed"
            if msg.session_nonce in self.seen_nonces:
                return None, "replay"
            nonce = msg.session_nonce
        if not self._verify_peer(TAG_MESSAGE1, src_mac, self.identity.mac, nonce, msg):
            return None, "signature"
        try:
            peer_public = octets_to_point(self.group, msg.ecdh_public)
        except ValueError:
            return None, "point"
        if nonce is not None:
            self.seen_nonces.add(nonce)
        self.session_nonce = nonce
        self._ephemeral = ecdh_generate(self.group, self.rng)
        own_public = point_to_octets(self.group, self._ephemeral.public_point)
        self.psk = ecdh_agree(self._ephemeral, peer_public)
        signature = self._sign_own(TAG_MESSAGE2, self.peer_mac, nonce, own_public)
        self._drop_ephemeral()
        self.phase = Phase.PSK_AGREED
        return SoapMessage(own_public, signature, nonce), "agreed"


class ApSession(_SessionCore):
    """AP half: accept the client's element, send Message 1, verify Message 2."""

    def __init__(
        self,
        identity: StationIdentity,
        rng: SeededRng,
        client_mac: bytes,
        *,
        strict_frames: bool = False,
    ):
        super().__init__(identity, rng, strict_frames)
        self.peer_mac = bytes(client_mac)
        self.session_nonce: bytes | None = None
        self.claimed_group_id: int | None = None

    def on_response_element(self, ie: SoapIe) -> str:
        """Take the client's element, once, on a new session."""
        if ie.group_count != 1:
            return "malformed"
        try:
            self.peer_signer = negotiation.resolve_signer(ie)
        except ValueError:
            return "bad-signer"
        self.claimed_group_id = ie.group_ids[0]
        return "ok"

    def build_message1(self) -> SoapMessage | None:
        """Sign and emit the AP's ephemeral key, once, after an "ok" from
        `on_response_element`; None when the session aborts."""
        if self.claimed_group_id not in self.identity.group_ids:
            self.abort("group-not-offered")
            return None
        self.group = registry_lookup(self.claimed_group_id)
        if not self.strict_frames:
            self.session_nonce = self.rng.randbytes(SESSION_NONCE_OCTETS)
        self._ephemeral = ecdh_generate(self.group, self.rng)
        own_public = point_to_octets(self.group, self._ephemeral.public_point)
        signature = self._sign_own(
            TAG_MESSAGE1, self.peer_mac, self.session_nonce, own_public
        )
        self.phase = Phase.AWAIT_MSG2
        return SoapMessage(own_public, signature, self.session_nonce)

    def on_message2(self, msg: SoapMessage, src_mac: bytes) -> str:
        if self.phase is Phase.PSK_AGREED:
            return "duplicate"
        if self.phase is not Phase.AWAIT_MSG2 or src_mac != self.peer_mac:
            return "phase"
        if not self.strict_frames and msg.session_nonce != self.session_nonce:
            # A replayed or cross-session message carries the wrong echo;
            # the signature check would fail regardless.
            return "replay"
        if not self._verify_peer(
            TAG_MESSAGE2, src_mac, self.identity.mac, self.session_nonce, msg
        ):
            return "signature"
        try:
            peer_public = octets_to_point(self.group, msg.ecdh_public)
        except ValueError:
            return "point"
        self.psk = ecdh_agree(self._ephemeral, peer_public)
        self._drop_ephemeral()
        self.phase = Phase.PSK_AGREED
        return "agreed"


@dataclass(frozen=True)
class Exchange:
    """One completed exchange: both sessions, both 4-Way machines and every
    frame in the order it was sent."""

    ap: ApSession
    client: ClientSession
    authenticator: Authenticator
    supplicant: Supplicant
    advertisement: SoapIe
    response: SoapIe
    message1: SoapMessage
    message2: SoapMessage
    key_frames: tuple[EapolKeyFrame, ...]


def _expect(step: str, event: str | None, wanted: str) -> None:
    if event != wanted:
        raise ValueError(f"{step} failed: {event}")


def run_exchange(
    ap_id: StationIdentity,
    cl_id: StationIdentity,
    rng: SeededRng,
    *,
    strict_frames: bool = False,
) -> Exchange:
    """Run one lossless agreement plus 4-Way Handshake in memory.

    The AP advertises every group of its identity. Raises ValueError naming
    the step and its event when a step does not succeed."""
    adv = negotiation.advertisement_ie(ap_id.ecdsa, ap_id.group_ids)
    client = ClientSession(cl_id, rng.child(b"client"), strict_frames=strict_frames)
    response, event = client.on_advertisement(adv, ap_id.mac)
    _expect("advertisement", event, "respond")
    client.mark_associated()

    ap = ApSession(ap_id, rng.child(b"ap"), cl_id.mac, strict_frames=strict_frames)
    _expect("response element", ap.on_response_element(response), "ok")
    msg1 = ap.build_message1()
    if msg1 is None:
        raise ValueError(f"message 1 failed: {ap.abort_reason}")
    msg2, event = client.on_message1(msg1, ap_id.mac)
    _expect("message 1", event, "agreed")
    _expect("message 2", ap.on_message2(msg2, cl_id.mac), "agreed")

    auth = Authenticator(bytes(ap.psk), ap_id.mac, cl_id.mac, rng.child(b"auth"))
    supp = Supplicant(bytes(client.psk), ap_id.mac, cl_id.mac, rng.child(b"supp"))
    key_frames = tuple(run_fourway(auth, supp))
    # The authenticator establishes last, on the supplicant's Message 4.
    if auth.state is not FourwayState.ESTABLISHED:
        raise ValueError(f"4-Way Handshake failed: {auth.fail_reason or supp.fail_reason}")
    return Exchange(ap, client, auth, supp, adv, response, msg1, msg2, key_frames)
