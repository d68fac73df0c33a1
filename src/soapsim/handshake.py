"""Session state machines for the authenticated ephemeral key agreement.

One client session tracks: advertisement seen, association, Message 1
verification, Message 2 emission. One AP session tracks the mirror image.
Both end in PskAgreed with a fresh 32-octet PSK, or Aborted.
``run_exchange`` drives one lossless exchange between two identities in
memory, from the advertisement through the 4-Way Handshake.

Authentication binds each signature to the session by default: the signed
payload covers a role tag, both MAC addresses, the negotiated group and an
8-octet session nonce along with the ephemeral public key. strict_frames mode
drops the nonce trailer and signs the raw public key only, matching the minimal
message layout at the cost of the cross-session replay check. A strict
session's nonce is None, as on the wire. ``signed_payload`` is the one rule for
what a signature covers and ``signed_message`` the one builder of a signed
message, for both roles and the simulated MITM; the layouts live in ``frames``.
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


def signed_message(
    key: KeyPair, group: EcGroup, rng: SeededRng, tag: bytes,
    sender_mac: bytes, receiver_mac: bytes, session_nonce: bytes | None,
) -> tuple[KeyPair, SoapMessage]:
    """Draw an ephemeral on `group` from `rng` and sign its public key under
    `key`: the ephemeral and the agreement message that carries it."""
    ephemeral = ecdh_generate(group, rng)
    public = point_to_octets(group, ephemeral.public_point)
    payload = signed_payload(
        tag, sender_mac, receiver_mac, group.group_id, session_nonce, public
    )
    return ephemeral, SoapMessage(public, ecdsa_sign(key, payload), session_nonce)


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
    session_nonce: bytes | None = None
    # The private scalar is never serialized; dropping the reference is the
    # zeroization this model supports.
    _ephemeral: KeyPair | None = field(default=None, repr=False)

    def abort(self, reason: str) -> None:
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        self._ephemeral = None

    def _checked_point(self, tag: bytes, nonce: bytes | None, msg: SoapMessage):
        """The peer's verified and decoded ECDH point, or "signature" or "point"."""
        payload = signed_payload(tag, self.peer_mac, self.identity.mac, self.group.group_id,
                                 nonce, msg.ecdh_public)
        if not ecdsa_verify(*self.peer_signer, payload, msg.signature):
            return "signature"
        try:
            return octets_to_point(self.group, msg.ecdh_public)
        except ValueError:
            return "point"

    def _agree(self, peer_public: Point) -> None:
        self.psk = ecdh_agree(self._ephemeral, peer_public)
        self._ephemeral = None
        self.phase = Phase.PSK_AGREED


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
        peer_public = self._checked_point(TAG_MESSAGE1, nonce, msg)
        if isinstance(peer_public, str):
            return None, peer_public
        if nonce is not None:
            self.seen_nonces.add(nonce)
        self.session_nonce = nonce
        self._ephemeral, reply = signed_message(
            self.identity.ecdsa, self.group, self.rng, TAG_MESSAGE2,
            self.identity.mac, self.peer_mac, nonce,
        )
        self._agree(peer_public)
        return reply, "agreed"


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
        self._ephemeral, msg = signed_message(
            self.identity.ecdsa, self.group, self.rng, TAG_MESSAGE1,
            self.identity.mac, self.peer_mac, self.session_nonce,
        )
        self.phase = Phase.AWAIT_MSG2
        return msg

    def on_message2(self, msg: SoapMessage, src_mac: bytes) -> str:
        if self.phase is Phase.PSK_AGREED:
            return "duplicate"
        if self.phase is not Phase.AWAIT_MSG2 or src_mac != self.peer_mac:
            return "phase"
        if not self.strict_frames and msg.session_nonce != self.session_nonce:
            # A replayed or cross-session message carries the wrong echo;
            # the signature check would fail regardless.
            return "replay"
        peer_public = self._checked_point(TAG_MESSAGE2, self.session_nonce, msg)
        if isinstance(peer_public, str):
            return peer_public
        self._agree(peer_public)
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
    assert msg1 is not None, "the client's group comes from the AP's advertisement"
    msg2, event = client.on_message1(msg1, ap_id.mac)
    _expect("message 1", event, "agreed")
    _expect("message 2", ap.on_message2(msg2, cl_id.mac), "agreed")

    auth = Authenticator(bytes(ap.psk), ap_id.mac, cl_id.mac, rng.child(b"auth"))
    supp = Supplicant(bytes(client.psk), ap_id.mac, cl_id.mac, rng.child(b"supp"))
    key_frames = tuple(run_fourway(auth, supp))
    # The authenticator establishes last, on the supplicant's Message 4.
    assert auth.state is FourwayState.ESTABLISHED, "both ends hold the agreed PSK"
    return Exchange(ap, client, auth, supp, adv, response, msg1, msg2, key_frames)
