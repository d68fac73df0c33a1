"""The 4-Way Handshake, consuming the agreed PSK as its pairwise master key.

PTK = PRF-384(PMK, "Pairwise key expansion", min/max of the two MACs and the
two nonces), split KCK | KEK | TK at 16 octets each. Frame MICs are
HMAC-SHA1 over the serialized EAPOL-Key frame with a zeroed MIC field,
truncated to 16 octets. Message 3 carries a fixed 64-octet key-data
placeholder where a production frame would carry encrypted group-key data.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, replace
from enum import Enum

from .crypto import SeededRng
from .frames import (
    KEY_INFO_ACK,
    KEY_INFO_HMAC_SHA1_AES,
    KEY_INFO_INSTALL,
    KEY_INFO_MIC,
    KEY_INFO_PAIRWISE,
    KEY_INFO_SECURE,
    KEY_MIC_OCTETS,
    KEY_NONCE_OCTETS,
    EapolKeyFrame,
    encode_eapol_key_frame,
)

PTK_LABEL = b"Pairwise key expansion"
PTK_OCTETS = 48
KEY_DATA_M3 = bytes(64)

_BASE = KEY_INFO_HMAC_SHA1_AES | KEY_INFO_PAIRWISE
KEY_INFO_M1 = _BASE | KEY_INFO_ACK
KEY_INFO_M2 = _BASE | KEY_INFO_MIC
KEY_INFO_M3 = _BASE | KEY_INFO_ACK | KEY_INFO_MIC | KEY_INFO_INSTALL | KEY_INFO_SECURE
KEY_INFO_M4 = _BASE | KEY_INFO_MIC | KEY_INFO_SECURE


@dataclass(frozen=True)
class PairwiseKeys:
    kck: bytes
    kek: bytes
    tk: bytes


def prf384(key: bytes, label: bytes, data: bytes) -> bytes:
    out = b""
    counter = 0
    while len(out) < PTK_OCTETS:
        out += hmac.new(
            key, label + b"\x00" + data + struct.pack("B", counter), hashlib.sha1
        ).digest()
        counter += 1
    return out[:PTK_OCTETS]


def derive_ptk(
    pmk: bytes, ap_mac: bytes, client_mac: bytes, anonce: bytes, snonce: bytes
) -> PairwiseKeys:
    data = (
        min(ap_mac, client_mac)
        + max(ap_mac, client_mac)
        + min(anonce, snonce)
        + max(anonce, snonce)
    )
    ptk = prf384(pmk, PTK_LABEL, data)
    return PairwiseKeys(ptk[:16], ptk[16:32], ptk[32:48])


def compute_mic(kck: bytes, frame: EapolKeyFrame) -> bytes:
    zeroed = replace(frame, key_mic=bytes(KEY_MIC_OCTETS))
    digest = hmac.new(kck, encode_eapol_key_frame(zeroed), hashlib.sha1).digest()
    return digest[:KEY_MIC_OCTETS]


def _attach_mic(kck: bytes, frame: EapolKeyFrame) -> EapolKeyFrame:
    return replace(frame, key_mic=compute_mic(kck, frame))


def _mic_ok(kck: bytes, frame: EapolKeyFrame) -> bool:
    return hmac.compare_digest(frame.key_mic, compute_mic(kck, frame))


class FourwayState(Enum):
    IDLE = "idle"
    AWAIT_M2 = "await-m2"
    SENT_M2 = "sent-m2"
    AWAIT_M4 = "await-m4"
    ESTABLISHED = "established"
    FAILED = "failed"


class _End:
    """What both ends of the 4-Way Handshake hold: the PMK, the two MACs, a
    nonce stream, and the state, keys and failure reason so far."""

    state = FourwayState.IDLE
    fail_reason: str | None = None
    keys: PairwiseKeys | None = None

    def __init__(self, pmk: bytes, ap_mac: bytes, client_mac: bytes, rng: SeededRng):
        self.pmk = pmk
        self.ap_mac = bytes(ap_mac)
        self.client_mac = bytes(client_mac)
        self.rng = rng

    def _fail(self, reason: str):
        self.state = FourwayState.FAILED
        self.fail_reason = reason
        return None, reason


class Authenticator(_End):
    """AP side: sends Messages 1 and 3, verifies Messages 2 and 4."""

    anonce: bytes | None = None
    replay_counter = 0
    _last_frame: EapolKeyFrame | None = None

    def _send(self, frame: EapolKeyFrame) -> EapolKeyFrame:
        self.replay_counter += 1
        frame = replace(frame, replay_counter=self.replay_counter)
        if frame.has_mic:
            frame = _attach_mic(self.keys.kck, frame)
        self._last_frame = frame
        return frame

    def start(self) -> EapolKeyFrame:
        self.state = FourwayState.AWAIT_M2
        self.anonce = self.rng.randbytes(KEY_NONCE_OCTETS)
        return self._send(
            EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=self.anonce)
        )

    def retransmit(self) -> EapolKeyFrame | None:
        """Resend the outstanding frame under a fresh replay counter."""
        if self.state not in (FourwayState.AWAIT_M2, FourwayState.AWAIT_M4):
            return None
        return self._send(self._last_frame)

    def on_frame(self, frame: EapolKeyFrame):
        """Returns (reply frame or None, event)."""
        if frame.replay_counter != self.replay_counter:
            return None, "replay"
        if self.state is FourwayState.AWAIT_M2 and frame.key_info == KEY_INFO_M2:
            self.keys = derive_ptk(
                self.pmk, self.ap_mac, self.client_mac, self.anonce, frame.key_nonce
            )
            if not _mic_ok(self.keys.kck, frame):
                self.keys = None
                return self._fail("mic-mismatch")
            self.state = FourwayState.AWAIT_M4
            m3 = EapolKeyFrame(
                key_info=KEY_INFO_M3,
                replay_counter=0,
                key_nonce=self.anonce,
                key_data=KEY_DATA_M3,
            )
            return self._send(m3), "m2-verified"
        if self.state is FourwayState.AWAIT_M4 and frame.key_info == KEY_INFO_M4:
            if not _mic_ok(self.keys.kck, frame):
                return self._fail("mic-mismatch")
            self.state = FourwayState.ESTABLISHED
            return None, "established"
        return None, "unexpected"


class Supplicant(_End):
    """Client side: answers Message 1 with 2 and Message 3 with 4."""

    snonce: bytes | None = None
    last_rx_counter = 0

    def on_frame(self, frame: EapolKeyFrame):
        """Returns (reply frame or None, event)."""
        if frame.replay_counter <= self.last_rx_counter:
            return None, "replay"
        if frame.key_info == KEY_INFO_M1 and self.state in (
            FourwayState.IDLE,
            FourwayState.SENT_M2,
        ):
            self.last_rx_counter = frame.replay_counter
            if self.snonce is None:
                self.snonce = self.rng.randbytes(KEY_NONCE_OCTETS)
            self.keys = derive_ptk(
                self.pmk, self.ap_mac, self.client_mac, frame.key_nonce, self.snonce
            )
            self.state = FourwayState.SENT_M2
            m2 = EapolKeyFrame(
                key_info=KEY_INFO_M2,
                replay_counter=frame.replay_counter,
                key_nonce=self.snonce,
            )
            return _attach_mic(self.keys.kck, m2), "m1-accepted"
        if frame.key_info == KEY_INFO_M3 and self.state in (
            FourwayState.SENT_M2,
            FourwayState.ESTABLISHED,
        ):
            # Once Established, a resent Message 3 (its Message 4 was lost)
            # gets a fresh Message 4 under the installed keys: nothing is
            # derived or installed again (IEEE 802.11-2016 12.7.6.4; KRACK).
            resent = self.state is FourwayState.ESTABLISHED
            if not _mic_ok(self.keys.kck, frame):
                return (None, "unexpected") if resent else self._fail("mic-mismatch")
            self.last_rx_counter = frame.replay_counter
            self.state = FourwayState.ESTABLISHED
            m4 = EapolKeyFrame(
                key_info=KEY_INFO_M4,
                replay_counter=frame.replay_counter,
                key_nonce=bytes(KEY_NONCE_OCTETS),
            )
            return _attach_mic(self.keys.kck, m4), "m4-resent" if resent else "established"
        return None, "unexpected"


def run_fourway(auth: Authenticator, supp: Supplicant) -> list[EapolKeyFrame]:
    """Drive both machines over a lossless in-memory channel: Message 1, then
    each reply to the other side until one answers nothing. Returns the
    frames exchanged, in order."""
    frames = [auth.start()]
    receiver, sender = supp, auth
    while (reply := receiver.on_frame(frames[-1])[0]) is not None:
        frames.append(reply)
        receiver, sender = sender, receiver
    return frames
