"""Group registry, curve arithmetic, ECDH, and deterministic ECDSA."""

import hashlib
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_ec import affine_add, affine_mul
from soapsim import crypto
from soapsim.crypto import (
    COMB_BLOCKS,
    COMB_TEETH,
    DEFAULT_GROUP_ID,
    KEY_MEMO_ENTRIES,
    PSK_OCTETS,
    REGISTRY,
    InvalidPointError,
    KeyPair,
    SeededRng,
    SharedPsk,
    UnknownGroupError,
    ecdh_agree,
    ecdh_generate,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
    group_for_key_size,
    is_on_curve,
    known_group_ids,
    octets_to_point,
    point_from_x_octets,
    point_mul,
    point_to_octets,
    point_x_octets,
    registry_lookup,
    scalar_to_octets,
    strongest_group_id,
)

ALL_GROUPS = [registry_lookup(gid) for gid in known_group_ids()]


def oracle_mul(group, k, point=None):
    base = point if point is not None else (group.gen_x, group.gen_y)
    return affine_mul(group.field_p, group.curve_a, k, base)


def message_scalar(group, message):
    """ECDSA's e: SHA-256 of the message, cut to the order's length, mod n."""
    n = group.order_n
    e = int.from_bytes(hashlib.sha256(message).digest(), "big")
    return (e >> max(0, 256 - n.bit_length())) % n


def oracle_verify(group, public, e, r, s):
    """ECDSA's final check, computed with the affine oracle alone."""
    n = group.order_n
    w = pow(s, -1, n)
    total = affine_add(
        group.field_p,
        group.curve_a,
        oracle_mul(group, e * w % n),
        oracle_mul(group, r * w % n, public),
    )
    return total is not None and total[0] % n == r


class TestRegistry:
    """The four registered groups and their lookup rules."""

    def test_known_ids(self):
        assert set(known_group_ids()) == {19, 20, 21, 26}

    def test_default_group(self):
        assert DEFAULT_GROUP_ID == 26
        assert registry_lookup(26).key_size_octets == 28

    def test_key_sizes(self):
        sizes = {g.group_id: g.key_size_octets for g in ALL_GROUPS}
        assert sizes == {26: 28, 19: 32, 20: 48, 21: 66}

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownGroupError):
            registry_lookup(99)

    def test_group_for_key_size_inverts_registry(self):
        for group in ALL_GROUPS:
            assert group_for_key_size(group.key_size_octets) is group

    def test_strongest_prefers_largest_key(self):
        assert strongest_group_id([26, 19]) == 19
        assert strongest_group_id([19, 20, 21, 26]) == 21
        assert strongest_group_id([]) is None

    def test_generator_on_curve(self):
        for group in ALL_GROUPS:
            assert is_on_curve(group, (group.gen_x, group.gen_y))

    def test_group_order_annihilates_generator(self):
        # n * G must be the identity on every registered curve
        for group in ALL_GROUPS:
            assert point_mul(group, group.order_n) is None

    def test_curve_a_is_minus_three(self):
        for group in ALL_GROUPS:
            assert group.curve_a == group.field_p - 3

    def test_registry_matches_openssl_curves(self):
        cryptography = pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.asymmetric import ec

        for gid, curve in OPENSSL_CURVES.items():
            group = registry_lookup(gid)
            key = ec.generate_private_key(getattr(ec, curve)())
            numbers = key.public_key().public_numbers()
            assert is_on_curve(group, (numbers.x, numbers.y))


def block_columns(group):
    """d, the bits between comb teeth, and e, the columns in each block of k*G."""
    return group._comb_geometry


def edge_scalars(group):
    n = group.order_n
    d, e = block_columns(group)
    return (
        [1, 2, 3, n - 2, n - 1]
        + [n, n + 1, 2 * n + 3]  # reduced mod n
        # just below and at each comb column boundary 2^(i*d)
        + [v for i in range(1, COMB_TEETH) for v in ((1 << (i * d)) - 1, 1 << (i * d))]
        + [(1 << n.bit_length()) - 1]  # all ones
        # just below and at each block's lowest column, and every block's teeth
        + [v for b in range(1, COMB_BLOCKS) for v in ((1 << (b * e)) - 1, 1 << (b * e))]
        + [1 << (i * d + b * e) for i in range(COMB_TEETH) for b in range(COMB_BLOCKS)]
    )


def block_mask(group, b):
    """The bits of block b's columns in every row of the comb."""
    d, e = block_columns(group)
    columns = range(b * e, min((b + 1) * e, d))
    return sum(1 << (i * d + c) for i in range(COMB_TEETH) for c in columns)


OPENSSL_CURVES = {26: "SECP224R1", 19: "SECP256R1", 20: "SECP384R1", 21: "SECP521R1"}


class TestPointArithmetic:
    """Comb (k*G) and wNAF (k*P) against the affine textbook oracle."""

    def test_scalar_mult_matches_oracle(self):
        for group in ALL_GROUPS:
            rng = SeededRng(b"mult-oracle", group.name.encode())
            for _ in range(10):
                k = rng.uniform_scalar(group)
                assert point_mul(group, k) == oracle_mul(group, k)

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_edge_scalars_match_oracle(self, gid):
        group = registry_lookup(gid)
        rng = SeededRng(b"edge-oracle", group.name.encode())
        point = point_mul(group, rng.uniform_scalar(group))
        for k in edge_scalars(group):
            expected = oracle_mul(group, k)
            assert point_mul(group, k) == expected, k
            assert point_mul(group, k, group.generator) == expected, k
            assert point_mul(group, k, point) == oracle_mul(group, k, point), k

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_block_scalars_match_oracle(self, gid):
        # a scalar with one block's columns all zero, and one with only them set
        group = registry_lookup(gid)
        rng = SeededRng(b"block-oracle", group.name.encode())
        for b in range(COMB_BLOCKS):
            mask = block_mask(group, b)
            k = rng.uniform_scalar(group)
            for scalar in (k & ~mask, k & mask, mask % group.order_n):
                assert point_mul(group, scalar) == oracle_mul(group, scalar), (b, scalar)
            # a signed comb adds in every column, the zero block's included
            assert all(crypto._comb_pairs(group, group._comb, k & ~mask)[b][1])

    def test_block_lengths(self):
        # (d, e) per curve; P-521's 66 columns leave its top block 15
        for gid, (d, e) in {26: (28, 7), 19: (32, 8), 20: (48, 12), 21: (66, 17)}.items():
            group = registry_lookup(gid)
            assert block_columns(group) == (d, e)
            pairs = crypto._comb_pairs(group, group._comb, group.order_n - 1)
            assert [len(digits) for _, digits in pairs] == [e, e, e, d - 3 * e]

    def test_p521_short_top_block_matches_oracle(self):
        group = registry_lookup(21)
        d, e = block_columns(group)
        top = block_mask(group, COMB_BLOCKS - 1) & ((1 << 520) - 1)  # below n
        rng = SeededRng(b"short-top-block")
        # the block's lowest column alone, its highest alone, all of it, and random
        lowest = sum(1 << (i * d + 3 * e) for i in range(COMB_TEETH)) & top
        highest = sum(1 << (i * d + d - 1) for i in range(COMB_TEETH)) & top
        for k in (lowest, highest, top, rng.uniform_scalar(group) & top, 1 << (d - 1)):
            assert point_mul(group, k) == oracle_mul(group, k), k

    def test_base_multiples_match_openssl(self):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.asymmetric import ec

        for gid, curve in OPENSSL_CURVES.items():
            group = registry_lookup(gid)
            n = group.order_n
            rng = SeededRng(b"openssl-base", group.name.encode())
            scalars = [rng.uniform_scalar(group) for _ in range(8)]
            scalars += [block_mask(group, b) % n for b in range(COMB_BLOCKS)]
            scalars += [k % n for k in edge_scalars(group) if k % n]
            for k in scalars:
                public = ec.derive_private_key(k, getattr(ec, curve)()).public_key()
                numbers = public.public_numbers()
                assert point_mul(group, k) == (numbers.x, numbers.y), k

    def test_doubling_off_identity(self):
        group = registry_lookup(26)
        g = (group.gen_x, group.gen_y)
        assert point_mul(group, 2) == affine_add(group.field_p, group.curve_a, g, g)

    @settings(max_examples=15)
    @given(st.integers(min_value=1, max_value=2**200), st.integers(min_value=1, max_value=2**200))
    def test_scalar_mult_is_homomorphic(self, k1, k2):
        group = registry_lookup(26)
        n = group.order_n
        point = point_mul(group, 0xC0FFEE)
        for base in (None, point):
            lhs = point_mul(group, (k1 + k2) % n, base)
            rhs = affine_add(
                group.field_p,
                group.curve_a,
                point_mul(group, k1 % n, base),
                point_mul(group, k2 % n, base),
            )
            assert lhs == rhs

    def test_off_curve_point_detected(self):
        group = registry_lookup(26)
        assert not is_on_curve(group, (group.gen_x, group.gen_y + 1))

    def test_identity_on_curve_and_unreduced_coordinates_off_it(self):
        group = registry_lookup(26)
        assert is_on_curve(group, None)
        # congruent to the generator, but no field element
        assert not is_on_curve(group, (group.gen_x + group.field_p, group.gen_y))


class TestEncodings:
    """Fixed-width scalar and point codecs."""

    def test_scalar_round_trip_all_widths(self):
        for group in ALL_GROUPS:
            value = group.order_n - 12345
            raw = scalar_to_octets(group, value)
            assert len(raw) == group.key_size_octets
            assert int.from_bytes(raw, "big") == value

    def test_point_round_trip(self):
        for group in ALL_GROUPS:
            point = point_mul(group, 7)
            raw = point_to_octets(group, point)
            assert len(raw) == 2 * group.key_size_octets
            assert octets_to_point(group, raw) == point

    def test_x_only_round_trip_even_y(self):
        for group in ALL_GROUPS:
            rng = SeededRng(b"xonly", group.name.encode())
            key = ecdsa_generate(group, rng)
            raw = point_x_octets(group, key.public_point)
            assert len(raw) == group.key_size_octets
            assert point_from_x_octets(group, raw) == key.public_point

    def test_x_only_recovery_flips_odd_y(self):
        # an odd-y point decodes to its even-y mirror, by construction
        group = registry_lookup(19)
        point = point_mul(group, 11)
        recovered = point_from_x_octets(group, point_x_octets(group, point))
        assert recovered[0] == point[0]
        assert recovered[1] % 2 == 0
        assert recovered[1] in (point[1], group.field_p - point[1])

    def test_tonelli_shanks_square_root_path(self):
        # P-224 has p % 4 == 1, forcing the general square-root branch
        group = registry_lookup(26)
        assert group.field_p % 4 == 1
        for k in range(1, 12):
            point = point_mul(group, k)
            assert point_from_x_octets(group, point_x_octets(group, point))[0] == point[0]

    def test_wrong_width_and_out_of_range_x_rejected(self):
        group = registry_lookup(26)
        with pytest.raises(InvalidPointError, match="expected 56 octets, got 55"):
            octets_to_point(group, bytes(55))
        with pytest.raises(InvalidPointError, match="expected 28 octets, got 29"):
            point_from_x_octets(group, bytes(29))
        with pytest.raises(InvalidPointError, match="x coordinate out of field range"):
            point_from_x_octets(group, b"\xff" * 28)

    def test_x_without_curve_point_rejected(self):
        # every curve: Tonelli-Shanks finds a non-residue has no root
        for group in ALL_GROUPS:
            p = group.field_p
            rng = SeededRng(b"bad-x", group.name.encode())
            for _ in range(64):
                x = int.from_bytes(rng.randbytes(group.key_size_octets), "big") % p
                rhs = (pow(x, 3, p) + group.curve_a * x + group.curve_b) % p
                if pow(rhs, (p - 1) // 2, p) == p - 1:
                    with pytest.raises(InvalidPointError):
                        point_from_x_octets(group, scalar_to_octets(group, x))
                    break
            else:
                pytest.fail(f"never sampled a non-residue x on {group.name}")


class TestModSqrt:
    """Tonelli-Shanks on every curve: a root of each residue, None for each
    non-residue, as Euler's criterion decides."""

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**530) | st.integers(min_value=0, max_value=64))
    def test_a_root_of_each_residue_and_none_otherwise(self, gid, a):
        group = registry_lookup(gid)
        p = group.field_p
        root = crypto._mod_sqrt(group, a)
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert root is None
        else:
            assert 0 <= root < p and root * root % p == a % p


class TestSeededRng:
    """Deterministic byte stream with independent children."""

    def test_same_seed_same_stream(self):
        assert SeededRng(5, b"x").randbytes(64) == SeededRng(5, b"x").randbytes(64)

    def test_label_changes_stream(self):
        assert SeededRng(5, b"x").randbytes(32) != SeededRng(5, b"y").randbytes(32)

    def test_children_are_independent_of_parent_draws(self):
        a = SeededRng(5)
        a.randbytes(100)
        b = SeededRng(5)
        assert a.child(b"later").randbytes(16) == b.child(b"later").randbytes(16)

    def test_uniform_scalar_in_range(self):
        group = registry_lookup(21)
        rng = SeededRng(b"scalar-range")
        for _ in range(50):
            k = rng.uniform_scalar(group)
            assert 1 <= k < group.order_n

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=128))
    def test_randbytes_length(self, seed, n):
        assert len(SeededRng(seed).randbytes(n)) == n

    @given(st.integers(min_value=-(2**200), max_value=2**200))
    def test_every_int_seed_is_a_stream(self, seed):
        # a seed in [0, 2^128) keys the stream by its 16 octets, which pinned
        # transcripts depend on; a negative one, or one of 2^128 or more, by
        # its decimal text zero-padded to at least 17 octets, never 16
        if 0 <= seed < 2**128:
            raw = seed.to_bytes(16, "big")
        else:
            raw = b"%017d" % seed
            assert len(raw) >= 17 and int(raw) == seed
        assert SeededRng(seed, b"x").randbytes(40) == SeededRng(raw, b"x").randbytes(40)

    def test_negative_seed_and_its_text_as_octets_are_distinct_streams(self):
        text = b"-123456789012345"
        assert len(text) == 16
        negative = SeededRng(-123456789012345).randbytes(32)
        assert negative != SeededRng(int.from_bytes(text, "big")).randbytes(32)

    @given(st.integers(), st.integers())
    @example(-123456789012345, int.from_bytes(b"-123456789012345", "big"))
    @example(-(2**128), 2**128)
    def test_distinct_int_seeds_are_distinct_streams(self, a, b):
        assume(a != b)
        assert SeededRng(a).randbytes(16) != SeededRng(b).randbytes(16)

    def test_seeds_around_2_128_are_distinct_streams(self):
        seeds = [2**128 - 1, 2**128, 2**128 + 1, 2**200, -(2**128)]
        streams = {SeededRng(seed).randbytes(16) for seed in seeds}
        assert len(streams) == len(seeds)


class TestEcdh:
    """Ephemeral agreement and the derived 32-octet secret."""

    def test_shared_secret_symmetry(self):
        for group in ALL_GROUPS:
            rng = SeededRng(b"ecdh", group.name.encode())
            a = ecdh_generate(group, rng.child(b"a"))
            b = ecdh_generate(group, rng.child(b"b"))
            psk_ab = ecdh_agree(a, b.public_point)
            psk_ba = ecdh_agree(b, a.public_point)
            assert psk_ab == psk_ba
            assert len(psk_ab) == PSK_OCTETS

    def test_shared_secret_matches_oracle(self):
        # independent route: affine multiply, then hash the x coordinate
        for group in ALL_GROUPS:
            rng = SeededRng(b"ecdh-oracle", group.name.encode())
            a = ecdh_generate(group, rng.child(b"a"))
            b = ecdh_generate(group, rng.child(b"b"))
            shared = oracle_mul(group, a.private_scalar, b.public_point)
            expected = hashlib.sha256(
                shared[0].to_bytes(group.key_size_octets, "big")
            ).digest()
            assert bytes(ecdh_agree(a, b.public_point)) == expected

    def test_hundred_sessions_all_distinct(self):
        group = registry_lookup(26)
        rng = SeededRng(b"ephemerality")
        fixed = ecdh_generate(group, rng.child(b"fixed"))
        secrets = set()
        for i in range(100):
            other = ecdh_generate(group, rng.child(b"session-%d" % i))
            secrets.add(bytes(ecdh_agree(fixed, other.public_point)))
        assert len(secrets) == 100

    def test_off_curve_peer_rejected(self):
        group = registry_lookup(26)
        rng = SeededRng(b"offcurve")
        own = ecdh_generate(group, rng)
        with pytest.raises(InvalidPointError):
            ecdh_agree(own, (group.gen_x, group.gen_y + 1))

    def test_shared_psk_width_enforced(self):
        with pytest.raises(ValueError):
            SharedPsk(b"\x00" * 31)

    def test_agreement_matches_openssl(self):
        cryptography = pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.asymmetric import ec

        group = registry_lookup(19)
        rng = SeededRng(b"x-check")
        ours = ecdh_generate(group, rng)
        theirs = ec.generate_private_key(ec.SECP256R1())
        their_pub = theirs.public_key().public_numbers()
        shared_ours = ecdh_agree(ours, (their_pub.x, their_pub.y))

        our_pub = ec.EllipticCurvePublicNumbers(
            ours.public_point[0], ours.public_point[1], ec.SECP256R1()
        ).public_key()
        raw = theirs.exchange(ec.ECDH(), our_pub)
        assert bytes(shared_ours) == hashlib.sha256(raw).digest()


# RFC 6979-style deterministic signatures over SHA-256, message "sample"
KNOWN_SIGNATURES = [
    (
        26,
        0xF220266E1105BFE3083E03EC7A3A654651F45E37167E88600BF257C1,
        "61aa3da010e8e8406c656bc477a7a7189895e7e840cdfe8ff42307ba"
        "bc814050dab5d23770879494f9e0a680dc1af7161991bde692b10101",
    ),
    (
        19,
        0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721,
        "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
        "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8",
    ),
]


class TestEcdsa:
    """Deterministic signing, verification, and x-only public keys."""

    @pytest.mark.parametrize("gid,priv,expected", KNOWN_SIGNATURES)
    def test_published_deterministic_vectors(self, gid, priv, expected):
        group = registry_lookup(gid)
        public = point_mul(group, priv)
        key = KeyPair(group, priv, public)
        assert ecdsa_sign(key, b"sample").hex() == expected

    def test_sign_verify_round_trip_all_groups(self):
        for group in ALL_GROUPS:
            rng = SeededRng(b"ecdsa", group.name.encode())
            key = ecdsa_generate(group, rng)
            sig = ecdsa_sign(key, b"round trip")
            assert len(sig) == 2 * group.key_size_octets
            assert ecdsa_verify(group, key.public_point, b"round trip", sig)

    def test_signing_is_deterministic(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"det"))
        assert ecdsa_sign(key, b"msg") == ecdsa_sign(key, b"msg")

    def test_generated_public_has_even_y(self):
        for group in ALL_GROUPS:
            for i in range(5):
                key = ecdsa_generate(group, SeededRng(i, group.name.encode()))
                assert key.public_point[1] % 2 == 0

    def test_wrong_message_rejected(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"wrongmsg"))
        sig = ecdsa_sign(key, b"payload")
        assert not ecdsa_verify(group, key.public_point, b"payload2", sig)

    def test_wrong_key_rejected(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"key-a"))
        other = ecdsa_generate(group, SeededRng(b"key-b"))
        sig = ecdsa_sign(key, b"payload")
        assert not ecdsa_verify(group, other.public_point, b"payload", sig)

    def test_bit_flips_rejected(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"flips"))
        sig = ecdsa_sign(key, b"payload")
        for bit in range(0, len(sig) * 8, 7):
            bad = bytearray(sig)
            bad[bit // 8] ^= 1 << (bit % 8)
            assert not ecdsa_verify(group, key.public_point, b"payload", bytes(bad))

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_verify_jacobian_sum_branches(self, gid):
        # u2*Q = +-u1*G sends the Jacobian sum into its doubling branch (+)
        # or to the identity (-).  With Q = G that takes r = +-e.  With
        # Q = (+-e/r)*G it holds for every r, so choosing u1 first and
        # r = x(2*u1*G) makes the doubling a valid signature, and the
        # identity one that a doubling in its place would accept.
        group = registry_lookup(gid)
        n = group.order_n
        message = b"jacobian sum"
        e = message_scalar(group, message)
        u1 = 0xDEC0DE
        r = oracle_mul(group, 2 * u1)[0] % n
        s = e * pow(u1, -1, n) % n
        cases = [(group.generator, e), (group.generator, n - e)] + [
            (oracle_mul(group, sign * e * pow(r, -1, n) % n), r) for sign in (1, -1)
        ]
        verdicts = [
            ecdsa_verify(
                group, public, message, scalar_to_octets(group, rr) + scalar_to_octets(group, s)
            )
            for public, rr in cases
        ]
        assert verdicts == [oracle_verify(group, public, e, rr, s) for public, rr in cases]
        assert verdicts[1:] == [False, True, False]

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_x_of_the_sum_at_or_above_n(self, key_memo, fresh_memos, gid):
        # p > n, so an x of u1*G + u2*Q in [n, p) reads as r = x - n.  Pick
        # such a point R, e and s, and recover the key Q = (R - u1*G)/u2 that
        # (r, s) verifies under; r - 1 and r + 1 must not verify, either on
        # a key's first verify or under its comb.
        _, builds = key_memo
        group = registry_lookup(gid)
        p, a, b, n = group.field_p, group.curve_a, group.curve_b, group.order_n
        x = n + (p - n) // 3
        while (y := crypto._mod_sqrt(group, x**3 + a * x + b)) is None:
            x += 1
        assert n <= x < p and (y * y - (x**3 + a * x + b)) % p == 0
        message = b"x above the order"
        e = message_scalar(group, message)
        s = SeededRng(b"r + n", group.name.encode()).uniform_scalar(group)
        r = x - n
        w = pow(s, -1, n)
        u1, u2 = e * w % n, r * w % n
        rest = affine_add(p, a, (x, y), negate(group, oracle_mul(group, u1)))
        public = oracle_mul(group, pow(u2, -1, n), rest)
        cases = [r, r - 1, r + 1]
        expected = [oracle_verify(group, public, e, rr, s) for rr in cases]
        assert expected == [True, False, False]

        def verify(rr):
            signature = scalar_to_octets(group, rr) + scalar_to_octets(group, s)
            return ecdsa_verify(group, public, message, signature)

        first = []
        for rr in cases:  # each a first verify: wNAF digits for the key
            fresh_memos()
            first.append(verify(rr))
        assert builds == []
        crypto._verdict_memo.clear()
        under_comb = [verify(rr) for rr in cases]  # the first builds the key's comb
        assert builds == [(gid, public)]
        assert first == under_comb == expected

    def test_malformed_signature_width_rejected(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"width"))
        sig = ecdsa_sign(key, b"payload")
        assert not ecdsa_verify(group, key.public_point, b"payload", sig[:-1])
        assert not ecdsa_verify(group, key.public_point, b"payload", sig + b"\x00")

    def test_zero_r_or_s_rejected(self):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"zeros"))
        width = group.key_size_octets
        assert not ecdsa_verify(
            group, key.public_point, b"x", bytes(width) + b"\x01" * width
        )
        assert not ecdsa_verify(
            group, key.public_point, b"x", b"\x01" * width + bytes(width)
        )

    @pytest.mark.parametrize("gid", [20, 21])
    def test_large_curves_accepted_by_openssl(self, gid):
        cryptography = pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec, utils

        group = registry_lookup(gid)
        curve = {20: ec.SECP384R1(), 21: ec.SECP521R1()}[gid]
        key = ecdsa_generate(group, SeededRng(b"openssl", group.name.encode()))
        sig = ecdsa_sign(key, b"interop payload")
        width = group.key_size_octets
        der = utils.encode_dss_signature(
            int.from_bytes(sig[:width], "big"), int.from_bytes(sig[width:], "big")
        )
        public = ec.EllipticCurvePublicNumbers(
            key.public_point[0], key.public_point[1], curve
        ).public_key()
        public.verify(der, b"interop payload", ec.ECDSA(hashes.SHA256()))

    def test_openssl_signature_accepted_by_us(self):
        cryptography = pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec, utils

        group = registry_lookup(19)
        key = ec.generate_private_key(ec.SECP256R1())
        der = key.sign(b"cross check", ec.ECDSA(hashes.SHA256()))
        r, s = utils.decode_dss_signature(der)
        sig = scalar_to_octets(group, r) + scalar_to_octets(group, s)
        numbers = key.public_key().public_numbers()
        assert ecdsa_verify(group, (numbers.x, numbers.y), b"cross check", sig)


class TestRfc6979Retries:
    """The retries that RFC 6979 and ECDSA require but that no real input
    reaches, each forced through a patched HMAC output, point or nonce. The
    signature made after the retry verifies."""

    MESSAGE = b"retry"

    def verifies(self, key, signature):
        group, width = key.group, key.group.key_size_octets
        r = int.from_bytes(signature[:width], "big")
        s = int.from_bytes(signature[width:], "big")
        e = message_scalar(group, self.MESSAGE)
        return crypto._verify(
            group, key.public_point, self.MESSAGE, signature
        ) and oracle_verify(group, key.public_point, e, r, s)

    @pytest.mark.parametrize("octet", [b"\x00", b"\xff"])
    def test_an_out_of_range_candidate_is_drawn_again(self, monkeypatch, octet):
        key = ecdsa_generate(registry_lookup(26), SeededRng(b"rfc6979 retries"))
        new, macs = crypto.hmac.new, []

        def forced(k, msg, digestmod):
            macs.append(new(k, msg, digestmod))
            # the fifth HMAC is V for the first P-224 candidate: 0, or all
            # ones, which is at least n
            if len(macs) == 5:
                return SimpleNamespace(digest=lambda: octet * 32)
            return macs[-1]

        monkeypatch.setattr(crypto, "hmac", SimpleNamespace(new=forced))
        signature = crypto._sign(key, self.MESSAGE)
        monkeypatch.undo()
        assert len(macs) == 8  # K and V stepped once more, then one more block
        assert signature != crypto._sign(key, self.MESSAGE)
        assert self.verifies(key, signature)

    def test_r_zero_takes_the_nonce_of_the_rehashed_digest(self, monkeypatch):
        group = registry_lookup(26)
        key = ecdsa_generate(group, SeededRng(b"rfc6979 retries"))
        mul, nonces = crypto.point_mul, []

        def forced(g, k, point=None):
            nonces.append(k)
            # the first nonce's point gets x = n, so that r = x mod n = 0
            return (group.order_n, 0) if len(nonces) == 1 else mul(g, k, point)

        monkeypatch.setattr(crypto, "point_mul", forced)
        signature = crypto._sign(key, self.MESSAGE)
        monkeypatch.undo()
        digest = hashlib.sha256(self.MESSAGE).digest()
        assert nonces == [
            crypto._deterministic_nonce(group, key.private_scalar, digest),
            crypto._deterministic_nonce(
                group, key.private_scalar, hashlib.sha256(digest).digest()
            ),
        ]
        assert self.verifies(key, signature)

    def test_s_zero_takes_the_nonce_of_the_rehashed_digest(self, monkeypatch):
        group = registry_lookup(26)
        n = group.order_n
        k = 0x5EED
        r = point_mul(group, k)[0] % n
        # the key for which nonce k makes s = (e + r * d) / k zero
        e = message_scalar(group, self.MESSAGE)
        d = -e * pow(r, -1, n) % n
        key = KeyPair(group, d, point_mul(group, d))
        assert (e + r * d) % n == 0
        nonce, digests = crypto._deterministic_nonce, []

        def forced(g, scalar, digest):
            digests.append(digest)
            return k if len(digests) == 1 else nonce(g, scalar, digest)

        monkeypatch.setattr(crypto, "_deterministic_nonce", forced)
        signature = crypto._sign(key, self.MESSAGE)
        monkeypatch.undo()
        digest = hashlib.sha256(self.MESSAGE).digest()
        assert digests == [digest, hashlib.sha256(digest).digest()]
        assert self.verifies(key, signature)


def comb(group, base, k):
    """base's comb in COMB_BLOCKS tables with k's digits cut to match, as k*G
    and a verify under a built key table run: COMB_BLOCKS pairs for the loop."""
    return crypto._comb_pairs(group, crypto._comb_table(group, base), k)


def wnaf(group, base, k):
    """base's odd table with k's wNAF digits: one pair for the loop."""
    return [(crypto._odd_table(group, base), crypto._wnaf_digits(k))]


def loop_sum(group, pairs, recoders=(comb, comb)):
    """The affine sum the multiplication loop computes over (base, scalar) pairs,
    each pair turned into (table, digits) pairs by its recoder."""
    tables = [t for recode, (base, k) in zip(recoders, pairs) for t in recode(group, base, k)]
    x, y, z = crypto._mul(group, tables)
    return crypto._to_affine([(x, y, z)], group.field_p)[0] if z else None


def oracle_sum(group, pairs):
    total = None
    for base, k in pairs:
        total = affine_add(group.field_p, group.curve_a, total, oracle_mul(group, k, base))
    return total


def negate(group, point):
    return (point[0], group.field_p - point[1])


@pytest.fixture
def key_memo(monkeypatch, fresh_memos):
    """An empty verify-key memo, among empty process memos; yields it with
    the list of key tables built."""
    builds = []
    build = crypto._comb_table

    def counted(group, base):
        if base != group.generator:
            builds.append((group.group_id, base))
        return build(group, base)

    monkeypatch.setattr(crypto, "_comb_table", counted)
    yield crypto._key_memo, builds


def signed(group, seed, message=b"memo"):
    key = ecdsa_generate(group, SeededRng(seed, group.name.encode()))
    return key.public_point, ecdsa_sign(key, message)


def signed_many(group, seed, count):
    """signed()'s key, with `count` (message, signature) pairs of distinct
    messages: a repeated input would be a verdict-memo hit."""
    key = ecdsa_generate(group, SeededRng(seed, group.name.encode()))
    messages = [b"memo %d" % i for i in range(count)]
    return key.public_point, [(m, ecdsa_sign(key, m)) for m in messages]


def criterion7_cases():
    """Criterion 7's signer on P-224 (seed 7), and its cases: signatures of
    successive messages and 1000 single-bit perturbations of them."""
    signer = ecdsa_generate(REGISTRY[26], SeededRng(7, b"acceptance-07-ecdsa"))
    cases = []
    flips = 0
    for index in itertools.count():
        message = b"acceptance criterion seven #%d" % index
        signature = ecdsa_sign(signer, message)
        cases.append((message, signature))
        for bit in range(len(signature) * 8):
            if flips == 1000:
                break
            mutated = bytearray(signature)
            mutated[bit // 8] ^= 1 << (bit % 8)
            cases.append((message, bytes(mutated)))
            flips += 1
        if flips == 1000:
            return signer, cases, index


# A scalar whose width-4 NAF holds every digit -7..7: one odd digit of each
# sign every fourth position, the top one positive.
ALL_WNAF_DIGITS = sum(d << (4 * i) for i, d in enumerate((-1, 1, -3, 3, -5, 5, -7, 7)))


class TestKeyComb:
    """u1*G + u2*Q in one loop over G's comb table and a comb or odd table for Q."""

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_two_tables_match_oracle(self, gid):
        group = registry_lookup(gid)
        n = group.order_n
        rng = SeededRng(b"two-table-comb", group.name.encode())
        q = point_mul(group, rng.uniform_scalar(group))
        g = group.generator
        cases = [(rng.uniform_scalar(group), rng.uniform_scalar(group)) for _ in range(4)]
        cases += [(0, n - 1), (0, 1), (1, 0), (n - 1, n - 1)]
        cases += [(k, n - 1 - k) for k in edge_scalars(group)[:5]]
        for u1, u2 in cases:
            pairs = [(g, u1 % n), (q, u2 % n)]
            assert loop_sum(group, pairs) == oracle_sum(group, pairs), (u1, u2)
        # A first verify's shape: wNAF digits for Q under G's comb digits.
        # A short wNAF list sits under a full comb list, a short comb list
        # under a full wNAF list, and the wNAF side takes every digit.
        assert set(crypto._wnaf_digits(ALL_WNAF_DIGITS)) == set(range(-7, 8, 2)) | {0}
        cases += [(n - 1, u2) for u2 in (1, 2, 3, 7, 9, n - 1)]
        cases += [(u1, rng.uniform_scalar(group)) for u1 in (0, 1)]
        cases += [(1, ALL_WNAF_DIGITS), (n - 1, n - ALL_WNAF_DIGITS)]
        for u1, u2 in cases:
            pairs = [(g, u1 % n), (q, u2 % n)]
            assert loop_sum(group, pairs, (comb, wnaf)) == oracle_sum(group, pairs), (u1, u2)

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_running_sum_meets_a_table_entry(self, gid):
        # The running sum R meets the second table's entry T = +-R, sending
        # _jacobian_add_affine into its doubling (+) or identity (-) branch:
        # from the identity in the last column (1*G + 1*(+-G)), and from a
        # Jacobian R = 2G with z != 1 there (2*G + 1*(+-2G)).
        group = registry_lookup(gid)
        g = group.generator
        two_g = point_mul(group, 2)
        for base, k in ((g, 1), (two_g, 2)):
            for q in (base, negate(group, base)):
                pairs = [(g, k), (q, 1)]
                expected = oracle_sum(group, pairs)
                for recoders in ((comb, comb), (comb, wnaf)):
                    assert loop_sum(group, pairs, recoders) == expected
                assert (expected is None) == (q != base)


class TestKeyMemo:
    """The verify-key memo: a table on a key's second verify, LRU-bounded."""

    def test_verdicts_same_with_and_without_table(self, key_memo):
        # criterion 7's 1000 single-bit perturbations on P-224, seed 7
        memo, builds = key_memo
        group = REGISTRY[26]
        signer, cases, index = criterion7_cases()
        public = signer.public_point
        without = []
        for message, signature in cases:
            memo.clear()
            without.append(ecdsa_verify(group, public, message, signature))
        assert builds == []
        ecdsa_verify(group, public, *cases[0])
        with_table = [ecdsa_verify(group, public, m, sig) for m, sig in cases]
        assert builds == [(26, public)]
        assert with_table == without
        assert sum(with_table) == index + 1  # the unmutated signatures alone

    def test_three_verifies_build_one_table(self, key_memo):
        # the first verify enters the key, the second builds its table
        memo, builds = key_memo
        for group in ALL_GROUPS:
            public, inputs = signed_many(group, b"three", 3)
            key = (group.group_id, public)
            tables_built = []
            for message, signature in inputs:
                assert ecdsa_verify(group, public, message, signature)
                tables_built.append(builds.count(key))
            assert tables_built == [0, 1, 1]
            assert len(memo[key]) == COMB_BLOCKS  # a verify key's comb is G's geometry
        assert len(builds) == len(ALL_GROUPS)

    def test_key_past_the_bound_evicts_least_recent(self, key_memo):
        memo, builds = key_memo
        group = registry_lookup(26)
        keys = [signed_many(group, b"evict-%d" % i, 2) for i in range(KEY_MEMO_ENTRIES + 1)]
        for public, inputs in keys[:KEY_MEMO_ENTRIES]:
            assert ecdsa_verify(group, public, *inputs[0])
        # verifying the oldest key again makes it the most recent
        assert ecdsa_verify(group, keys[0][0], *keys[0][1][1])
        assert ecdsa_verify(group, keys[-1][0], *keys[-1][1][0])
        assert len(memo) == KEY_MEMO_ENTRIES
        assert (26, keys[1][0]) not in memo
        assert list(memo)[-2:] == [(26, keys[0][0]), (26, keys[-1][0])]
        assert builds == [(26, keys[0][0])]

    def test_keys_cycling_past_the_bound_build_no_table(self, key_memo):
        # each key is evicted before its second verify, so none pays a build
        memo, builds = key_memo
        group = registry_lookup(26)
        keys = [signed_many(group, b"cycle-%d" % i, 2) for i in range(KEY_MEMO_ENTRIES + 1)]
        for i in range(2):
            for public, inputs in keys:
                assert ecdsa_verify(group, public, *inputs[i])
        assert len(memo) == KEY_MEMO_ENTRIES
        assert builds == []

    def test_rejected_inputs_never_enter_memo(self, key_memo):
        memo, builds = key_memo
        group = registry_lookup(26)
        n = group.order_n
        public, signature = signed(group, b"reject")
        width = group.key_size_octets
        r, s = signature[:width], signature[width:]
        off_curve = (public[0], (public[1] + 1) % group.field_p)
        zero, order = bytes(width), scalar_to_octets(group, n)
        for point, sig in (
            (off_curve, signature),
            (public, zero + s),
            (public, r + zero),
            (public, order + s),
            (public, r + order),
            (public, signature[:-1]),
        ):
            for _ in range(2):
                assert not ecdsa_verify(group, point, b"memo", sig)
        assert memo == {}
        assert builds == []


class TestProcessMemos:
    """Verdicts and signatures are remembered once per process, keyed by
    every input, curve included."""

    def test_criterion7_verdicts_same_cold_and_warm(self, fresh_memos, real_verifies):
        signer, cases, index = criterion7_cases()
        group, public = REGISTRY[26], signer.public_point
        cold = []
        for message, signature in cases:
            fresh_memos()
            cold.append(ecdsa_verify(group, public, message, signature))
        real_verifies.clear()
        warm = [
            (ecdsa_verify(group, public, m, sig), ecdsa_verify(group, public, m, sig))
            for m, sig in cases
        ]
        # every input once for real, then once from the memo
        assert len(real_verifies) == len(cases)
        assert [first for first, _ in warm] == [again for _, again in warm] == cold
        assert sum(cold) == index + 1

    def test_another_curve_is_a_miss(self, fresh_memos, real_verifies):
        public, signature = signed(REGISTRY[26], b"curve")
        for _ in range(2):
            assert ecdsa_verify(REGISTRY[26], public, b"memo", signature)
        for gid in (19, 20, 21):
            assert not ecdsa_verify(REGISTRY[gid], public, b"memo", signature)
        assert [key[0] for key, _ in real_verifies] == [26, 19, 20, 21]

    def test_a_repeated_sign_is_remembered(self, fresh_memos, monkeypatch):
        signs = []
        sign = crypto._sign
        monkeypatch.setattr(crypto, "_sign", lambda key, m: signs.append(m) or sign(key, m))
        key = ecdsa_generate(REGISTRY[26], SeededRng(b"sign-once"))
        first = ecdsa_sign(key, b"payload")
        assert ecdsa_sign(key, b"payload") == first
        assert ecdsa_sign(key, b"other") != first
        assert signs == [b"payload", b"other"]
        assert list(crypto._signature_memo) == [
            (26, key.public_point, b"payload"), (26, key.public_point, b"other")
        ]


P384, P521 = REGISTRY[20], REGISTRY[21]
FOLDED = (20, 21)  # the curves whose primes run the folded formulas


def fold_checks(group, bound):
    """Tests of group's folded doubling and mixed addition against the
    generic formulas, its coordinates within bound of [0, 2^k) in and out,
    k the bit length of the prime: reduced, negative and at least p."""
    p = group.field_p
    low, high = -bound, 2 ** p.bit_length() + bound
    coordinate = st.one_of(
        st.integers(min_value=0, max_value=p - 1),
        st.integers(min_value=low + 1, max_value=-1),
        st.integers(min_value=p, max_value=high - 1),
        st.sampled_from([0, 1, -1, p - 1, p, p + 1, low + 1, high - 1]),
    )
    folded_double, folded_add_affine = crypto._folded_formulas(p)

    def check(folded, expected):
        assert all(low < c < high for c in folded), folded
        assert tuple(c % p for c in folded) == expected

    class FoldChecks:
        @settings(max_examples=300)
        @given(coordinate, coordinate, coordinate)
        def test_double_agrees_mod_p(self, x, y, z):
            expected = crypto._jacobian_double(x % p, y % p, z % p, p)
            check(folded_double(x, y, z, p), expected)

        @settings(max_examples=300)
        @given(*[coordinate] * 5)
        def test_mixed_add_agrees_mod_p(self, x1, y1, z1, x2, y2):
            expected = crypto._jacobian_add_affine(x1 % p, y1 % p, z1 % p, x2 % p, y2 % p, p)
            check(folded_add_affine(x1, y1, z1, x2, y2, p), expected)

        @given(*[coordinate] * 2, st.sampled_from([0, p]), *[coordinate] * 2)
        def test_mixed_add_onto_identity(self, x1, y1, z1, x2, y2):
            check(folded_add_affine(x1, y1, z1, x2, y2, p), (x2 % p, y2 % p, 1))

        @settings(max_examples=100)
        @given(*[coordinate] * 3, st.sampled_from([1, -1]))
        def test_mixed_add_of_itself_or_its_negation(self, x1, y1, z1, sign):
            # (x2, y2) is the affine form of (x1, y1, z1) or of its negation, so
            # h is 0: the sum doubles the point (+) or is the identity (-)
            assume(z1 % p and y1 % p)
            zinv = pow(z1, -1, p)
            x2, y2 = x1 * zinv**2 % p, sign * y1 * zinv**3 % p
            if sign > 0:
                expected = crypto._jacobian_double(x1 % p, y1 % p, z1 % p, p)
            else:
                expected = (0, 1, 0)
            assert crypto._jacobian_add_affine(x1 % p, y1 % p, z1 % p, x2, y2, p) == expected
            check(folded_add_affine(x1, y1, z1, x2, y2, p), expected)

    return FoldChecks


class TestP384Fold(fold_checks(P384, 2**262)):
    """P-384 folds at 2^384 onto 2^128 + 2^96 - 2^32 + 1: coordinates stay
    within 2^262 of [0, 2^384)."""


class TestP521Fold(fold_checks(P521, 2**64)):
    """P-521 folds at 2^521 onto 1: coordinates stay within 2^64 of
    [0, 2^521)."""


@pytest.fixture
def formula_calls(monkeypatch, key_memo):
    """Calls of each point formula, with an empty verify-key memo: the generic
    pair by module name, the folded pair as folded_double and
    folded_add_affine."""
    calls = Counter()

    def counted(name, formula):
        def count(*args):
            calls[name] += 1
            return formula(*args)

        return count

    for name in ("_jacobian_double", "_jacobian_add_affine"):
        monkeypatch.setattr(crypto, name, counted(name, getattr(crypto, name)))
    folded = crypto._folded_formulas
    monkeypatch.setattr(crypto, "_folded_formulas", lambda p: tuple(
        counted(f"folded_{formula.__name__}", formula) for formula in folded(p)
    ))
    for group in ALL_GROUPS:
        assert group._formulas  # cached, so the real pair is put back afterwards
        monkeypatch.delitem(group.__dict__, "_formulas")
    return calls


@pytest.fixture
def inversions(monkeypatch):
    """The modulus of each pow(x, -1, modulus) crypto makes, in call order."""
    moduli = []

    def counted(base, exponent, modulus=None):
        if exponent == -1:
            moduli.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(crypto, "pow", counted, raising=False)
    return moduli


class TestFormulaDispatch:
    """The group's prime alone picks which point formulas a multiplication runs."""

    @pytest.mark.parametrize("gid", FOLDED)
    def test_folded_primes_run_only_the_folded_formulas(self, formula_calls, key_memo, gid):
        _, builds = key_memo
        group = registry_lookup(gid)
        public, inputs = signed_many(group, b"dispatch", 3)
        assert point_mul(group, 0xC0FFEE) == oracle_mul(group, 0xC0FFEE)
        assert point_mul(group, 0xC0FFEE, public) == oracle_mul(group, 0xC0FFEE, public)
        # first verify (comb + wNAF), second (builds the table), third (table)
        for message, signature in inputs:
            assert ecdsa_verify(group, public, message, signature)
        assert builds == [(gid, public)]
        crypto._comb_table(group, point_mul(group, 7))
        assert formula_calls["_jacobian_double"] == 0
        assert formula_calls["_jacobian_add_affine"] == 0
        assert formula_calls["folded_double"] > 0
        assert formula_calls["folded_add_affine"] > 0

    @pytest.mark.parametrize("gid", [26, 19])
    def test_other_curves_run_only_the_generic_formulas(self, formula_calls, gid):
        group = registry_lookup(gid)
        point = point_mul(group, 0xC0FFEE)
        assert point_mul(group, 0xBEEF, point) == oracle_mul(group, 0xBEEF, point)
        assert formula_calls["folded_double"] == 0
        assert formula_calls["folded_add_affine"] == 0
        assert formula_calls["_jacobian_double"] > 0
        assert formula_calls["_jacobian_add_affine"] > 0


class TestCombTable:
    """Comb tables, built in affine coordinates: every entry against the
    oracle, and the doublings and inversions a k*G and a build make."""

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_every_entry_is_the_oracle_sum_of_its_teeth(self, gid):
        # G's COMB_BLOCKS tables, and those of two verify keys: entry u + 1
        # is the top tooth plus or minus each lower tooth i as bit i of u is
        # set or clear, and entry -(u + 1) is its negation
        group = registry_lookup(gid)
        p, a = group.field_p, group.curve_a
        d, e = block_columns(group)
        half = 1 << (COMB_TEETH - 1)
        keys = [signed(group, seed)[0] for seed in (b"table-1", b"table-2")]
        combs = [(group.generator, group._comb)]
        combs += [(q, crypto._comb_table(group, q)) for q in keys]
        for base, tables in combs:
            assert len(tables) == COMB_BLOCKS
            for b, table in enumerate(tables):
                teeth = [oracle_mul(group, 1 << (i * d + b * e), base) for i in range(COMB_TEETH)]
                assert len(table) == 2 * half + 1 and table[0] is None
                for u in range(half):
                    expected = teeth[-1]
                    for i, tooth in enumerate(teeth[:-1]):
                        signed_tooth = tooth if u >> i & 1 else negate(group, tooth)
                        expected = affine_add(p, a, expected, signed_tooth)
                    assert table[u + 1] == expected, (base, b, u)
                    assert table[-(u + 1)] == negate(group, expected), (base, b, u)

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_a_base_multiple_doubles_once_per_block_column(self, formula_calls, gid):
        group = registry_lookup(gid)
        assert group._comb  # built before counting
        _, e = block_columns(group)
        double = "folded_double" if gid in FOLDED else "_jacobian_double"
        for k in (1, group.order_n - 1, SeededRng(b"doublings").uniform_scalar(group)):
            formula_calls.clear()
            assert point_mul(group, k) == oracle_mul(group, k)
            assert formula_calls[double] == e

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_a_table_verify_doubles_once_per_block_column(
        self, formula_calls, key_memo, inversions, gid
    ):
        # Once a key's comb is built, u1*G + u2*Q runs G's blocks beside the
        # key's: e doublings, and x is compared with r in Jacobian form, so
        # the one inversion is s's, mod n.
        _, builds = key_memo
        group = registry_lookup(gid)
        _, e = block_columns(group)
        assert e == {26: 7, 19: 8, 20: 12, 21: 17}[gid]
        double = "folded_double" if gid in FOLDED else "_jacobian_double"
        public, inputs = signed_many(group, b"table verify", 4)
        for message, signature in inputs[:2]:  # enters the key, then builds its comb
            assert ecdsa_verify(group, public, message, signature)
        assert builds == [(gid, public)]
        for message, signature in inputs[2:]:
            formula_calls.clear()
            inversions.clear()
            assert ecdsa_verify(group, public, message, signature)
            assert formula_calls[double] == e
            assert inversions == [group.order_n]
        assert builds == [(gid, public)]

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_a_build_makes_one_inversion_per_tooth(self, inversions, gid):
        # one for the doubling chain, then one per tooth, shared by every
        # block: the top tooth's for each block's T[0], and each lower
        # tooth's for the entries that add twice that tooth
        group = registry_lookup(gid)
        for base in (group.generator, signed(group, b"inversions")[0]):
            inversions.clear()
            crypto._comb_table(group, base)
            assert len(inversions) == COMB_TEETH + 1

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_no_build_addition_divides_by_zero(self, gid):
        # Integers only.  Each affine addition of a build is T[u] plus twice
        # tooth i, T[u] = m*B for the block's base B = 2^(b*e)*base; its slope
        # divides by 0 only when m = +-2^(i*d + 1) mod n.  Every m lies in
        # (2^(i*d + 1), 2^(7d + 1)), so the _comb_table docstring's bound
        # 2^(7d + (COMB_BLOCKS - 1)e + 2) < n rules that out in every block.
        group = registry_lookup(gid)
        n = group.order_n
        d, e = block_columns(group)
        top = COMB_TEETH - 1
        assert 1 << (top * d + (COMB_BLOCKS - 1) * e + 2) < n
        for i in range(top):
            step = 1 << (i * d + 1)
            for u in range(1 << i):
                m = (1 << (top * d)) + sum(
                    (1 if u >> j & 1 else -1) << (j * d) for j in range(top)
                )
                assert step < m < 1 << (top * d + 1)
                for b in range(COMB_BLOCKS):
                    assert ((m - step) << (b * e)) % n and ((m + step) << (b * e)) % n


def spelled(group, k):
    """The integer _comb_pairs' digits for k spell over a comb of COMB_BLOCKS
    blocks, each column's +-1 tooth digits weighted by 2^(i*d + b*e + j) for
    column j of block b; every digit is first checked nonzero and at most
    2^(COMB_TEETH - 1) in size."""
    d, e = block_columns(group)
    top = COMB_TEETH - 1
    pairs = crypto._comb_pairs(group, (None,) * COMB_BLOCKS, k)
    assert [len(digits) for _, digits in pairs] == [
        min(e, d - b * e) for b in range(COMB_BLOCKS)
    ]
    total = 0
    for b, (_, digits) in enumerate(pairs):
        for j, digit in enumerate(reversed(digits)):
            assert digit and abs(digit) <= 1 << top, (b, j, digit)
            u = abs(digit) - 1
            teeth = [(1 if u >> i & 1 else -1) << (i * d) for i in range(top)]
            column = (1 << (top * d)) + sum(teeth)
            total += (column if digit > 0 else -column) << (b * e + j)
    return total


def column_scalars(group):
    """For the lowest and the top column of each block of k*G: the column's
    lowest bit, its top bit and all its bits, each mod n."""
    d, e = block_columns(group)
    n = group.order_n
    scalars = []
    for b in range(COMB_BLOCKS):
        for c in (b * e, min((b + 1) * e, d) - 1):
            teeth = sum(1 << (i * d + c) for i in range(COMB_TEETH))
            scalars += [1 << c, (1 << ((COMB_TEETH - 1) * d + c)) % n, teeth % n]
    return scalars


class TestSignedCombDigits:
    """_comb_pairs' signed digits, with integers alone: every digit nonzero
    and within the table, and together they spell k mod n."""

    @pytest.mark.parametrize("gid", sorted(REGISTRY))
    def test_edge_scalars_are_spelled(self, gid):
        group = registry_lookup(gid)
        n = group.order_n
        scalars = [0, n - 1] + [k % n for k in edge_scalars(group)] + column_scalars(group)
        # each scalar and its neighbour, so both parities run
        for k in scalars + [(k + 1) % n for k in scalars]:
            assert spelled(group, k) % n == k, k

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(REGISTRY)), st.integers(min_value=0, max_value=2**530))
    def test_any_scalar_is_spelled(self, gid, k):
        group = registry_lookup(gid)
        k %= group.order_n
        assert spelled(group, k) % group.order_n == k


class TestNoGenericFormulaOnP521:
    """Every P-521 multiplication runs on the folded formulas alone."""

    def test_wnaf_and_first_verify_call_no_jacobian_function(self, monkeypatch, key_memo):
        calls = Counter()
        for name, fn in list(vars(crypto).items()):
            if name.startswith("_jacobian") and callable(fn):

                def counted(*args, _name=name, _fn=fn):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(crypto, name, counted)
        assert P521._formulas  # cached, so the real pair is put back afterwards
        monkeypatch.delitem(P521.__dict__, "_formulas")
        public, signature = signed(P521, b"generic-free")
        assert point_mul(P521, 0xC0FFEE, public) == oracle_mul(P521, 0xC0FFEE, public)
        assert ecdsa_verify(P521, public, b"memo", signature)
        assert key_memo[1] == []  # a first verify: no key table yet
        assert calls == {}
