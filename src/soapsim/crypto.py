"""Elliptic-curve primitives for the PSK agreement protocol.

Pure-Python arithmetic over the short-Weierstrass NIST prime curves, a
registry keyed by the IKEv2 Diffie-Hellman transform identifiers those
curves are negotiated under, deterministic ECDSA, and a seeded DRBG so
every run of the simulator is reproducible byte for byte.

Scalar multiplication works in Jacobian coordinates (Hankerson, Menezes
and Vanstone, *Guide to Elliptic Curve Cryptography*) in one interleaved
loop (Alg. 3.51) over (table, digits) pairs.  The digit lists are
right-aligned so the pairs share one doubling per position, and each
nonzero digit adds its table's affine entry with one mixed addition.

- k*G is COMB_BLOCKS pairs: the generator's comb (Alg. 3.44, COMB_TEETH
  teeth d bits apart) cut into blocks of e = ceil(d / COMB_BLOCKS)
  columns (Lim and Lee, CRYPTO '94), so k*G doubles e times, not d.
  Every comb, G's and each verify key's, has the one geometry (d, e) of
  EcGroup._comb_geometry, which its build and its digits both read.
  The comb is signed (Hedabou, Pinel and Beneteau, ePrint 2004/342): an
  odd k is read as +-1 digits, an even k as n - k with every digit
  negated, so each column adds one of block b's 128 points, the top tooth
  plus or minus each lower tooth 2^(i*d + b*e)*G, or its negation.  G's
  tables are built on a curve's first k*G.  A comb table is built in
  affine coordinates: its teeth come from one doubling chain made affine
  with one batched inversion (Montgomery's trick), and each entry after
  the first is an earlier one plus twice a tooth, with one batched
  inversion per tooth across blocks.  A column's digit is one lookup of
  its tooth bits, cut from the scalar by one shift and one mask, in a
  per-curve table (EcGroup._column_digits) made on the first k*G too.
- k*P for any other point is one pair: width-WNAF_WIDTH NAF digits
  (Alg. 3.36) into P's odd table, P, 3P, 5P, 7P and their negations.  The
  table is summed on an isomorphic curve on which 2P is affine, so one
  batched inversion makes it affine (co-Z, after Meloni and Longa-Miri).
- ECDSA verification computes u1*G + u2*Q in one loop, G's pairs beside
  Q's, and compares x with r in Jacobian form, with no inversion.
  A verify key is long-lived (an AP's signer key rides in every beacon),
  so crypto remembers the KEY_MEMO_ENTRIES keys verified most recently.
  A key's first verify pairs G's comb with Q's odd table; its second
  builds the key a comb of G's geometry, COMB_BLOCKS tables, whose pairs
  later verifies run beside G's, e doublings in all.  A key enters the
  memo only once the signature's range check and the key's on-curve check
  pass.
- P-384's and P-521's primes are 2^k - c with c small (2^128 + 2^96 -
  2^32 + 1, and 1), so their doubling and mixed addition fold each product
  at 2^k onto c instead of dividing by p (Solinas; HMV section 2.2.6).
  Each fold is written out in the formula, not called; P-521's intermediate
  products fold once, its coordinates out twice.  P-224's and P-256's c
  are too wide for a fold to beat one %.
- x-only decoding runs Tonelli-Shanks on every curve from one pow, its
  per-curve constants computed once.  Only signer keys travel x-only, so
  the KEY_MEMO_ENTRIES most recent decodes are remembered as well, keyed
  by (group id, x octets); an x that does not decode is never remembered.
- Signatures (RFC 6979) and verdicts depend on public inputs alone, so the
  process remembers the MEMO_ENTRIES most recent of each, keyed by every
  input (a signer by its public point).  ECDH and point_mul always compute:
  no memo holds an ephemeral value or a private scalar.  Every process memo
  is an OrderedDict kept by _recall, least recently used out first.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass

# A derived PSK is always a full SHA-256 digest.
PSK_OCTETS = 32

_DIGEST = hashlib.sha256
_DIGEST_OCTETS = 32


class UnknownGroupError(ValueError):
    """Group id is not present in the curve registry."""


class InvalidPointError(ValueError):
    """Octet string does not decode to a point on the curve."""


Point = tuple[int, int]
# A base's comb: one table per block of columns, entry 0 of each unused and
# entry -j, counted from the end, the negation of entry j.
Comb = tuple[tuple[Point | None, ...], ...]

# Comb teeth: a comb table holds 2^(COMB_TEETH - 1) points and their negations.
COMB_TEETH = 8
# Every comb, G's and each verify key's, is cut into this many blocks of
# columns, one table each.
COMB_BLOCKS = 4
# wNAF window for k*P: 2^(WNAF_WIDTH - 2) precomputed odd multiples.
WNAF_WIDTH = 4
# Signer keys remembered, least recently used out first: their x-only decodes,
# and as verify keys their comb tables (148 KiB on P-224, 208 KiB on P-521,
# so at most 16 x 208 KiB, about 3.3 MiB, for a full memo of P-521 keys).
KEY_MEMO_ENTRIES = 16
# Verdicts and signatures remembered, a few hundred octets each.
MEMO_ENTRIES = 64


@dataclass(frozen=True)
class EcGroup:
    """One registered curve: negotiation id plus domain parameters.

    All registered curves use a = -3; only b is stored.  key_size_octets
    is the width of one coordinate and of every scalar on the wire.
    """

    group_id: int
    name: str
    key_size_octets: int
    field_p: int
    curve_b: int
    order_n: int
    gen_x: int
    gen_y: int

    @property
    def curve_a(self) -> int:
        return self.field_p - 3

    @property
    def generator(self) -> Point:
        return (self.gen_x, self.gen_y)

    @functools.cached_property
    def _comb_geometry(self) -> tuple[int, int]:
        """(d, e): d = ceil(bitlen(n) / COMB_TEETH) bits between adjacent comb
        teeth, and e = ceil(d / COMB_BLOCKS) columns in each block."""
        d = -(-self.order_n.bit_length() // COMB_TEETH)
        return d, -(-d // COMB_BLOCKS)

    @functools.cached_property
    def _column_digits(self) -> tuple[int, dict[int, int]]:
        """(mask, digits): mask has bit i*d set for each tooth i, and digits
        maps a comb column's tooth bits, (signs >> j) & mask for column j, to
        its signed digit, the _COLUMN_DIGITS entry of those bits read top-down."""
        d, _ = self._comb_geometry
        digits = {}
        for index, digit in enumerate(_COLUMN_DIGITS):
            digits[sum((index >> i & 1) << (i * d) for i in range(COMB_TEETH))] = digit
        return sum(1 << (i * d) for i in range(COMB_TEETH)), digits

    @functools.cached_property
    def _comb(self) -> Comb:
        return _comb_table(self, self.generator)

    @functools.cached_property
    def _formulas(self):
        """(doubling, mixed addition): folded for a prime of 384 bits or more.
        Folding a product costs 173 ns against 233 ns for % on P-384, but 134
        against 116 ns on P-224 and 204 against 134 ns on P-256."""
        if self.field_p.bit_length() >= 384:
            return _folded_formulas(self.field_p)
        return _jacobian_double, _jacobian_add_affine

    @functools.cached_property
    def _tonelli_shanks(self) -> tuple[int, int, int]:
        """(q, s, z^q) where p - 1 = q * 2^s and z is the least non-residue."""
        p = self.field_p
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        return q, s, pow(z, q, p)

    def __repr__(self) -> str:
        return f"EcGroup(id={self.group_id}, {self.name})"


def _p521_order() -> int:
    return int(
        "01" + "F" * 65 + "A"
        "51868783BF2F966B7FCC0148F709A5D03BB5C9B8899C47AEBB6FB71E91386409",
        16,
    )


_GROUPS = (
    EcGroup(
        group_id=26,
        name="P-224",
        key_size_octets=28,
        field_p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
        curve_b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
        order_n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
        gen_x=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
        gen_y=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
    ),
    EcGroup(
        group_id=19,
        name="P-256",
        key_size_octets=32,
        field_p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
        curve_b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
        order_n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
        gen_x=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
        gen_y=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    ),
    EcGroup(
        group_id=20,
        name="P-384",
        key_size_octets=48,
        field_p=int(
            "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF"
            "FFFFFFFEFFFFFFFF0000000000000000FFFFFFFF",
            16,
        ),
        curve_b=int(
            "B3312FA7E23EE7E4988E056BE3F82D19181D9C6EFE8141120314088F"
            "5013875AC656398D8A2ED19D2A85C8EDD3EC2AEF",
            16,
        ),
        order_n=int(
            "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81"
            "F4372DDF581A0DB248B0A77AECEC196ACCC52973",
            16,
        ),
        gen_x=int(
            "AA87CA22BE8B05378EB1C71EF320AD746E1D3B628BA79B9859F741E0"
            "82542A385502F25DBF55296C3A545E3872760AB7",
            16,
        ),
        gen_y=int(
            "3617DE4A96262C6F5D9E98BF9292DC29F8F41DBD289A147CE9DA3113"
            "B5F0B8C00A60B1CE1D7E819D7A431D7C90EA0E5F",
            16,
        ),
    ),
    EcGroup(
        group_id=21,
        name="P-521",
        key_size_octets=66,
        field_p=(1 << 521) - 1,
        curve_b=int(
            "0051953EB9618E1C9A1F929A21A0B68540EEA2DA725B99B315F3B8B4"
            "89918EF109E156193951EC7E937B1652C0BD3BB1BF073573DF883D2C"
            "34F1EF451FD46B503F00",
            16,
        ),
        order_n=_p521_order(),
        gen_x=int(
            "00C6858E06B70404E9CD9E3ECB662395B4429C648139053FB521F828"
            "AF606B4D3DBAA14B5E77EFE75928FE1DC127A2FFA8DE3348B3C1856A"
            "429BF97E7E31C2E5BD66",
            16,
        ),
        gen_y=int(
            "011839296A789A3BC0045C8A5FB42C7D1BD998F54449579B446817AF"
            "BD17273E662C97EE72995EF42640C550B9013FAD0761353C7086A272"
            "C24088BE94769FD16650",
            16,
        ),
    ),
)

REGISTRY: dict[int, EcGroup] = {g.group_id: g for g in _GROUPS}
assert len(REGISTRY) == len(_GROUPS)  # ids must be unique
assert all(0 <= gid <= 255 for gid in REGISTRY)  # ids ride in one octet
assert len({g.key_size_octets for g in _GROUPS}) == len(_GROUPS)

DEFAULT_GROUP_ID = 26


def registry_lookup(group_id: int) -> EcGroup:
    try:
        return REGISTRY[group_id]
    except KeyError:
        raise UnknownGroupError(f"unknown ECDH group id {group_id}") from None


def known_group_ids() -> frozenset[int]:
    return frozenset(REGISTRY)


def group_for_key_size(key_size_octets: int) -> EcGroup | None:
    """Map a wire key size back to the unique registered curve of that size."""
    for group in REGISTRY.values():
        if group.key_size_octets == key_size_octets:
            return group
    return None


def strongest_group_id(group_ids) -> int | None:
    """The registered group with the largest key, None when none is registered.
    Key sizes are distinct across the registry, so there is never a tie."""
    return max(
        (gid for gid in group_ids if gid in REGISTRY),
        key=lambda gid: REGISTRY[gid].key_size_octets,
        default=None,
    )


# ---------------------------------------------------------------------------
# Field and point arithmetic
# ---------------------------------------------------------------------------


def is_on_curve(group: EcGroup, point: Point | None) -> bool:
    if point is None:
        return True  # the identity
    x, y = point
    p = group.field_p
    if not (0 <= x < p and 0 <= y < p):
        return False
    return (y * y - (x * x * x - 3 * x + group.curve_b)) % p == 0


def _jacobian_double(x, y, z, p):
    if not y:
        return 0, 1, 0
    yy = y * y % p
    s = 4 * x * yy % p
    zz = z * z % p
    m = 3 * (x - zz) * (x + zz) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * yy * yy) % p
    z3 = 2 * y * z % p
    return x3, y3, z3


def _jacobian_add_affine(x1, y1, z1, x2, y2, p):
    # Mixed addition: (x1,y1,z1) Jacobian + (x2,y2) affine.
    if not z1:
        return x2, y2, 1
    z1z1 = z1 * z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * z1 * z1z1 % p
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    if not h:
        if not r:
            return _jacobian_double(x1, y1, z1, p)
        return 0, 1, 0
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - y1 * hhh) % p
    z3 = z1 * h % p
    return x3, y3, z3


def _folded_formulas(p):
    """The doubling and mixed addition above for a k-bit prime p, each product
    t folded at 2^k onto c = 2^k mod p, (t & mask) + (t >> k) * c, rather than
    divided.  Every fold is written out where its product is: a call to a
    fold function cost more than the fold.  Coordinates out lie within 2^262
    (P-384) or 2^64 (P-521) of [0, 2^k), and so may those in; zero tests,
    and h and r, still reduce with %.

    P-384 folds every product twice.  P-521's c is 1, so a fold adds just
    t >> 521: with coordinates in below 2^522 in size, one fold leaves each
    intermediate (yy, zz, s, m; z1z1, hh, hhh, v) below 2^530 in size, in
    the 18 30-bit digits a reduced coordinate takes.  Those fold once.  The
    coordinates out fold twice, which leaves them within 2^20 of [0, 2^521),
    inside the 2^64 above.  h and r fold once and twice before their %.
    """
    k = p.bit_length()
    mask, c = (1 << k) - 1, (1 << k) % p
    if c == 1:
        def double(x, y, z, p):
            if not y % p:
                return 0, 1, 0
            yy = ((t := y * y) & mask) + (t >> k)
            s = ((t := 4 * x * yy) & mask) + (t >> k)
            zz = ((t := z * z) & mask) + (t >> k)
            m = ((t := 3 * (x - zz) * (x + zz)) & mask) + (t >> k)
            x3 = ((t := m * m - 2 * s) & mask) + (t >> k)
            x3 = (x3 & mask) + (x3 >> k)
            y3 = ((t := m * (s - x3) - 8 * yy * yy) & mask) + (t >> k)
            y3 = (y3 & mask) + (y3 >> k)
            z3 = ((t := 2 * y * z) & mask) + (t >> k)
            return x3, y3, (z3 & mask) + (z3 >> k)

        def add_affine(x1, y1, z1, x2, y2, p):
            if not z1 % p:
                return x2, y2, 1
            z1z1 = ((t := z1 * z1) & mask) + (t >> k)
            h = (((t := x2 * z1z1) & mask) + (t >> k) - x1) % p
            r = ((t := y2 * z1 * z1z1) & mask) + (t >> k)
            r = ((r & mask) + (r >> k) - y1) % p
            if not h:
                if not r:
                    return double(x1, y1, z1, p)
                return 0, 1, 0
            hh = ((t := h * h) & mask) + (t >> k)
            hhh = ((t := h * hh) & mask) + (t >> k)
            v = ((t := x1 * hh) & mask) + (t >> k)
            x3 = ((t := r * r - hhh - 2 * v) & mask) + (t >> k)
            x3 = (x3 & mask) + (x3 >> k)
            y3 = ((t := r * (v - x3) - y1 * hhh) & mask) + (t >> k)
            y3 = (y3 & mask) + (y3 >> k)
            z3 = ((t := z1 * h) & mask) + (t >> k)
            return x3, y3, (z3 & mask) + (z3 >> k)
    else:
        def double(x, y, z, p):
            if not y % p:
                return 0, 1, 0
            yy = ((t := y * y) & mask) + (t >> k) * c
            yy = (yy & mask) + (yy >> k) * c
            s = ((t := 4 * x * yy) & mask) + (t >> k) * c
            s = (s & mask) + (s >> k) * c
            zz = ((t := z * z) & mask) + (t >> k) * c
            zz = (zz & mask) + (zz >> k) * c
            m = ((t := 3 * (x - zz) * (x + zz)) & mask) + (t >> k) * c
            m = (m & mask) + (m >> k) * c
            x3 = ((t := m * m - 2 * s) & mask) + (t >> k) * c
            x3 = (x3 & mask) + (x3 >> k) * c
            y3 = ((t := m * (s - x3) - 8 * yy * yy) & mask) + (t >> k) * c
            y3 = (y3 & mask) + (y3 >> k) * c
            z3 = ((t := 2 * y * z) & mask) + (t >> k) * c
            return x3, y3, (z3 & mask) + (z3 >> k) * c

        def add_affine(x1, y1, z1, x2, y2, p):
            if not z1 % p:
                return x2, y2, 1
            z1z1 = ((t := z1 * z1) & mask) + (t >> k) * c
            z1z1 = (z1z1 & mask) + (z1z1 >> k) * c
            h = ((t := x2 * z1z1) & mask) + (t >> k) * c
            h = ((h & mask) + (h >> k) * c - x1) % p
            r = ((t := y2 * z1 * z1z1) & mask) + (t >> k) * c
            r = ((r & mask) + (r >> k) * c - y1) % p
            if not h:
                if not r:
                    return double(x1, y1, z1, p)
                return 0, 1, 0
            hh = ((t := h * h) & mask) + (t >> k) * c
            hh = (hh & mask) + (hh >> k) * c
            hhh = ((t := h * hh) & mask) + (t >> k) * c
            hhh = (hhh & mask) + (hhh >> k) * c
            v = ((t := x1 * hh) & mask) + (t >> k) * c
            v = (v & mask) + (v >> k) * c
            x3 = ((t := r * r - hhh - 2 * v) & mask) + (t >> k) * c
            x3 = (x3 & mask) + (x3 >> k) * c
            y3 = ((t := r * (v - x3) - y1 * hhh) & mask) + (t >> k) * c
            y3 = (y3 & mask) + (y3 >> k) * c
            z3 = ((t := z1 * h) & mask) + (t >> k) * c
            return x3, y3, (z3 & mask) + (z3 >> k) * c

    return double, add_affine


def _inverses(values, p) -> list[int]:
    """The inverse mod p of each of values, none 0 mod p, with one inversion.

    Montgomery's trick: invert the product of every value, then peel each
    inverse off it with two multiplications.
    """
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _to_affine(points, p) -> list[Point]:
    """Affine forms of Jacobian points, none the identity, with one inversion."""
    affine = []
    for (x, y, z), zinv in zip(points, _inverses([z for _, _, z in points], p)):
        zinv2 = zinv * zinv % p
        affine.append((x * zinv2 % p, y * zinv2 * zinv % p))
    return affine


def _comb_table(group: EcGroup, base: Point) -> Comb:
    """base's signed comb, one table per block of e = ceil(d / COMB_BLOCKS) columns.

    With tooth i of block b the point 2^(i*d + b*e)*base, T[u] for u below
    2^(COMB_TEETH - 1) is the top tooth, plus tooth i for each set bit i of
    u and less it for each clear bit.  Entry u + 1 of a block's table is
    T[u] and entry -(u + 1) is -T[u], counted from the end (entry 0 unused).
    The teeth and the doubles of all but the top one come from one doubling
    chain.  T[0] is summed from the teeth in Jacobian form; then T[u + 2^i]
    is T[u] plus twice tooth i, by the affine addition law, whose slopes for
    tooth i in every block share one batched inversion.  base has prime
    order n.  Where T[u] meets twice tooth i, T[u] is m*2^(b*e)*base with
    2^(i*d + 1) < m < 2^(7d + 1), so m -+ 2^(i*d + 1) times 2^(b*e) lies in
    (0, 2^(7d + (COMB_BLOCKS - 1)e + 2)), and 2^(7d + (COMB_BLOCKS - 1)e + 2)
    < n: T[u] is never +-(twice tooth i), and no slope divides by 0.
    """
    p = group.field_p
    double, add = group._formulas
    d, e = group._comb_geometry
    top = COMB_TEETH - 1
    blocks = range(COMB_BLOCKS)
    # (COMB_BLOCKS - 1) * e < d, so tooth i of the last block and its double
    # lie below tooth i + 1 of the first, and one rising chain meets them all
    shifts = sorted({i * d + b * e + j for i in range(COMB_TEETH) for b in blocks
                     for j in range(1 + (i < top))})
    chain = []
    x, y, z = *base, 1
    done = 0
    for shift in shifts:
        for _ in range(shift - done):
            x, y, z = double(x, y, z, p)
        done = shift
        chain.append((x, y, z))
    points = dict(zip(shifts, _to_affine(chain, p)))
    firsts = []
    for b in blocks:
        x, y, z = *points[top * d + b * e], 1
        for i in range(top):
            tx, ty = points[i * d + b * e]
            x, y, z = add(x, y, z, tx, p - ty, p)
        firsts.append((x, y, z))
    tables = [[first] for first in _to_affine(firsts, p)]
    for i in range(top):
        row = [points[i * d + b * e + 1] for b in blocks]
        slopes = iter(_inverses(
            [tx - x for (tx, _), table in zip(row, tables) for x, _ in table], p
        ))
        for (tx, ty), table in zip(row, tables):
            for x, y in table[: 1 << i]:
                m = (ty - y) * next(slopes) % p
                x3 = (m * m - x - tx) % p
                table.append((x3, (m * (x - x3) - y) % p))
    return tuple((None, *table, *((x, p - y) for x, y in reversed(table))) for table in tables)


def _odd_table(group: EcGroup, point: Point) -> list[Point | None]:
    """Entry i is i*point for odd i in [-7, 7], counting i < 0 from the end.

    P, 3P, 5P and 7P sit at 1, 3, 5 and 7, their negations (x, p - y) at
    -1, -3, -5 and -7, so a wNAF digit indexes its multiple of either sign.

    One inversion makes the table affine (co-Z precomputation: Meloni, WAIFI
    2007; Longa and Miri, PKC 2008).  With 2P = (X2 : Y2 : Z2), the map
    (x, y) -> (x*Z2^2, y*Z2^3) takes the curve to an isomorphic one on which
    2P is the affine (X2, Y2).  There P is summed into 3P, 5P and 7P by the
    mixed addition, which reads neither a nor b, and each sum (X : Y : Z)
    there is (X : Y : Z*Z2) here.  The addition's doubling fallback, which
    would assume a = -3, never runs: it needs P, 3P or 5P to be +-2P, and
    the curve's order is a prime above 7.
    """
    p = group.field_p
    double, add = group._formulas
    x, y = point
    x2, y2, z2 = double(x, y, 1, p)
    zz = z2 * z2 % p
    odd = [(x * zz % p, y * zz * z2 % p, 1)]
    for _ in range(1, 1 << (WNAF_WIDTH - 2)):
        odd.append(add(*odd[-1], x2, y2, p))
    table = [None] * (1 << WNAF_WIDTH)
    for i, (x, y) in enumerate(_to_affine([(x, y, z * z2) for x, y, z in odd], p)):
        table[2 * i + 1], table[-2 * i - 1] = (x, y), (x, p - y)
    return table


# A signed comb column's digit, indexed by its tooth digits read top-down as
# bits, 1 for +1 and 0 for -1: that index less 2^(COMB_TEETH - 1), 0 skipped.
_COLUMN_DIGITS = (*range(-(1 << (COMB_TEETH - 1)), 0), *range(1, (1 << (COMB_TEETH - 1)) + 1))


def _comb_pairs(group: EcGroup, tables: Comb, scalar: int) -> list:
    """(table, digits) pairs that spell scalar*base over base's comb tables,
    for 0 <= scalar < n: one signed digit per column, cut into runs of e
    columns, the lowest run first and each run top column first.

    An odd scalar is the sum of +-2^j over j < 8d, + where bit j of
    (scalar >> 1) | 2^(8d - 1) is set; an even one runs as n - scalar with
    every digit negated, every such bit flipped.  A column's +-1 digits, one
    per tooth, sum to T[u] (digit u + 1) when its top digit is +1, else to
    -T[u] for the complement u of its lower ones (digit -(u + 1)), so no
    digit is 0.  Column j's tooth digits are bits j, d + j, ..., 7d + j of
    those signs: (signs >> j) & mask cuts them out together, and one lookup
    in EcGroup._column_digits gives the column's digit.
    """
    d, e = group._comb_geometry
    width = COMB_TEETH * d
    if scalar & 1:
        signs = (scalar >> 1) | (1 << (width - 1))
    else:
        signs = ((group.order_n - scalar) >> 1) ^ ((1 << (width - 1)) - 1)
    mask, column_digits = group._column_digits
    digits = [column_digits[signs >> j & mask] for j in range(d - 1, -1, -1)]
    return [
        (table, digits[max(d - (b + 1) * e, 0) : d - b * e]) for b, table in enumerate(tables)
    ]


def _wnaf_digits(scalar: int) -> list[int]:
    """scalar's width-WNAF_WIDTH NAF digits into an _odd_table, top digit first."""
    window = 1 << WNAF_WIDTH
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & (window - 1)
            if digit >= window >> 1:
                digit -= window
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    digits.reverse()
    return digits


def _mul(group: EcGroup, pairs):
    """The sum over (table, digits) pairs of what the digits spell, in Jacobian form.

    Interleaving (HMV Alg. 3.51): the digit lists, each read top digit
    first, are right-aligned so that all pairs share one doubling per
    position, and each nonzero digit adds its table's entry for it.
    """
    p = group.field_p
    double, add = group._formulas
    length = max(len(digits) for _, digits in pairs)
    # Filed by position first, so the doubling loop does no per-pair work.
    adds = [[] for _ in range(length)]
    for table, digits in pairs:
        for i, digit in enumerate(digits, length - len(digits)):
            if digit:
                adds[i].append(table[digit])
    x, y, z = 0, 1, 0
    for entries in adds:
        x, y, z = double(x, y, z, p)
        for tx, ty in entries:
            x, y, z = add(x, y, z, tx, ty, p)
    return x % p, y % p, z % p


def point_mul(group: EcGroup, scalar: int, point: Point | None = None) -> Point | None:
    """Scalar multiple of point (base point when omitted).

    Multiples of the generator read comb digits off the group's comb tables;
    any other point reads wNAF digits off its odd table.  Either way it is
    one _mul call.
    """
    scalar %= group.order_n
    if point is None or point == group.generator:
        pairs = _comb_pairs(group, group._comb, scalar)
    else:
        pairs = [(_odd_table(group, point), _wnaf_digits(scalar))]
    jacobian = _mul(group, pairs)
    if not jacobian[2]:
        return None
    return _to_affine([jacobian], group.field_p)[0]


def _mod_sqrt(group: EcGroup, a: int) -> int | None:
    """Square root mod the field prime, or None when a is a non-residue."""
    p = group.field_p
    a %= p
    if a == 0:
        return 0
    # Tonelli-Shanks from x = a^((q - 1) / 2): r = a*x = a^((q + 1) / 2) and
    # t = r*x = a^q.  For a non-residue, t has order exactly 2^s, so the search
    # for i below runs into m.
    q, s, zq = group._tonelli_shanks
    x = pow(a, (q - 1) // 2, p)
    m, c, r = s, zq, a * x % p
    t = r * x % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


# ---------------------------------------------------------------------------
# Octet-string encodings (all fixed width, big endian)
# ---------------------------------------------------------------------------


def scalar_to_octets(group: EcGroup, value: int) -> bytes:
    return value.to_bytes(group.key_size_octets, "big")


def point_to_octets(group: EcGroup, point: Point) -> bytes:
    """Uncompressed coordinate pair: x then y, each key_size_octets wide."""
    s = group.key_size_octets
    x, y = point
    return x.to_bytes(s, "big") + y.to_bytes(s, "big")


def octets_to_point(group: EcGroup, data: bytes) -> Point:
    s = group.key_size_octets
    if len(data) != 2 * s:
        raise InvalidPointError(f"expected {2 * s} octets, got {len(data)}")
    point = (int.from_bytes(data[:s], "big"), int.from_bytes(data[s:], "big"))
    if not is_on_curve(group, point):
        raise InvalidPointError("coordinates are not a point on the curve")
    return point


def point_x_octets(group: EcGroup, point: Point) -> bytes:
    return point[0].to_bytes(group.key_size_octets, "big")


def point_from_x_octets(group: EcGroup, data: bytes) -> Point:
    """Recover the even-y point for an x-only encoding.  Data that does not
    decode raises on every call and is never remembered."""
    key = (group.group_id, data)
    return _recall(_decode_memo, key, lambda: _decode_x(group, data), KEY_MEMO_ENTRIES)


def _decode_x(group: EcGroup, data: bytes) -> Point:
    if len(data) != group.key_size_octets:
        raise InvalidPointError(
            f"expected {group.key_size_octets} octets, got {len(data)}"
        )
    p = group.field_p
    x = int.from_bytes(data, "big")
    if x >= p:
        raise InvalidPointError("x coordinate out of field range")
    y = _mod_sqrt(group, x * x * x - 3 * x + group.curve_b)
    if y is None:
        raise InvalidPointError("x coordinate is not on the curve")
    if y % 2:
        y = p - y
    return (x, y)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


class SeededRng:
    """Deterministic byte stream: SHA-256 in counter mode over (seed, label).

    child() derives an independent stream, so stations and sessions can
    each consume randomness without perturbing one another's draws.
    """

    def __init__(self, seed: int | bytes, label: bytes = b""):
        if isinstance(seed, int):
            # [0, 2^128) keeps its 16 octets; any other int is its decimal text,
            # padded to 17 octets or more, so no two ints share a key
            seed = seed.to_bytes(16, "big") if 0 <= seed < 1 << 128 else b"%017d" % seed
        self._state = _DIGEST(b"soapsim.rng\x00" + seed + b"\x00" + label).digest()
        self._counter = 0
        self._pool = b""

    def child(self, label: bytes | str) -> "SeededRng":
        if isinstance(label, str):
            label = label.encode()
        rng = SeededRng.__new__(SeededRng)
        rng._state = _DIGEST(self._state + b"\x01child\x00" + label).digest()
        rng._counter = 0
        rng._pool = b""
        return rng

    def randbytes(self, n: int) -> bytes:
        while len(self._pool) < n:
            block = _DIGEST(
                self._state + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def uniform_scalar(self, group: EcGroup) -> int:
        """Draw uniformly from [1, n-1] by rejection sampling."""
        n = group.order_n
        nbytes = (n.bit_length() + 7) // 8
        shift = 8 * nbytes - n.bit_length()
        while True:
            candidate = int.from_bytes(self.randbytes(nbytes), "big") >> shift
            if 1 <= candidate < n:
                return candidate


# ---------------------------------------------------------------------------
# ECDH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    """A private scalar and its public point: an ECDH ephemeral or an ECDSA
    signing key."""

    group: EcGroup
    private_scalar: int
    public_point: Point


class SharedPsk(bytes):
    """32-octet pre-shared key: SHA-256 over the shared point's x coordinate."""

    def __new__(cls, data: bytes):
        if len(data) != PSK_OCTETS:
            raise ValueError(f"PSK must be {PSK_OCTETS} octets")
        return super().__new__(cls, data)


def ecdh_generate(group: EcGroup, rng: SeededRng) -> KeyPair:
    d = rng.uniform_scalar(group)
    public = point_mul(group, d)
    assert public is not None
    return KeyPair(group, d, public)


def ecdh_agree(own: KeyPair, peer_public: Point) -> SharedPsk:
    group = own.group
    if not is_on_curve(group, peer_public) or peer_public is None:
        raise InvalidPointError("peer public value is not on the curve")
    shared = point_mul(group, own.private_scalar, peer_public)
    if shared is None:
        raise InvalidPointError("shared secret degenerated to the identity")
    return SharedPsk(_DIGEST(point_x_octets(group, shared)).digest())


# ---------------------------------------------------------------------------
# ECDSA (deterministic per RFC 6979, SHA-256 throughout)
# ---------------------------------------------------------------------------


def _recall(memo: OrderedDict, key, make, entries: int = MEMO_ENTRIES):
    """memo[key], made by make() on a miss; past `entries` the least recently
    used entry is dropped.  A make() that raises stores nothing."""
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    value = memo[key] = make()
    if len(memo) > entries:
        memo.popitem(last=False)
    return value


# (group id, verify key) -> the key's comb tables, or None until its second
# verify; ordered from least to most recently verified.  A key's comb costs
# about eight verifies under it to build, twice a one-block comb, and repays
# that difference after 12 to 19 verifies of the key; a long-lived AP key
# makes far more.  A key verified once never pays for one, and a run that
# cycles through more keys than the memo holds (the 30-client crowd
# scenario) builds none instead of one per verify.
_key_memo: OrderedDict = OrderedDict()
_decode_memo: OrderedDict = OrderedDict()  # (group id, x octets) -> signer key
_verdict_memo: OrderedDict = OrderedDict()  # (group id, key, message, signature)
_signature_memo: OrderedDict = OrderedDict()  # (group id, public point, message)


def _key_table(group: EcGroup, point: Point) -> Comb | None:
    """The comb tables of a verify key seen before, or None on its first verify."""
    key = (group.group_id, point)
    if key in _key_memo and _key_memo[key] is None:
        _key_memo[key] = _comb_table(group, point)
    return _recall(_key_memo, key, lambda: None, KEY_MEMO_ENTRIES)


def ecdsa_generate(group: EcGroup, rng: SeededRng) -> KeyPair:
    """Generate a signing key whose public point has even y.

    The advertisement carries only the x coordinate, so the key is
    canonicalised at generation time: if d*G has odd y, d is replaced by
    n - d, which negates the point without changing x.
    """
    key = ecdh_generate(group, rng)
    x, y = key.public_point
    if y % 2:
        key = KeyPair(group, group.order_n - key.private_scalar, (x, group.field_p - y))
    return key


def _bits2int(data: bytes, n: int) -> int:
    value = int.from_bytes(data, "big")
    excess = 8 * len(data) - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _int2octets(value: int, n: int) -> bytes:
    return value.to_bytes((n.bit_length() + 7) // 8, "big")


def _deterministic_nonce(group: EcGroup, private_scalar: int, digest: bytes) -> int:
    """HMAC-SHA256 DRBG nonce derivation keyed on the private key and digest."""
    n = group.order_n
    h1 = _bits2int(digest, n) % n
    v = b"\x01" * _DIGEST_OCTETS
    k = b"\x00" * _DIGEST_OCTETS
    seed = _int2octets(private_scalar, n) + _int2octets(h1, n)
    k = hmac.new(k, v + b"\x00" + seed, _DIGEST).digest()
    v = hmac.new(k, v, _DIGEST).digest()
    k = hmac.new(k, v + b"\x01" + seed, _DIGEST).digest()
    v = hmac.new(k, v, _DIGEST).digest()
    nbytes = (n.bit_length() + 7) // 8
    while True:
        t = b""
        while len(t) < nbytes:
            v = hmac.new(k, v, _DIGEST).digest()
            t += v
        candidate = _bits2int(t[:nbytes], n)
        if 1 <= candidate < n:
            return candidate
        k = hmac.new(k, v + b"\x00", _DIGEST).digest()
        v = hmac.new(k, v, _DIGEST).digest()


def ecdsa_sign(key: KeyPair, message: bytes) -> bytes:
    """Sign SHA-256(message); returns r || s, each key_size_octets wide.

    Nonces are derived deterministically from the key and digest, so a
    given (key, message) pair always yields the same signature and runs
    never depend on platform entropy.
    """
    memo_key = (key.group.group_id, key.public_point, bytes(message))
    return _recall(_signature_memo, memo_key, lambda: _sign(key, message))


def _sign(key: KeyPair, message: bytes) -> bytes:
    group = key.group
    n = group.order_n
    digest = _DIGEST(message).digest()
    e = _bits2int(digest, n) % n
    while True:
        k = _deterministic_nonce(group, key.private_scalar, digest)
        point = point_mul(group, k)
        assert point is not None
        r = point[0] % n
        if r == 0:
            digest = _DIGEST(digest).digest()  # unreachable in practice
            continue
        s = (e + r * key.private_scalar) * pow(k, -1, n) % n
        if s == 0:
            digest = _DIGEST(digest).digest()
            continue
        return scalar_to_octets(group, r) + scalar_to_octets(group, s)


def ecdsa_verify(
    group: EcGroup, public_point: Point, message: bytes, signature: bytes
) -> bool:
    key = (group.group_id, public_point, bytes(message), bytes(signature))
    return _recall(_verdict_memo, key, lambda: _verify(group, *key[1:]))


def _verify(group: EcGroup, public_point: Point, message: bytes, signature: bytes) -> bool:
    width = group.key_size_octets
    if len(signature) != 2 * width:
        return False
    n = group.order_n
    r = int.from_bytes(signature[:width], "big")
    s = int.from_bytes(signature[width:], "big")
    if not (1 <= r < n and 1 <= s < n):
        return False
    if not is_on_curve(group, public_point) or public_point is None:
        return False
    e = _bits2int(_DIGEST(message).digest(), n) % n
    w = pow(s, -1, n)
    u1 = e * w % n
    u2 = r * w % n
    tables = _key_table(group, public_point)
    if tables is None:
        second = [(_odd_table(group, public_point), _wnaf_digits(u2))]
    else:
        second = _comb_pairs(group, tables, u2)
    x, _, z = _mul(group, _comb_pairs(group, group._comb, u1) + second)
    if not z:
        return False
    # The affine x/z^2 lies in [0, p) and p < 2n, so it is r mod n just when
    # it is r, or r + n below p: compare x with r*z^2 and (r + n)*z^2 and
    # make no inversion (libsecp256k1's secp256k1_gej_eq_x_var).
    p = group.field_p
    zz = z * z % p
    return x == r * zz % p or (r < p - n and x == (r + n) * zz % p)
