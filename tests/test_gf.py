"""Field-core tests: exhaustive axioms at every tower level plus the
published S-box table as the independent oracle."""

import pytest
from hypothesis import given, strategies as st

from sboxsim.gf import (AFFINE_ROWS, DEFAULT_PARAMS, FieldParams,
                        InvalidParamsError, TowerElem, affine_transform,
                        derive_field_params, gf4_inv, gf4_mul, gf16_inv,
                        gf16_mul, gf16_square_scale, gf256_mul,
                        gf256_tower_inv, gf256_tower_mul, map_iso,
                        map_iso_inv, mat8_inv, mat8_mul, mat8_vec,
                        sbox_composite, sbox_reference, validate_params)

P = DEFAULT_PARAMS


def brute_force_gf256_inv(x: int) -> int:
    """Independent oracle: search GF(2^8) for y with x*y = 1."""
    if x == 0:
        return 0
    for y in range(256):
        if gf256_mul(x, y) == 1:
            return y
    raise AssertionError(f"no inverse found for {x:#x}")


# ---------------------------------------------------------------------------
# GF(2^2)
# ---------------------------------------------------------------------------


def test_gf4_identity_and_annihilator():
    assert gf4_mul(0b01, 0b11) == 0b11
    for a in range(4):
        assert gf4_mul(1, a) == a
        assert gf4_mul(0, a) == 0


def test_gf4_squares():
    # x * x = x + 1 mod x^2 + x + 1
    assert gf4_mul(0b10, 0b10) == 0b11
    assert gf4_mul(0b11, 0b11) == 0b10


def test_gf4_mul_matches_polynomial_brute_force():
    # Multiply 2-bit polynomials over GF(2), reduce by w^2 = w + 1.
    for a in range(4):
        for b in range(4):
            prod = 0
            for i in range(2):
                for j in range(2):
                    if (a >> i) & 1 and (b >> j) & 1:
                        prod ^= 1 << (i + j)
            if prod & 4:
                prod = (prod ^ 4) ^ 0b11
            assert gf4_mul(a, b) == prod


def test_gf4_commutative_associative_distributive():
    for a in range(4):
        for b in range(4):
            assert gf4_mul(a, b) == gf4_mul(b, a)
            for c in range(4):
                assert gf4_mul(gf4_mul(a, b), c) == gf4_mul(a, gf4_mul(b, c))
                assert gf4_mul(a, b ^ c) == gf4_mul(a, b) ^ gf4_mul(a, c)


def test_gf4_inverses():
    assert gf4_inv(0b01) == 0b01
    assert gf4_inv(0b00) == 0b00
    assert gf4_inv(0b10) == 0b11
    for a in range(1, 4):
        assert gf4_mul(a, gf4_inv(a)) == 1


# ---------------------------------------------------------------------------
# GF((2^2)^2)
# ---------------------------------------------------------------------------


def test_gf16_identity_and_annihilator():
    for a in range(16):
        assert gf16_mul(0x1, a, P) == a
        assert gf16_mul(0x0, a, P) == 0


def test_gf16_commutative_associative_distributive():
    for a in range(16):
        for b in range(16):
            assert gf16_mul(a, b, P) == gf16_mul(b, a, P)
            for c in range(16):
                assert (gf16_mul(gf16_mul(a, b, P), c, P)
                        == gf16_mul(a, gf16_mul(b, c, P), P))
                assert (gf16_mul(a, b ^ c, P)
                        == gf16_mul(a, b, P) ^ gf16_mul(a, c, P))


def test_gf16_inverses_exhaustive():
    assert gf16_inv(0x1, P) == 0x1
    assert gf16_inv(0x0, P) == 0x0
    for a in range(1, 16):
        assert gf16_mul(a, gf16_inv(a, P), P) == 0x1


def test_gf16_square_scale_table_and_linearity():
    # Reference: compose multiplication with itself, then scale by lam.
    table = [gf16_mul(gf16_mul(a, a, P), P.lam, P) for a in range(16)]
    for a in range(16):
        assert gf16_square_scale(a, P) == table[a]
        for b in range(16):
            assert (gf16_square_scale(a ^ b, P)
                    == gf16_square_scale(a, P) ^ gf16_square_scale(b, P))
    assert gf16_square_scale(0, P) == 0


# ---------------------------------------------------------------------------
# Tower GF(2^8)
# ---------------------------------------------------------------------------


def test_tower_inv_zero_and_one():
    one = map_iso(0x01, P)
    assert gf256_tower_inv(one, P) == one
    zero = TowerElem(0, 0)
    assert gf256_tower_inv(zero, P) == zero


def test_tower_inv_matches_brute_force_everywhere():
    for x in range(256):
        t = map_iso(x, P)
        inv = map_iso_inv(gf256_tower_inv(t, P), P)
        assert inv == brute_force_gf256_inv(x), f"mismatch at {x:#x}"


def test_tower_inv_is_involution_on_nonzero():
    for x in range(1, 256):
        t = map_iso(x, P)
        assert gf256_tower_inv(gf256_tower_inv(t, P), P) == t


def test_tower_mul_sampled_against_aes_basis():
    # The basis change must be a ring isomorphism; spot-check products.
    for a in range(0, 256, 7):
        for b in range(0, 256, 11):
            lhs = map_iso(gf256_mul(a, b), P).byte
            rhs = gf256_tower_mul(map_iso(a, P).byte, map_iso(b, P).byte, P)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Basis change and affine
# ---------------------------------------------------------------------------


def test_iso_roundtrip_all_bytes():
    for x in range(256):
        assert map_iso_inv(map_iso(x, P), P) == x
    for x in range(256):
        t = TowerElem.from_byte(x)
        assert map_iso(map_iso_inv(t, P), P) == t


def test_iso_linearity():
    assert map_iso(0, P).byte == 0
    for a in range(0, 256, 5):
        for b in range(0, 256, 9):
            assert (map_iso(a ^ b, P).byte
                    == map_iso(a, P).byte ^ map_iso(b, P).byte)


def test_affine_known_values():
    # inv(0) = 0 and inv(1) = 1, so these follow from the published table.
    assert affine_transform(0x00, P) == 0x63
    assert affine_transform(0x01, P) == 0x7C


def test_affine_linear_part():
    for a in range(0, 256, 3):
        for b in range(0, 256, 7):
            lin = lambda v: affine_transform(v, P) ^ P.affine_b
            assert lin(a ^ b) == lin(a) ^ lin(b)


# ---------------------------------------------------------------------------
# The two S-box routes
# ---------------------------------------------------------------------------


def test_sbox_reference_known_values():
    assert sbox_reference(0x00) == 0x63
    assert sbox_reference(0x53) == 0xED


def test_sbox_reference_is_permutation():
    assert sorted(sbox_reference(x) for x in range(256)) == list(range(256))


def test_sbox_composite_equals_reference_everywhere():
    for x in range(256):
        assert sbox_composite(x, P) == sbox_reference(x), f"byte {x:#x}"


# ---------------------------------------------------------------------------
# Parameters: derivation, serialization, corruption
# ---------------------------------------------------------------------------


def test_mat8_inverse_roundtrip():
    ident = tuple(1 << i for i in range(8))
    assert mat8_mul(P.delta, P.delta_inv) == ident
    assert mat8_mul(P.delta_inv, P.delta) == ident
    assert mat8_inv(P.delta) == P.delta_inv


def test_default_params_survive_validation():
    validate_params(P)


def test_alternate_published_constants_also_validate():
    # The classic polynomial-basis choice; more expensive but equally valid.
    alt = derive_field_params(lam=0xC, phi=0x2, root_rank=0)
    validate_params(alt)
    for x in range(256):
        assert sbox_composite(x, alt) == sbox_reference(x)


def test_reducible_constants_rejected():
    # y^2 + y + 1 factors over GF(2^2), so phi=1 admits no isomorphism.
    with pytest.raises(InvalidParamsError):
        derive_field_params(lam=0xC, phi=0x1)


def test_corrupted_delta_rejected():
    rows = list(P.delta)
    rows[3] ^= 0x14
    bad = FieldParams(lam=P.lam, phi=P.phi, delta=tuple(rows),
                      delta_inv=P.delta_inv)
    with pytest.raises(InvalidParamsError):
        validate_params(bad)


def test_params_json_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    P.save(path)
    again = FieldParams.load(path)
    assert again == P
    assert again.sha256() == P.sha256()


_rows = st.lists(st.integers(0, 255), min_size=8, max_size=8).map(tuple)


@given(st.builds(FieldParams, lam=st.integers(0, 255),
                 phi=st.integers(0, 255), delta=_rows, delta_inv=_rows,
                 affine_a=_rows, affine_b=st.integers(0, 255)))
def test_params_json_round_trip_property(params):
    assert FieldParams.from_json(params.to_json()) == params


def test_affine_rows_match_fips_rotation_structure():
    expect = []
    for i in range(8):
        row = 0
        for k in (0, 4, 5, 6, 7):
            row |= 1 << ((i + k) % 8)
        expect.append(row)
    assert AFFINE_ROWS == tuple(expect)
    assert mat8_vec(AFFINE_ROWS, 0) == 0
