"""Structural synthesis of the composite-field S-box into a gate netlist.

The circuit follows the tower-route block structure:

    input byte
      -> front linear layer:  basis change into (hi, lo) nibbles, plus the
                              nibble sum hi+lo and the scaled square
                              lam*hi^2 (both GF(2)-linear in the input)
      -> 4-bit multiply (hi+lo)*lo and XOR with lam*hi^2   -> d
      -> 4-bit inverse of d                                -> dinv
      -> 4-bit multiplies dinv*hi and dinv*(hi+lo)
      -> back linear layer:   inverse basis change merged with the affine
                              transform into one matrix plus constant

Area discipline: every multiplier is Karatsuba over GF(2^2), emitting only
its AND products; all surrounding XOR structure (Karatsuba recombination,
sums of products, the basis-change matrices, the affine constant) is kept
symbolic and realized in a handful of jointly-factored linear blocks.  The
builder also hash-conses gates, so operand sums shared between multipliers
are built once.  Under the default cost table this lands the full S-box at
about 275 GE / 134 gates.

The returned netlist is checked against the published S-box table on all
256 inputs before it leaves this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .gf import (FieldParams, InvalidParamsError, gf4_mul, gf16_square_scale,
                 mat8_mul, mat_apply, mat_transpose, sbox_reference)
from .netlist import Gate, Netlist


class NetlistBuilder:
    """Incremental netlist construction with hash-consing.

    Commutative two-input gates and NOT/BUF are cached by (kind, fanins),
    so structurally identical subterms collapse to one gate.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.kinds: list[str] = []
        self.fanins: list[tuple[int, ...]] = []
        self._cache: dict = {}

    @property
    def inputs(self) -> list[int]:
        return list(range(self.n_inputs))

    def emit(self, kind: str, *fanin: int) -> int:
        sig = self.n_inputs + len(self.kinds)
        self.kinds.append(kind)
        self.fanins.append(tuple(fanin))
        return sig

    def _cached(self, kind: str, key, *fanin: int) -> int:
        sig = self._cache.get((kind, key))
        if sig is None:
            sig = self.emit(kind, *fanin)
            self._cache[(kind, key)] = sig
        return sig

    def xor(self, a: int, b: int) -> int:
        return self._cached("XOR2", frozenset((a, b)), a, b)

    def xnor(self, a: int, b: int) -> int:
        return self._cached("XNOR2", frozenset((a, b)), a, b)

    def and_(self, a: int, b: int) -> int:
        return self._cached("AND2", frozenset((a, b)), a, b)

    def not_(self, a: int) -> int:
        return self._cached("NOT", a, a)

    def build(self, outputs: list[int]) -> Netlist:
        nl = Netlist(
            inputs=tuple(range(self.n_inputs)),
            outputs=tuple(outputs),
            gates=tuple(Gate(self.n_inputs + i, k, f)
                        for i, (k, f) in enumerate(zip(self.kinds, self.fanins))),
        )
        nl.validate()
        return nl


def build_linear_block(b: NetlistBuilder, rows: list[int], in_sigs: list[int],
                       invert_mask: int = 0) -> list[int]:
    """Realize y_i = XOR of in_sigs selected by rows[i], inverted where
    invert_mask has bit i set.

    Greedy shared-subexpression elimination: while some signal pair occurs
    in two or more rows, factor the most frequent pair (ties broken by
    lowest ids, so construction is deterministic) into one XOR2 and
    substitute it.  Remaining terms reduce as balanced trees; an inverted
    row ends in XNOR2, or NOT if a single term remains.
    """
    terms = []
    for row in rows:
        t = {in_sigs[j] for j in range(len(in_sigs)) if (row >> j) & 1}
        if not t:
            raise ValueError("constant-zero row in linear block")
        terms.append(t)

    # Pair counts over every row, kept up to date: a rewritten row loses
    # its pairs with x or y and gains one with the new signal for each
    # other term.  The builder may return an older signal for x ^ y, even
    # one the row already holds (which then gains nothing), so pairs with
    # it are ordered too.  A pair that drops to 0 stays, never chosen.
    counts = Counter(p for t in terms for p in combinations(sorted(t), 2))
    while (top := max(counts.values(), default=0)) >= 2:
        x, y = best = min(p for p, c in counts.items() if c == top)
        new = b.xor(x, y)
        for t in terms:
            if x in t and y in t:
                t.difference_update(best)
                counts[best] -= 1
                for z in t:
                    counts[(z, x) if z < x else (x, z)] -= 1
                    counts[(z, y) if z < y else (y, z)] -= 1
                if new not in t:
                    counts.update((z, new) if z < new else (new, z) for z in t)
                    t.add(new)

    outs = []
    for i, t in enumerate(terms):
        level = sorted(t)
        invert = (invert_mask >> i) & 1
        while len(level) > 1:
            nxt = []
            for k in range(0, len(level) - 1, 2):
                if invert and len(level) == 2:
                    nxt.append(b.xnor(level[k], level[k + 1]))
                    invert = 0
                else:
                    nxt.append(b.xor(level[k], level[k + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        outs.append(b.not_(level[0]) if invert else level[0])
    return outs


# ---------------------------------------------------------------------------
# Symbolic XOR combinations.  A value is a frozenset of wire ids whose XOR
# it denotes; multipliers emit AND wires and keep everything downstream of
# them symbolic until a linear block realizes the combinations it needs.
# ---------------------------------------------------------------------------


def _wire(w: int) -> frozenset:
    return frozenset((w,))


def _materialize(b: NetlistBuilder, syms: list[frozenset],
                 invert_mask: int = 0) -> list[int]:
    atoms = sorted(set().union(*syms))
    index = {a: i for i, a in enumerate(atoms)}
    rows = [sum(1 << index[a] for a in s) for s in syms]
    return build_linear_block(b, rows, atoms, invert_mask)


def _kara4_products(b: NetlistBuilder, a2: list[int], c2: list[int],
                    sum_a: int, sum_c: int) -> list[frozenset]:
    """GF(2^2) Karatsuba multiplier: three AND products, result symbolic.

    With p0 = a0c0, p1 = a1c1, ps = (a0+a1)(c0+c1):
    bit0 = p0 + p1, bit1 = ps + p0.
    """
    p1 = b.and_(a2[1], c2[1])
    p0 = b.and_(a2[0], c2[0])
    ps = b.and_(sum_a, sum_c)
    return [_wire(p0) ^ _wire(p1), _wire(ps) ^ _wire(p0)]


def _mul16_products(b: NetlistBuilder, a4: list[int], c4: list[int],
                    phi: int, a_half_sum: list[int], c_half_sum: list[int],
                    a_sums: tuple[int, int, int],
                    c_sums: tuple[int, int, int]) -> list[frozenset]:
    """GF((2^2)^2) Karatsuba multiplier over wire operands.

    a_sums / c_sums are the single-bit operand sums (hi digit, lo digit,
    half-sum digit) the inner GF(2^2) multipliers need; callers create them
    with b.xor so the hash-cons cache shares them between multipliers.
    Returns the symbolic 4-bit product, low bits first.
    """
    mh = _kara4_products(b, a4[2:4], c4[2:4], a_sums[0], c_sums[0])
    ml = _kara4_products(b, a4[0:2], c4[0:2], a_sums[1], c_sums[1])
    ms = _kara4_products(b, a_half_sum, c_half_sum, a_sums[2], c_sums[2])
    scaled = mat_apply(mat_transpose((gf4_mul(phi, 1), gf4_mul(phi, 2))),
                       mh, frozenset())
    return [scaled[0] ^ ml[0], scaled[1] ^ ml[1],
            ms[0] ^ ml[0], ms[1] ^ ml[1]]


def _operand_sums(b: NetlistBuilder, v4: list[int]) -> tuple[list[int], tuple]:
    """Half-sum pair and the three 1-bit Karatsuba sums of a 4-bit operand."""
    half = [b.xor(v4[0], v4[2]), b.xor(v4[1], v4[3])]
    sums = (b.xor(v4[2], v4[3]), b.xor(v4[0], v4[1]), b.xor(half[0], half[1]))
    return half, sums


# ---------------------------------------------------------------------------
# Whole S-box
# ---------------------------------------------------------------------------


def synth_sbox(params: FieldParams) -> Netlist:
    """Build the 8-in/8-out S-box netlist and verify it exhaustively.

    Raises InvalidParamsError if the netlist disagrees with the published
    table on any byte (which would mean the parameter set is inconsistent).
    """
    b = NetlistBuilder(8)
    x = b.inputs
    phi = params.phi

    # Front linear layer: rows of the basis change give lo (0..3) and hi
    # (4..7); the nibble sum and lam*hi^2 are linear in the input too, so
    # all 16 rows are factored jointly.
    xs = [_wire(w) for w in x]
    lo_rows = mat_apply(params.delta[0:4], xs, frozenset())
    hi_rows = mat_apply(params.delta[4:8], xs, frozenset())
    sum_rows = [lo_rows[i] ^ hi_rows[i] for i in range(4)]
    sq = mat_transpose([gf16_square_scale(1 << j, params) for j in range(4)])
    sq_rows = mat_apply(sq, hi_rows, frozenset())

    fw = _materialize(b, lo_rows + hi_rows + sum_rows + sq_rows)
    lo, hi, nsum, sqscale = fw[0:4], fw[4:8], fw[8:12], fw[12:16]

    nsum_half, nsum_sums = _operand_sums(b, nsum)
    lo_half, lo_sums = _operand_sums(b, lo)
    hi_half, hi_sums = _operand_sums(b, hi)

    # d = (hi + lo)*lo + lam*hi^2.  The multiplier's recombination XORs and
    # the final sum are all linear, so they fold into one block that also
    # provides the wires the inversion stage multiplies with.
    m1 = _mul16_products(b, nsum, lo, phi, nsum_half, lo_half,
                         nsum_sums, lo_sums)
    d_syms = [m1[i] ^ _wire(sqscale[i]) for i in range(4)]
    d_half_syms = [d_syms[0] ^ d_syms[2], d_syms[1] ^ d_syms[3]]
    mid = _materialize(b, d_syms + d_half_syms)
    d, d_half = mid[0:4], mid[4:6]
    sum_dhalf = b.xor(d_half[0], d_half[1])
    sum_dlo = b.xor(d[0], d[1])
    sum_dhi = b.xor(d[2], d[3])

    # GF((2^2)^2) inversion of d: delta = (d_hi + d_lo)*d_lo + phi*d_hi^2
    # over GF(2^2); its inverse is its square; then dinv = (delta_inv*d_hi,
    # delta_inv*(d_hi + d_lo)).
    prod = _kara4_products(b, d_half, d[0:2], sum_dhalf, sum_dlo)
    sq_scale_images = [gf4_mul(phi, 1), gf4_mul(phi, gf4_mul(2, 2))]
    ph_sq = mat_apply(mat_transpose(sq_scale_images),
                      [_wire(d[2]), _wire(d[3])], frozenset())
    delta = [prod[0] ^ ph_sq[0], prod[1] ^ ph_sq[1]]
    delta_inv_syms = [delta[0] ^ delta[1], delta[1]]
    dinv2 = _materialize(b, delta_inv_syms)
    sum_dinv2 = b.xor(dinv2[0], dinv2[1])

    inv_hi = _kara4_products(b, dinv2, d[2:4], sum_dinv2, sum_dhi)
    inv_lo = _kara4_products(b, dinv2, d_half, sum_dinv2, sum_dhalf)
    dinv = _materialize(b, inv_lo + inv_hi)
    dinv_half, dinv_sums = _operand_sums(b, dinv)

    # Output nibbles dinv*hi and dinv*(hi+lo); their recombination feeds
    # straight into the merged inverse-basis-change / affine matrix, with
    # the affine constant as XNOR finals.
    out_hi = _mul16_products(b, dinv, hi, phi, dinv_half, hi_half,
                             dinv_sums, hi_sums)
    out_lo = _mul16_products(b, dinv, nsum, phi, dinv_half, nsum_half,
                             dinv_sums, nsum_sums)
    sigma = out_lo + out_hi
    merged = mat8_mul(params.affine_a, params.delta_inv)
    y_syms = mat_apply(merged, sigma, frozenset())
    y = _materialize(b, y_syms, invert_mask=params.affine_b)

    nl = b.build(y)
    for v, got in enumerate(nl.truth_table()):
        want = sbox_reference(v)
        if got != want:
            raise InvalidParamsError(
                f"synthesized netlist wrong at 0x{v:02x}: got 0x{got:02x}, "
                f"expected 0x{want:02x}")
    return nl
