"""Netlist representation: validation errors, evaluation, costing, JSON."""

import json

import pytest
from hypothesis import given, strategies as st

from sboxsim.netlist import (ArityMismatchError, CostTable, CyclicNetlistError,
                             DEFAULT_COSTS, GATES, Gate,
                             InputWidthMismatchError,
                             Netlist, UndefinedSignalError, area_ge,
                             critical_path_delay, logic_depth, pack_bits,
                             unpack_bits)


def xor_pair() -> Netlist:
    return Netlist(inputs=(0, 1), outputs=(2,),
                   gates=(Gate(2, "XOR2", (0, 1)),))


def test_validate_accepts_single_xor():
    xor_pair().validate()


def test_validate_rejects_self_reference():
    nl = Netlist(inputs=(0, 1), outputs=(2,), gates=(Gate(2, "XOR2", (0, 2)),))
    with pytest.raises(CyclicNetlistError) as e:
        nl.validate()
    assert "2" in str(e.value)


def test_validate_rejects_bad_arity():
    nl = Netlist(inputs=(0, 1), outputs=(2,), gates=(Gate(2, "NOT", (0, 1)),))
    with pytest.raises(ArityMismatchError) as e:
        nl.validate()
    assert "2" in str(e.value)


def test_validate_rejects_undefined_signal():
    nl = Netlist(inputs=(0, 1), outputs=(2,), gates=(Gate(2, "XOR2", (0, 9)),))
    with pytest.raises(UndefinedSignalError):
        nl.validate()
    nl2 = Netlist(inputs=(0, 1), outputs=(7,), gates=(Gate(2, "XOR2", (0, 1)),))
    with pytest.raises(UndefinedSignalError):
        nl2.validate()


def test_evaluate_truth_tables():
    cases = {
        "XOR2": [0, 1, 1, 0],
        "XNOR2": [1, 0, 0, 1],
        "AND2": [0, 0, 0, 1],
        "NAND2": [1, 1, 1, 0],
        "OR2": [0, 1, 1, 1],
        "NOR2": [1, 0, 0, 0],
    }
    for kind, table in cases.items():
        nl = Netlist(inputs=(0, 1), outputs=(2,), gates=(Gate(2, kind, (0, 1)),))
        for a in (0, 1):
            for b in (0, 1):
                assert nl.evaluate([a, b]) == [table[(b << 1) | a]], kind
    nl = Netlist(inputs=(0,), outputs=(1,), gates=(Gate(1, "NOT", (0,)),))
    assert nl.evaluate([0]) == [1] and nl.evaluate([1]) == [0]
    mux = Netlist(inputs=(0, 1, 2), outputs=(3,),
                  gates=(Gate(3, "MUX2", (0, 1, 2)),))
    assert mux.evaluate([0, 1, 0]) == [1]
    assert mux.evaluate([1, 1, 0]) == [0]


def test_truth_table_is_bit_sliced_evaluate():
    # Every gate kind once; the inverting kinds only come out right in the
    # high lanes if the lane mask stands in for the constant one.
    nl = Netlist(inputs=(0, 1, 2), outputs=(11, 5, 3), gates=(
        Gate(3, "XOR2", (0, 1)), Gate(4, "XNOR2", (1, 2)),
        Gate(5, "AND2", (3, 4)), Gate(6, "NAND2", (0, 2)),
        Gate(7, "OR2", (5, 6)), Gate(8, "NOR2", (7, 1)),
        Gate(9, "NOT", (8,)), Gate(10, "BUF", (9,)),
        Gate(11, "MUX2", (0, 10, 6))))
    assert nl.truth_table() == [pack_bits(nl.evaluate(unpack_bits(x, 3)))
                                for x in range(8)]


def test_evaluate_rejects_width_mismatch():
    with pytest.raises(InputWidthMismatchError):
        xor_pair().evaluate([0])


def test_evaluate_is_pure():
    nl = xor_pair()
    assert nl.evaluate([1, 0]) == nl.evaluate([1, 0]) == [1]


def test_area_empty_and_units():
    empty = Netlist(inputs=(0,), outputs=(0,), gates=())
    assert area_ge(empty) == 0.0
    nand = Netlist(inputs=(0, 1), outputs=(2,), gates=(Gate(2, "NAND2", (0, 1)),))
    assert area_ge(nand) == 1.0


def test_area_additive_under_duplication():
    one = Netlist(inputs=(0, 1), outputs=(3,),
                  gates=(Gate(2, "XOR2", (0, 1)), Gate(3, "AND2", (2, 1))))
    two = Netlist(inputs=(0, 1), outputs=(3, 5),
                  gates=(Gate(2, "XOR2", (0, 1)), Gate(3, "AND2", (2, 1)),
                         Gate(4, "XOR2", (0, 1)), Gate(5, "AND2", (4, 1))))
    assert abs(area_ge(two) - 2 * area_ge(one)) < 1e-12


def test_critical_path_single_gate_and_chain():
    nand = Netlist(inputs=(0,), outputs=(1,), gates=(Gate(1, "NOT", (0,)),))
    assert critical_path_delay(nand) == DEFAULT_COSTS.delay("NOT")
    k = 7
    gates = tuple(Gate(1 + i, "NAND2", (i, 0)) for i in range(k))
    chain = Netlist(inputs=(0,), outputs=(k,), gates=gates)
    assert abs(critical_path_delay(chain) - k * 1.0) < 1e-12
    assert logic_depth(chain) == k


def test_critical_path_takes_longer_branch():
    # Diamond: one branch of 2 gates, one of 3; the 3-gate path dominates.
    nl = Netlist(
        inputs=(0, 1), outputs=(7,),
        gates=(
            Gate(2, "NAND2", (0, 1)), Gate(3, "NAND2", (2, 1)),
            Gate(4, "NAND2", (0, 1)), Gate(5, "NAND2", (4, 1)),
            Gate(6, "NAND2", (5, 1)), Gate(7, "NAND2", (3, 6)),
        ))
    assert abs(critical_path_delay(nl) - 4.0) < 1e-12


def test_critical_path_never_decreases_with_inserted_gate():
    base = xor_pair()
    longer = Netlist(inputs=(0, 1), outputs=(3,),
                     gates=(Gate(2, "XOR2", (0, 1)), Gate(3, "BUF", (2,))))
    assert critical_path_delay(longer) >= critical_path_delay(base)


def test_netlist_json_roundtrip():
    nl = Netlist(inputs=(0, 1), outputs=(3,),
                 gates=(Gate(2, "XOR2", (0, 1)), Gate(3, "NOT", (2,))))
    again = Netlist.from_json(nl.to_json())
    assert again == nl


def test_pack_unpack_roundtrip():
    for word in (0, 1, 0x63, 0xFF):
        assert pack_bits(unpack_bits(word, 8)) == word


def test_cost_table_nand_unit_enforced():
    with pytest.raises(ValueError, match="NAND2 defines the GE unit"):
        CostTable(entries={**DEFAULT_COSTS.entries, "NAND2": (2.0, 1.0)})


def test_cost_table_json_roundtrip(tmp_path):
    path = tmp_path / "costs.json"
    DEFAULT_COSTS.save(path)
    again = CostTable.load(path)
    assert again.entries == DEFAULT_COSTS.entries
    assert again.register_bit_ge == 4.0
    assert again.sha256() == DEFAULT_COSTS.sha256()


_cost = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(st.fixed_dictionaries({kind: st.tuples(_cost, _cost)
                              for kind in GATES}),
       _cost, _cost)
def test_cost_table_json_round_trip_property(entries, nand_delay, reg_ge):
    costs = CostTable(entries={**entries, "NAND2": (1.0, nand_delay)},
                      register_bit_ge=reg_ge)
    doc = json.loads(json.dumps(costs.to_json_dict()))
    assert CostTable.from_json_dict(doc) == costs


def test_default_cost_ratios():
    c = DEFAULT_COSTS
    assert c.ge("NAND2") == 1.0
    assert c.ge("XOR2") == c.ge("XNOR2") == c.ge("MUX2") == 2.33
    assert c.ge("AND2") == c.ge("OR2") == 1.33
    assert c.ge("NOT") == 0.67
    assert c.ge("BUF") == 0.0
