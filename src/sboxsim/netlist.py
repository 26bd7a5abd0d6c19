"""Immutable gate-level circuit representation with evaluation and costing.

A netlist is a DAG of simple gates over dense integer signal ids.  Signals
0..n_inputs-1 are the primary inputs; each gate drives exactly one new
signal whose id equals the gate id, and gates are stored in topological
order (every fanin id is strictly smaller than the gate id).  Evaluation
is a pure function of the input bit vector.

Area uses the gate-equivalent (GE) convention: one two-input NAND is 1.0.
Delay is a unit-less additive number per gate; wire delay is zero.  Both
come from a CostTable, never from individual gates, so designs can be
re-costed against a different cell library by swapping one table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


class NetlistError(ValueError):
    pass


class CyclicNetlistError(NetlistError):
    """A gate reads its own output or a later gate's output."""


class UndefinedSignalError(NetlistError):
    """A fanin or output id does not name an input or a gate."""


class ArityMismatchError(NetlistError):
    """A gate has the wrong number of fanins for its kind."""


class InputWidthMismatchError(NetlistError):
    """An evaluation was given the wrong number of input bits."""


# Gate kind -> (fanin arity, output as a bitwise Python expression over the
# fanins {0}, {1}, {2} and the constant {one}).  MUX2 fanin order is
# (select, d0, d1).  {one} is 1 for single bits and the all-ones lane mask
# for bit-sliced words, so each expression serves both.  This table is the
# only definition of gate behaviour: Netlist.evaluate and the compiled
# pipeline stages, scalar and bit-sliced, are all generated from it.
GATES = {
    "XOR2": (2, "{0} ^ {1}"),
    "XNOR2": (2, "{one} ^ {0} ^ {1}"),
    "AND2": (2, "{0} & {1}"),
    "NAND2": (2, "{one} ^ ({0} & {1})"),
    "OR2": (2, "{0} | {1}"),
    "NOR2": (2, "{one} ^ ({0} | {1})"),
    "NOT": (1, "{one} ^ {0}"),
    "BUF": (1, "{0}"),
    "MUX2": (3, "({0} & {2}) | (({one} ^ {0}) & {1})"),
}

# Each kind's output as a function of (signal values, fanin ids, one).
_GATE_FN = {kind: eval("lambda v, f, one: "
                       + expr.format("v[f[0]]", "v[f[1]]", "v[f[2]]",
                                     one="one"))
            for kind, (_, expr) in GATES.items()}


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    fanin: tuple[int, ...]


@dataclass(frozen=True)
class Netlist:
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    gates: tuple[Gate, ...]

    @property
    def signal_count(self) -> int:
        return len(self.inputs) + len(self.gates)

    def validate(self) -> None:
        """Check acyclicity, arity, and that every referenced signal exists.

        Errors name the offending gate id.  Gates must already be listed in
        topological order; a fanin at or beyond a gate's own id is reported
        as a cycle.
        """
        n_in = len(self.inputs)
        if tuple(self.inputs) != tuple(range(n_in)):
            raise UndefinedSignalError("primary inputs must be ids 0..n-1")
        for pos, g in enumerate(self.gates):
            if g.id != n_in + pos:
                raise UndefinedSignalError(
                    f"gate {g.id}: ids must be dense and in order")
            if g.kind not in GATES:
                raise ArityMismatchError(f"gate {g.id}: unknown kind {g.kind!r}")
            arity = GATES[g.kind][0]
            if len(g.fanin) != arity:
                raise ArityMismatchError(
                    f"gate {g.id}: {g.kind} takes {arity} fanins, "
                    f"got {len(g.fanin)}")
            for f in g.fanin:
                if f < 0 or f >= self.signal_count:
                    raise UndefinedSignalError(f"gate {g.id}: fanin {f} undefined")
                if f >= g.id:
                    raise CyclicNetlistError(
                        f"gate {g.id}: fanin {f} is not an earlier signal")
        for o in self.outputs:
            if o < 0 or o >= self.signal_count:
                raise UndefinedSignalError(f"output {o} undefined")

    def evaluate(self, inputs: Sequence[int]) -> list[int]:
        """Combinational evaluation in topological order.

        inputs and the returned outputs are bit sequences in declared order.
        """
        if len(inputs) != len(self.inputs):
            raise InputWidthMismatchError(
                f"expected {len(self.inputs)} input bits, got {len(inputs)}")
        vals = list(inputs) + [0] * len(self.gates)
        for g in self.gates:
            vals[g.id] = _GATE_FN[g.kind](vals, g.fanin, 1)
        return [vals[o] for o in self.outputs]

    @cached_property
    def input_lanes(self) -> tuple[int, ...]:
        """The inputs bit-sliced over every input value: bit x of word k
        is bit k of x, for x in 0 .. 2**n_inputs - 1."""
        n_in = len(self.inputs)
        return tuple(sum(1 << x for x in range(1 << n_in) if x >> k & 1)
                     for k in range(n_in))

    def truth_table(self) -> list[int]:
        """The packed output (LSB-first) for every input value, from one
        bit-sliced pass over all of them."""
        n = 1 << len(self.inputs)
        one = (1 << n) - 1
        vals = list(self.input_lanes) + [0] * len(self.gates)
        for g in self.gates:
            vals[g.id] = _GATE_FN[g.kind](vals, g.fanin, one)
        outs = [vals[o] for o in self.outputs]
        return [sum((w >> x & 1) << i for i, w in enumerate(outs))
                for x in range(n)]

    def evaluate_byte(self, x: int) -> int:
        """Convenience for 8-in/8-out netlists: byte in, byte out, LSB-first."""
        return pack_bits(self.evaluate(unpack_bits(x, len(self.inputs))))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [{"id": g.id, "kind": g.kind, "fanin": list(g.fanin)}
                      for g in self.gates],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Netlist":
        nl = cls(
            inputs=tuple(doc["inputs"]),
            outputs=tuple(doc["outputs"]),
            gates=tuple(Gate(g["id"], g["kind"], tuple(g["fanin"]))
                        for g in doc["gates"]),
        )
        nl.validate()
        return nl

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        return cls.from_json_dict(json.loads(text))


def pack_bits(bits: Iterable[int]) -> int:
    word = 0
    for i, b in enumerate(bits):
        word |= (b & 1) << i
    return word


def unpack_bits(word: int, width: int) -> list[int]:
    return [(word >> i) & 1 for i in range(width)]


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

# Conventional GE ratios, normalized to NAND2 = 1.0 GE.  Delay defaults
# track the GE numbers (bigger cells are slower); both are configuration,
# since absolute numbers belong to whatever cell library is being mimicked.
_DEFAULT_COSTS = {
    "NAND2": (1.0, 1.0),
    "NOR2": (1.0, 1.0),
    "NOT": (0.67, 0.67),
    "AND2": (1.33, 1.33),
    "OR2": (1.33, 1.33),
    "XOR2": (2.33, 2.33),
    "XNOR2": (2.33, 2.33),
    "MUX2": (2.33, 2.33),
    "BUF": (0.0, 0.0),
}


@dataclass(frozen=True)
class CostTable:
    """Per-kind (GE, delay) pairs plus the flip-flop cost used by the
    redundancy and metrics layers (4.0 GE per register bit by default)."""

    entries: dict = field(default_factory=lambda: dict(_DEFAULT_COSTS))
    register_bit_ge: float = 4.0

    def __post_init__(self):
        missing = [kind for kind in GATES if kind not in self.entries]
        if missing:
            raise ValueError(f"no cost for gate kinds {', '.join(missing)}")
        if abs(self.entries["NAND2"][0] - 1.0) > 1e-12:
            raise ValueError("NAND2 defines the GE unit and must cost 1.0")
        for kind, (ge, dly) in self.entries.items():
            if ge < 0 or dly < 0:
                raise ValueError(f"{kind}: costs must be nonnegative")

    def ge(self, kind: str) -> float:
        return self.entries[kind][0]

    def delay(self, kind: str) -> float:
        return self.entries[kind][1]

    def to_json_dict(self) -> dict:
        return {
            "gates": {k: list(v) for k, v in sorted(self.entries.items())},
            "register_bit_ge": self.register_bit_ge,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CostTable":
        return cls(entries={k: tuple(v) for k, v in doc["gates"].items()},
                   register_bit_ge=doc.get("register_bit_ge", 4.0))

    @classmethod
    def load(cls, path) -> "CostTable":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def sha256(self) -> str:
        import hashlib      # on demand: loading OpenSSL adds ~3.5 MB RSS
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


DEFAULT_COSTS = CostTable()


def area_ge(netlist: Netlist, costs: CostTable = DEFAULT_COSTS) -> float:
    """Total gate-equivalent area: the sum over gates, additive by design."""
    return sum(costs.ge(g.kind) for g in netlist.gates)


def critical_path_delay(netlist: Netlist, costs: CostTable = DEFAULT_COSTS) -> float:
    """Longest input-to-output path delay (dynamic program in topo order)."""
    arrival = [0.0] * netlist.signal_count
    for g in netlist.gates:
        arrival[g.id] = max(arrival[f] for f in g.fanin) + costs.delay(g.kind)
    return max((arrival[o] for o in netlist.outputs), default=0.0)


def logic_depth(netlist: Netlist) -> int:
    """Maximum number of gates on any input-to-output path."""
    depth = [0] * netlist.signal_count
    for g in netlist.gates:
        depth[g.id] = max(depth[f] for f in g.fanin) + 1
    return max((depth[o] for o in netlist.outputs), default=0)
