"""Gate-count estimates for one conv layer under different weight codings.

Counts two-input NAND-equivalent gates for the multiplier-free datapaths:

    full adder      5 gates          ripple adder, width w: 5w
    2:1 mux bit     3 gates          barrel shifter, w bits x k stages: 3wk
    array multiplier, w1 x w2 bits:  6 * w1 * w2

Every scheme accumulates one output as a tree of J = fh*fw*cin operand
slots. For comparability the tree adders share one accumulator width,

    w_acc = act_bits + MAX_WEIGHT_SHIFT + ceil(log2 J) + 1,

sized for the widest weight shift any evaluated datapath applies (7
positions, a 3-stage barrel) plus sign. Scheme costs per output:

* ``shift:n`` — per weight, an n-stage barrel shifter over the activation
  (operand width act_bits + 2^n - 1) and a tree adder slot.
* ``fq:n`` — the recentralized code reuses the plain shift datapath (n - 2
  stages; the narrower exponent field leaves a stage idle), plus two
  component activation sums tapped from the tree and re-aligned into the
  output: 2 x (4-stage barrel at w_acc + adder).
* ``fq_huffman:n`` — ``fq:n`` plus an amortized 4 gates/weight for the
  canonical decoder front-end.
* ``binary_basis:N`` — N parallel binary trees; a +/-1 weight bit costs a
  mux per activation bit (3 * act_bits), each tree output joins the result
  through a 16x16-bit multiply-add against its high-precision scaling
  coefficient.

Totals multiply by oh * ow * cout output positions; stride only changes the
output count, never the per-output datapath.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .convops import conv_output_hw

FULL_ADDER = 5
MUX_BIT = 3

MAX_WEIGHT_SHIFT = 7  # widest power-of-two weight shift in any datapath
CENTER_ALIGN_STAGES = 4  # component-sum alignment barrel (shifts up to 15)
# amortized canonical-Huffman front-end: a flat cost per weight assumes the
# codec's 16-bit length limit, one 2^16-entry (length, symbol) table lookup
DECODE_GATES_PER_WEIGHT = 4
HP_COEFF_BITS = 16  # binary-basis scaling coefficient width

DEFAULT_ACT_BITS = 8
DEFAULT_SCHEMES = "binary_basis:5,binary_basis:2,shift:3,fq:5,fq_huffman:5"
DEFAULT_GEOMETRY = "3x3x100x100@8x8/1/1"


def ripple_adder(width: int) -> int:
    return FULL_ADDER * width


def barrel_shifter(width: int, stages: int) -> int:
    return MUX_BIT * width * stages


def array_multiplier(w1: int, w2: int) -> int:
    return 6 * w1 * w2


@dataclass(frozen=True)
class ConvGeometry:
    fh: int
    fw: int
    cin: int
    cout: int
    ih: int
    iw: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if min(self.fh, self.fw, self.cin, self.cout, self.ih, self.iw) < 1:
            raise ValueError(f"geometry dimensions must be positive: {self}")
        conv_output_hw(self.ih, self.iw, self.fh, self.fw, self.stride, self.pad)

    @property
    def patch_size(self) -> int:
        return self.fh * self.fw * self.cin

    @property
    def output_count(self) -> int:
        oh, ow = conv_output_hw(self.ih, self.iw, self.fh, self.fw,
                                self.stride, self.pad)
        return oh * ow * self.cout

    def __str__(self):
        return (f"{self.fh}x{self.fw}x{self.cin}x{self.cout}"
                f"@{self.ih}x{self.iw}/{self.stride}/{self.pad}")


_GEOMETRY_RE = re.compile(
    r"^(\d+)x(\d+)x(\d+)x(\d+)@(\d+)x(\d+)/(\d+)/(\d+)$"
)


def parse_geometry(text: str) -> ConvGeometry:
    """Parse "fhxfwxcinxcout@ihxiw/stride/pad", e.g. "3x3x100x100@8x8/1/1"."""
    m = _GEOMETRY_RE.match(text.strip())
    if m is None:
        raise ValueError(
            f"bad geometry {text!r}, expected fhxfwxcinxcout@ihxiw/stride/pad"
        )
    return ConvGeometry(*(int(g) for g in m.groups()))


def accumulator_width(geom: ConvGeometry, act_bits: int = DEFAULT_ACT_BITS) -> int:
    """Shared adder-tree width: operand, shift headroom, tree depth, sign."""
    return act_bits + MAX_WEIGHT_SHIFT + math.ceil(math.log2(geom.patch_size)) + 1


def _tree_adders(geom: ConvGeometry, w_acc: int) -> int:
    return (geom.patch_size - 1) * ripple_adder(w_acc)


def _per_output_shift(geom: ConvGeometry, stages: int, act_bits: int) -> int:
    if stages < 1:
        raise ValueError("shift datapath needs at least one stage")
    w_sh = act_bits + (1 << stages) - 1
    w_acc = accumulator_width(geom, act_bits)
    return geom.patch_size * barrel_shifter(w_sh, stages) + _tree_adders(geom, w_acc)


def _per_output(scheme: str, param: int, geom: ConvGeometry, act_bits: int) -> int:
    w_acc = accumulator_width(geom, act_bits)
    if scheme in ("shift", "fq", "fq_huffman") and param > 8:  # no weight code is wider
        raise ValueError(f"{scheme}:{param}: a weight code is at most 8 bits wide")
    if scheme == "shift":
        if param < 1:
            raise ValueError("shift width must be >= 1")
        return _per_output_shift(geom, param, act_bits)
    if scheme in ("fq", "fq_huffman"):
        if param < 4:
            raise ValueError("recentralized codes need at least 4 bits")
        gates = _per_output_shift(geom, param - 2, act_bits)
        gates += 2 * (barrel_shifter(w_acc, CENTER_ALIGN_STAGES) + ripple_adder(w_acc))
        if scheme == "fq_huffman":
            gates += DECODE_GATES_PER_WEIGHT * geom.patch_size
        return gates
    if scheme == "binary_basis":
        if param < 1:
            raise ValueError("binary basis needs at least one tree")
        per_tree = geom.patch_size * MUX_BIT * act_bits + _tree_adders(geom, w_acc)
        per_tree += array_multiplier(HP_COEFF_BITS, HP_COEFF_BITS) + ripple_adder(w_acc)
        return param * per_tree
    raise ValueError(f"unknown scheme {scheme!r}")


def estimate_gates(scheme: str, param: int, geom: ConvGeometry,
                   act_bits: int = DEFAULT_ACT_BITS) -> int:
    """Total gates for one conv layer under the given weight coding."""
    if act_bits < 2:
        raise ValueError("act_bits must be >= 2")
    return _per_output(scheme, param, geom, act_bits) * geom.output_count


def parse_scheme(token: str):
    """Parse "name:param" into (name, int param)."""
    name, sep, param = token.strip().partition(":")
    if not name.strip() or not sep or not param.strip().isdigit():
        raise ValueError(f"bad scheme {token!r}, expected name:param")
    return name.strip(), int(param)


def gate_report(schemes, geom: ConvGeometry, act_bits: int = DEFAULT_ACT_BITS):
    """(scheme, geometry, gates, ratio) rows; ratio is vs the cheapest listed."""
    parsed = [parse_scheme(t) if isinstance(t, str) else t for t in schemes]
    if not parsed:
        raise ValueError("no schemes given")
    gates = [estimate_gates(name, param, geom, act_bits) for name, param in parsed]
    base = min(gates)
    return [
        (f"{name}:{param}", str(geom), g, g / base)
        for (name, param), g in zip(parsed, gates)
    ]
