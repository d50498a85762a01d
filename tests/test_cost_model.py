import math

import pytest

from fqpack.cli import COST_CSV, csv_text
from fqpack.cost_model import (
    DEFAULT_ACT_BITS,
    DEFAULT_GEOMETRY,
    DEFAULT_SCHEMES,
    ConvGeometry,
    accumulator_width,
    array_multiplier,
    barrel_shifter,
    estimate_gates,
    gate_report,
    parse_geometry,
    parse_scheme,
    ripple_adder,
)

TABLE_GEOM = parse_geometry(DEFAULT_GEOMETRY)


def straight_line_costs():
    """Hand-evaluated datapath composition for 3x3x100x100@8x8/1/1 @ 8 bits."""
    patch = 3 * 3 * 100
    w_acc = 8 + 7 + math.ceil(math.log2(patch)) + 1  # 26
    outputs = 8 * 8 * 100  # pad 1 keeps 8x8, every output channel
    tree = (patch - 1) * 5 * w_acc

    def shift(stages):
        return patch * 3 * (8 + (1 << stages) - 1) * stages + tree

    fq5 = shift(3) + 2 * (3 * w_acc * 4 + 5 * w_acc)
    fqh5 = fq5 + 4 * patch
    per_tree = patch * 3 * 8 + tree + 6 * 16 * 16 + 5 * w_acc
    return {
        "shift:3": shift(3) * outputs,
        "fq:5": fq5 * outputs,
        "fq_huffman:5": fqh5 * outputs,
        "binary_basis:2": 2 * per_tree * outputs,
        "binary_basis:5": 5 * per_tree * outputs,
    }


# --- primitives -----------------------------------------------------------------


def test_primitive_gate_counts():
    assert ripple_adder(26) == 130
    assert barrel_shifter(15, 3) == 135
    assert array_multiplier(16, 16) == 1536


def test_trivial_conv_is_just_the_shifter():
    geom = ConvGeometry(1, 1, 1, 1, 1, 1)
    # one operand slot: no tree adders, a single 3-stage barrel on 15 bits
    assert estimate_gates("shift", 3, geom) == barrel_shifter(8 + 7, 3)


def test_accumulator_width_formula():
    assert accumulator_width(TABLE_GEOM) == 26
    assert accumulator_width(ConvGeometry(1, 1, 1, 1, 1, 1)) == 16


# --- scheme totals against the straight-line oracle --------------------------------


def test_costs_match_straight_line_evaluation():
    want = straight_line_costs()
    for token, expected in want.items():
        name, param = parse_scheme(token)
        assert estimate_gates(name, param, TABLE_GEOM) == expected


def test_expected_cost_ordering():
    costs = straight_line_costs()
    assert (costs["shift:3"] < costs["fq:5"] < costs["fq_huffman:5"]
            < costs["binary_basis:2"] < costs["binary_basis:5"])


def test_ratio_bands():
    g = {t: estimate_gates(*parse_scheme(t), TABLE_GEOM)
         for t in DEFAULT_SCHEMES.split(",")}
    assert 2.5 <= g["binary_basis:5"] / g["shift:3"] <= 3.5
    assert 1.05 <= g["binary_basis:2"] / g["shift:3"] <= 1.30
    assert 1.00 <= g["fq:5"] / g["shift:3"] <= 1.05
    assert 1.000 <= g["fq_huffman:5"] / g["fq:5"] <= 1.02


def test_stride_changes_only_the_output_count():
    dense = ConvGeometry(3, 3, 16, 16, 16, 16, stride=1, pad=1)
    strided = ConvGeometry(3, 3, 16, 16, 16, 16, stride=2, pad=1)
    for token in ("shift:3", "fq:5", "binary_basis:2"):
        name, param = parse_scheme(token)
        per_dense = estimate_gates(name, param, dense) / dense.output_count
        per_strided = estimate_gates(name, param, strided) / strided.output_count
        assert per_dense == per_strided


def test_cost_scales_linearly_in_cout():
    small = ConvGeometry(3, 3, 8, 8, 8, 8, pad=1)
    doubled = ConvGeometry(3, 3, 8, 16, 8, 8, pad=1)
    assert estimate_gates("shift", 3, doubled) == 2 * estimate_gates("shift", 3, small)


def test_cost_grows_with_act_bits_and_patch():
    base = estimate_gates("fq", 5, TABLE_GEOM, act_bits=8)
    assert estimate_gates("fq", 5, TABLE_GEOM, act_bits=10) > base
    bigger = ConvGeometry(3, 3, 200, 100, 8, 8, pad=1)
    assert estimate_gates("fq", 5, bigger) > base


# --- validation ------------------------------------------------------------------


@pytest.mark.parametrize("name,param", [
    ("shift", 0), ("fq", 3), ("fq_huffman", 3), ("binary_basis", 0),
    ("carry_save", 4), ("shift", 9), ("fq", 9), ("fq_huffman", 2000),
])
def test_scheme_parameter_validation(name, param):
    with pytest.raises(ValueError):
        estimate_gates(name, param, TABLE_GEOM)


def test_act_bits_validation():
    with pytest.raises(ValueError):
        estimate_gates("shift", 3, TABLE_GEOM, act_bits=1)


def test_parse_scheme():
    assert parse_scheme("fq:5") == ("fq", 5)
    assert parse_scheme("  shift : 3 ".replace(" ", "")) == ("shift", 3)
    for bad in ("fq", "fq:", "fq:five", ":5"):
        with pytest.raises(ValueError):
            parse_scheme(bad)


def test_parse_geometry_round_trip():
    geom = parse_geometry("3x3x100x100@8x8/1/1")
    assert geom == ConvGeometry(3, 3, 100, 100, 8, 8, 1, 1)
    assert str(geom) == "3x3x100x100@8x8/1/1"
    assert geom.patch_size == 900
    assert geom.output_count == 6400


@pytest.mark.parametrize("bad", [
    "3x3x100x100", "3x3x100x100@8x8", "3x3x100x100@8x8/1", "axbxcxd@8x8/1/1",
    "0x3x100x100@8x8/1/1", "5x5x4x4@3x3/1/0",
])
def test_parse_geometry_rejects(bad):
    with pytest.raises(ValueError):
        parse_geometry(bad)


# --- report ------------------------------------------------------------------------


def test_gate_report_against_cheapest():
    rows = gate_report(DEFAULT_SCHEMES.split(","), TABLE_GEOM)
    assert [r[0] for r in rows] == DEFAULT_SCHEMES.split(",")
    assert all(r[1] == DEFAULT_GEOMETRY for r in rows)
    cheapest = min(r[2] for r in rows)
    shift_row = next(r for r in rows if r[0] == "shift:3")
    assert shift_row[2] == cheapest and shift_row[3] == 1.0
    for _, _, gates, ratio in rows:
        assert ratio == gates / cheapest


def test_gate_report_single_scheme():
    rows = gate_report(["fq:5"], TABLE_GEOM)
    assert len(rows) == 1 and rows[0][3] == 1.0


def test_gate_report_empty_rejected():
    with pytest.raises(ValueError):
        gate_report([], TABLE_GEOM)


def test_gate_report_csv_golden():
    rows = gate_report(["shift:3", "fq:5"], TABLE_GEOM)
    lines = csv_text(COST_CSV, rows).splitlines()
    assert lines[0] == COST_CSV[0] == "scheme,geometry,gates,ratio"
    want = straight_line_costs()
    assert lines[1] == f"shift:3,{DEFAULT_GEOMETRY},{want['shift:3']},1.0000"
    ratio = want["fq:5"] / want["shift:3"]
    assert lines[2] == f"fq:5,{DEFAULT_GEOMETRY},{want['fq:5']},{ratio:.4f}"
