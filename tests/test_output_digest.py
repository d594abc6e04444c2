import copy
import json
import math
from decimal import Decimal

import pytest

from oracles import output_digest

digest = output_digest()
CASES = {name: (argv, cfg) for name, argv, cfg in digest._cases()}


@pytest.fixture(scope="module")
def records():
    """The numbers of one Dirichlet case (K = L = 0), whose traces are constrained."""
    name = "run-K0-L0-a0.8-b1.2-convection"
    return {name: digest._numbers(name, *CASES[name])}


def _one(records):
    (record,) = records.values()
    return record


def _write(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records.values()))
    return str(path)


def test_digest_keeps_its_cases():
    assert len(CASES) == 134


def test_numbers_hold_every_output(records):
    record = _one(records)
    assert record["rc"] == 0 and record["printed"]
    assert len(record["series"]["energy"]) == record["steps"] + 1 == 11
    assert {"phi", "mu"} <= set(record["vtk"]["out/bulk_00010.vtk"]["arrays"])


def test_identical_files_pass(tmp_path, records, capsys):
    a = _write(tmp_path, "a.jsonl", records)
    b = _write(tmp_path, "b.jsonl", records)
    assert digest.compare(a, b) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 1 cases within bounds"


def test_case_only_in_b_is_new_and_not_judged(tmp_path, records, capsys):
    added = dict(records, added=dict(_one(records), name="added", rc=2))
    assert digest.compare(_write(tmp_path, "a.jsonl", records),
                          _write(tmp_path, "b.jsonl", added)) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], out[-1]) == ("new cases in B, not judged: added", "1 of 1 cases within bounds")


def test_case_missing_from_b_fails(tmp_path, records, capsys):
    added = dict(records, added=dict(_one(records), name="added"))
    assert digest.compare(_write(tmp_path, "a.jsonl", added),
                          _write(tmp_path, "b.jsonl", records)) == 1
    out = capsys.readouterr().out.splitlines()
    assert (out[0], out[-1]) == ("cases missing from B: added", "1 of 2 cases within bounds")


def test_conserved_mass_off_by_1e_12_fails(tmp_path, records):
    moved = copy.deepcopy(records)
    _one(moved)["series"]["mass_combined"][-1] += 1e-12
    assert digest.compare(_write(tmp_path, "a.jsonl", records),
                          _write(tmp_path, "b.jsonl", moved)) == 1
    fails, worst = digest.compare_case(_one(records), _one(moved))
    assert fails == [f"mass_combined is {worst['mass_combined']:.3g} times its bound"]


def test_energy_within_the_newton_bound_passes(records):
    record = _one(records)
    energy = record["series"]["energy"]
    bound = digest.newton_bound(record["steps"], record["mesh"]["h_min"],
                                max(map(abs, energy)))
    for factor, ok in ((0.5, True), (2.0, False)):
        moved = copy.deepcopy(record)
        moved["series"]["energy"][-1] += factor * bound
        fails, worst = digest.compare_case(record, moved)
        assert (fails == []) is ok
        assert worst["energy"] == pytest.approx(factor)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_value_against_a_finite_one_fails(records, value):
    moved = copy.deepcopy(_one(records))
    moved["series"]["energy"][-1] = value
    fails, worst = digest.compare_case(_one(records), moved)
    assert fails == ["energy is inf times its bound"] and worst["energy"] == math.inf


def test_bound_follows_newton_params():
    # 2 N / h_min^2 (tol_rel * scale + tol_abs), with NewtonParams' tolerances
    assert digest.newton_bound(10, 0.1, 2.0) == pytest.approx(2 * 10 / 0.01 * (2e-10 + 1e-11))


def test_trace_off_by_one_ulp_fails(records):
    moved = copy.deepcopy(_one(records))
    snapshot = moved["vtk"]["out/bulk_00005.vtk"]
    surf = moved["vtk"]["out/surf_00005.vtk"]
    k = snapshot["points"].index(surf["points"][0])  # the first boundary node
    snapshot["arrays"]["phi"][k] = math.nextafter(snapshot["arrays"]["phi"][k], math.inf)
    fails, _ = digest.compare_case(_one(records), moved)
    assert fails == ["out/bulk_00005.vtk: phi|G != 0.8 * psi"]


def test_printed_number_within_a_last_digit_and_the_newton_bound_passes(records):
    record = _one(records)
    _, energy, _ = record["printed"]  # completed t=..., energy=..., records=...
    printed = Decimal(energy)
    for moved_by, ok in ((digest._printed_unit(energy), True), (1e-3 * float(printed), False)):
        moved = copy.deepcopy(record)
        moved["printed"][1] = str(printed + Decimal(moved_by))
        assert (digest.compare_case(record, moved)[0] == []) is ok
