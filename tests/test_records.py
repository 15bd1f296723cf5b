"""The records every layer returns are immutable: no field can be
assigned and no attribute added after construction."""

import pytest

from rootposets import cambrian as camb
from rootposets import census as cns
from rootposets import families as fam
from rootposets.rootset import RootSet, classify
from rootposets.weakorder import Level, level_members, verify_lattice
from rootposets.weyl import enumerate_cosets

from conftest import group, system


def _records():
    """One record of each kind, from small calls on A2."""
    a2, g = system("A2"), group("A2")
    c = camb.coxeter_element(g, "lin")
    cosets = enumerate_cosets(g)
    posets = level_members(a2, Level.POSETS)
    return [
        classify(RootSet(a2, 0)),
        verify_lattice(posets),
        cosets[0],
        camb.cambrian_classes(c)[0],
        camb.facial_cambrian_classes(c, cosets)[0],
        fam.FamilyId("COIP", "bip"),
        fam.verify_family_equality(g, fam.FamilyId("WOIP"), posets),
        cns.count_family(a2, "posets"),
        cns.table1_rows(["A2"], ["posets"])[0],
        cns.check_sublattice(posets, Level.POSETS),
        cns.check_conjecture("coep-sublattice", a2),
        cns.reproduce_counterexample("h2-flag"),
    ]


def test_every_record_is_immutable():
    records = _records()
    assert sorted(type(r).__name__ for r in records) == [
        "CambrianClass", "CensusResult", "ConjectureReport", "CounterexampleReport",
        "FacialCambrianClass", "FamilyEqualityReport", "FamilyId", "LatticeReport",
        "ParabolicCoset", "SublatticeReport", "SubsetClassification", "Table1Row"]
    for record in records:
        for name in type(record)._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
