"""The package's result records: plain ``__slots__`` classes that keep the
constructor signatures, defaults, value equality and field-naming repr of
the dataclasses they replaced, and that do not hash.
"""

import pytest

from algdeform.algebra import Operator, full_matrix_algebra
from algdeform.deform import CriterionResult, ExtensionReport, Product, mu_product
from algdeform.dynamics import BiHamiltonianReport, DerivationReport
from algdeform.linalg import AffineSolution
from algdeform.records import Record
from algdeform.scalar import ONE, ZERO

M2 = full_matrix_algebra(2)
COCHAIN = mu_product(M2).cochain
OPERATOR = Operator(M2, [{j: ONE} for j in range(M2.dim)])
UNIT = M2.unit

# (class, required fields in order, defaulted fields in order, a field and a
# value that differs from the one above)
RECORDS = [
    (Product, {"cochain": COCHAIN}, {"associative": None, "unit": None},
     ("associative", True)),
    (CriterionResult, {"deformed_associative": True, "torsion_is_2cocycle": False},
     {"associator_witness": None, "cocycle_witness": None},
     ("cocycle_witness", ((0, 1, 2), {0: ONE}))),
    (ExtensionReport, {"operator": OPERATOR, "is_nijenhuis": True,
                       "conditions": (True, False, True)}, {"witnesses": {}},
     ("witnesses", {"left_mixed": (0, 1)})),
    (DerivationReport, {"is_derivation": True, "leibniz_witness": None, "inner": True,
                        "generator": UNIT, "ambiguity": [UNIT]}, {},
     ("leibniz_witness", (0, 1))),
    (BiHamiltonianReport, {"inner_first": True, "inner_second": False,
                           "sum_bracket_jacobi": True, "products_compatible": False,
                           "generators": (UNIT, None), "ambiguities": ([UNIT], [])}, {},
     ("products_compatible", True)),
    (AffineSolution, {"particular": [ONE, ZERO], "kernel": [[ZERO, ONE]]}, {},
     ("kernel", [])),
]
IDS = [row[0].__name__ for row in RECORDS]


def fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("cls, required, defaults, changed", RECORDS, ids=IDS)
def test_construction_by_keyword_and_by_position(cls, required, defaults, changed):
    assert issubclass(cls, Record)
    assert cls.__slots__ == (*required, *defaults)
    expected = {**required, **defaults}
    assert fields(cls(**required)) == expected
    assert fields(cls(*required.values())) == expected
    full = {**expected, changed[0]: changed[1]}
    assert fields(cls(*full.values())) == fields(cls(**full)) == full
    assert not hasattr(cls(**required), "__dict__")


@pytest.mark.parametrize("cls, required, defaults, changed", RECORDS, ids=IDS)
def test_value_equality_and_field_naming_repr(cls, required, defaults, changed):
    record = cls(**required)
    assert record == cls(*required.values())
    assert not record != cls(**required)
    assert record != cls(**{**required, **defaults, changed[0]: changed[1]})
    assert record != tuple(fields(record).values())
    other, other_required, *_ = next(row for row in RECORDS if row[0] is not cls)
    assert record != other(**other_required)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields(record).items())
    assert repr(record) == f"{cls.__name__}({shown})"
    with pytest.raises(TypeError):
        hash(record)


def test_extension_report_witnesses_are_a_new_dict_each_time():
    first = ExtensionReport(OPERATOR, True, (True, True, True))
    second = ExtensionReport(OPERATOR, True, (True, True, True))
    assert first.witnesses == second.witnesses == {}
    assert first.witnesses is not second.witnesses
    first.witnesses["left_mixed"] = (0, 1)
    assert second.witnesses == {}


def test_product_flags_are_assignable():
    prod = Product(COCHAIN)
    prod.associative, prod.unit = True, UNIT
    assert (prod.associative, prod.unit) == (True, UNIT)
    assert prod == Product(COCHAIN, True, UNIT)
    assert prod.ensure_associativity_flag() is True


def test_product_defines_its_associativity_witness_itself():
    """The benchmark's tracer wraps ``Product.associativity_witness`` where
    the class defines it, in ``Product.__dict__``."""
    assert "associativity_witness" in Product.__dict__
    assert "associativity_witness" not in Record.__dict__
