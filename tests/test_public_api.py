"""The package's public surface: the names `momlat.__all__` lists, and the
record classes behind its values and results."""

import json
import subprocess
import sys

import numpy as np
import pytest

import momlat
from cli_cases import GOLDEN, subprocess_env
from momlat import (ConvergenceTable, EigenResult, GridFunction, MomentumLattice, OperatorMatrix,
                    ResidualReport, verify_identity_suite, verify_symbolic_suite)
from momlat import algebra, eigen, lattice, operators
from momlat.algebra import Adjoint, Atom, BinOp, Bracket, IntLit, Neg, Power, SymbolicCheck
from momlat.record import Record

PUBLIC_NAMES = [
    "ATOMS", "ConvergenceTable", "EigenResult", "ExpressionError", "GridFunction",
    "MomentumLattice", "OperatorMatrix", "ResidualReport", "SymbolicOperator", "a_integral",
    "adjoint", "alpha", "apply", "build_operator", "continuum_scan",
    "eigenvector_closed_form", "eigenvector_recurrence", "expression_matrix",
    "format_normal_form", "grid_from_csv", "grid_to_csv", "inner_product", "interior_residual",
    "normal_form", "normalization_direct", "normalization_direct_first_n",
    "normalization_formula", "normalized", "parse", "sample", "square_well_lattice",
    "to_matrix", "truncated_spectrum", "verify_identity_suite", "verify_symbolic_suite",
    "window_lattice",
]


def test_all_is_the_sorted_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert momlat.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from momlat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(momlat, name)


# --- the record classes ------------------------------------------------------
# Every value and result class is a plain record: fields written once by its
# own constructor, refused afterwards, and compared either by value or by
# identity.

LATTICE = MomentumLattice(0.0, 0.1, 8)

# class -> two argument tuples that differ in one field
VALUE_RECORDS = {
    Atom: (("P",), ("A",)),
    IntLit: ((2,), (3,)),
    Neg: ((Atom("P"),), (Atom("A"),)),
    BinOp: (("+", Atom("P"), IntLit(1)), ("-", Atom("P"), IntLit(1))),
    Power: ((Atom("H"), 2), (Atom("H"), 3)),
    Bracket: (("commutator", Atom("X"), Atom("P")), ("anticommutator", Atom("X"), Atom("P"))),
    Adjoint: ((Atom("X"),), (Atom("P"),)),
    SymbolicCheck: (("commutator_X_P", True, 0), ("commutator_X_P", False, 0)),
    MomentumLattice: ((0.0, 0.1, 8), (0.0, 0.1, 9)),
    ResidualReport: (("P_hermitian", 0.0, 0, "p0=0,a=0.1,n=8"),
                     ("P_hermitian", 1e-17, 0, "p0=0,a=0.1,n=8")),
    ConvergenceTable: (((0.1, 0.05, 0.025), (5e-3, 1.25e-3, 3.1e-4), 2.0),
                       ((0.1, 0.05, 0.025), (5e-3, 1.25e-3, 3.1e-4), 1.9)),
}
# class -> constructor arguments; two records built from them are two values
IDENTITY_RECORDS = {
    GridFunction: (LATTICE, np.zeros(8)),
    OperatorMatrix: (LATTICE, np.zeros((1, 8)), 0),
    EigenResult: (LATTICE, 0.0, GridFunction(LATTICE, np.ones(8)), 1 + 0j, "recurrence"),
}
RECORDS = {**{cls: args for cls, (args, _) in VALUE_RECORDS.items()}, **IDENTITY_RECORDS}


def test_the_tables_hold_every_record_class():
    defined = {value for module in (algebra, eigen, lattice, operators)
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Record)
               and value.__module__ == module.__name__}
    assert defined == set(RECORDS) and len(RECORDS) == 14


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_record_compares_and_hashes_by_its_fields(cls):
    args, other_args = VALUE_RECORDS[cls]
    x, y = cls(*args), cls(*args)
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(tuple(vars(x).values()))
    assert x != cls(*other_args)
    # only a record of the same class is compared
    assert x != args and x != object()


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda cls: cls.__name__)
def test_identity_record_is_equal_only_to_itself(cls):
    args = IDENTITY_RECORDS[cls]
    x, y = cls(*args), cls(*args)
    assert x == x and x != y
    assert hash(x) == hash(x) and len({x, y}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_can_be_neither_set_nor_deleted(cls):
    record = cls(*RECORDS[cls])
    fields = dict(vars(record))
    assert fields
    for name in [*fields, "new_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == fields


def test_record_repr_names_the_fields_in_order():
    assert repr(BinOp("+", Atom("P"), IntLit(1))) == \
        "BinOp(op='+', left=Atom(name='P'), right=IntLit(value=1))"
    assert repr(LATTICE) == "MomentumLattice(p0=0.0, a=0.1, n_points=8)"


def test_report_fields_are_the_json_keys_in_order():
    doc = json.loads((GOLDEN / "verify_a01_n64.json").read_text())
    symbolic = verify_symbolic_suite()[0]
    numeric = verify_identity_suite(MomentumLattice(0.0, 0.1, 64))[0]
    assert list(vars(symbolic)) == ["identity", "zero", "normal_form_term_count"]
    assert list(vars(numeric)) == ["identity_name", "max_interior_residual", "margin_rows",
                                   "lattice"]
    assert list(vars(symbolic)) == list(doc["symbolic"][0])
    assert list(vars(numeric)) == list(doc["numeric"][0])


def test_import_generates_no_code():
    # dataclasses would exec every method it writes; fractions and decimal
    # came in with it and with the printed coefficients; whatever numpy
    # itself imports is numpy's, not momlat's
    code = ("import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import momlat.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted({'dataclasses', 'fractions', 'decimal'} & added))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_atom_tables_are_read_only():
    # every exact fold reads ATOMS, and every lattice domain DEFINITION_TREES
    with pytest.raises(TypeError):
        momlat.ATOMS["X"] = momlat.ATOMS["P"]
    with pytest.raises(TypeError):
        algebra.DEFINITION_TREES["X"] = algebra.DEFINITION_TREES["Q"]
    assert momlat.format_normal_form(momlat.normal_form("X")) == "-1/2*i/a*A+1/2*i/a*Abar"
