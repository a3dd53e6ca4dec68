"""Attribute type validation and inference."""

import pytest

from repro.relational.errors import TypeMismatchError
from repro.relational.types import AttributeType


class TestValidate:
    def test_int_accepts_int(self):
        assert AttributeType.INT.validate(42) == 42

    def test_int_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.INT.validate(True)

    def test_int_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.INT.validate(1.5)

    def test_int_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.INT.validate("1")

    def test_float_widens_int(self):
        value = AttributeType.FLOAT.validate(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_float_accepts_float(self):
        assert AttributeType.FLOAT.validate(3.5) == 3.5

    def test_float_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.FLOAT.validate(False)

    def test_string_accepts_str(self):
        assert AttributeType.STRING.validate("abc") == "abc"

    def test_string_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.STRING.validate(1)

    def test_bool_accepts_bool(self):
        assert AttributeType.BOOL.validate(True) is True

    def test_bool_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.BOOL.validate(1)

    @pytest.mark.parametrize("attr_type", list(AttributeType))
    def test_none_is_always_valid(self, attr_type):
        assert attr_type.validate(None) is None


def accepting(value) -> set[AttributeType]:
    """The attribute types whose ``validate`` admits ``value``."""
    admitted = set()
    for attr_type in AttributeType:
        try:
            attr_type.validate(value)
        except TypeMismatchError:
            continue
        admitted.add(attr_type)
    return admitted


class TestInfer:
    """Which type a Python value belongs to, as validation decides it:
    ``bool`` is never an ``int``, an ``int`` widens only to ``FLOAT``."""

    def test_infer_bool_before_int(self):
        assert accepting(True) == {AttributeType.BOOL}

    def test_infer_int(self):
        assert accepting(7) == {AttributeType.INT, AttributeType.FLOAT}

    def test_infer_float(self):
        assert accepting(7.5) == {AttributeType.FLOAT}

    def test_infer_string(self):
        assert accepting("x") == {AttributeType.STRING}

    def test_infer_rejects_none(self):
        # NULL carries no type: every type admits it, none is inferred.
        assert accepting(None) == set(AttributeType)

    def test_infer_rejects_list(self):
        assert accepting([1]) == set()


class TestRendering:
    def test_sql_names(self):
        assert AttributeType.INT.sql_name() == "INTEGER"
        assert AttributeType.FLOAT.sql_name() == "REAL"
        assert AttributeType.STRING.sql_name() == "VARCHAR"
        assert AttributeType.BOOL.sql_name() == "BOOLEAN"

    def test_default_is_null(self):
        for attr_type in AttributeType:
            assert attr_type.default() is None
