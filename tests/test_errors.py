"""The field checks that every reader of an input file goes through."""

import sys
from collections import OrderedDict

import pytest

from unitax.errors import ValidationError, require_field, require_list


def test_dict_subclasses_are_dicts():
    data = OrderedDict(inner=OrderedDict(n=1))
    assert require_field(data, "inner", dict) is data["inner"]
    assert require_field(data["inner"], "n", int) == 1
    assert require_list([OrderedDict(), {}], dict, "items") == [OrderedDict(), {}]


def test_a_bool_is_not_an_int_and_an_int_is_not_a_bool():
    with pytest.raises(ValidationError, match="field 'x.n' is missing or not int"):
        require_field({"n": True}, "n", int, "x.")
    with pytest.raises(ValidationError, match="field 'flag' is missing or not bool"):
        require_field({"flag": 1}, "flag", bool)
    assert require_field({"flag": False}, "flag", bool) is False
    with pytest.raises(ValidationError, match="field 'ids' must be a list of int values"):
        require_list([1, True], int, "ids")
    with pytest.raises(ValidationError, match="field 'x' is missing or not float"):
        require_field({"x": True}, "x", float)


def test_an_int_is_a_float_within_float_range():
    assert require_field({"x": 3}, "x", float) == 3
    assert require_list([1, 2.5, -4], float, "xs") == [1, 2.5, -4]
    big = int(sys.float_info.max)
    assert require_list([big, -big], float, "xs") == [big, -big]
    with pytest.raises(ValidationError, match="field 'x' is missing or not float"):
        require_field({"x": 10 ** 400}, "x", float)
    with pytest.raises(ValidationError, match="field 'xs' must be a list of 2 float values"):
        require_list([1.0, -10 ** 400], float, "xs", size=2)


def test_a_missing_field_or_a_non_dict_is_named():
    for data in ({}, [], None, "n"):
        with pytest.raises(ValidationError, match="field 'n' is missing or not int"):
            require_field(data, "n", int)
    with pytest.raises(ValidationError, match="field 'xs' must be a list of 3 int values"):
        require_list([1, 2], int, "xs", size=3)
    with pytest.raises(ValidationError, match="field 'xs' must be a list of str values"):
        require_list(("a",), str, "xs")
