"""Embedded reference tables regenerate from the library."""

from descent3.tables import (FORMS, FORMS_DISC, TABLE_1, TABLE_1_DISC,
                             TABLE_3_STATS, TABLE_3, TABLE_4_STATS, TABLE_4,
                             check_discriminants, check_forms, check_table_1,
                             check_table_3, check_table_4)


def test_table_shapes():
    assert TABLE_1_DISC == -4897363
    assert len(TABLE_1) == 6
    assert len(TABLE_3) == 39
    assert len(TABLE_4) == 12
    assert FORMS_DISC == 48035713
    assert len(FORMS) == 4
    assert TABLE_3_STATS == {"r3": 2, "rank": 2, "sha3": 2}
    assert TABLE_4_STATS == {"r3": 1, "rank": 1, "sha3": 2}


def test_check_discriminants():
    assert check_discriminants() == []


def test_check_table_1_points_and_spans():
    assert check_table_1() == []


def test_check_forms_bijection():
    assert check_forms() == []


def test_check_table_4_all_rows():
    assert check_table_4() == []


def test_check_table_3_all_rows():
    assert check_table_3() == []
