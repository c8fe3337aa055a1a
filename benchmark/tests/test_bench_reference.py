"""The reference task that query times are measured against."""

import gc

import reference


def test_reference_task_is_fixed_work():
    assert reference._work() == reference.EXPECTED
    assert reference.time_reference() > 0.0


def test_reference_task_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    reference.time_reference()
    assert gc.isenabled()
    gc.disable()
    try:
        reference.time_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()
