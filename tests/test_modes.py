"""Mode labels: each field is converted to its kind or refused by name."""

import re

import numpy as np
import pytest

from twinbeam import fock
from twinbeam.errors import ValidationError
from twinbeam.modes import ModeLabel, Polarization, Port

H, V = Polarization.H, Polarization.V


@pytest.mark.parametrize("fields, message", [
    ((H, 0.5, Port.B), "frequency_tag must be an integer, got 0.5"),
    ((H, 2.0, Port.B), "frequency_tag must be an integer, got 2.0"),
    ((H, "2", Port.B), "frequency_tag must be an integer, got '2'"),
    ((H, float("nan"), Port.B), "frequency_tag must be an integer, got nan"),
    (("X", 0, Port.A), "polarization must be one of 'H', 'V', got 'X'"),
    ((H, 0, "z"), "spatial_port must be one of 'a', 'b', 'c', 'd', got 'z'"),
])
def test_a_bad_field_is_refused_by_name(fields, message):
    # a tag of 0.5 used to become 0, so a beam meant to be distinguishable interfered
    with pytest.raises(ValidationError, match=re.escape(message)):
        ModeLabel(*fields)


def test_values_of_each_kind_are_converted():
    label = ModeLabel("V", np.int64(2), "c")
    assert label == ModeLabel(V, 2, Port.C)
    assert type(label.frequency_tag) is int
    assert (label.polarization, label.spatial_port) == (V, Port.C)
    assert str(label) == "V2@c"


def test_a_tuple_label_keeps_its_message_and_names_the_field():
    message = ("mode label ('H', 0.5, 'a') is neither a ModeLabel nor a tuple of its fields: "
               "frequency_tag must be an integer, got 0.5")
    with pytest.raises(ValidationError, match=re.escape(message)):
        fock.MultimodeState((("H", 0.5, "a"),), 1, np.array([1.0, 0.0]))
