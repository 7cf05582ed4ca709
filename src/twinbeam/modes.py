"""Mode bookkeeping: polarization, frequency tag, and spatial port labels.

Two modes can interfere at a splitter only when their polarizations and
frequency tags match; distinct tags model beams that are fully
distinguishable (for example, separated by a cavity free spectral range).
"""

import operator
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError


class Polarization(str, Enum):
    H = "H"
    V = "V"


class Port(str, Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


def _integer(value, name: str) -> int:
    """``value`` as an int; a Python or numpy integer passes, anything else
    (a float, even an integral one, a string, a NaN) is refused by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _member(kind: type[Enum], value, name: str):
    """``value`` as a member of ``kind``; anything else is refused by name."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in kind)
        raise ValidationError(f"{name} must be one of {allowed}, got {value!r}") from None


@dataclass(frozen=True)
class ModeLabel:
    polarization: Polarization = Polarization.H
    frequency_tag: int = 0
    spatial_port: Port = Port.A

    def __post_init__(self):
        object.__setattr__(self, "polarization",
                           _member(Polarization, self.polarization, "polarization"))
        object.__setattr__(self, "spatial_port", _member(Port, self.spatial_port, "spatial_port"))
        object.__setattr__(self, "frequency_tag", _integer(self.frequency_tag, "frequency_tag"))

    @property
    def interference_key(self) -> tuple:
        """Modes interfere only if this key matches across the input port pair."""
        return (self.polarization, self.frequency_tag)

    def moved_to(self, port: Port) -> "ModeLabel":
        return ModeLabel(self.polarization, self.frequency_tag, port)

    def __str__(self) -> str:
        return f"{self.polarization.value}{self.frequency_tag}@{self.spatial_port.value}"
