"""Mode bookkeeping: polarization, frequency tag, and spatial port labels.

Two modes can interfere at a splitter only when their polarizations and
frequency tags match; distinct tags model beams that are fully
distinguishable (for example, separated by a cavity free spectral range).
"""

from dataclasses import dataclass
from enum import Enum


class Polarization(str, Enum):
    H = "H"
    V = "V"


class Port(str, Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


@dataclass(frozen=True)
class ModeLabel:
    polarization: Polarization = Polarization.H
    frequency_tag: int = 0
    spatial_port: Port = Port.A

    def __post_init__(self):
        object.__setattr__(self, "polarization", Polarization(self.polarization))
        object.__setattr__(self, "spatial_port", Port(self.spatial_port))
        object.__setattr__(self, "frequency_tag", int(self.frequency_tag))

    @property
    def interference_key(self) -> tuple:
        """Modes interfere only if this key matches across the input port pair."""
        return (self.polarization, self.frequency_tag)

    def moved_to(self, port: Port) -> "ModeLabel":
        return ModeLabel(self.polarization, self.frequency_tag, port)

    def __str__(self) -> str:
        return f"{self.polarization.value}{self.frequency_tag}@{self.spatial_port.value}"
