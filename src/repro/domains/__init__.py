"""Companion abstract domains used by the BPF verifier substrate.

* :class:`Interval` — unsigned range domain (kernel ``umin``/``umax``).
* :class:`KnownBits` — LLVM-style encoding, isomorphic to tnums.
* :class:`ScalarValue` — reduced product tnum × interval, the verifier's
  per-register scalar state.  It stores no signed bounds: the signed
  branch refinements and ``arsh`` derive the signed view from both
  components and map it back with :meth:`Interval.from_signed`.
"""

from .interval import Interval, signed_bounds, to_signed, to_unsigned
from .known_bits import KnownBits
from .product import ScalarValue

__all__ = [
    "Interval",
    "KnownBits",
    "ScalarValue",
    "signed_bounds",
    "to_signed",
    "to_unsigned",
]
