"""Read-only records, written as plain classes.

A record's constructor writes each field with `set_field`, so `vars(record)`
holds exactly its fields, in order; any later assignment or deletion raises
`AttributeError`.  A field default is a class attribute, so
`FieldCfg.precision` reads the default without an instance.
"""

from __future__ import annotations

# stores a field as plain assignment does, past the read-only __setattr__;
# writing through the instance __dict__ instead would give every instance a
# dict object of its own, 64 bytes more per group element
set_field = object.__setattr__


class Frozen:
    """A record whose fields cannot be assigned or deleted once built."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """A read-only record that compares, hashes and prints by its fields."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self), *vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"
