"""Immutable records: the base of momlat's value and result classes.

A record's own `__init__` writes its fields with one
`self.__dict__.update(...)`, so `vars()` and `repr` list them in that order.
(On CPython 3.11, item assignment into `self.__dict__` leaves every later
attribute read about three times slower; `update` does not.)  Setting or
deleting an attribute afterwards raises AttributeError.  A `Record` compares
and hashes by identity; a `ValueRecord` by its field values, in field order,
and only with records of its own class, as a frozen dataclass does.  Nothing
here generates code per class, as `dataclasses` does with an `exec` for each
method it writes, so importing momlat compiles no code beyond its own
modules.
"""


class Record:
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))
