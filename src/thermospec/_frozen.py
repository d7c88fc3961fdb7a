"""Frozen values without generated source: ``frozen`` gives a class the
``__init__``, ``__eq__``, ``__hash__``, repr and refused assignment of a
frozen dataclass, as closures over its own annotated names.  An instance
keeps its hash from first use; a pickle leaves it out, as hashes of None
and of strings differ between processes."""

import operator


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = [(k, getattr(cls, k)) for k in names if hasattr(cls, k)]
    allowed, n, post_init = frozenset(names), len(names), getattr(cls, "__post_init__", None)
    values = (operator.itemgetter(*names) if n > 1 else  # the fields' tuple from __dict__
              (lambda d, k=names[0]: (d[k],)) if n else (lambda d: ()))

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > n or kwargs and not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
            kwargs = dict(zip(names, args), **kwargs)
        if len(kwargs) != n or not allowed.issuperset(kwargs):
            for k, v in defaults:
                kwargs.setdefault(k, v)
            if kwargs.keys() != allowed:
                raise TypeError(f"{cls.__name__}() lacks {allowed - kwargs.keys()} or got "
                                f"unknown {kwargs.keys() - allowed}")
        object.__setattr__(self, "__dict__", kwargs)  # the call's dict: no setattr per field
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return (values(self.__dict__) == values(other.__dict__)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        d = self.__dict__  # the hash is kept under "_hash", a name no field has
        if "_hash" not in d:
            d["_hash"] = hash(values(d))
        return d["_hash"]

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in zip(names, values(self.__dict__)))
        return f"{type(self).__qualname__}({body})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls._fields, cls.__setattr__, cls.__delattr__ = names, _refuse, _refuse
    cls.__getstate__ = lambda self: {k: v for k, v in self.__dict__.items() if k != "_hash"}
    return cls


def _refuse(self, name, *value):
    from dataclasses import FrozenInstanceError  # loaded only for a refusal
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def asdict(obj) -> dict:
    """Field name -> value of the frozen value ``obj``; values inside it stay values."""
    return {k: obj.__dict__[k] for k in obj._fields}


def replace(obj, **changes):
    """A copy of the frozen value ``obj`` with ``changes``; its ``__post_init__`` runs."""
    return type(obj)(**{**asdict(obj), **changes})
