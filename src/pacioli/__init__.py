"""Exact double-entry bookkeeping on the group of differences.

T-accounts are ordered pairs of unsigned integer vectors; with side-by-side
addition and cross-sum equality they form a commutative group, and the
whole double-entry cycle (encode an equation, journal transactions, post,
trial-balance, reduce, decode) is plain group arithmetic in it.  The same
machinery runs unchanged over vectors of physical quantities, values back
to scalars through exact price vectors, and maps onto the equivalent
signed single-sided system.

The package namespace is lazy (PEP 562): ``from pacioli import X`` imports
only the modules up to the first whose ``__all__`` names X, in the order of
`_MODULES`, and ``import pacioli.<module>`` only that module and what it
imports.  So ``from pacioli import TTerm`` loads `pacioli.algebra` alone.
Stdlib `fractions` (with `decimal`) loads with the first price.
"""

import importlib

__version__ = "0.1.0"

# The modules whose `__all__`, joined in this order, is the package's.
_MODULES = ("algebra", "fractions", "ledger", "sss", "table", "valuation", "fileformat")


def __getattr__(name: str):
    """Import a module of `_MODULES`, or the first one that exports `name`,
    and bind the result here, so it is looked up once."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in _MODULES for n in __getattr__(m).__all__]
        value.append("__version__")
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
