"""E001 — error taxonomy: operational failures derive from ReproError.

The CLI, the fault harness, and the retry machinery in the engine all
dispatch on the :class:`repro.errors.ReproError` hierarchy (media
faults are retried, checksum failures route to the scrubber, POSIX-
flavoured errors surface to the caller, anything else is a bug).  A
``raise Exception`` or a bare ``except:`` punches a hole in that
dispatch, and so does an exception class minted outside ``errors.py``
— handlers written against the central taxonomy cannot see it.

The rule therefore enforces three things:

* no bare ``except:`` and no ``except Exception/BaseException:`` —
  both swallow :class:`~repro.errors.PowerLoss` and every other typed
  fault that must propagate;
* no raising of generic built-ins (``Exception``, ``RuntimeError``,
  ``OSError``, ...) where a taxonomy class belongs;
* every exception class is *registered* in ``repro/errors.py`` — a
  ``class FooError(ReproError)`` anywhere else is flagged.  The
  registry is read from the live module, so adding a class to
  ``errors.py`` (``ChecksumError``, ``DeviceDegraded``,
  ``ReadOnlyFileSystem``, ...) registers it with this rule
  automatically.

Python's *contract* exceptions (``ValueError``/``TypeError`` for bad
arguments to internal helpers, ``AssertionError``, ``KeyError``,
``NotImplementedError``) signal programmer error, not simulated-world
failure, and remain allowed — the same split the kernel draws between
``BUG_ON`` and error returns.

Mutation row (``tests/test_lint_mutations.py``): ``FileSystem.exists``'s
``except FileNotFound`` widened to a bare ``except``, which would turn
a power loss during the stat into a missing file.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional

from repro import errors as _errors
from repro.lint.core import Finding, LintModule, Rule

# Raising these hides failures from the taxonomy-aware handlers.
FORBIDDEN_RAISES: FrozenSet[str] = frozenset(
    {
        "Exception", "BaseException", "RuntimeError", "SystemError",
        "OSError", "IOError", "EnvironmentError",
    }
)

# Catching these is as bad as a bare except: every typed fault —
# PowerLoss, ChecksumError, DeviceDegraded — disappears into them.
FORBIDDEN_CATCHES: FrozenSet[str] = frozenset({"Exception", "BaseException"})

#: The registered taxonomy: every ReproError subclass defined in
#: ``repro/errors.py``.  Read from the live module so the registry can
#: never drift from the source of truth.
TAXONOMY: FrozenSet[str] = frozenset(
    name
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, _errors.ReproError)
)

#: The one module allowed to define exception classes.
TAXONOMY_MODULE = "repro.errors"


class ErrorTaxonomyRule(Rule):
    id = "E001"
    title = "errors: central taxonomy, no bare except, no generic raises"
    rationale = (
        "fault handling dispatches on the ReproError hierarchy; generic "
        "exceptions and unregistered classes bypass retry and repair paths"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield self.found(
                        mod,
                        node,
                        "bare 'except:' swallows PowerLoss and every other "
                        "typed fault; catch a ReproError subclass",
                    )
                else:
                    for name in _caught_names(node.type):
                        if name in FORBIDDEN_CATCHES:
                            yield self.found(
                                mod,
                                node,
                                "except %s: is as broad as a bare except; "
                                "catch a ReproError subclass so typed "
                                "faults keep their meaning" % name,
                            )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                name = self._raised_name(node.exc)
                if name in FORBIDDEN_RAISES:
                    yield self.found(
                        mod,
                        node,
                        "raise %s: operational errors must derive from "
                        "repro.errors.ReproError so retry/repair handlers "
                        "can dispatch on them" % name,
                    )
            elif isinstance(node, ast.ClassDef):
                if mod.module == TAXONOMY_MODULE:
                    continue
                base = _exception_base(node)
                if base is not None:
                    yield self.found(
                        mod,
                        node,
                        "exception class %s(%s) defined outside %s; "
                        "register it in the central taxonomy so E001 and "
                        "the fault handlers know about it"
                        % (node.name, base, TAXONOMY_MODULE),
                    )

    @staticmethod
    def _raised_name(exc: ast.expr) -> str:
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id
        return ""


def _caught_names(type_expr: ast.expr) -> List[str]:
    """Exception names in an except clause (handles tuple catches)."""
    exprs = type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
    names = []
    for expr in exprs:
        if isinstance(expr, ast.Name):
            names.append(expr.id)
    return names


def _exception_base(node: ast.ClassDef) -> Optional[str]:
    """The base-class name making ``node`` an exception, or None.

    A class is an exception if any base is ``Exception``,
    ``BaseException``, or a registered taxonomy name (so subclassing
    ``ReproError`` or ``MediaError`` locally is caught too).
    """
    for base in node.bases:
        if isinstance(base, ast.Name):
            if base.id in TAXONOMY or base.id in ("Exception", "BaseException"):
                return base.id
    return None
