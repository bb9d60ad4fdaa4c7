"""Exception hierarchy for the relational engine.

The engine is used both directly (tests, benchmarks) and through the
multi-tenant schema-mapping layer in :mod:`repro.core`.  Errors are split
into *user* errors (bad SQL, constraint violations) and *engine* errors
(internal invariants).  Everything derives from :class:`EngineError` so a
caller can catch a single type at the boundary.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by the engine."""

    #: The semantic rule (``SEM...``) that refused the statement, when
    #: the binder did; ``None`` for every other error.
    rule_id: str | None = None


class ParseError(EngineError):
    """The SQL text could not be tokenized or parsed.

    Carries the position to make query-transformation bugs in the layers
    above easy to localize.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class UnsupportedSyntaxError(ParseError):
    """Valid SQL whose semantics the engine does not implement, refused
    by name rather than run with different semantics (``LEFT [OUTER]
    JOIN``).  ``construct`` names what was refused; ``rule_id`` is the
    semantic-analysis rule that reports it."""

    rule_id: str | None = "SEM011"

    def __init__(self, construct: str, position: int | None = None) -> None:
        self.construct = construct
        super().__init__(
            f"{construct} is not supported [{self.rule_id}]", position
        )


class CatalogError(EngineError):
    """A referenced table, column, or index does not exist (or already does)."""


class DuplicateObjectError(CatalogError):
    """CREATE of a table or index whose name is already taken."""


class UnknownObjectError(CatalogError):
    """Reference to a table, column, or index that is not in the catalog."""


class TypeMismatchError(EngineError):
    """A value or expression does not fit the declared column type."""


class SemanticError(EngineError):
    """The binder refused a statement at ``prepare`` time.

    Raised by ``Database.prepare`` / ``prepare_ast`` so bad statements
    surface with a rule id instead of failing later — by ``prepare``
    whether or not the text is already in the plan cache.  ``findings``
    holds the refusing :class:`repro.engine.plan.bind.BindFinding`
    objects (each has a ``rule_id`` and a ``message``).
    """

    def __init__(self, findings) -> None:
        self.findings = list(findings)
        rules = ", ".join(sorted({f.rule_id for f in self.findings}))
        detail = "; ".join(f.message for f in self.findings[:3])
        super().__init__(f"semantic analysis failed [{rules}]: {detail}")


class ConstraintError(EngineError):
    """A uniqueness or not-null constraint was violated."""


class NotNullViolation(ConstraintError):
    """NULL assigned to a NOT NULL column."""


class UniqueViolation(ConstraintError):
    """Duplicate key in a unique index."""


class PlanError(EngineError):
    """The optimizer could not produce a plan (internal inconsistency)."""


class ExecutionError(EngineError):
    """Runtime failure while executing a plan."""
