"""Exception hierarchy shared by all lgfrob modules."""

from __future__ import annotations


class LgfrobError(Exception):
    """Base class for all library errors."""


class PolySyntaxError(LgfrobError):
    """Malformed polynomial text; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariable(LgfrobError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.position = position


class NotHomogeneous(LgfrobError):
    """Polynomial mixes monomials of distinct class-group degrees."""

    def __init__(self, mono_a, deg_a, mono_b, deg_b):
        super().__init__(
            f"monomial {mono_a} has degree {deg_a} but {mono_b} has degree {deg_b}"
        )
        self.witness = (mono_a, deg_a, mono_b, deg_b)


class DegreeMismatch(LgfrobError):
    pass


class TorsionClassGroup(LgfrobError):
    """Cokernel of the ray matrix has torsion; unsupported by the grading code."""

    def __init__(self, invariant_factors):
        super().__init__(f"class group has torsion: invariant factors {invariant_factors}")
        self.invariant_factors = tuple(invariant_factors)


class InvalidFan(LgfrobError):
    pass


class NotReflexivePipeline(LgfrobError):
    """The fan fails a check of ``validate_fan``, so it has no anti-canonical
    polytope; the message names the first failing check and its witness."""


class DegeneratePolytope(LgfrobError):
    pass


class HypothesisFailed(LgfrobError):
    """A check of ``jacobian.HYPOTHESES`` fails; the message names it and
    gives its record's witness."""

    def __init__(self, name: str, record):
        super().__init__(f"{name}: {record.witness}")
        self.name = name
        self.record = record


class ToricJacobianZero(LgfrobError):
    """The toric Jacobian of f reduces to 0 in R0(f)_{m beta}, so it cannot
    normalize the trace."""


class InputSchemaError(LgfrobError):
    pass
