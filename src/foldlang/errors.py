"""Exception types shared across the toolkit."""


class FoldlangError(Exception):
    """Base class for all toolkit errors."""


class AlphabetError(FoldlangError):
    """A symbol does not belong to the declared alphabet."""


class UndefinedFold(FoldlangError):
    """fold(w, v) requested with |w| != |v|; the folding function is partial."""


class RegexSyntaxError(FoldlangError):
    """Malformed regex; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GrammarSyntaxError(FoldlangError):
    """Malformed grammar text."""


class DecompositionError(FoldlangError):
    """Pumping decomposition precondition violated (non-member or too short)."""


class NoEqualLengthPair(FoldlangError):
    """No common length with members in both components up to the ceiling."""


class FiniteComponent(FoldlangError):
    """A component language is finite; the pumping construction is vacuous."""


class CaseValidationFailed(FoldlangError):
    """No j0 up to |r|, the length of the base core string, gives windows
    that reconstruct both strands."""


class ResourceLimit(FoldlangError):
    """A computation would pass a size bound: the candidate-pair cap of
    exhaustive pairing, a slice count's budget, or the epsilon-free
    variants of one grammar right-hand side."""


class SpecFileError(FoldlangError):
    """Malformed F-system spec file."""


class FamilyFileError(FoldlangError):
    """Malformed pump family document."""
