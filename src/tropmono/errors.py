"""The exceptions the CLI maps to exit codes, in a module that imports
nothing, so that ``tropmono.cli`` can catch them without loading the layers
that raise them.  ``polygons``, ``graphs`` and ``engine`` import them from
here, so each class is the same object under every import path."""


class SmoothnessError(ValueError):
    pass


class CertificationError(ValueError):
    pass


class DerivationError(RuntimeError):
    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.message = message


class ReplayError(ValueError):
    pass
