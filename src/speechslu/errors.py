"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """An operation received tensors whose shapes are incompatible."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: shape mismatch: {detail}")
        self.op = op


class NonFiniteInput(ValueError):
    """An operation received NaN/inf values where finite data is required."""

    def __init__(self, op: str):
        super().__init__(f"{op}: non-finite input")
        self.op = op


class GraphError(ValueError):
    """Backward pass invoked on an invalid graph (e.g. non-scalar loss)."""


class MissingGradient(ValueError):
    """Optimizer stepped over parameters that have no gradient."""

    def __init__(self, names):
        names = list(names)
        super().__init__(f"missing gradients for parameters: {', '.join(names)}")
        self.names = names


class FrozenParameter(ValueError):
    """A frozen (trainable=False) tensor was handed to the optimizer."""


class ConfigError(ValueError):
    """A configuration file or value is invalid; message names the key."""


class TurnOrderError(ValueError):
    """A dialogue violated role ordering or splice-placement rules."""


class MissingAnnotation(ValueError):
    """A manifest record lacks an annotation field its task requires."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training; carries step diagnostics."""

    def __init__(self, step: int, example_id: str):
        super().__init__(f"non-finite loss at step {step} (example {example_id})")
        self.step = step
        self.example_id = example_id
