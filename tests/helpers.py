"""Helpers shared by the test modules."""


def set_weight(model, i: int, w: float) -> None:
    """Set feature i's weight in a linear model, keeping its squared-gradient
    sum (0.0 for a feature the model does not hold yet)."""
    g2 = {j: gj for j, _, gj in model.entries()}.get(i, 0.0)
    model.set_entries([(i, w, g2)])
