"""Helpers shared by the test modules."""

from cmt.learners import RouterModel


def set_weight(model, i: int, w: float) -> None:
    """Set feature i's weight in a linear model, keeping its squared-gradient
    sum (0.0 for a feature the model does not hold yet)."""
    g2 = {j: gj for j, _, gj in model.entries()}.get(i, 0.0)
    model.set_entries([(i, w, g2)])


class PerLabelOAS:
    """One-against-some inference with a `RouterModel` per label: the
    reference that `cmt.tasks.OASModel` must equal bit for bit."""

    def __init__(self):
        self.scorers: dict[int, RouterModel] = {}

    def scores(self, candidates, x) -> dict[int, float]:
        scorers = self.scorers
        return {
            label: scorers[label].raw(x) if label in scorers else 0.0 for label in candidates
        }

    def predict(self, scores: dict[int, float]) -> set[int]:
        return {label for label, score in scores.items() if score > 0.0}

    def update(self, x, truth, scores: dict[int, float]) -> None:
        for label in sorted(scores):
            scorer = self.scorers.get(label)
            if scorer is None:
                scorer = self.scorers[label] = RouterModel()
            scorer.update(x, 1 if label in truth else -1, 1.0, scores[label])
