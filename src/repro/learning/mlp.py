"""A small fully-connected network with manual backpropagation.

The paper's value function ``V(s)`` is a neural network trained with a
mean-squared loss (Section VI-B).  Because this reproduction cannot rely
on a deep-learning framework being installed, the network is implemented
directly on numpy: ReLU hidden layers, a linear scalar output, Adam
updates and explicit forward/backward passes.  The feature
dimensionality here is a few hundred, so this is more than fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import LearningError


@dataclass
class _AdamState:
    """First/second moment accumulators of one parameter tensor."""

    m: np.ndarray
    v: np.ndarray


class MLP:
    """Multi-layer perceptron regression network ``R^d -> R``.

    Parameters
    ----------
    input_dim:
        Feature dimensionality.
    hidden_sizes:
        Widths of the hidden ReLU layers.
    learning_rate:
        Adam step size.
    seed:
        Seed of the (He) weight initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_sizes: tuple[int, ...] = (64, 32),
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if input_dim <= 0:
            raise LearningError("input_dim must be positive")
        if not hidden_sizes:
            raise LearningError("at least one hidden layer is required")
        self._input_dim = input_dim
        self._learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        sizes = [input_dim, *hidden_sizes, 1]
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))
        self._adam_weights = [
            _AdamState(np.zeros_like(w), np.zeros_like(w)) for w in self._weights
        ]
        self._adam_biases = [
            _AdamState(np.zeros_like(b), np.zeros_like(b)) for b in self._biases
        ]
        self._adam_step = 0

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Expected feature dimensionality."""
        return self._input_dim

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Forward pass; accepts a single vector or a batch matrix."""
        batch = self._as_batch(features)
        activations, _ = self._forward(batch)
        return activations[-1].ravel()

    def predict_one(self, features: np.ndarray) -> float:
        """Scalar prediction for a single feature vector."""
        return float(self.predict(features)[0])

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_batch(self, features: np.ndarray, targets: np.ndarray) -> float:
        """One Adam step on a batch; returns the mean-squared-error loss."""
        batch = self._as_batch(features)
        target = np.asarray(targets, dtype=float).reshape(-1, 1)
        if target.shape[0] != batch.shape[0]:
            raise LearningError("features and targets disagree on batch size")
        activations, pre_activations = self._forward(batch)
        predictions = activations[-1]
        errors = predictions - target
        loss = float(np.mean(errors**2))
        self._backward(batch, activations, pre_activations, errors)
        return loss

    # ------------------------------------------------------------------
    # parameter transfer (target network support)
    # ------------------------------------------------------------------
    def get_parameters(self) -> list[np.ndarray]:
        """Copies of all weight/bias tensors (weights first, then biases)."""
        return [w.copy() for w in self._weights] + [b.copy() for b in self._biases]

    def set_parameters(self, parameters: list[np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`get_parameters`."""
        count = len(self._weights)
        if len(parameters) != 2 * count:
            raise LearningError("parameter list has the wrong length")
        for index in range(count):
            if parameters[index].shape != self._weights[index].shape:
                raise LearningError("weight tensor shape mismatch")
            self._weights[index] = parameters[index].copy()
        for index in range(count):
            source = parameters[count + index]
            if source.shape != self._biases[index].shape:
                raise LearningError("bias tensor shape mismatch")
            self._biases[index] = source.copy()

    def copy_from(self, other: "MLP") -> None:
        """Copy all parameters from another network of identical shape."""
        self.set_parameters(other.get_parameters())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _as_batch(self, features: np.ndarray) -> np.ndarray:
        data = np.asarray(features, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[1] != self._input_dim:
            raise LearningError(
                f"expected feature dimension {self._input_dim}, got {data.shape[1]}"
            )
        return data

    def _forward(
        self, batch: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        activations = [batch]
        pre_activations = []
        current = batch
        last = len(self._weights) - 1
        for index, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            z = current @ weight + bias
            pre_activations.append(z)
            current = z if index == last else np.maximum(z, 0.0)
            activations.append(current)
        return activations, pre_activations

    def _backward(
        self,
        batch: np.ndarray,
        activations: list[np.ndarray],
        pre_activations: list[np.ndarray],
        errors: np.ndarray,
    ) -> None:
        batch_size = batch.shape[0]
        delta = 2.0 * errors / batch_size
        weight_grads: list[np.ndarray] = [np.empty(0)] * len(self._weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(self._biases)
        for index in range(len(self._weights) - 1, -1, -1):
            weight_grads[index] = activations[index].T @ delta
            bias_grads[index] = delta.sum(axis=0)
            if index > 0:
                delta = delta @ self._weights[index].T
                delta = delta * (pre_activations[index - 1] > 0.0)
        self._adam_step += 1
        for index in range(len(self._weights)):
            self._apply_adam(
                self._weights[index], weight_grads[index], self._adam_weights[index]
            )
            self._apply_adam(
                self._biases[index], bias_grads[index], self._adam_biases[index]
            )

    def _apply_adam(
        self, parameter: np.ndarray, gradient: np.ndarray, state: _AdamState
    ) -> None:
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        state.m = beta1 * state.m + (1.0 - beta1) * gradient
        state.v = beta2 * state.v + (1.0 - beta2) * gradient**2
        m_hat = state.m / (1.0 - beta1**self._adam_step)
        v_hat = state.v / (1.0 - beta2**self._adam_step)
        parameter -= self._learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
