"""Executable checks of the convexity properties the design relies on.

Fixed-attention midpoint convexity trials around a trained model,
nonexpansiveness sweeps of the simplex projection, and the softmax
Jensen-violation counterexample; each returns a machine-readable record.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .features import lift
from .losses import loss_functions
from .model import _score
from .numutil import RngStream, check_numbers
from .projections import simplex_project_rows, squared_distance_to_simplex, softmax_ref
from .trainer import check_dataset

CONVEXITY_TOL = 1e-6


@dataclass
class ConvexityTrialReport:
    trials: int
    satisfied: int
    mean_violation: float  # negative = strictly satisfied
    min_violation: float
    median_violation: float
    max_violation: float
    loss_kind: str
    noise_stddev: float

    @property
    def passed(self):
        return self.satisfied == self.trials


def convexity_check(bundle, X, y, trials=100, noise_stddev=0.1, rng=None):
    """Midpoint convexity protocol for the loss the bundle was trained
    with, attention frozen at the trained weights: the scores are then
    linear in the weights, as the gradients take them, so the loss is
    convex at any weights and noise. Each trial perturbs the trained
    tensor with Gaussian noise twice and checks loss(midpoint) <= mean
    of the endpoint losses, within tolerance 1e-6.
    """
    check_numbers(dict(trials=trials), numbers.Integral, least=1)
    check_numbers(dict(noise_stddev=noise_stddev), numbers.Real, above=0)
    X, y = check_dataset((X, y), bundle)
    if not np.any(bundle.weights):
        raise ValueError("bundle looks untrained (all-zero weights)")
    rng = rng or RngStream(0)
    Q = lift(X, (bundle.norm_mean, bundle.norm_std), bundle.spec, bundle.rff)
    A0 = bundle.weights
    alpha = _score(Q, A0)[1]
    loss, _, target = loss_functions(bundle.loss_kind)
    Y = target(y, A0.shape[0])
    violations = np.empty(trials)
    for t in range(trials):
        g = rng.derive(1000 + t)
        noise = g.gauss(2 * A0.size, 0.0, noise_stddev)
        A1 = A0 + noise[: A0.size].reshape(A0.shape)
        A2 = A0 + noise[A0.size:].reshape(A0.shape)
        l1, l2, lm = (loss(_score(Q, A, alpha)[0], Y) for A in (A1, A2, 0.5 * (A1 + A2)))
        violations[t] = lm - 0.5 * (l1 + l2)
    satisfied = int(np.count_nonzero(violations <= CONVEXITY_TOL))
    return ConvexityTrialReport(
        trials=trials,
        satisfied=satisfied,
        mean_violation=float(violations.mean()),
        min_violation=float(violations.min()),
        median_violation=float(np.median(violations)),
        max_violation=float(violations.max()),
        loss_kind=bundle.loss_kind,
        noise_stddev=noise_stddev,
    )


@dataclass
class NonexpansivenessReport:
    pairs: int
    skipped: int
    max_ratio: float
    firm_ok: bool

    @property
    def passed(self):
        return self.firm_ok and self.max_ratio <= 1.0 + 1e-9


def nonexpansiveness_sweep(pairs=1000, dim=10, rng=None):
    """Worst-case Lipschitz ratio and firm inequality over random pairs.

    All pairs come from one draw and one row-wise projection. Pairs
    closer than 1e-12 are skipped (ratio undefined) and counted.
    """
    check_numbers(dict(pairs=pairs, dim=dim), numbers.Integral, least=1)
    rng = rng or RngStream(0)
    vw = rng.uniform(2 * dim * pairs, -5.0, 5.0).reshape(pairs, 2, dim)
    p = simplex_project_rows(vw.reshape(-1, dim)).reshape(vw.shape)
    d, pd = vw[:, 0] - vw[:, 1], p[:, 0] - p[:, 1]
    dist, pdist = np.linalg.norm(d, axis=1), np.linalg.norm(pd, axis=1)
    firm_ok = bool(np.all(pdist**2 <= np.einsum("ij,ij->i", pd, d) + 1e-12))
    apart = dist >= 1e-12
    return NonexpansivenessReport(
        pairs=pairs,
        skipped=int(pairs - np.count_nonzero(apart)),
        max_ratio=float(np.max(pdist[apart] / dist[apart], initial=0.0)),
        firm_ok=firm_ok,
    )


@dataclass
class SoftmaxCounterexample:
    midpoint_first: float      # softmax at the midpoint of the two inputs
    interpolated_first: float  # midpoint of the two softmax outputs
    jensen_violated: bool      # convexity inequality fails for softmax
    distance_convex_ok: bool   # same 3 points satisfy d^2 convexity

    @property
    def passed(self):
        return self.jensen_violated and self.distance_convex_ok


def softmax_counterexample():
    """Jensen's inequality fails for softmax at z=(0,0), z'=(2,0), t=0.5;
    the squared simplex distance at the same points stays convex."""
    z = np.array([0.0, 0.0])
    zp = np.array([2.0, 0.0])
    mid = 0.5 * (z + zp)
    sm_mid = softmax_ref(mid)
    interp = 0.5 * softmax_ref(z) + 0.5 * softmax_ref(zp)
    jensen_violated = sm_mid[0] > interp[0]
    d_mid = squared_distance_to_simplex(mid)
    d_interp = 0.5 * squared_distance_to_simplex(z) + 0.5 * squared_distance_to_simplex(zp)
    return SoftmaxCounterexample(
        midpoint_first=float(sm_mid[0]),
        interpolated_first=float(interp[0]),
        jensen_violated=bool(jensen_violated),
        distance_convex_ok=bool(d_mid <= d_interp + 1e-9),
    )
