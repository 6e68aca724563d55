"""Statistical analysis of session-experiment results.

The paper reports point averages; a credible reproduction should also
say how stable its comparisons are across users and videos.  This
module provides seeded bootstrap confidence intervals and paired
scheme comparisons over matched sessions (same user, video, and trace
under both schemes), plus a Wilcoxon signed-rank test from scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..streaming.metrics import SessionResult

__all__ = ["BootstrapCI", "PairedComparison", "bootstrap_ci",
           "paired_comparison", "compare_schemes"]


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap confidence interval for a sample mean."""

    mean: float
    low: float
    high: float
    confidence: float
    n_samples: int

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def report(self) -> str:
        return (
            f"{self.mean:.3f} [{self.low:.3f}, {self.high:.3f}]"
            f" ({self.confidence:.0%} CI, n={self.n_samples})"
        )


def bootstrap_ci(
    values,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile-bootstrap CI of the mean (seeded, deterministic)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no samples")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    means = rng.choice(arr, size=(n_resamples, arr.size), replace=True).mean(
        axis=1
    )
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        mean=float(arr.mean()),
        low=float(np.quantile(means, alpha)),
        high=float(np.quantile(means, 1.0 - alpha)),
        confidence=confidence,
        n_samples=int(arr.size),
    )


@dataclass(frozen=True)
class PairedComparison:
    """Paired A-versus-B comparison of one metric over matched sessions."""

    metric: str
    mean_a: float
    mean_b: float
    mean_diff: float  # a - b
    diff_ci: BootstrapCI
    wilcoxon_p: float
    n_pairs: int

    @property
    def significant(self) -> bool:
        """Zero outside the CI and Wilcoxon p < 0.05."""
        return (not self.diff_ci.contains(0.0)) and self.wilcoxon_p < 0.05

    def report(self) -> str:
        verdict = "significant" if self.significant else "not significant"
        return (
            f"{self.metric}: A {self.mean_a:.3f} vs B {self.mean_b:.3f},"
            f" diff {self.mean_diff:+.3f} CI"
            f" [{self.diff_ci.low:+.3f}, {self.diff_ci.high:+.3f}],"
            f" Wilcoxon p={self.wilcoxon_p:.2g} ({verdict}, n={self.n_pairs})"
        )


def _metric_of(result: SessionResult, metric: str) -> float:
    getters = {
        "energy_per_segment_j": lambda r: r.energy_per_segment_j,
        "energy_j": lambda r: r.total_energy_j,
        "qoe": lambda r: r.mean_qoe,
        "quality": lambda r: r.mean_quality_level,
        "coverage": lambda r: r.mean_coverage,
        "frame_rate": lambda r: r.mean_frame_rate,
    }
    if metric not in getters:
        raise KeyError(f"unknown metric {metric!r}; known: {sorted(getters)}")
    return float(getters[metric](result))


def paired_comparison(
    sessions_a: list[SessionResult],
    sessions_b: list[SessionResult],
    metric: str = "energy_per_segment_j",
    confidence: float = 0.95,
    seed: int = 0,
) -> PairedComparison:
    """Compare two schemes over matched sessions.

    Sessions are matched by (video, user, network); both lists must
    cover the same set of keys.
    """
    def keyed(sessions):
        return {
            (s.video_id, s.user_id, s.network_name): s for s in sessions
        }

    a_by_key = keyed(sessions_a)
    b_by_key = keyed(sessions_b)
    if set(a_by_key) != set(b_by_key):
        raise ValueError("session sets are not matched")
    if not a_by_key:
        raise ValueError("no sessions to compare")

    keys = sorted(a_by_key)
    a_values = np.array([_metric_of(a_by_key[k], metric) for k in keys])
    b_values = np.array([_metric_of(b_by_key[k], metric) for k in keys])
    diffs = a_values - b_values

    ci = bootstrap_ci(diffs, confidence=confidence, seed=seed)
    if np.allclose(diffs, 0.0):
        p_value = 1.0
    else:
        # Imported here: scipy is slow to import and only this test needs it.
        from scipy import stats as scipy_stats

        p_value = float(scipy_stats.wilcoxon(diffs).pvalue)
    return PairedComparison(
        metric=metric,
        mean_a=float(a_values.mean()),
        mean_b=float(b_values.mean()),
        mean_diff=float(diffs.mean()),
        diff_ci=ci,
        wilcoxon_p=p_value,
        n_pairs=len(keys),
    )


def compare_schemes(
    results: dict[tuple[str, str, int], list[SessionResult]],
    scheme_a: str,
    scheme_b: str,
    metric: str = "energy_per_segment_j",
) -> PairedComparison:
    """Paired comparison over a ``run_comparison`` session matrix."""
    a = [s for (t, name, v), ss in results.items() if name == scheme_a
         for s in ss]
    b = [s for (t, name, v), ss in results.items() if name == scheme_b
         for s in ss]
    if not a or not b:
        raise KeyError(
            f"schemes {scheme_a!r}/{scheme_b!r} missing from the matrix"
        )
    return paired_comparison(a, b, metric=metric)
