"""Fitting the Q_o model coefficients (paper Table II).

The paper obtains c1..c4 by measuring VMAF over segments that sweep SI,
TI and bitrate, then running nonlinear least squares (Matlab's
``nlinfit``; here ``scipy.optimize.least_squares``).  The fitted model
correlates with the measurements at Pearson r = 0.9791.

Offline we cannot run the real VMAF tool, so :class:`VMAFOracle` stands
in for it: a ground-truth logistic (the published Table II coefficients)
plus bounded measurement noise, mimicking VMAF's deviation from any
smooth parametric model.  The *fitting pipeline itself* — training-set
construction, NLLS optimization, correlation reporting — is reproduced
faithfully, and recovers Table II to within the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..video.content import Video
from ..video.encoder import EncoderModel
from .quality import QoCoefficients, QualityModel, TABLE_II

__all__ = ["VMAFOracle", "FitResult", "build_training_set", "fit_qo_model"]


@dataclass(frozen=True)
class VMAFOracle:
    """Synthetic VMAF measurements around the Table II ground truth."""

    coefficients: QoCoefficients = TABLE_II
    noise_std: float = 2.5
    seed: int = 910  # ITU-T P.910, for flavour

    def measure(
        self, si: np.ndarray, ti: np.ndarray, bitrate_mbps: np.ndarray
    ) -> np.ndarray:
        """VMAF scores (clipped to [0, 100]) for the given segments."""
        model = QualityModel(self.coefficients)
        truth = model.qo_array(si, ti, bitrate_mbps)
        rng = np.random.default_rng(self.seed)
        noisy = truth + rng.normal(0.0, self.noise_std, size=truth.shape)
        return np.clip(noisy, 0.0, 100.0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the nonlinear least-squares fit."""

    coefficients: QoCoefficients
    pearson_r: float
    n_samples: int

    def model(self) -> QualityModel:
        return QualityModel(self.coefficients)


def build_training_set(
    videos: tuple[Video, ...] | list[Video],
    encoder: EncoderModel,
    segments_per_video: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the (SI, TI, bitrate) training design.

    As in the paper, ten segments are uniformly selected from each video
    and each is paired with every quality level's FoV bitrate, sweeping
    all three regressors.
    """
    if segments_per_video < 1:
        raise ValueError("need at least one segment per video")
    si_list: list[float] = []
    ti_list: list[float] = []
    b_list: list[float] = []
    for video in videos:
        n = video.num_segments
        count = min(segments_per_video, n)
        indices = np.unique(np.linspace(0, n - 1, count).astype(int))
        for idx in indices:
            seg = video.segment(int(idx))
            for quality in encoder.ladder.levels:
                si_list.append(seg.si)
                ti_list.append(seg.ti)
                b_list.append(encoder.qoe_bitrate_mbps(quality, seg.si, seg.ti))
    return np.array(si_list), np.array(ti_list), np.array(b_list)


def fit_qo_model(
    si: np.ndarray, ti: np.ndarray, bitrate_mbps: np.ndarray, vmaf: np.ndarray
) -> FitResult:
    """Nonlinear least-squares fit of Eq. 3 to VMAF measurements.

    Returns the fitted coefficients and the Pearson correlation between
    model predictions and measurements (the paper reports 0.9791).
    """
    si = np.asarray(si, dtype=float)
    ti = np.asarray(ti, dtype=float)
    b = np.asarray(bitrate_mbps, dtype=float)
    vmaf = np.asarray(vmaf, dtype=float)
    if not (si.shape == ti.shape == b.shape == vmaf.shape):
        raise ValueError("all inputs must share the same shape")
    if si.size < 4:
        raise ValueError("need at least 4 samples to fit 4 coefficients")

    def predict(params: np.ndarray) -> np.ndarray:
        c1, c2, c3, c4 = params
        z = c1 + c2 * si + c3 * ti + c4 * b
        return 100.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def residuals(params: np.ndarray) -> np.ndarray:
        return predict(params) - vmaf

    # Imported here: scipy costs about a second to import, and nothing
    # else on the CLI's or the service's import path needs it.
    from scipy.optimize import least_squares

    start = np.array([0.0, 0.01, -0.01, 0.1])
    solution = least_squares(residuals, start, method="lm", max_nfev=20000)
    fitted = QoCoefficients(*(float(v) for v in solution.x))

    predictions = predict(solution.x)
    pred_std = float(np.std(predictions))
    meas_std = float(np.std(vmaf))
    if pred_std == 0.0 or meas_std == 0.0:
        pearson = 0.0
    else:
        pearson = float(np.corrcoef(predictions, vmaf)[0, 1])
    return FitResult(coefficients=fitted, pearson_r=pearson, n_samples=si.size)
