"""Diffusion tensor model fitting (Step 3-N of the neuroscience pipeline).

"We use the diffusion tensor model (DTM) ..., which summarizes the
directional diffusion profile within a voxel as a 3D Gaussian
distribution [3].  Fitting the DTM is done per voxel ... Given the 288
values in a voxel, fitting the model requires estimating a 3x3
variance/covariance matrix (a rank 2 tensor).  The model parameters are
summarized as a scalar for each voxel called Fractional Anisotropy (FA)."
(Section 3.1.2.)

The fit follows the standard log-linear weighted-least-squares scheme of
Basser et al.: an ordinary least-squares pass on log-signals, then one
reweighted pass using the predicted signals as weights.
"""

import numpy as np

from repro.algorithms.memo import memoized

#: b-values at or below this are treated as non-diffusion-weighted (b0).
B0_THRESHOLD = 50.0

#: Floor applied to signals before taking logarithms.
MIN_SIGNAL = 1e-6


class GradientTable:
    """Acquisition metadata: b-values and unit gradient directions.

    ``b0s_mask`` selects the volumes "in which no diffusion weighting
    was applied ... used for calibration" (Section 3.1.1) -- the same
    attribute name SciDB-py code in Figure 5 uses (``gtab.b0s_mask``).
    """

    def __init__(self, bvals, bvecs):
        bvals = np.asarray(bvals, dtype=np.float64)
        bvecs = np.asarray(bvecs, dtype=np.float64)
        if bvals.ndim != 1:
            raise ValueError(f"bvals must be 1-d, got shape {bvals.shape}")
        if bvecs.shape != (bvals.size, 3):
            raise ValueError(
                f"bvecs must be ({bvals.size}, 3), got {bvecs.shape}"
            )
        if np.any(bvals < 0):
            raise ValueError("b-values cannot be negative")
        norms = np.linalg.norm(bvecs, axis=1)
        weighted = bvals > B0_THRESHOLD
        bad = weighted & (np.abs(norms - 1.0) > 1e-3)
        if np.any(bad):
            raise ValueError(
                f"{int(bad.sum())} diffusion-weighted bvecs are not unit length"
            )
        self.bvals = bvals
        self.bvecs = bvecs

    @property
    def b0s_mask(self):
        """Boolean mask of the non-diffusion-weighted volumes."""
        return self.bvals <= B0_THRESHOLD

    def __len__(self):
        return self.bvals.size

    def __repr__(self):
        return (
            f"GradientTable(n={len(self)},"
            f" n_b0={int(self.b0s_mask.sum())})"
        )


def design_matrix(gtab):
    """The (n, 7) log-linear DTM design matrix.

    Columns: ``[Dxx, Dyy, Dzz, Dxy, Dxz, Dyz, log(S0)]`` coefficients,
    i.e. ``log S_i = -b_i (g g^T : D) + log S0``.
    """
    b = gtab.bvals
    g = gtab.bvecs
    design = np.empty((len(gtab), 7), dtype=np.float64)
    design[:, 0] = -b * g[:, 0] * g[:, 0]
    design[:, 1] = -b * g[:, 1] * g[:, 1]
    design[:, 2] = -b * g[:, 2] * g[:, 2]
    design[:, 3] = -2.0 * b * g[:, 0] * g[:, 1]
    design[:, 4] = -2.0 * b * g[:, 0] * g[:, 2]
    design[:, 5] = -2.0 * b * g[:, 1] * g[:, 2]
    design[:, 6] = 1.0
    return design


def fit_dtm(data, gtab, mask=None):
    """Fit the diffusion tensor per voxel; returns eigenvalues.

    Parameters
    ----------
    data:
        4-d array ``(x, y, z, n_volumes)`` of signals.
    gtab:
        :class:`GradientTable` describing the ``n_volumes`` axis.
    mask:
        Optional 3-d boolean mask; voxels outside get zero eigenvalues.

    Returns
    -------
    evals:
        ``(x, y, z, 3)`` array of tensor eigenvalues, descending.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 4:
        raise ValueError(f"data must be 4-d, got shape {data.shape}")
    if data.shape[-1] != len(gtab):
        raise ValueError(
            f"data has {data.shape[-1]} volumes but gradient table has {len(gtab)}"
        )
    spatial = data.shape[:3]
    if mask is None:
        mask = np.ones(spatial, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != spatial:
            raise ValueError(
                f"mask shape {mask.shape} does not match data {spatial}"
            )
    return _fit_planes(data, mask, gtab.bvals, gtab.bvecs)


@memoized
def _fit_planes(data, mask, bvals, bvecs):
    """The fit of :func:`fit_dtm` on validated planes.

    Memoized: every engine fits the same voxel blocks of the same
    subjects, so each distinct block is fitted once per process.
    """
    signals = data[mask]                       # (v, n)
    evals = np.zeros(data.shape[:3] + (3,), dtype=np.float64)
    if signals.size == 0:
        return evals

    tensors = _wls_tensors(signals, GradientTable(bvals, bvecs))  # (v, 6)
    evals[mask] = tensor_eigenvalues(tensors)
    return evals


def _wls_tensors(signals, gtab):
    """Batched WLS fit: returns (v, 6) tensor elements."""
    design = design_matrix(gtab)               # (n, 7)
    log_s = np.log(np.maximum(signals, MIN_SIGNAL))  # (v, n)

    # OLS initialization.
    pinv = np.linalg.pinv(design)              # (7, n)
    beta = log_s @ pinv.T                      # (v, 7)

    # One reweighted pass: weights are the squared predicted signals.
    predicted = np.exp(beta @ design.T)        # (v, n)
    w2 = predicted ** 2
    # Solve (X^T W X) beta = X^T W y per voxel, batched.
    xtwx = np.einsum("vn,ni,nj->vij", w2, design, design)
    xtwy = np.einsum("vn,ni,vn->vi", w2, design, log_s)
    try:
        beta = np.linalg.solve(xtwx, xtwy[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Singular weighting (e.g. all-zero voxels): keep the OLS fit.
        pass
    return beta[:, :6]


def tensor_eigenvalues(tensor_elements):
    """Eigenvalues (descending) of symmetric tensors given as
    ``[Dxx, Dyy, Dzz, Dxy, Dxz, Dyz]`` rows."""
    elements = np.atleast_2d(np.asarray(tensor_elements, dtype=np.float64))
    v = elements.shape[0]
    matrices = np.empty((v, 3, 3), dtype=np.float64)
    matrices[:, 0, 0] = elements[:, 0]
    matrices[:, 1, 1] = elements[:, 1]
    matrices[:, 2, 2] = elements[:, 2]
    matrices[:, 0, 1] = matrices[:, 1, 0] = elements[:, 3]
    matrices[:, 0, 2] = matrices[:, 2, 0] = elements[:, 4]
    matrices[:, 1, 2] = matrices[:, 2, 1] = elements[:, 5]
    evals = np.linalg.eigvalsh(matrices)       # ascending
    return evals[:, ::-1]


def fractional_anisotropy(evals):
    """FA, "a scalar for each voxel ... that quantifies diffusivity
    differences across different directions" (Section 3.1.2).

    Accepts ``(..., 3)`` eigenvalue arrays; returns ``(...)`` FA in
    [0, 1], zero where all eigenvalues vanish.
    """
    evals = np.asarray(evals, dtype=np.float64)
    if evals.shape[-1] != 3:
        raise ValueError(f"expected trailing axis of 3 eigenvalues, got {evals.shape}")
    l1, l2, l3 = evals[..., 0], evals[..., 1], evals[..., 2]
    denom = l1 * l1 + l2 * l2 + l3 * l3
    numer = (l1 - l2) ** 2 + (l2 - l3) ** 2 + (l1 - l3) ** 2
    fa = np.zeros(evals.shape[:-1], dtype=np.float64)
    nz = denom > 0
    fa[nz] = np.sqrt(0.5 * numer[nz] / denom[nz])
    return np.clip(fa, 0.0, 1.0)
