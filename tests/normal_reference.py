"""An independent normal log-density for the tests to check the library
against: one point, one mean, one Cholesky factor and a vector solve."""

import numpy as np


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """log N(x | mean, cov)."""
    d = x - mean
    n = d.shape[0]
    chol = np.linalg.cholesky(cov)
    sol = np.linalg.solve(chol, d)
    return float(
        -0.5 * sol @ sol - np.log(np.diag(chol)).sum() - 0.5 * n * np.log(2 * np.pi)
    )
