"""Linearly invert counts into a POVM and repair indefiniteness."""

import numpy as np

from ..cli import _emit, _manifest, _read_basis_map, _read_counts


def reconstruct(given, counts_path, basis_map_path, margin, out):
    from ..operators import HermitianOperator, PovmSet
    from ..tomography import closest_bell_labels, invert_frequencies, physicality_correct, relative_frequencies

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    freqs = relative_frequencies(data)
    # the correlations and the raw POVM's matrices from one inversion
    corrs, mats = invert_frequencies(freqs.probs, freqs.basis_map)
    raw = PovmSet(freqs.outcomes, tuple(HermitianOperator(m, (2, 2)) for m in mats))
    corrected, p, lam = physicality_correct(raw, margin=margin)
    total = sum(el.matrix for el in raw.elements)
    residual = float(np.max(np.abs(total - np.eye(4))))
    payload = {
        "manifest": _manifest("reconstruct", counts=counts_path, margin=margin),
        "raw_povm": raw.to_dict(),
        "corrected_povm": corrected.to_dict(),
        "lambda": lam,
        "p": p,
        "completeness_residual": residual,
        "correlations": {
            label: c.tolist() for label, c in zip(raw.labels, corrs)
        },
        "bell_match": closest_bell_labels(corrected),
    }
    _emit(payload, out)
