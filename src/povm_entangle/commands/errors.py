"""Propagate counting statistics through the pipeline by resampling."""

import numpy as np

from ..cli import _canonical, _emit, _file_stems, _manifest, _out_dir, _read_basis_map, _read_counts, _write_text


def errors(given, counts_path, basis_map_path, samples, inflation, seed, workers, margin, out_dir):
    from ..montecarlo import McConfig, propagate
    from ..svg import quasidist_svg

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    stems = _file_stems(data.outcomes) if out_dir is not None else None
    cfg = McConfig(sample_size=samples, inflation=inflation, seed=seed, workers=workers)
    report = propagate(data, cfg, margin=margin)
    manifest = _manifest(
        "errors",
        counts=counts_path,
        samples=samples,
        inflation=inflation,
        seed=seed,
        margin=margin,
    )
    if out_dir is None:
        _emit({"manifest": manifest, **report.to_dict()}, None)
        return
    outp = _out_dir(out_dir)
    summary: dict = {
        "manifest": manifest,
        "sample_size": cfg.sample_size,
        "inflation": cfg.inflation,
        "seed": cfg.seed,
        "retained": report.retained,
        "excluded": report.excluded,
        "elements": {},
    }
    for e in report.elements:
        fname = f"errors_{stems[e.label]}.json"
        _write_text(outp / fname, _canonical({"manifest": manifest, **e.to_dict()}))
        svg = quasidist_svg(
            e.grid_reference,
            title=f"Quasidistribution with error bars: element {e.label}",
            q=e.q_reference,
            sigma=e.grid_std,
        )
        _write_text(outp / f"errors_{stems[e.label]}.svg", svg)
        summary["elements"][e.label] = {
            "q_mean": e.q_mean,
            "q_std": e.q_std,
            "max_negativity_mean": e.max_negativity_mean,
            "max_negativity_std": e.max_negativity_std,
            "negativity_significance": (
                e.negativity_significance if np.isfinite(e.negativity_significance) else None
            ),
            "file": fname,
        }
    _write_text(outp / "summary.json", _canonical(summary))
