"""Draw synthetic coincidence counts from a detector model."""

from ..cli import _check_mode, _load_json, _manifest, _read_basis_map, _read_povm, _write_counts


def simulate(given, model_path, povm_path, eps, counts, indefiniteness, seed, basis_map_path, out):
    from ..simulate import DetectorModel, bell_model, draw_counts, model_from_spec
    from ..tomography import BasisMap

    if model_path is not None:
        # the spec carries the model's own fields; only --seed overrides one
        _check_mode("simulate", given, "--model", {"model_path"}, {"seed", "out"})
        model, model_seed = model_from_spec(_load_json(model_path))
    else:
        model_seed = 0
        basis_map = _read_basis_map(basis_map_path)
        if povm_path is None or povm_path.lower() == "bell":
            model = bell_model(eps, counts, indefiniteness, basis_map)
        else:
            model = DetectorModel(
                povm=_read_povm(povm_path),
                eps=eps,
                counts_per_setting=counts,
                basis_map=basis_map or BasisMap.default(),
                indefiniteness=indefiniteness,
            )
    used_seed = model_seed if seed is None else seed
    manifest = _manifest(
        "simulate",
        eps=model.eps,
        counts_per_setting=model.counts_per_setting,
        indefiniteness=model.indefiniteness,
        seed=used_seed,
    )
    _write_counts(draw_counts(model, used_seed), out, manifest)
