"""Merge outcome groups by summing their counts."""

from ..cli import _manifest, _read_basis_map, _read_counts, _write_counts


def combine(given, counts_path, basis_map_path, groups, out):
    from ..tomography import combine_outcomes

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    parsed = [[lbl.strip() for lbl in grp.split("+")] for grp in groups.split(",") if grp]
    manifest = _manifest("combine", counts=counts_path, groups=groups)
    _write_counts(combine_outcomes(data, parsed), out, manifest)
