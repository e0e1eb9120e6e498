"""Standard forms, optimal quasidistributions, and SVG charts per element."""

from ..cli import _canonical, _file_stems, _manifest, _out_dir, _read_povm, _write_text
from ..errors import ConvergenceError


def quasidist(given, povm_path, out_dir):
    from ..operators import bloch_vector
    from ..quasidist import LABELS, negativity_report, optimal_quasidistribution
    from ..standard_form import _MAX_SWEEPS, back_transform, to_standard_form
    from ..svg import quasidist_svg

    povm = _read_povm(povm_path)
    stems = _file_stems(povm.labels)
    outp = _out_dir(out_dir)
    manifest = _manifest("quasidist", povm=povm_path, max_iter=_MAX_SWEEPS)
    summary: dict = {"manifest": manifest, "elements": {}, "failed": []}
    for label, element in povm.items():
        try:
            form = to_standard_form(element)
        except ConvergenceError as e:
            summary["elements"][label] = {"error": str(e), "residual": e.residual}
            summary["failed"].append(label)
            continue
        qdist = optimal_quasidistribution(form)
        report = negativity_report(qdist)
        tilde = back_transform(form, qdist)
        bloch_a = [bloch_vector(s) for s in tilde.states_a]
        bloch_b = [bloch_vector(s) for s in tilde.states_b]
        fname = f"element_{stems[label]}.json"
        payload = {
            "manifest": manifest,
            "label": label,
            "standard_form": form.to_dict(),
            "quasidistribution": qdist.to_dict(),
            "negativity": report.to_dict(),
            "tilde": {
                "states_a": [[[v.real, v.imag] for v in s] for s in tilde.states_a.tolist()],
                "states_b": [[[v.real, v.imag] for v in s] for s in tilde.states_b.tolist()],
                "bloch_a": [v.tolist() for v in bloch_a],
                "bloch_b": [v.tolist() for v in bloch_b],
                "grid": tilde.grid.tolist(),
            },
        }
        _write_text(outp / fname, _canonical(payload))
        footer = tuple(
            "A %s: (%.4f, %.4f, %.4f)" % ((LABELS[k],) + tuple(bloch_a[k])) for k in range(6)
        ) + tuple(
            "B %s: (%.4f, %.4f, %.4f)" % ((LABELS[k],) + tuple(bloch_b[k])) for k in range(6)
        )
        svg = quasidist_svg(
            qdist.grid,
            title=f"Optimal quasidistribution: element {label}",
            q=qdist.q,
            footer_lines=footer,
        )
        _write_text(outp / f"element_{stems[label]}.svg", svg)
        summary["elements"][label] = {
            "q": qdist.q,
            "max_negativity": report.max_negativity,
            "cumulative_negativity": report.cumulative_negativity,
            "verdict": report.verdict,
            "file": fname,
        }
    _write_text(outp / "summary.json", _canonical(summary))
    if summary["failed"]:
        raise ConvergenceError(
            "standard form failed for element(s): " + ", ".join(summary["failed"])
        )
