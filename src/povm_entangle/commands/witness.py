"""Evaluate probe-state witnesses or cross-check separability bounds."""

from ..cli import _PROG, _check_mode, _emit, _manifest, _read_povm, _UsageError
from ..errors import ValidationError

# each witness mode's options: those it needs, then the others it reads
_WITNESS_MODES = {
    "--lambda": ({"n", "d"}, {"lambda_mode", "restarts", "seed", "out"}),
    "element mode": ({"povm_path", "element_label"}, {"family", "numeric", "restarts", "seed", "out"}),
    "--family ghz": ({"n"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
    "--family me": ({"d"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
}


def witness(given, family, n, d, eps, povm_path, element_label, lambda_mode, numeric, restarts, seed, out):
    from ..operators import lambda_operator, noisy_ghz_element, noisy_me_element
    from ..witness import (
        ghz_probe,
        lambda_gmax_analytic,
        me_probe,
        noise_threshold,
        separability_eigenvalue_numeric,
        witness_evaluate,
    )

    if lambda_mode:
        mode = "--lambda"
    elif povm_path is not None or element_label is not None:
        mode = "element mode"
    elif family is not None:
        mode = f"--family {family}"
    else:
        raise _UsageError("pick a mode: --family, --povm/--element, or --lambda", f"{_PROG} witness")
    _check_mode("witness", given, mode, *_WITNESS_MODES[mode])
    if lambda_mode:
        res = separability_eigenvalue_numeric(lambda_operator(n, d), restarts=restarts, seed=seed)
        analytic = lambda_gmax_analytic(n, d)
        manifest = _manifest("witness", mode="lambda", n=n, d=d, restarts=restarts, seed=seed)
        payload = {"manifest": manifest, "mode": "lambda", "n": n, "d": d, "analytic": analytic}
        _emit({**payload, "numeric": res.gmax, "difference": analytic - res.gmax, "converged": res.converged}, out)
        return
    if mode == "element mode":
        element = _read_povm(povm_path).element(element_label)
        family, parties = family or "me", element.parties
        if family == "ghz" and any(p != 2 for p in parties):
            raise ValidationError("ghz probe needs qubit parties")
        if family == "me" and (len(parties) != 2 or parties[0] != parties[1]):
            raise ValidationError("me probe needs two equal-dimension parties")
        size = len(parties) if family == "ghz" else parties[0]
        keys = {"mode": "element", "element": element_label}
        params = {**keys, "povm": povm_path, "family": family}
    else:
        size = n if family == "ghz" else d
        # the element first: a size past the dimension guard fails there
        element = (noisy_ghz_element if family == "ghz" else noisy_me_element)(size, eps)
        params = {"mode": "family", "family": family, "size": size, "eps": eps}
        keys = {**params, "noise_threshold": noise_threshold(family, size)}
    probe = (ghz_probe if family == "ghz" else me_probe)(size)
    result = witness_evaluate(element, probe, numeric=numeric, restarts=restarts, seed=seed)
    manifest = _manifest("witness", **params, numeric=numeric, restarts=restarts, seed=seed)
    _emit({"manifest": manifest, **keys, **result.to_dict()}, out)
