"""``blockade-check``: frozen-pattern blockade cancellation residuals.

The CLI imports this module only when this subcommand runs: ``validate``
checks and normalizes a loaded config's checks and builds each one's
layout, ``run`` returns the CSV header and the rows.
"""

from __future__ import annotations

from . import ConfigError, Table, _check_keys, _finite_list, _fmt, _is_int


def validate(cfg) -> None:
    from .blockade import check_residual_budget, pair_encoded_layout, single_spin_layout

    p = cfg.parameters
    if not isinstance(p["checks"], list) or not p["checks"]:
        raise ConfigError("checks must be a nonempty list")
    for i, chk in enumerate(p["checks"]):
        if not isinstance(chk, dict):
            raise ConfigError("each check must be an object")
        _check_keys(chk, {"layout", "n_logical", "m", "couplings"}, f"checks[{i}]")
        if chk.get("layout") not in ("single-spin", "pair-encoded"):
            raise ConfigError("layout must be 'single-spin' or 'pair-encoded'")
        if chk["layout"] == "single-spin" and "m" in chk:
            raise ConfigError(f"checks[{i}]: m applies only to the pair-encoded layout")
        if not _is_int(chk.get("n_logical")) or chk["n_logical"] < 1:
            raise ConfigError("n_logical must be a positive integer")
        if not _is_int(chk.get("m", 2)) or chk.get("m", 2) < 1:
            raise ConfigError("m must be a positive integer")
        try:  # a layout past the byte budget is reported before its couplings are read
            if chk["layout"] == "single-spin":
                layout = single_spin_layout(chk["n_logical"])
            else:
                layout = pair_encoded_layout(chk["n_logical"], chk.get("m", 2))
            chk["couplings"] = _finite_list(chk.get("couplings"), "couplings")
            check_residual_budget(layout, chk["couplings"])
        except ValueError as exc:
            raise ConfigError(f"checks[{i}]: {exc}") from None
        cfg.layouts.append(layout)


def run(cfg) -> tuple[list, Table]:
    from .blockade import verify_blockade_cancellation

    table = Table()
    for i, (chk, layout) in enumerate(zip(cfg.parameters["checks"], cfg.layouts, strict=True)):
        try:
            residual = verify_blockade_cancellation(layout, chk["couplings"])
        except ValueError as exc:
            raise ValueError(f"checks[{i}]: {exc}") from None
        table.append(
            1,
            layout=chk["layout"],
            m=layout.m,
            n_logical=layout.n_logical,
            n_sites=layout.n_sites,
            couplings="[" + ";".join(_fmt(j) for j in chk["couplings"]) + "]",
            residual=residual,
        )
    header = ["layout", "m", "n_logical", "n_sites", "couplings", "residual"]
    return header, table
