"""Correctness checks of the program's outputs against the generated truth.

Every check compares with an independent computation or with a property
the method must have, never with a stored copy of an earlier output:

* resonance fits: Qi, Qe and f0 against the values the trace was made from
  (for dark-mode fits, the primary mode's values);
* temperature sweeps: F*delta_TLS against its truth, within six standard
  deviations of the closed-form estimator at the generated noise;
* power sweeps: F*delta_TLS and Q_res against their truth, within six
  standard deviations from the Fisher information of the generating model;
* XPS: percentages sum to 100, O/Nb and Li/Nb equal the reported areas
  divided by the sensitivity factors, the charge shift undoes the charging,
  and the line areas lie near the generated band areas;
* AFM: every step height within 15 % of the generated step;
* walk-off: the zero crossings are the analytic zeros of the curve;
* SVG: well-formed XML with the expected panels and every coordinate
  inside the canvas.

A reported one-sigma error is never used as a tolerance.
"""
from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from gen import qi_power, tls_shift

S11_Q_RTOL = 0.03        # Qi, Qe relative tolerance
S11_F0_LINEWIDTHS = 0.01  # f0 tolerance in loaded linewidths
TLS_SIGMAS = 6.0
POWER_SIGMAS = 6.0
XPS_AREA_RTOL = 0.03     # plus six sigma of the noise, see check_xps
XPS_SHIFT_TOL_EV = 0.1
AFM_STEP_RTOL = 0.15
WALKOFF_SIGMAS = 6.0

#: output files and SVG panel titles per command; "{stem}" is the input stem
OUTPUTS = {
    "fit-resonance": ("{stem}.fit", ["reflection magnitude", "reflection phase"]),
    "fit-tempsweep": ("{stem}.tls", ["TLS frequency shift"]),
    "fit-powersweep": ("{stem}.power", ["TLS power saturation"]),
    "xps-quant": ("xps_quant", ["Nb3d", "O1s", "C1s", "Li1s"]),
    "afm": ("{stem}.afm", ["height histogram"]),
    "walkoff": ("{stem}.walkoff", ["beam steering"]),
}


def output_stem(argv):
    """Base name (without .json/.svg) of the report a command writes."""
    stem, _ = OUTPUTS[argv[0]]
    return stem.format(stem=Path(argv[1]).stem)


def error_record(argv):
    """Name of the record a failing command writes."""
    stem = "xps_quant" if argv[0] == "xps-quant" else Path(argv[1]).stem
    return f"{stem}.error.json"


def _rel(a, b):
    return abs(a - b) / abs(b)


def _close(errors, what, got, want, rtol):
    if not _rel(got, want) <= rtol:
        errors.append(f"{what}: got {got!r}, truth {want!r} (rtol {rtol})")


# ---------------------------------------------------------------------------
# per-analysis checks
# ---------------------------------------------------------------------------

def check_resonance(doc, truth, dark):
    errors = []
    _close(errors, "qi", doc["qi"], truth["qi"], S11_Q_RTOL)
    _close(errors, "qe", doc["qe"], truth["qe"], S11_Q_RTOL)
    df0 = abs(doc["params"]["f0_hz"] - truth["f0_hz"]) / truth["fwhm_hz"]
    if not df0 <= S11_F0_LINEWIDTHS:
        errors.append(f"f0 off by {df0:.4f} linewidths")
    if dark and doc["params"]["dark"] is None:
        errors.append("dark-mode fit reported no dark mode")
    return errors


def check_tempsweep(doc, truth):
    """F*delta against truth within six sigma of the closed-form estimate.

    The estimate projects the fractional shifts on the TLS shape; its
    scatter comes from the per-point noise and from the noise of the
    anchor point that every shift is taken relative to.
    """
    f0 = truth["f0_hz"]
    temps = np.asarray(truth["temperatures_K"])
    shape = tls_shift(1.0, f0, temps, truth["reference_temperature_K"])
    sigma_rel = truth["noise_hz"] / f0
    ss = float(shape @ shape)
    sigma = sigma_rel * np.sqrt(1.0 / ss + (shape.sum() / ss) ** 2)
    err = abs(doc["f_delta_tls"] - truth["f_delta_tls"])
    if not err <= TLS_SIGMAS * sigma:
        return [f"f_delta_tls {doc['f_delta_tls']!r} vs truth "
                f"{truth['f_delta_tls']!r}: off by {err / sigma:.1f} sigma"]
    return []


def _power_log_sigmas(truth):
    """One-sigma errors of (ln F*delta, ln n_c, ln Q_res, beta) at the truth.

    From the Fisher information of the saturation model in 1/Q, with the
    generated relative noise and all four parameters free, as the fitter
    has them on a sweep of ten decades.
    """
    n = np.asarray(truth["n_mean"])

    def inv_q(p):
        return 1.0 / qi_power(np.exp(p[0]), np.exp(p[1]), p[3], np.exp(p[2]),
                              truth["temperature_K"], truth["f0_hz"], n)

    p = np.log([truth["f_delta_tls"], truth["n_c"], truth["q_i_res"], 1.0])
    p[3] = truth["beta"]
    sigma = truth["noise_frac"] * inv_q(p)
    h = 1e-6
    jac = np.column_stack([(inv_q(p + h * e) - inv_q(p - h * e)) / (2 * h) / sigma
                           for e in np.eye(4)])
    return np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))


def check_powersweep(doc, truth):
    sig = _power_log_sigmas(truth)
    errors = []
    for key, k in (("f_delta_tls", 0), ("q_i_res", 2)):
        off = abs(np.log(doc["params"][key] / truth[key]))
        if not off <= POWER_SIGMAS * sig[k]:
            errors.append(f"{key} {doc['params'][key]!r} vs truth {truth[key]!r}: "
                          f"off by {off / sig[k]:.1f} sigma")
    return errors


def check_xps(doc, truth, config):
    errors = []
    total = sum(doc["atomic_percent"].values())
    if abs(total - 100.0) > 1e-9:
        errors.append(f"atomic percentages sum to {total!r}")
    sens = config["sensitivity"]
    areas = doc["areas"]
    nb = areas["Nb3d"] / sens["Nb3d"]
    for line, key in (("O1s", "O/Nb"), ("Li1s", "Li/Nb")):
        want = areas[line] / sens[line] / nb
        _close(errors, key, doc["ratios_to_nb"][key], want, 1e-9)
    if abs(doc["charge_shift_ev"] + truth["charging_ev"]) > XPS_SHIFT_TOL_EV:
        errors.append(f"charge shift {doc['charge_shift_ev']!r} does not undo "
                      f"charging {truth['charging_ev']!r}")
    for line, want in truth["areas"].items():
        # noise enters through every sample and through the 3-point
        # endpoint levels the background is interpolated between
        lo, hi = config["windows"][line]
        n = (hi - lo) / truth["step_ev"] + 1
        sigma = truth["noise"] * np.sqrt(n * truth["step_ev"] ** 2 + (hi - lo) ** 2 / 6.0)
        if abs(areas[line] - want) > XPS_AREA_RTOL * want + 6.0 * sigma:
            errors.append(f"{line} area {areas[line]!r} vs truth {want!r}")
    bands = doc["band_areas"].get("O1s", [])
    if len(bands) != 3:
        errors.append(f"O1s has {len(bands)} fitted bands, want 3")
    else:
        _close(errors, "O1s band area sum", sum(bands),
               sum(truth["o1s_band_areas"]), XPS_AREA_RTOL)
    return errors


def check_afm(doc, truth):
    errors = []
    steps = doc.get("steps")
    if steps is None:
        return ["no step fit in the AFM report"]
    for k, step in enumerate(steps["step_heights_m"]):
        _close(errors, f"step {k}", step, truth["step_m"], AFM_STEP_RTOL)
    return errors


def check_walkoff(doc, truth, half_width):
    """Zeros within half a sample plus six sigma of the smoothed noise.

    The noise moves a zero by its smoothed amplitude over the curve's
    slope there, A sin(z1 - z2) per radian.
    """
    found = sorted(z["theta_deg"] for z in doc["zeros"])
    z1, z2 = want = sorted(truth["zeros_deg"])
    if len(found) != len(want):
        return [f"found zeros {found}, analytic zeros {want}"]
    slope = truth["amplitude_deg"] * abs(np.sin(np.radians(z1 - z2))) * np.pi / 180.0
    sigma = truth["noise_deg"] / np.sqrt(2 * half_width + 1) / slope
    tol = truth["spacing_deg"] / 2.0 + WALKOFF_SIGMAS * sigma
    return [f"zero {f!r} vs analytic {w!r} (tolerance {tol:.3f})"
            for f, w in zip(found, want) if abs(f - w) > tol]


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_NUM = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def check_svg(text, titles):
    """Well-formed XML, the expected panel titles, everything on the canvas."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    width, height = float(root.get("width")), float(root.get("height"))
    errors = []
    frames = [e for e in root.iter() if e.tag.endswith("rect") and e.get("fill") == "none"]
    if len(frames) != len(titles):
        errors.append(f"{len(frames)} panels, want {len(titles)}")
    texts = {(e.text or "").strip() for e in root.iter() if e.tag.endswith("text")}
    errors += [f"panel {t!r} missing" for t in titles if t not in texts]
    bad = 0
    for e in root.iter():
        for attr in ("x", "x1", "x2", "cx"):
            if e.get(attr) is not None and not 0.0 <= float(e.get(attr)) <= width:
                bad += 1
        for attr in ("y", "y1", "y2", "cy"):
            if e.get(attr) is not None and not 0.0 <= float(e.get(attr)) <= height:
                bad += 1
        if e.get("points"):
            xy = np.array(_NUM.findall(e.get("points")), dtype=float)
            bad += int(np.sum((xy[0::2] < 0) | (xy[0::2] > width)))
            bad += int(np.sum((xy[1::2] < 0) | (xy[1::2] > height)))
    if bad:
        errors.append(f"{bad} coordinates outside the {width}x{height} canvas")
    return errors


# ---------------------------------------------------------------------------
# one input
# ---------------------------------------------------------------------------

def check_command(argv, out_dir, truth, manifest):
    """Check the outputs of one successful command; return error strings."""
    name = output_stem(argv)
    kind = argv[0]
    try:
        doc = json.loads((out_dir / f"{name}.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{kind}: report unreadable: {exc}"]
    if kind == "fit-resonance":
        errors = check_resonance(doc, truth, "--model" in argv)
    elif kind == "fit-tempsweep":
        errors = check_tempsweep(doc, truth["tempsweep"])
    elif kind == "fit-powersweep":
        errors = check_powersweep(doc, truth["powersweep"])
    elif kind == "xps-quant":
        errors = check_xps(doc, truth["xps"], manifest["xps_config"])
    elif kind == "afm":
        errors = check_afm(doc, truth["afm"])
    else:
        half_width = int(argv[argv.index("--half-width") + 1])
        errors = check_walkoff(doc, truth["walkoff"], half_width)
    if "--emit-svg" in argv:
        svg = out_dir / f"{name}.svg"
        try:
            errors += check_svg(svg.read_text(), OUTPUTS[kind][1])
        except OSError as exc:
            errors.append(f"SVG unreadable: {exc}")
    return [f"{kind}: {e}" for e in errors]
