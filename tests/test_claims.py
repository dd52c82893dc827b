"""The paper's claims, checked on the outputs of the commands that show them.

Each command runs once per module, in process and into a temporary directory:
the two figure scripts at one trial, and the exact and Monte Carlo `rip` runs
on two instances (Monte Carlo: `--method auto --budget 1`, random supports at
every s < N).  Each `*_problems` function lists what its outputs get wrong
against the paper, empty when nothing is; `test_each_check_fails_on_output_broken_for_it`
shows that every condition of every check catches a copy of its output broken
for it.
"""

import copy
import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from rfcond import cli
from rfcond.experiments import SCALING_LABELS

SCRIPTS = Path(__file__).parents[1] / "scripts"
VERSION = "rfcond-report/3"


def _run_script(name: str, out: Path) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", [name, "--trials", "1", "--out", str(out)])
        assert module.main() == 0


# a budget of one support sends every s < N to the random supports
_MC = ["--method", "auto", "--budget", "1"]


def _rip(out: Path, argv: list[str]) -> list[dict]:
    assert cli.main(["rip"] + argv + ["--seed", "0", "--out", str(out)]) == 0
    return json.loads((out / "rip.json").read_text(encoding="utf-8"))["estimates"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def figure2(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("figure2")
    _run_script("run_figure2", out)
    return {"report": json.loads((out / "spectrum_summary.json").read_text(encoding="utf-8")),
            "rows": _csv_rows(out / "density.csv")}


@pytest.fixture(scope="module")
def figure1(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("figure1")
    _run_script("run_figure1", out)
    return {"panels": [{"rows": _csv_rows(path),
                        "report": json.loads((path.parent / "sweep_summary.json")
                                             .read_text(encoding="utf-8"))}
                       for path in sorted(out.glob("*/sweep.csv"))]}


@pytest.fixture(scope="module")
def rip_n30(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("rip_n30")
    base = ["--d", "2", "--m", "30", "--n-grid", "30", "--s", "6"]
    return {"exact": _rip(out / "exact", base + ["--method", "exact"]),
            "mc": _rip(out / "mc", base + _MC + ["--rip-trials", "200"])}


@pytest.fixture(scope="module")
def rip_d10(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("rip_d10")
    base = ["--d", "10", "--m", "300", "--n-grid", "30", "--s", "5"]
    return {"exact": _rip(out / "exact", base + ["--method", "exact"]),
            "mc": _rip(out / "mc", base + _MC)}


def figure2_problems(report: dict, rows: list[dict]) -> list[str]:
    """Figure 2: the five scalings at d = 50, m = 150, each with 512 density
    rows, and a narrower spread of singular values at the log^3 scalings."""
    entries = {e["label"]: e for e in report["scalings"]}
    spread = {label: e["sv_max"] - e["sv_min"] for label, e in entries.items()}
    problems = []
    if report["version"] != VERSION:
        problems.append(f"version {report['version']}")
    if [(e["label"], e["N"]) for e in report["scalings"]] != list(
            zip(SCALING_LABELS, (150, 752, 18870, 41, 11))):
        problems.append("scalings are not the five labels at N = 150, 752, 18870, 41, 11")
    problems += [f"{label}: sv_min {e['sv_min']}, sv_max {e['sv_max']}"
                 for label, e in entries.items() if not 0 < e["sv_min"] <= e["sv_max"]]
    if len(rows) != 5 * 512:
        problems.append(f"density.csv has {len(rows)} rows, expected {5 * 512}")
    for wide, narrow in (("N=m log m", "N=m log^3 m"), ("m=N log N", "m=N log^3 N")):
        if not spread.get(narrow, math.inf) < spread.get(wide, -math.inf):
            problems.append(f"spread at {narrow} is not below the one at {wide}")
    return problems


def sweep_problems(panels: list[dict]) -> list[str]:
    """Figure 1's three panels: a row's condition number is inf exactly when
    its fit carries a pseudoinverse flag, and each summary peaks at a finite
    mean and states each number once."""
    problems = [] if len(panels) == 3 else [f"{len(panels)} panels, expected 3"]
    if not any(panel["rows"] for panel in panels):
        problems.append("no rows")
    for panel in panels:
        problems += [f"N={row['N']} trial={row['trial']}: cond_number {row['cond_number']}, "
                     f"flags {row['flags']!r}" for row in panel["rows"]
                     if math.isinf(float(row["cond_number"]))
                     != ("pseudoinverse" in row["flags"])]
        report = panel["report"]
        summary = report["summary"]
        peak = summary["mean_cond_number"][summary["n_grid"].index(summary["cond_argmax_n"])]
        problems += [key for key in summary if key.endswith("_curve_rescaled")]
        if report["version"] != VERSION:
            problems.append(f"version {report['version']}")
        if isinstance(peak, str):  # a non-finite mean is written "inf" or "nan"
            problems.append(f"cond_argmax_n {summary['cond_argmax_n']} has mean {peak}")
    return problems


def _rip_problems(exact: list[dict], mc: list[dict], s_max: int, limit: float) -> list[str]:
    """δ_s nondecreasing, the random supports at or below the exact value and
    all gathered, and at most `limit` supports gathered at s_max."""
    values = [e["value"] for e in exact]
    problems = []
    if not len(exact) == len(mc) == s_max:
        problems.append(f"{len(exact)} exact and {len(mc)} mc estimates, expected {s_max}")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"exact values fall with s: {values}")
    problems += [f"s={m['s']}: mc {m['value']} above exact {e['value']}"
                 for e, m in zip(exact, mc) if m["value"] > e["value"] + 1e-12]
    problems += [f"s={m['s']}: mc gathered {m['supports_gathered']} of "
                 f"{m['supports_evaluated']}" for m in mc
                 if m["supports_gathered"] != m["supports_evaluated"]]
    gathered = exact[-1]["supports_gathered"]
    if gathered > limit:
        problems.append(f"s={s_max} gathered {gathered} supports, limit {limit:.0f}")
    return problems


def rip_n30_problems(exact: list[dict], mc: list[dict]) -> list[str]:
    """d = 2, m = 30, N = 30: the exact walk gathers at most 15% of the
    C(30, 6) supports at s = 6."""
    return _rip_problems(exact, mc, 6, 0.15 * math.comb(30, 6))


def rip_d10_problems(exact: list[dict], mc: list[dict]) -> list[str]:
    """d = 10, m = 300, N = 30, where the paper's RIP argument applies: every
    exact δ_s is below 1, and s = 5 gathers at most 10% of C(30, 5)."""
    problems = _rip_problems(exact, mc, 5, 0.1 * math.comb(30, 5))
    return problems + [f"s={e['s']}: exact {e['value']} is not below 1"
                       for e in exact if not e["value"] < 1]


def test_figure2_narrows_the_spectrum_at_the_log3_scalings(figure2):
    assert figure2_problems(**figure2) == []


def test_sweep_rows_call_a_singular_by_one_rule_and_summaries_peak_at_a_finite_mean(figure1):
    assert sweep_problems(**figure1) == []


def test_exact_rip_skips_most_supports_at_n30(rip_n30):
    assert rip_n30_problems(**rip_n30) == []


def test_exact_rip_stays_below_1_where_the_papers_rip_argument_applies(rip_d10):
    assert rip_d10_problems(**rip_d10) == []


def _walk(output, path: list):
    """(the container of output[path[0]][path[1]]..., its last key)."""
    *head, last = path
    for key in head:
        output = output[key]
    return output, last


def _set(path: list, value):
    """A breaker that sets the item at `path` to `value`, or to value(item)."""
    def brk(output):
        node, last = _walk(output, path)
        node[last] = value(node[last]) if callable(value) else value
    return brk


def _drop(path: list):
    """A breaker that deletes the item at `path`."""
    def brk(output):
        node, last = _walk(output, path)
        del node[last]
    return brk


def _lower(i: int):
    """A breaker that puts the exact δ_s at s = i + 1 below the one at s = i."""
    def brk(output):
        exact = output["exact"]
        exact[i]["value"] = exact[i - 1]["value"] - 1e-3
    return brk


def _raise_mc(i: int):
    """A breaker that puts the random lower bound at s = i + 1 just above the
    exact δ_s, by more than the 1e-12 allowance."""
    def brk(output):
        output["mc"][i]["value"] = output["exact"][i]["value"] + 1e-11
    return brk


def _relabel_singular(output):
    row = output["panels"][0]["rows"][0]
    row["cond_number"] = "inf" if "pseudoinverse" not in row["flags"] else "1.0"


def _no_rows(output):
    for panel in output["panels"]:
        panel["rows"] = []


def _peak_to_inf(output):
    summary = output["panels"][1]["report"]["summary"]
    summary["mean_cond_number"][summary["n_grid"].index(summary["cond_argmax_n"])] = "inf"


def _widen(narrow, wide):
    # both ends, so the two spreads are equal exactly: sv_min + spread need
    # not round back to a spread equal to the wide one
    def brk(output):
        entries = {e["label"]: e for e in output["report"]["scalings"]}
        for end in ("sv_min", "sv_max"):
            entries[narrow][end] = entries[wide][end]
    return brk


# fixture -> (its check, {case: (a breaker of a copy of its output, words of the
# problem the check must then report)})
BREAKERS = {
    "figure2": (figure2_problems, {
        "version": (_set(["report", "version"], "rfcond-report/2"), "version"),
        "scaling-n": (_set(["report", "scalings", 2, "N"], 18871), "five labels"),
        "scaling-label": (_set(["report", "scalings", 0, "label"], "N=m log m"),
                          "five labels"),
        "sv-min-zero": (_set(["report", "scalings", 1, "sv_min"], 0.0), "sv_min 0.0"),
        "sv-min-above-max": (_set(["report", "scalings", 3, "sv_min"], 10.0), "sv_min 10.0"),
        "density-rows": (_drop(["rows", -1]), "density.csv has 2559 rows"),
        "log3-m-spread": (_widen("N=m log^3 m", "N=m log m"), "spread at N=m log^3 m"),
        "log3-n-spread": (_widen("m=N log^3 N", "m=N log N"), "spread at m=N log^3 N"),
    }),
    "figure1": (sweep_problems, {
        "panel-count": (_drop(["panels", -1]), "2 panels"),
        "singular-rule": (_relabel_singular, "N=10 trial=0"),
        "no-rows": (_no_rows, "no rows"),
        "rescaled-copy": (_set(["panels", 0, "report", "summary", "mean_curve_rescaled"], []),
                          "mean_curve_rescaled"),
        "version": (_set(["panels", 2, "report", "version"], "rfcond-report/2"), "version"),
        "infinite-peak": (_peak_to_inf, "has mean inf"),
    }),
    "rip_n30": (rip_n30_problems, {
        "estimate-count": (_drop(["mc", -1]), "5 mc estimates"),
        "exact-falls": (_lower(3), "fall with s"),
        "mc-above-exact": (_raise_mc(3), "s=4: mc"),
        "mc-gathered": (_set(["mc", 0, "supports_gathered"], lambda v: v - 1),
                        "s=1: mc gathered"),
        "gathered-limit": (_set(["exact", 5, "supports_gathered"], 89067), "limit 89066"),
    }),
    "rip_d10": (rip_d10_problems, {
        "estimate-count": (_drop(["exact", -1]), "4 exact"),
        "exact-falls": (_lower(2), "fall with s"),
        "exact-at-1": (_set(["exact", 4, "value"], 1.0), "exact 1.0 is not below 1"),
        "mc-above-exact": (_raise_mc(2), "s=3: mc"),
        "mc-gathered": (_set(["mc", 4, "supports_gathered"], lambda v: v - 1),
                        "s=5: mc gathered"),
        "gathered-limit": (_set(["exact", 4, "supports_gathered"], 14251), "limit 14251"),
    }),
}


@pytest.mark.parametrize("fixture, case", [
    (fixture, case) for fixture, (_, cases) in BREAKERS.items() for case in cases])
def test_each_check_fails_on_output_broken_for_it(fixture, case, request):
    check, cases = BREAKERS[fixture]
    breaker, words = cases[case]
    output = copy.deepcopy(request.getfixturevalue(fixture))
    breaker(output)
    assert any(words in problem for problem in check(**output))
