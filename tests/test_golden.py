"""Golden outputs: every ``kac run`` kind, bit for bit, on both engine
backends.

Each case runs one config through ``cli.run_experiment``, once on the C
library and once on the python reference (``_engine._LIB`` None), and
compares every file it writes with ``tests/golden/<case>.json``: each CSV
cell and each report.json value (report.json flattened to dotted keys,
``config.out`` left out).  Floats are stored as ``float.hex``, so the
comparison is exact (the CSV writer prints an integral float such as 1.0
as "1", which is stored as that text: in a column that holds any float
it compares as a float, elsewhere as an int), except for the values that
pass through LAPACK (eigenvalues in ``kappa`` and the Wishart moment,
least squares in the band slope): another CPU's BLAS may round their
last bits apart, so they are compared within LAPACK_RTOL relative.  A
failure names each value that moved and by how much.

An output that moves on purpose (a stream change, say) is re-pinned by
regenerating the files, never by editing them:

    PYTHONPATH=src python tests/test_golden.py

and the change says which values moved and why.  The script first prints
for each case how many values moved and the largest relative move.  It
writes the C backend's files; if the python backend writes different ones
for any case, it names the cases, writes nothing and exits non-zero, so an
output of one backend alone is never pinned.
"""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from kacsim import _engine, cli
from test_cli import DECAY_CFG, INEQUALITY_CFG, STUDIES, study_config

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# each kind at its test_cli config, and the paper's decay shape (N = 256,
# horizon 20) at four replicas
CASES = {
    "decay": DECAY_CFG,
    "decay_n256": "kind = decay\nreplicas = 4\nseed = 1\n",
    "inequalities": INEQUALITY_CFG,
    **{kind: study_config(kind) for kind in STUDIES},
}

LAPACK_RTOL = 1e-14
# CSV columns and report.json keys computed through LAPACK (sweep.csv's
# lhs only on its pathwise_weak rows, but the column is compared as one)
LAPACK_COLUMNS = {"fund_rhs", "fund_rhs_se", "weak_slack", "weak_slack_se",
                  "envelope", "lhs", "rhs", "slack", "estimate", "stderr"}
LAPACK_KEYS = re.compile(
    r"constants\.(j_factor|j_stderr|k_main|k_main_stderr|c_delta_n)"
    r"|min_slack\..*|equality_cases\.\d+\.slack"
    r"|results\.rows\.\d+\.(estimate|stderr)|results\.slope")
UNPINNED_KEYS = {"config.out"}
INT = re.compile(r"-?\d+")


def run_case(name, tmp_path):
    """Run case ``name`` into a fresh directory under ``tmp_path``; returns
    {file name: encoded contents} for every file the run wrote."""
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(CASES[name])
    out = tmp_path / name
    cli.run_experiment(cli.load_config(cfg_path), out)
    return {f.name: (_encode_report(f) if f.suffix == ".json"
                     else _encode_csv(f))
            for f in sorted(out.iterdir())}


def _encode(x):
    """A float as float.hex; ints, bools, strings and None as they are."""
    return x.hex() if isinstance(x, float) else x


def _decode(x):
    if isinstance(x, str) and (x.lstrip("-").startswith("0x")
                               or x in ("inf", "-inf", "nan")):
        return float.fromhex(x)
    return x


def _decode_cell(text, float_column):
    """A CSV cell as stored: an integer-looking one as a float in a float
    column and as an int elsewhere, any other by ``_decode``."""
    if INT.fullmatch(text):
        return float(text) if float_column else int(text)
    return _decode(text)


def _encode_csv(path):
    header, *rows = path.read_text().splitlines()

    def cell(text):
        if INT.fullmatch(text):
            return text
        try:
            return float(text).hex()
        except ValueError:
            return text
    return {"header": header.split(","),
            "rows": [",".join(cell(c) for c in row.split(",")) for row in rows]}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix[:-1]: obj}
    flat = {}
    for key, val in items:
        flat.update(_flatten(val, f"{prefix}{key}."))
    return flat


def _encode_report(path):
    flat = _flatten(json.loads(path.read_text()))
    return {k: _encode(v) for k, v in flat.items() if k not in UNPINNED_KEYS}


def _moved(where, gold, got, tolerant):
    """None when ``got`` matches ``gold``, else a line saying how it moved
    and the relative move (nan for a move with no size)."""
    if isinstance(gold, float) and isinstance(got, float):
        if gold == got or (math.isnan(gold) and math.isnan(got)):
            return None
        diff = got - gold
        rel = abs(diff) / max(abs(gold), abs(got))
        if tolerant and math.isfinite(diff) and rel <= LAPACK_RTOL:
            return None
        return (f"{where}: {got!r}, golden {gold!r}, moved by {diff:.3e} "
                f"({rel:.2e} relative)", rel)
    # 0 == 0.0, so the types are compared too
    if gold == got and type(gold) is type(got):
        return None
    return f"{where}: {got!r}, golden {gold!r}", math.nan


def _compare(golden, got):
    """Lines naming every value of ``got`` that differs from ``golden``."""
    return [line for line, _ in _moves(golden, got)]


def _moves(golden, got, exact=False):
    """(line, relative move) for every value of ``got`` that differs from
    ``golden``; LAPACK values within LAPACK_RTOL pass unless ``exact``."""
    nan = math.nan
    if golden.keys() != got.keys():
        return [(f"files {sorted(got)}, golden {sorted(golden)}", nan)]
    lines = []
    for fname, gold in golden.items():
        new = got[fname]
        if fname.endswith(".json"):
            if gold.keys() != new.keys():
                lines.append((f"{fname}: keys added "
                              f"{sorted(new.keys() - gold.keys())}, removed "
                              f"{sorted(gold.keys() - new.keys())}", nan))
            for key in sorted(gold.keys() & new.keys()):
                lines.append(_moved(f"{fname} {key}", _decode(gold[key]),
                                    _decode(new[key]), not exact
                                    and bool(LAPACK_KEYS.fullmatch(key))))
            continue
        header = gold["header"]
        if new["header"] != header or len(new["rows"]) != len(gold["rows"]):
            lines.append((f"{fname}: header {new['header']} and "
                          f"{len(new['rows'])} rows, golden {header} and "
                          f"{len(gold['rows'])} rows", nan))
            continue
        rows = [[row.split(",") for row in f["rows"]] for f in (gold, new)]
        floats = [any(isinstance(_decode(c), float) for c in cells)
                  for cells in zip(*rows[0], *rows[1])]
        for k, (a, b) in enumerate(zip(*rows)):
            for col, is_float, x, y in zip(header, floats, a, b):
                lines.append(_moved(f"{fname} row {k} {col}",
                                    _decode_cell(x, is_float),
                                    _decode_cell(y, is_float),
                                    not exact and col in LAPACK_COLUMNS))
    return [ln for ln in lines if ln]


def check_case(name, tmp_path):
    """Run case ``name`` and fail naming every value that moved from its
    golden file."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    moved = _compare(golden, run_case(name, tmp_path))
    shown = "\n".join(moved[:30])
    more = f"\n... and {len(moved) - 30} more" if len(moved) > 30 else ""
    assert not moved, (f"{len(moved)} values moved from "
                       f"tests/golden/{name}.json:\n{shown}{more}")


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name, tmp_path):
    """On the backend the import selected: the C library where it loads."""
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", CASES)
def test_python_backend_matches_golden(name, tmp_path, monkeypatch):
    """With the library forced off: the python stepper, pairing and pair
    pass give the same files bit for bit."""
    monkeypatch.setattr(_engine, "_LIB", None)
    check_case(name, tmp_path)


def test_compare_names_what_moved():
    """The comparison passes LAPACK values within LAPACK_RTOL only, every
    other float exactly, and names the value and the size of a move."""
    def row(creation, fund_rhs):
        return {"t.csv": {"header": ["creation", "fund_rhs"],
                          "rows": [f"{creation.hex()},{fund_rhs.hex()}"]}}

    def report(x):
        return {"report.json": {"constants.k_main": x.hex(),
                                "constants.k1": x.hex()}}

    one = 0.25
    ulp = math.ulp(one)
    assert _compare(row(one, one), row(one, one + ulp)) == []
    moved = _compare(row(one, one), row(one + ulp, one))
    assert moved == [f"t.csv row 0 creation: {one + ulp!r}, golden {one!r}, "
                     f"moved by {ulp:.3e} ({ulp / (one + ulp):.2e} relative)"]
    assert _compare(row(one, one), row(one, one * (1 + 1e-13)))
    moved = _compare(report(one), report(one + ulp))
    assert len(moved) == 1 and moved[0].startswith("report.json constants.k1:")
    moved = _compare({"report.json": {"n": 0}},
                     {"report.json": {"n": (0.0).hex()}})
    assert moved == ["report.json n: 0.0, golden 0"]
    # the CSV writer prints a float 1.0 as "1", pinned as that text: in a
    # float column its move has a size, and an int column stays ints
    def m2_row(*rows):
        return {"t.csv": {"header": ["m2", "replica"], "rows": list(rows)}}

    above = 1.0 + math.ulp(1.0)
    gold = m2_row("1,0", f"{(0.5).hex()},1")
    moves = _moves(gold, m2_row(f"{above.hex()},0", f"{(0.5).hex()},2"))
    assert moves == [
        (f"t.csv row 0 m2: {above!r}, golden 1.0, moved by 2.220e-16 "
         f"(2.22e-16 relative)", math.ulp(1.0) / above),
        ("t.csv row 1 replica: 2, golden 1", moves[1][1])]
    assert math.isnan(moves[1][1])
    assert _compare(gold, m2_row(f"{(1.0).hex()},0", f"{(0.5).hex()},1")) == []


def regenerate(tmp_root):
    """Write every case's golden file from the code as it is, on the C
    backend, after checking that the python backend writes the same; when
    it does not, name the cases that differ, write nothing and return
    False.  First print, for each case, how many values moved from its
    golden file, exactly, and the largest relative move among them."""
    lib = _engine._LIB
    if lib is None:
        print("the C library is not loaded: nothing written")
        return False
    files, differ = {}, []
    for name in CASES:
        runs = []
        for backend in ("c", "python"):
            tmp = Path(tmp_root) / backend / name
            tmp.mkdir(parents=True)
            _engine._LIB = lib if backend == "c" else None
            try:
                runs.append(run_case(name, tmp))
            finally:
                _engine._LIB = lib
        if runs[0] != runs[1]:
            differ.append(name)
        files[name] = runs[0]
        path = GOLDEN_DIR / f"{name}.json"
        if path.exists():
            moves = _moves(json.loads(path.read_text()), runs[0], exact=True)
            rels = [rel for _, rel in moves if not math.isnan(rel)]
            print(f"{name}: {len(moves)} values moved, {len(rels)} of them "
                  f"floats, by at most {max(rels, default=0.0):.2e} relative")
    if differ:
        print(f"the python backend differs on {', '.join(differ)}: "
              "nothing written")
        return False
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, run in files.items():
        text = json.dumps(run, indent=1, sort_keys=True)
        (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
        print(f"wrote {GOLDEN_DIR / name}.json")
    return True


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp_root:
        sys.exit(0 if regenerate(tmp_root) else 1)
