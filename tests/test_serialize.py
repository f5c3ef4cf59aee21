import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from pesinlab import (BiorthOperator, ClassicalSource, GamowSpec,
                      GridPartition, PhasePoint, QuantumSource,
                      lyapunov_spectrum, make_cell_operators, make_map,
                      pesin_residual, prescription_run, refine_series,
                      word_rows)
from pesinlab.serialize import (PRESCRIPTION_CSV_HEADER,
                                REFINEMENT_CSV_HEADER, biorth_doc,
                                biorth_rows, decay_report_doc, fmt_float,
                                pesin_doc, prescription_doc,
                                prescription_rows, refinement_record_doc,
                                refinement_rows, spectrum_doc, write_csv,
                                write_json, write_plot_script)


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -53, 1e300, -0.0):
        assert float(fmt_float(x)) == x


def test_json_writer_is_canonical(tmp_path):
    p = write_json(tmp_path / "doc.json", {"b": 1, "a": [1.5, None]})
    text = p.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [1.5, None], "b": 1}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_numbers(tmp_path, value):
    # bare NaN or Infinity is not JSON; the writer must not produce it
    with pytest.raises(ValueError):
        write_json(tmp_path / "doc.json", {"a": [1.0, value]})
    assert not (tmp_path / "doc.json").exists()


# documents whose lists take the float join, or fall back from it part way
JSON_DOCS = [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}], "d": ()},
    {"re": [[0.1, -0.0, 1e-300], [2.5, 1e300, -3.0]], "dim": 2},
    {"mixed": [1.0, 2, "x", None, True, [3.0]], "ints": [1, 2.0]},
    {"np": [np.float64(0.1), 0.2], "t": (1.5, 2.5), "u": "\u00e9\u2192\n"},
    {"words": {"0,1": {"value": 0.25, "stderr": 0.0}}, "n": -7},
    {2: "b", 1: "a"}, {2.5: 1, -0.5: 2}, {True: 1, False: 0}, {None: []},
    {"deep": [{"a": [[0.5]]}, [[[]]]]},
    1.5,
    "top",
]


@pytest.mark.parametrize("doc", JSON_DOCS)
def test_json_writer_matches_json_dump(tmp_path, doc):
    p = write_json(tmp_path / "doc.json", doc)
    expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    assert p.read_text() == expected + "\n"


@pytest.mark.parametrize("doc", [
    {"a": [1.0, math.nan]}, [math.inf], {"a": -math.inf},
    {"a": [0.5, "x", math.nan]}, {math.nan: 1},
    {"a": [np.int64(1)]}, {"a": np.float32(1.0)}, {(1, 2): 0},
    {1: 0, "a": 0},
])
def test_json_writer_refuses_what_json_dump_refuses(tmp_path, doc):
    with pytest.raises((ValueError, TypeError)) as expected:
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        write_json(tmp_path / "doc.json", doc)
    assert not (tmp_path / "doc.json").exists()


def test_csv_writer_layout(tmp_path):
    p = write_csv(tmp_path / "t.csv", ("x", "y"), [["1", "2"], ["3", "4"]])
    assert p.read_text() == "x,y\n1,2\n3,4\n"


def test_refinement_doc_fields():
    rec = refine_series(make_map("baker"), GridPartition(2, 1), 2)[-1]
    doc = refinement_record_doc(rec)
    assert doc["n"] == 2
    assert doc["R_n"] == 8
    assert doc["entropy"] == 3 * math.log(2.0)
    assert doc["map"] == "baker"
    assert doc["grid"] == [2, 1]
    assert doc["mode"] == "exact"
    assert "word_measures" not in doc


def test_refinement_doc_word_block():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 1)
    doc = refinement_record_doc(recs[-1], word_rows(recs)[0])
    words = doc["word_measures"]
    assert len(words) == 4
    assert words["0,0"] == {"value": 0.25, "stderr": 0.0}
    assert json.dumps(doc)  # nothing unserializable slipped in


def test_refinement_rows_shape():
    recs = refine_series(make_map("baker"), GridPartition(2, 1), 3)
    rows = refinement_rows(recs)
    assert len(rows) == 4
    assert len(REFINEMENT_CSV_HEADER) == len(rows[0]) == 3
    assert rows[2] == ["2", "8", fmt_float(3 * math.log(2.0))]


def test_spectrum_doc_fields():
    s = lyapunov_spectrum(make_map("cat"), PhasePoint(0.1, 0.2), 1000)
    doc = spectrum_doc(s)
    assert doc["n_iterations"] == 1000
    assert doc["x0"] == [0.1, 0.2]
    assert doc["exponents"][0] == s.exponents[0]
    assert doc["positive_sum"] == s.positive_sum


def test_pesin_doc_fields():
    doc = pesin_doc(pesin_residual(0.68, 0.70))
    assert set(doc) == {"h_ks_estimate", "lyapunov_positive_sum", "residual",
                        "relative_residual"}
    assert doc["h_ks_estimate"] == 0.68


def test_biorth_doc_round_trip():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    doc = biorth_doc(BiorthOperator(c, "cell-3"))
    assert doc["label"] == "cell-3"
    assert doc["dim"] == 4
    back = np.array(doc["re"]) + 1j * np.array(doc["im"])
    assert np.array_equal(back, c)


def test_biorth_rows_list_every_coefficient():
    c = np.array([[0.1 - 2j, -0.0], [1e-300, 3.0 + 0.5j]])
    rows = list(biorth_rows(BiorthOperator(c, None)))
    assert rows == [["0", "0", "0.1", "-2.0"], ["0", "1", "-0.0", "0.0"],
                    ["1", "0", "1e-300", "0.0"], ["1", "1", "3.0", "0.5"]]


def test_prescription_doc_classical():
    run = prescription_run(
        ClassicalSource(make_map("baker"), GridPartition(2, 1)), 10)
    doc = prescription_doc(run)
    assert doc["source"]["kind"] == "classical"
    assert doc["source"]["map"] == "baker"
    assert doc["n_max"] == 10
    assert doc["chaotic"] is True
    assert "bounds" not in doc
    assert doc["decay"]["verdict"] == "exponential"
    assert len(doc["entropy_profile"]) == 11
    json.dumps(doc)


def test_prescription_doc_quantum_bounds():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    run = prescription_run(QuantumSource(spec, tuple(ops)), 40,
                           word_budget=64, seed=0)
    doc = prescription_doc(run)
    assert doc["source"]["kind"] == "quantum"
    b = doc["bounds"]
    assert b["ln_delta1"] == math.log(b["delta1"])
    assert b["delta1"] <= b["delta2"]
    assert doc["sampled_words"] == run.words.shape[0]
    json.dumps(doc)


def test_prescription_rows_mark_fit_window():
    run = prescription_run(
        ClassicalSource(make_map("baker"), GridPartition(2, 1)), 10)
    rows = prescription_rows(run)
    assert len(rows) == 11
    assert all(len(r) == len(PRESCRIPTION_CSV_HEADER) for r in rows)
    flags = [r[4] for r in rows]
    assert flags == ["0"] * run.onset + ["1"] * (11 - run.onset)
    assert rows[0][5] == rows[0][6] == ""  # classical runs have no envelope


def test_prescription_rows_quantum_envelope():
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    run = prescription_run(QuantumSource(spec, tuple(ops)), 40,
                           word_budget=64, seed=0)
    rows = prescription_rows(run)
    d1, _ = run.bounds
    assert float(rows[3][5]) == 4 * math.log(d1)


def test_plot_script_reads_csv_and_renders(tmp_path):
    run = prescription_run(
        ClassicalSource(make_map("baker"), GridPartition(2, 1)), 10)
    write_csv(tmp_path / "prescription.csv", PRESCRIPTION_CSV_HEADER,
              prescription_rows(run))
    script = write_plot_script(tmp_path)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True)
    if "matplotlib" in proc.stderr and proc.returncode != 0:
        pytest.skip("matplotlib not installed")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "prescription.png").exists()


def test_docs_are_byte_stable(tmp_path):
    spec = GamowSpec()
    ops = make_cell_operators(spec, 4, seed=7)
    src = QuantumSource(spec, tuple(ops))
    a = prescription_doc(prescription_run(src, 40, word_budget=64, seed=3))
    b = prescription_doc(prescription_run(src, 40, word_budget=64, seed=3))
    pa = write_json(tmp_path / "a.json", a)
    pb = write_json(tmp_path / "b.json", b)
    assert pa.read_bytes() == pb.read_bytes()
