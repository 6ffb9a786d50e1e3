import csv
import json
from dataclasses import asdict, fields
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tmest as tm
from tmest.core import DataError, EstimatorConfig, OptimizerConfig, Report, stage_rng
from tmest.hoc import count_consensus, model_consensus


CSV_BASIC = """f0,f1,f2,noisy_label
0.1,0.2,0.3,0
1.0,1.1,1.2,1
-0.5,0.0,0.5,0
2.0,2.5,3.0,1
"""


def test_load_basic_csv(tmp_csv):
    data = tm.load_dataset(tmp_csv("d.csv", CSV_BASIC))
    assert (data.n, data.d, data.k) == (4, 3, 2)
    assert data.clean_labels is None
    np.testing.assert_allclose(data.features[0], [0.1, 0.2, 0.3])
    assert data.noisy_labels.tolist() == [0, 1, 0, 1]


def test_load_rejects_nan(tmp_csv):
    path = tmp_csv("bad.csv", CSV_BASIC.replace("1.1", "NaN"))
    with pytest.raises(DataError, match=r"features must be finite, got nan at index \[1, 1\]"):
        tm.load_dataset(path)


def test_load_rejects_missing_column(tmp_csv):
    path = tmp_csv("bad.csv", CSV_BASIC.replace("noisy_label", "label"))
    with pytest.raises(DataError, match="bad.csv: missing column"):
        tm.load_dataset(path)
    path = tmp_csv("nofeat.csv", CSV_BASIC.replace("f0", "x0"))
    with pytest.raises(DataError, match="nofeat.csv: no feature columns"):
        tm.load_dataset(path)


@pytest.mark.parametrize("header,column", [
    ("f0,f0,noisy_label", "f0"),
    ("f0,noisy_label,noisy_label", "noisy_label"),
    ("f0,noisy_label,clean_label,clean_label", "clean_label"),
    ("f0,noisy_label,id,id", "id"),
])
def test_load_rejects_repeated_column(tmp_csv, header, column):
    width = header.count(",") + 1
    body = "".join(",".join([str(i % 2)] * width) + "\n" for i in range(3))
    path = tmp_csv("dup.csv", header + "\n" + body)
    with pytest.raises(DataError, match=f"dup.csv: column '{column}' appears more than once"):
        tm.load_dataset(path)


def test_load_ignores_repeated_unread_column(tmp_csv):
    data = tm.load_dataset(tmp_csv("d.csv", "note,f0,note,noisy_label\na,1,b,0\nc,2,d,1\ne,3,f,0\n"))
    assert data.features.ravel().tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("late", [False, True], ids=["in-header", "past-first-read"])
def test_load_rejects_non_utf8_csv(tmp_path, late):
    # a Latin-1 \xe9 either in the header or far past the first decoded chunk
    rows = CSV_BASIC.splitlines()
    header, body = rows[0] + ",id", [r + ",a" for r in rows[1:]] * 5000
    if late:
        body[-1] = body[-1][:-1] + "caf\xe9"
    else:
        header += ",nom\xe9"
    path = tmp_path / "latin1.csv"
    path.write_bytes("\n".join([header] + body).encode("latin-1") + b"\n")
    with pytest.raises(DataError) as exc:
        tm.load_dataset(str(path))
    assert str(exc.value).startswith(f"{path}: not UTF-8 text: ")
    assert "xe9" in str(exc.value)


def test_load_rejects_too_few_rows(tmp_csv):
    text = "\n".join(CSV_BASIC.splitlines()[:3]) + "\n"
    with pytest.raises(DataError):
        tm.load_dataset(tmp_csv("small.csv", text))


def test_load_rejects_empty_file(tmp_csv):
    path = tmp_csv("empty.csv", "")
    with pytest.raises(DataError) as exc:
        tm.load_dataset(path)
    assert str(exc.value) == f"{path}: empty file"


@pytest.mark.parametrize("text", [CSV_BASIC, "noisy_label,f0,f1,f2\n0,0.1,0.2,0.3\n"
                                  "1,1.0,1.1,1.2\n0,-0.5,0.0,0.5\n1,2.0,2.5,3.0\n"],
                         ids=["feature-first", "label-first"])
def test_load_accepts_byte_order_mark(tmp_path, text):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    data = tm.load_dataset(str(path))
    np.testing.assert_array_equal(data.features, [[0.1, 0.2, 0.3], [1.0, 1.1, 1.2],
                                                  [-0.5, 0.0, 0.5], [2.0, 2.5, 3.0]])
    assert data.noisy_labels.tolist() == [0, 1, 0, 1]


def test_load_rejects_header_only(tmp_csv):
    path = tmp_csv("header.csv", CSV_BASIC.splitlines()[0] + "\n")
    with pytest.raises(DataError) as exc:
        tm.load_dataset(path)
    assert str(exc.value) == f"{path}: no data rows"


@pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
def test_load_reads_a_line_break_in_a_quoted_header_name(tmp_path, newline):
    # the header is one CSV record: a quoted name may hold a line break
    name = f"ex{newline}tra"
    path = tmp_path / "multiline.csv"
    path.write_bytes((f'f0,noisy_label,"{name}"\r\n'
                      "0.5,0,a\r\n1.5,1,b\r\n-2.0,1,c\r\n3.25,0,d\r\n").encode("utf-8"))
    data = tm.load_dataset(str(path))
    np.testing.assert_array_equal(data.features, [[0.5], [1.5], [-2.0], [3.25]])
    assert data.noisy_labels.tolist() == [0, 1, 1, 0] and data.ids is None
    assert tm.load_dataset(str(path), schema={"id": name}).ids == ["a", "b", "c", "d"]


def test_label_out_of_range(tmp_csv):
    with pytest.raises(DataError):
        tm.load_dataset(tmp_csv("d.csv", CSV_BASIC), k=1)
    # explicit k smaller than max label
    with pytest.raises(DataError, match="out of range"):
        tm.load_dataset(tmp_csv("e.csv", CSV_BASIC.replace(",1\n", ",3\n")), k=2)


def test_clean_label_column_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = tm.Dataset(rng.normal(size=(6, 2)), rng.integers(0, 3, 6), 3,
                      clean_labels=rng.integers(0, 3, 6))
    path = str(tmp_path / "rt.csv")
    tm.save_dataset(data, path)
    back = tm.load_dataset(path)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.noisy_labels, data.noisy_labels)
    np.testing.assert_array_equal(back.clean_labels, data.clean_labels)
    assert back.k == data.k


def test_schema_mapping(tmp_csv):
    text = CSV_BASIC.replace("noisy_label", "y").replace("f0", "a")
    data = tm.load_dataset(tmp_csv("s.csv", text),
                           schema={"noisy_label": "y", "f0": "a"})
    assert (data.n, data.d) == (4, 3)


def test_ids_round_trip_as_text(tmp_path):
    ids = ["a,b", 'say "hi"', "x#1", "", " pad ", "007", "a\rb", "c\r\nd"]
    data = tm.Dataset(np.arange(16.0).reshape(8, 2), [0, 1, 0, 1, 1, 0, 0, 1], 2, ids=ids)
    path = str(tmp_path / "ids.csv")
    tm.save_dataset(data, path)
    assert tm.load_dataset(path).ids == ids


def test_reordered_and_extra_columns(tmp_csv):
    text = ("id,noisy_label,extra,f1,f0\n"
            "r0,1,zz,0.5,-1.0\n"
            "r1,0,,2.0,3.0\n"
            '"r,2",1,"q,q",-0.25,7\n')
    data = tm.load_dataset(tmp_csv("cols.csv", text))
    np.testing.assert_array_equal(data.features, [[-1.0, 0.5], [3.0, 2.0], [7.0, -0.25]])
    assert data.noisy_labels.tolist() == [1, 0, 1]
    assert data.ids == ["r0", "r1", "r,2"]
    assert data.clean_labels is None


@pytest.mark.parametrize("text", [
    CSV_BASIC.replace("0.3,0\n", "0.3,1.0\n"),
    CSV_BASIC.replace("1.0,1.1,1.2,1\n", "1.0,1\n"),
    CSV_BASIC.replace("noisy_label", "noisy_label,clean_label")
    .replace(",0\n", ",0,0\n").replace(",1\n", ",1,x\n"),
], ids=["float-noisy-label", "ragged-row", "non-integer-clean-label"])
def test_unparsable_rows_raise_data_error(tmp_csv, text):
    with pytest.raises(DataError, match="failed to parse"):
        tm.load_dataset(tmp_csv("bad.csv", text))


def test_save_dataset_byte_layout(tmp_path):
    data = tm.Dataset([[0.1, -2.0], [1e-20, 3.0], [1 / 3, -0.0]], [0, 1, 1], 2,
                      clean_labels=[0, 1, 0], ids=["a", "b,c", ""])
    path = tmp_path / "out.csv"
    tm.save_dataset(data, str(path))
    assert path.read_bytes() == (
        b"f0,f1,noisy_label,clean_label,id\r\n"
        b"0.1,-2.0,0,0,a\r\n"
        b'1e-20,3.0,1,1,"b,c"\r\n'
        b"0.3333333333333333,-0.0,1,0,\r\n")


def _csv_writer_reference(data, path):
    """`save_dataset` as it was written with `csv.writer`: the byte oracle."""
    header = [f"f{i}" for i in range(data.d)] + ["noisy_label"]
    tails = [data.noisy_labels.tolist()]
    if data.clean_labels is not None:
        header.append("clean_label")
        tails.append(data.clean_labels.tolist())
    if data.ids is not None:
        header.append("id")
        tails.append(data.ids)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(chain, data.features.tolist(), zip(*tails)))


# any finite float64 bit pattern, plus values whose repr is hard to get right
_FINITE_FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item())
    .filter(np.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-5, 1e-4,
                     1e16, 1e15, 2.0 ** 53, 1.7976931348623157e308]))
_IDS = st.one_of(
    st.none(), st.integers(-10 ** 20, 10 ** 20),
    st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "a", "#"]),
                      st.characters(exclude_categories=["Cs"])), max_size=6))


@given(data=st.data(), n=st.integers(3, 6), d=st.integers(1, 4))
def test_save_dataset_matches_csv_writer(tmp_path_factory, data, n, d):
    features = np.array(data.draw(st.lists(_FINITE_FLOATS, min_size=n * d, max_size=n * d)))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    noisy, clean = data.draw(labels), data.draw(labels)
    ids = data.draw(st.lists(_IDS, min_size=n, max_size=n))
    folder = tmp_path_factory.mktemp("oracle")
    for case in (tm.Dataset(features.reshape(n, d), noisy, 3),
                 tm.Dataset(features.reshape(n, d), noisy, 3, clean_labels=clean),
                 tm.Dataset(features.reshape(n, d), noisy, 3, clean_labels=clean, ids=ids)):
        tm.save_dataset(case, folder / "new.csv")
        _csv_writer_reference(case, folder / "old.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_validate_transition_identity():
    t = tm.validate_transition(np.eye(2))
    np.testing.assert_array_equal(t.t, np.eye(2))


def test_validate_transition_symmetric():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    assert t.k == 2


def test_validate_transition_bad_row_sum():
    with pytest.raises(DataError, match="row sum"):
        tm.validate_transition([[0.7, 0.2], [0.3, 0.7]])


def test_validate_transition_negative_entry():
    with pytest.raises(DataError):
        tm.validate_transition([[1.2, -0.2], [0.3, 0.7]])


def test_validate_transition_not_square():
    with pytest.raises(DataError, match="square"):
        tm.validate_transition([[0.5, 0.5]])


@pytest.mark.parametrize("t", [[[np.nan, np.nan], [np.nan, np.nan]],
                               [[0.8, np.nan], [0.1, 0.9]]])
def test_validate_transition_nan_entry(t):
    with pytest.raises(DataError, match="entries"):
        tm.validate_transition(t)


def test_nan_prior_rejected():
    with pytest.raises(DataError, match="prior"):
        tm.TransitionMatrix(2, np.eye(2), p=[np.nan, np.nan])


@pytest.mark.parametrize("field", ["noisy", "clean"])
@pytest.mark.parametrize("labels", [[0.5, 1.7, 0.0], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf],
                                    ["0", "1", "0"]])
def test_dataset_rejects_non_integer_labels(field, labels):
    good = [0, 1, 0]
    noisy, clean = (labels, good) if field == "noisy" else (good, labels)
    with pytest.raises(DataError, match=f"{field} labels must be integers"):
        tm.Dataset(np.zeros((3, 2)), noisy, 2, clean_labels=clean)


@pytest.mark.parametrize("features", [[["a"], ["b"], ["c"]], [[1.0], ["x"], [2.0]],
                                      [[1.0, 2.0], [3.0], [4.0, 5.0]]])
def test_dataset_rejects_non_numeric_features(features):
    with pytest.raises(DataError, match="features must be numeric"):
        tm.Dataset(features, [0, 1, 0], 2)


def test_dataset_accepts_whole_number_labels():
    data = tm.Dataset(np.zeros((3, 2)), [0.0, 1.0, 0.0], 2, clean_labels=np.array([1, 1, 0]))
    assert data.noisy_labels.dtype == np.int64 and data.noisy_labels.tolist() == [0, 1, 0]
    assert data.clean_labels.tolist() == [1, 1, 0]


def test_dataset_is_immutable():
    data = tm.Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0


def test_transition_json_round_trip(tmp_path):
    t = tm.TransitionMatrix(2, [[0.8, 0.2], [0.1, 0.9]], p=[0.4, 0.6])
    path = str(tmp_path / "t.json")
    tm.save_json(t, path)
    back = tm.TransitionMatrix.load(path)
    np.testing.assert_array_equal(back.t, t.t)
    np.testing.assert_array_equal(back.p, t.p)


@pytest.mark.parametrize("obj", [{"t": [[1.0, 0.0], [0.0, 1.0]]}, {"k": 2}])
def test_transition_from_json_missing_key(obj):
    with pytest.raises(DataError, match="lacks key"):
        tm.TransitionMatrix.from_json(obj)


def test_matrix_without_prior_writes_null(tmp_path):
    path = tmp_path / "t.json"
    tm.save_json(tm.validate_transition([[0.8, 0.2], [0.1, 0.9]]), str(path))
    assert json.loads(path.read_text()) == {"k": 2, "t": [[0.8, 0.2], [0.1, 0.9]],
                                            "p": None}
    assert tm.TransitionMatrix.load(str(path)).p is None


@pytest.mark.parametrize("obj", [
    "k", {"k": None, "t": [[1.0]]}, {"k": 2, "t": [["a", "b"], ["c", "d"]]},
])
def test_transition_from_json_malformed(obj):
    with pytest.raises(DataError):
        tm.TransitionMatrix.from_json(obj)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("k,t\n2,0.5\n")
    with pytest.raises(DataError, match="bad.json: not valid JSON"):
        tm.TransitionMatrix.load(str(path))


def test_load_reads_estimated_t_of_a_report(tmp_path):
    t = tm.validate_transition([[0.7, 0.3], [0.2, 0.8]], p=[0.4, 0.6])
    path = tmp_path / "report.json"
    tm.save_json(Report(estimated_t=t, consensus=model_consensus(t)), str(path))
    back = tm.TransitionMatrix.load(str(path))
    np.testing.assert_array_equal(back.t, t.t)
    np.testing.assert_array_equal(back.p, t.p)


@pytest.mark.parametrize("estimated_t,message", [
    (5, "must be an object"), ({"k": 2}, "lacks key 't'"),
    ({"k": 2, "t": [[0.5, 0.6], [0.5, 0.5]]}, "row sum"),
])
def test_load_malformed_report_names_the_file(tmp_path, estimated_t, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"estimated_t": estimated_t, "consensus": None}))
    with pytest.raises(DataError, match=f"^{path}: .*{message}"):
        tm.TransitionMatrix.load(str(path))


def test_load_rejects_non_utf8_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"k": "\xff"}')
    with pytest.raises(DataError, match="bad.json: not valid JSON"):
        tm.TransitionMatrix.load(str(path))


def test_report_json_has_every_field(tmp_path):
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]], p=[0.4, 0.6])
    stats = model_consensus(t)
    report = Report(estimated_t=t, consensus=stats,
                    weights=tm.SimilarityWeights([1.0, 0.5]),
                    error=0.01, config_echo=asdict(EstimatorConfig()),
                    timings={"solve": 0.1}, excluded_rows=2,
                    flags=["label 1 has no c1 mass"])
    path = tmp_path / "r.json"
    tm.save_json(report, str(path))
    obj = json.loads(path.read_text())
    assert list(obj) == [f.name for f in fields(Report)]
    assert obj == {
        "estimated_t": {"k": 2, "t": [[0.7, 0.3], [0.3, 0.7]], "p": [0.4, 0.6]},
        "consensus": {"c3": stats.c3.tolist(), "n": 0},
        "weights": {"w": [1.0, 0.5]},
        "error": 0.01,
        "converged": True,
        "config_echo": {"variant": "plain-hoc", "bins": 15, "activation": "minmax",
                        "optimizer": {"max_iters": 3000, "tolerance": 1e-6},
                        "seed": 0},
        "timings": {"solve": 0.1},
        "excluded_rows": 2,
        "flags": ["label 1 has no c1 mass"],
    }
    # the embedded matrix reads back through the one reader
    back = tm.TransitionMatrix.from_json(obj["estimated_t"])
    np.testing.assert_array_equal(back.t, t.t)
    np.testing.assert_array_equal(back.p, t.p)


@pytest.mark.parametrize("k", [2.5, True, "2", None])
def test_transition_from_json_rejects_non_integer_k(k):
    with pytest.raises(DataError, match=f"k must be an integer >= 1, got {k!r}"):
        tm.TransitionMatrix.from_json({"k": k, "t": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize("k", [2.5, True, "3", 3.0])
def test_dataset_rejects_non_integer_k(k):
    with pytest.raises(DataError, match=f"class count k must be an integer >= 2, got {k!r}"):
        tm.Dataset(np.zeros((3, 2)), [0, 1, 0], k)


def test_dataset_accepts_numpy_integer_k():
    assert tm.Dataset(np.zeros((3, 2)), [0, 1, 0], np.int64(3)).k == 3


@pytest.mark.parametrize("seed", [1.5, None, "0", False])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(DataError, match=f"seed must be an integer, got {seed!r}"):
        EstimatorConfig(seed=seed)
    with pytest.raises(DataError, match=f"seed must be an integer, got {seed!r}"):
        stage_rng(seed, "noise")


def test_report_error_range():
    t = tm.validate_transition(np.eye(2))
    with pytest.raises(DataError):
        Report(estimated_t=t, consensus=None, error=1.5)


def test_estimator_config_validation():
    with pytest.raises(DataError):
        EstimatorConfig(variant="nope")
    with pytest.raises(DataError):
        EstimatorConfig(bins=1)
    with pytest.raises(DataError, match="bins must be an integer"):
        EstimatorConfig(bins=2.5)
    assert EstimatorConfig(bins=np.int64(4)).bins == 4
    assert EstimatorConfig(seed=np.int64(-3)).seed == -3
    with pytest.raises(DataError):
        EstimatorConfig(activation="relu")


@pytest.mark.parametrize("kwargs", [
    {"tolerance": 0.0}, {"tolerance": -1.0}, {"tolerance": float("nan")},
    {"tolerance": float("inf")}, {"max_iters": -5}, {"max_iters": 0},
    {"max_iters": 2.5}, {"max_iters": 100.0}, {"max_iters": True},
])
def test_optimizer_config_validation(kwargs):
    with pytest.raises(DataError):
        OptimizerConfig(**kwargs)


def test_optimizer_config_accepts_positive_values():
    cfg = OptimizerConfig(max_iters=np.int64(7), tolerance=1e-3)
    assert cfg.max_iters == 7 and cfg.tolerance == 1e-3


def test_stage_rng_deterministic_and_independent():
    a = stage_rng(123, "noise").random(5)
    b = stage_rng(123, "noise").random(5)
    c = stage_rng(123, "optimizer").random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
