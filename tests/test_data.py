import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcast import data as D
from flowcast.synthetic import sinusoid_dataset
from malformed import BAD_BIN_HEADERS, BAD_BIN_PAYLOAD, framed, json_values


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCsvLoading:
    def test_basic_matrix(self, tmp_path):
        ds = D.load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert ds.num_steps == 3 and ds.num_nodes == 2
        assert not ds.missing_mask.any()
        assert np.array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_marks_missing(self, tmp_path):
        ds = D.load_csv(write(tmp_path, "1,2\nnan,4\n5,6\n"))
        assert ds.missing_mask[1, 0] and ds.missing_mask.sum() == 1

    def test_zeros_as_missing_flag(self, tmp_path):
        path = write(tmp_path, "1,0\n0,4\n5,6\n")
        assert D.load_csv(path).missing_mask.sum() == 0
        assert D.load_csv(path, zeros_as_missing=True).missing_mask.sum() == 2

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(D.DataError):
            D.load_csv(write(tmp_path, ""))

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(D.DataError):
            D.load_csv(write(tmp_path, "1,2\n3\n"))

    def test_value_beyond_float32_range_marks_missing(self, tmp_path):
        ds = D.load_csv(write(tmp_path, "1,2\n1e39,4\n5,-1e39\n3.4e38,6\n"))
        assert ds.values.dtype == np.float32 and np.isfinite(ds.values).all()
        assert ds.missing_mask.tolist() == [[False, False], [True, False],
                                            [False, True], [False, False]]
        assert ds.values[3, 0] == np.float32(3.4e38)

    def test_missing_file_names_path(self):
        with pytest.raises(D.DataError) as exc:
            D.load_csv("/nonexistent/series.csv")
        assert "/nonexistent/series.csv" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="0123456789.,-+eE naifNI#\n", max_size=40).map(str.encode)
       | st.binary(max_size=40))
@example(b"1e39,2\n-inf,1e-50\n")
def test_any_csv_bytes_load_or_raise_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(blob)
    try:
        ds = D.load_csv(str(path))
    except D.DataError:
        return
    assert ds.values.shape == ds.missing_mask.shape
    assert ds.values.dtype == np.float32 and np.isfinite(ds.values).all()


class TestBinFormat:
    def test_round_trip_with_mask(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, size=(20, 4)).astype(np.float32)
        mask = rng.uniform(size=(20, 4)) < 0.2
        ds = D.SeriesDataset(np.where(mask, 0, values).astype(np.float32), mask,
                             interval_minutes=10)
        path = str(tmp_path / "series.bin")
        D.save_bin(ds, path)
        back = D.load_bin(path)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.missing_mask, mask)
        assert back.interval_minutes == 10

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "series.bin"
        D.save_bin(D.SeriesDataset(np.ones((4, 2), dtype=np.float32), np.zeros((4, 2), bool)),
                   str(path))
        before = path.read_bytes()
        # the mask cannot be cast to uint8, so the write stops after the values
        bad = D.SeriesDataset(np.zeros((4, 2), dtype=np.float32), np.full((4, 2), "x"))
        with pytest.raises(ValueError):
            D.save_bin(bad, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["series.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(D.DataError):
            D.load_bin(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        ds = D.SeriesDataset(np.ones((4, 2), dtype=np.float32), np.zeros((4, 2), bool))
        path = str(tmp_path / "series.bin")
        D.save_bin(ds, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])
        with pytest.raises(D.DataError):
            D.load_bin(path)

    @settings(max_examples=60, deadline=None)
    @given(header=st.fixed_dictionaries({}, optional={
               k: json_values for k in ("T", "N", "interval_minutes", "has_mask")}) | json_values,
           payload=st.binary(max_size=40))
    @example(header=[], payload=b"")
    @example(header={"T": None, "N": 2, "has_mask": False}, payload=b"")
    def test_any_header_loads_or_raises_data_error(self, tmp_path_factory, header, payload):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(framed(D.BIN_MAGIC, header, payload))
        try:
            ds = D.load_bin(str(path))
        except D.DataError:
            return
        assert ds.values.shape == ds.missing_mask.shape

    @pytest.mark.parametrize("header", BAD_BIN_HEADERS)
    def test_header_value_of_the_wrong_type_rejected(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(framed(D.BIN_MAGIC, header, BAD_BIN_PAYLOAD))
        with pytest.raises(D.DataError, match="malformed bin header"):
            D.load_bin(str(path))

    def test_unknown_format_rejected(self):
        with pytest.raises(D.DataError):
            D.load_dataset("x.npz", "npz")


def loop_interpolate(ds):
    """The per-node np.interp loop that data.interpolate replaced: the reference
    its one vectorised pass must equal bit for bit."""
    values = ds.values.astype(np.float64)
    steps = np.arange(ds.num_steps)
    out = values.copy()
    for node in range(ds.num_nodes):
        missing = ds.missing_mask[:, node]
        if not missing.any():
            continue
        observed = ~missing
        if not observed.any():
            raise D.DataError(f"node {node} has no observed values")
        out[:, node] = np.interp(steps, steps[observed], values[observed, node])
    return D.SeriesDataset(out.astype(np.float32), np.zeros_like(ds.missing_mask),
                           interval_minutes=ds.interval_minutes)


def outcome(fn, ds):
    """(values bits, None) or (None, DataError text)."""
    try:
        return fn(ds).values.view(np.uint32), None
    except D.DataError as exc:
        return None, str(exc)


def masked_series(values, mask):
    values = np.asarray(values, dtype=np.float32)
    mask = np.asarray(mask, dtype=bool)
    return D.SeriesDataset(np.where(mask, np.float32(0), values), mask)


@st.composite
def series_with_gaps(draw):
    t = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=1, max_value=6))
    values = draw(arrays(np.float32, (t, n), elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)))
    return masked_series(values, draw(arrays(bool, (t, n))))


class TestInterpolate:
    def series(self, vals, missing):
        vals = np.asarray(vals, dtype=np.float32)[:, None]
        mask = np.asarray(missing, dtype=bool)[:, None]
        return D.SeriesDataset(np.where(mask, 0, vals), mask)

    def test_linear_gap(self):
        out = D.interpolate(self.series([1, 0, 3], [False, True, False]))
        assert np.allclose(out.values.ravel(), [1, 2, 3])

    def test_constant_extension(self):
        out = D.interpolate(self.series([0, 5, 0], [True, False, True]))
        assert np.allclose(out.values.ravel(), [5, 5, 5])

    def test_multi_step_gap(self):
        out = D.interpolate(self.series([0, 0, 0, 3], [False, True, True, False]))
        assert np.allclose(out.values.ravel(), [0, 1, 2, 3])

    def test_all_missing_node_rejected(self):
        with pytest.raises(D.DataError):
            D.interpolate(self.series([0, 0], [True, True]))

    def test_mask_cleared_after_repair(self):
        out = D.interpolate(self.series([1, 0, 3], [False, True, False]))
        assert not out.missing_mask.any()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        t, n = 30, 3
        vals = rng.uniform(1, 10, size=(t, n)).astype(np.float32)
        mask = rng.uniform(size=(t, n)) < 0.3
        mask[0] = False  # keep every node observable
        ds = D.SeriesDataset(np.where(mask, 0, vals).astype(np.float32), mask)
        once = D.interpolate(ds)
        twice = D.interpolate(once)
        assert np.array_equal(once.values, twice.values)

    @settings(max_examples=400, deadline=None)
    @given(series_with_gaps())
    # runs at the start and at the end of the series, and a lone observed cell
    @example(masked_series([[1], [2], [3], [4], [5]], [[1], [0], [1], [0], [1]]))
    @example(masked_series([[7]], [[0]]))
    # fully observed and fully missing nodes; the error names the first such node
    @example(masked_series([[1, 2, 3], [4, 5, 6]], [[0, 1, 1], [0, 1, 1]]))
    # node 0's run ends the series and node 1's begins it: the two runs touch
    # in node-major order and must stay two runs
    @example(masked_series([[1, 10], [2, 20], [3, 30], [4, 40]],
                           [[0, 1], [0, 1], [1, 0], [1, 0]]))
    @example(masked_series([[1, 10, 100], [2, 20, 200], [3, 30, 300]],
                           [[0, 1, 0], [1, 1, 1], [1, 0, 0]]))
    def test_equals_the_per_node_loop_bit_for_bit(self, ds):
        got_bits, got_error = outcome(D.interpolate, ds)
        want_bits, want_error = outcome(loop_interpolate, ds)
        assert got_error == want_error
        assert np.array_equal(got_bits, want_bits)  # None == None when both raise


class TestFullPipeline:
    def test_series_with_missing_cells_prepares_cleanly(self):
        ds = sinusoid_dataset(nodes=5, steps=150, seed=7, missing_frac=0.1)
        assert ds.missing_mask.any()
        prep = D.prepare(ds)
        assert np.isfinite(prep.raw).all()
        assert np.isfinite(prep.norm).all()

    def test_prepare_equals_the_loop_composition_bit_for_bit(self):
        # the same raw and norm arrays mean the same checkpoints and forecasts
        ds = sinusoid_dataset(nodes=40, steps=600, missing_frac=0.1)
        raw = loop_interpolate(ds).values
        stats = D.fit_normalizer(raw)
        norm = stats.apply(raw).astype(np.float32)
        prep = D.prepare(ds)
        assert prep.raw.dtype == raw.dtype and prep.norm.dtype == norm.dtype
        assert np.array_equal(prep.raw.view(np.uint32), raw.view(np.uint32))
        assert np.array_equal(prep.norm.view(np.uint32), norm.view(np.uint32))
        assert (prep.stats.mean, prep.stats.std) == (stats.mean, stats.std)
        train, val, test = D.split_windows(D.window_starts(600))
        assert prep.splits.keys() == {"train", "val", "test"}
        for got, want in zip((prep.splits[k] for k in ("train", "val", "test")),
                             (train, val, test)):
            assert np.array_equal(got, want)


class TestNormalizer:
    def test_constant_series_rejected(self):
        with pytest.raises(D.DataError):
            D.fit_normalizer(np.full((10, 2), 5.0))

    def test_known_stats(self):
        values = np.array([[0.0], [2.0], [9.0]])  # first 60% of 3 steps = 1 step... use 10
        values = np.concatenate([np.tile([[0.0], [2.0]], (3, 1)), np.full((4, 1), 9.0)])
        stats = D.fit_normalizer(values)
        assert stats.mean == pytest.approx(1.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.apply(2.0) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    def test_round_trip(self, x):
        stats = D.NormStats(mean=13.25, std=7.5)
        assert stats.invert(stats.apply(x)) == pytest.approx(x, abs=1e-5)

    def test_stats_ignore_the_tail(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 10, size=(50, 2))
        ref = D.fit_normalizer(values)
        mutated = values.copy()
        mutated[30:] += 1e6
        got = D.fit_normalizer(mutated)
        assert got.mean == ref.mean and got.std == ref.std


class TestWindows:
    def test_count_formula(self):
        assert len(D.window_starts(30, 12, 12)) == 7

    def test_split_7_windows(self):
        train, val, test = D.split_windows(np.arange(7))
        assert (len(train), len(val), len(test)) == (4, 1, 2)

    def test_single_window_insufficient(self):
        starts = D.window_starts(24, 12, 12)
        assert len(starts) == 1
        with pytest.raises(D.DataError, match="insufficient windows"):
            D.split_windows(starts)

    def test_too_short_series(self):
        with pytest.raises(D.DataError):
            D.window_starts(20, 12, 12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=29, max_value=2000))
    def test_count_and_split_formulas_hold(self, t):
        starts = D.window_starts(t, 12, 12)
        w = t - 24 + 1
        assert len(starts) == w
        train, val, test = D.split_windows(starts)
        assert len(train) == int(np.floor(0.6 * w))
        assert len(val) == int(np.floor(0.2 * w))
        assert len(test) == w - len(train) - len(val)
        assert np.array_equal(np.concatenate([train, val, test]), starts)

    def test_batch_contents_match_series(self, tiny_prep):
        batch = D.make_batch(tiny_prep, np.array([5]))
        assert batch.inputs.shape == (1, 1, tiny_prep.num_nodes, 12)
        assert batch.targets_norm.shape == (1, 12, tiny_prep.num_nodes)
        assert np.array_equal(batch.inputs[0, 0], tiny_prep.norm[5:17].T)
        assert np.array_equal(batch.targets_raw[0], tiny_prep.raw[17:29])

    def test_shuffle_is_seeded(self, tiny_prep):
        def order(seed):
            rng = np.random.default_rng(seed)
            return [b.starts.tolist() for b in
                    D.iter_batches(tiny_prep, "train", 16, rng=rng)]

        assert order(5) == order(5)
        assert order(5) != order(6)

    def test_eval_order_is_chronological(self, tiny_prep):
        starts = np.concatenate([b.starts for b in D.iter_batches(tiny_prep, "val", 16)])
        assert np.array_equal(starts, np.sort(starts))

    def test_last_short_batch_kept(self, tiny_prep):
        batches = list(D.iter_batches(tiny_prep, "val", 16))
        total = sum(len(b.starts) for b in batches)
        assert total == len(tiny_prep.splits["val"])
        assert len(batches[-1].starts) == total - 16 * (len(batches) - 1)
