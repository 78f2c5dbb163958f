import struct
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from cgpt.baselines import DLinearModel, MlpBaseline
from cgpt.checkpoint import format, load_checkpoint, parse, save_checkpoint
from cgpt.cli import _checkpoint_model
from cgpt.model import CgptConfig, CgptModel, cgpt_forward
from cgpt.layers import EncoderConfig
from cgpt.preprocessing import PatchConfig, WindowBatch
from cgpt.training import RunResult, result_record

from conftest import traced_peak


def small_params():
    rng = np.random.default_rng(0)
    return {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(4),
        "deep.nested.name": rng.standard_normal((2, 2, 2)),
    }


def test_roundtrip_values_and_config(tmp_path):
    p = tmp_path / "model.ckpt"
    config = {"kind": "test", "l_ctx": 96, "h_pred": 1}
    params = small_params()
    save_checkpoint(p, config, params)
    got_config, got_params = load_checkpoint(p)
    assert got_config == {"kind": "test", "l_ctx": "96", "h_pred": "1"}
    assert set(got_params) == set(params)
    for name in params:
        assert np.array_equal(got_params[name], params[name]), name
        assert got_params[name].dtype == np.float64


def test_bytes_are_deterministic_and_order_independent(tmp_path):
    params = small_params()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, {"kind": "t"}, params)
    reversed_params = dict(reversed(list(params.items())))
    save_checkpoint(b, {"kind": "t"}, reversed_params)
    assert a.read_bytes() == b.read_bytes()


def test_layout_is_as_documented(tmp_path):
    p = tmp_path / "tiny.ckpt"
    save_checkpoint(p, {"k": "v"}, {"x": np.array([1.0, 2.0])})
    blob = p.read_bytes()
    header_len = struct.unpack_from("<I", blob, 0)[0]
    assert blob[4:4 + header_len] == b"k=v\n"
    off = 4 + header_len
    assert struct.unpack_from("<I", blob, off)[0] == 1  # one entry
    off += 4
    name_len = struct.unpack_from("<I", blob, off)[0]
    off += 4
    assert blob[off:off + name_len] == b"x"
    off += name_len
    assert struct.unpack_from("<I", blob, off)[0] == 1  # rank
    off += 4
    assert struct.unpack_from("<I", blob, off)[0] == 2  # dim
    off += 4
    assert np.array_equal(np.frombuffer(blob[off:off + 16], dtype="<f8"), [1.0, 2.0])
    assert len(blob) == off + 16


def test_truncated_and_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, {"kind": "t"}, small_params())
    blob = p.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(cut)
    fat = tmp_path / "fat.ckpt"
    fat.write_bytes(blob + b"xx")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(fat)


def test_model_roundtrips_through_checkpoint(tmp_path):
    enc = EncoderConfig(d_model=8, d_ff=16, patch=PatchConfig(4, 4), n_p_max=8)
    cfg = CgptConfig(encoder=enc, l_ctx=16, h_pred=2)
    src = CgptModel(cfg, seed=1)
    p = tmp_path / "cgpt.ckpt"
    save_checkpoint(p, src.config_header(), src.parameters())

    header, arrays = load_checkpoint(p)
    assert header["kind"] == "cgpt" and header["variant"] == "leaky"
    dst = CgptModel(cfg, seed=99)
    dst.load_arrays(arrays)

    rng = np.random.default_rng(2)
    batch = WindowBatch(rng.standard_normal((3, 16, 4)), rng.standard_normal((3, 2)), 3, (0, 1))
    assert np.array_equal(cgpt_forward(batch, src).data, cgpt_forward(batch, dst).data)


# ----------------------------------------------------- properties of the format

def joined_blob(config, params):
    """Reference writer: the whole file built as one bytes object, as the
    format was first written (except that a 0-d array keeps rank 0)."""
    header = "".join(f"{k}={v}\n" for k, v in config.items()).encode("utf-8")
    chunks = [struct.pack("<I", len(header)), header, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.require(params[name], dtype="<f8", requirements="C")
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim),
                   struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(chunks)


finite = st.floats(allow_nan=False, allow_infinity=False)
entry = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=finite)
# any unicode name the utf-8 codec can write (no lone surrogates)
names = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=st.dictionaries(names, entry, max_size=4))
def test_roundtrip_over_random_names_and_shapes(tmp_path, params):
    p = tmp_path / "prop.ckpt"
    config = {"kind": "t", "n": 3}
    save_checkpoint(p, config, params)
    assert p.read_bytes() == joined_blob(config, params)
    got_config, got = load_checkpoint(p)
    assert got_config == {"kind": "t", "n": "3"}
    assert set(got) == set(params)
    for name, arr in params.items():
        assert got[name].dtype == np.float64
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes(), name


def test_zero_dim_entry_keeps_rank_0(tmp_path):
    p = tmp_path / "scalar.ckpt"
    save_checkpoint(p, {}, {"s": np.array(2.5)})
    assert p.read_bytes()[-12:] == struct.pack("<I", 0) + struct.pack("<d", 2.5)
    assert load_checkpoint(p)[1]["s"].shape == ()


def corpus_checkpoint(tmp_path):
    """A small checkpoint with entries of rank 0 to 3, a zero-size one and
    non-ASCII names."""
    params = {"scalar": np.array(2.5), "vec": np.array([1.0, -2.0, 3.5]),
              "maté": np.arange(6.0).reshape(2, 3), "cube": np.ones((2, 1, 2)),
              "empty中": np.zeros((0, 3))}
    p = tmp_path / "corpus.ckpt"
    save_checkpoint(p, {"kind": "t", "d_model": 8}, params)
    return p.read_bytes()


def load_blob(tmp_path, blob):
    p = tmp_path / "damaged.ckpt"
    p.write_bytes(blob)
    return load_checkpoint(p)


def test_truncation_at_every_offset_raises_value_error(tmp_path):
    blob = corpus_checkpoint(tmp_path)
    for cut in range(len(blob)):
        with pytest.raises(ValueError, match="truncated|malformed"):
            load_blob(tmp_path, blob[:cut])


def test_every_single_bit_flip_loads_or_raises_value_error(tmp_path):
    blob = corpus_checkpoint(tmp_path)
    outcomes = {"loaded": 0, "rejected": 0}
    for bit in range(8 * len(blob)):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        try:
            load_blob(tmp_path, bytes(damaged))
            outcomes["loaded"] += 1
        except ValueError as err:  # any other exception type fails the test
            assert "damaged.ckpt" in str(err)
            outcomes["rejected"] += 1
    assert outcomes["loaded"] and outcomes["rejected"]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_byte_damage_loads_or_raises_value_error(tmp_path, data):
    blob = bytearray(corpus_checkpoint(tmp_path))
    for _ in range(data.draw(st.integers(1, 6))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    try:
        load_blob(tmp_path, bytes(blob))
    except ValueError:
        pass


@pytest.mark.parametrize("word", ["rank", "dim"])
def test_huge_declared_size_fails_before_allocating(tmp_path, word):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, {"kind": "t"}, {"w": np.ones((3, 4))})
    blob = bytearray(p.read_bytes())
    rank_at = 4 + len(b"kind=t\n") + 4 + 4 + len(b"w")
    assert struct.unpack_from("<I", blob, rank_at)[0] == 2
    struct.pack_into("<I", blob, rank_at if word == "rank" else rank_at + 4, 2**31)
    p.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_non_finite_entry_is_rejected_naming_file_and_entry(tmp_path):
    p = tmp_path / "model.ckpt"
    for bad in (np.nan, np.inf, -np.inf):
        w = np.ones((2, 3))
        w[1, 2] = bad
        save_checkpoint(p, {"kind": "t"}, {"b": np.zeros(2), "w": w})
        with pytest.raises(ValueError, match=rf"{p}: entry 'w' holds non-finite value "
                                             rf"{bad!r} at flat index 5"):
            load_checkpoint(p)


def raw_checkpoint(header, entries):
    """Checkpoint bytes laid out by hand, so keys and names may repeat."""
    blob = struct.pack("<I", len(header)) + header + struct.pack("<I", len(entries))
    for name, values in entries:
        arr = np.asarray(values, dtype="<f8")
        blob += struct.pack(f"<I{len(name)}sII", len(name), name, 1, arr.size) + arr.tobytes()
    return blob


@pytest.mark.parametrize("header, entries, message", [
    (b"kind=dlinear\nkind=mlp\n", [(b"w", [1.0, 1.0, 1.0])], "header line 2: key 'kind' already set on line 1"),
    (b"kind=dlinear\n", [(b"w", [0.0]), (b"w", [1.0, 1.0, 1.0])], "entry 'w' appears twice"),
], ids=["header_key", "entry_name"])
def test_repeated_header_key_or_entry_name_is_rejected(tmp_path, header, entries, message):
    p = tmp_path / "model.ckpt"
    p.write_bytes(raw_checkpoint(header, entries))
    with pytest.raises(ValueError, match=f"{p}: {message}"):
        load_checkpoint(p)


# ------------------------------------------------------------ key=value text

# A key or value that reads back as itself: non-empty, no '=', no character
# that splits a line, no leading '#' and no surrounding whitespace.
kv_text = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp"),
                                exclude_characters="="), min_size=1, max_size=8).filter(
    lambda s: s == s.strip() and not s.startswith("#"))


@settings(max_examples=200)
@given(values=st.dictionaries(kv_text, kv_text, max_size=6))
def test_parse_inverts_format(values):
    assert parse(format(values)) == values


@pytest.mark.parametrize("text, where, message", [
    ("a=1\nno equals\n", "line ", "line 2: expected key=value, got 'no equals'"),
    ("a=1\n\n# note\n b = 2\na = 3\n", "line ", "line 5: key 'a' already set on line 1"),
    ("a=1\na=1\n", "exp.cfg:", "exp.cfg:2: key 'a' already set on line 1"),
], ids=["no_equals_sign", "repeated_key", "where"])
def test_parse_names_the_line_of_a_defect(text, where, message):
    with pytest.raises(ValueError) as err:
        parse(text, where)
    assert str(err.value) == message


def test_parse_strips_and_skips_blank_and_comment_lines():
    assert parse("# c\n\n  lr = 0.1 \nx==y=\n") == {"lr": "0.1", "x": "=y="}


def test_record_and_header_bytes_are_pinned(tmp_path):
    result = RunResult(seed=3, test_mae=0.125, test_mse=0.1,
                       train_losses=[1.0, 0.5], val_losses=[0.7, 0.6])
    meta = {"dataset": "additive", "model": "dlinear", "revin": "no", "l_ctx": 96, "h_pred": 1}
    assert result_record(result, meta) == (
        "dataset=additive\nmodel=dlinear\nrevin=no\nl_ctx=96\nh_pred=1\nseed=3\n"
        "best_epoch=2\nepochs_run=2\ntest_mae=0.125\ntest_mse=0.1\n"
        "train_losses=1.0,0.5\nval_losses=0.7,0.6\n")
    model = DLinearModel(96, 1)
    header = dict(model.config_header(), dataset="additive", revin="no", seed=0, batch=32)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, header, model.parameters())
    text = (b"kind=dlinear\nl_ctx=96\nh_pred=1\nkernel=25\n"
            b"dataset=additive\nrevin=no\nseed=0\nbatch=32\n")
    assert p.read_bytes()[:4 + len(text) + 4] == (struct.pack("<I", len(text)) + text
                                                  + struct.pack("<I", 4))


# ------------------------------------------------------------ memory per copy

@pytest.fixture
def mlp_checkpoint(tmp_path):
    """An mlp checkpoint (about 3.5 MB of weights) and its parameter bytes."""
    model = MlpBaseline(96, 1, 4)
    p = tmp_path / "mlp.ckpt"
    save_checkpoint(p, model.config_header(), model.parameters())
    return p, sum(t.data.nbytes for t in model.parameters().values())


def test_save_holds_no_copy_of_the_parameters(tmp_path):
    model = MlpBaseline(96, 1, 4)
    params = model.parameters()
    nbytes = sum(t.data.nbytes for t in params.values())
    _, peak = traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", model.config_header(),
                                                  params))
    assert peak <= 0.1 * nbytes
    expected = joined_blob(model.config_header(), {k: t.data for k, t in params.items()})
    assert (tmp_path / "m.ckpt").read_bytes() == expected


def test_load_holds_one_copy_of_the_parameters(mlp_checkpoint):
    path, nbytes = mlp_checkpoint
    _, peak = traced_peak(lambda: load_checkpoint(path))
    assert peak <= 1.1 * nbytes


def test_checkpoint_rebuild_holds_one_copy_of_the_parameters(mlp_checkpoint):
    """The rebuilt model draws no weights and adopts the loaded arrays."""
    path, nbytes = mlp_checkpoint
    (model, header), peak = traced_peak(lambda: _checkpoint_model(path))
    assert peak <= 1.1 * nbytes
    assert isinstance(model, MlpBaseline) and header["kind"] == "mlp"
    saved = MlpBaseline(96, 1, 4).parameters()
    for name, p in model.parameters().items():
        assert p.data.flags.writeable and p.data.flags.c_contiguous, name
        assert p.data.tobytes() == saved[name].data.tobytes(), name


def test_seedless_model_draws_no_weights_until_its_arrays_are_loaded():
    model, peak = traced_peak(lambda: MlpBaseline(96, 1, 4, seed=None))
    assert peak < 64 * 1024
    arrays = {k: v.data.copy() for k, v in MlpBaseline(96, 1, 4, seed=3).parameters().items()}
    model.load_arrays(arrays)
    for name, p in model.parameters().items():
        assert p.data is arrays[name], name
