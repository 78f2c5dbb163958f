"""Golden result records: a rounding-level change to any float result fails here.

Five models x revin yes/no are trained for two epochs on a tiny additive
config, and each ``result_record`` must equal, byte for byte, the text
recorded when these strings were pinned.  ``GOLDEN_MULTIHEAD`` does the
same for the three cgpt variants with two attention heads and two encoder
layers, so a change in how heads are split or merged shows too.  Every
loss and metric is written with ``repr``, so a change in the last bit of
any of them shows.

The strings were recorded with numpy 2.4.6 on OpenBLAS (x86_64), on the
CPU code paths named in ``PINNED_ON``: numpy's SIMD dispatch level and
OpenBLAS's kernel set.  numpy's ``exp``, ``power``, ``log`` and ``tanh``
and OpenBLAS's products round differently on other paths, so the pins hold
only there; a failure says whether this machine runs those paths.  A
change that moves results on purpose must regenerate them and say so.
Running this file as a script, ``PYTHONPATH=src python
tests/test_golden_records.py``, prints ``PINNED_ON`` and the ``GOLDEN`` and
``GOLDEN_MULTIHEAD`` dicts for this machine and the current code.

The synthetic generators' outputs are pinned the same way, by the sha256
of ``values.tobytes()``.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cgpt.baselines import DLinearModel, MlpBaseline
from cgpt.datasets import (SplitPolicy, SyntheticConfig, generate_additive,
                           generate_interactive, prepare_dataset)
from cgpt.layers import EncoderConfig
from cgpt.model import CgptConfig, CgptModel, Variant
from cgpt.preprocessing import PatchConfig
from cgpt.training import TrainConfig, result_record, train

L_CTX, H_PRED = 32, 2
ENCODER = EncoderConfig(d_model=8, d_ff=16, n_heads=1, e_layers=1,
                        patch=PatchConfig(8, 8), n_p_max=8)
MULTIHEAD = EncoderConfig(d_model=8, d_ff=16, n_heads=2, e_layers=2,
                          patch=PatchConfig(8, 8), n_p_max=8)

PINNED_ON = {"numpy dispatch": "AVX512_SPR", "OpenBLAS core": "SkylakeX"}


def numpy_dispatch_level():
    """The highest of numpy's SIMD dispatch targets this CPU runs."""
    from numpy._core import _multiarray_umath as umath
    running = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return running[-1] if running else "baseline"


def openblas_core():
    """The kernel set numpy's bundled OpenBLAS picked for this CPU."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def code_paths():
    return {"numpy dispatch": numpy_dispatch_level(), "OpenBLAS core": openblas_core()}


def pinned_paths_note():
    """Failure text: do this machine's CPU code paths match the pinned ones?"""
    here = code_paths()
    if here == PINNED_ON:
        return f"this machine runs the pinned code paths {PINNED_ON}, so the code moved the bits"
    return (f"the pins were recorded on {PINNED_ON} but this machine runs {here}, "
            "whose kernels may round differently")


GOLDEN = {
    ("leaky", False): (
        "model=leaky\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.9424393380995939\n"
        "test_mse=1.2765327744846287\n"
        "train_losses=3.1877624647422618,1.4640160502354247\n"
        "val_losses=0.8821260406091419,0.6666924639039545\n"
    ),
    ("leaky", True): (
        "model=leaky\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.734155112978824\n"
        "test_mse=0.7934529916221901\n"
        "train_losses=1.863526088466727,0.892433979488233\n"
        "val_losses=0.6803601324665907,0.5966887222787343\n"
    ),
    ("strict", False): (
        "model=strict\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.786787040395429\n"
        "test_mse=0.9880150924581784\n"
        "train_losses=2.19361953086877,1.2922764054266214\n"
        "val_losses=0.8697429303064153,0.6801053790475559\n"
    ),
    ("strict", True): (
        "model=strict\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.7123992815686554\n"
        "test_mse=0.7801013674668408\n"
        "train_losses=1.5490056649399158,1.0009196668510245\n"
        "val_losses=0.6935862159167135,0.6434770605830384\n"
    ),
    ("pure", False): (
        "model=pure\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.5687219778815271\n"
        "test_mse=0.4750483217774809\n"
        "train_losses=1.2861972901934164,0.9013792764747335\n"
        "val_losses=0.6127290016983691,0.500751726678639\n"
    ),
    ("pure", True): (
        "model=pure\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.7468404891974718\n"
        "test_mse=0.836052728774697\n"
        "train_losses=1.0793572574734334,0.9124534884370258\n"
        "val_losses=0.6526209655939459,0.6453944504289857\n"
    ),
    ("dlinear", False): (
        "model=dlinear\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.9145073255185581\n"
        "test_mse=1.4373729117181069\n"
        "train_losses=2.425712836300209,1.8295178010619209\n"
        "val_losses=1.4435724278627073,1.239394433941722\n"
    ),
    ("dlinear", True): (
        "model=dlinear\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.8020307870304573\n"
        "test_mse=0.999229715659653\n"
        "train_losses=1.3204038034385104,1.053026053244557\n"
        "val_losses=0.9145688417549477,0.8380342702884579\n"
    ),
    ("mlp", False): (
        "model=mlp\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.4516304203070952\n"
        "test_mse=0.3508132018856296\n"
        "train_losses=1.2334290263283494,0.6732366163457649\n"
        "val_losses=0.5915754747870527,0.5066434288472287\n"
    ),
    ("mlp", True): (
        "model=mlp\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.708747489065882\n"
        "test_mse=0.7882433625930434\n"
        "train_losses=1.0589324740608743,0.7058550460788443\n"
        "val_losses=0.6725031799132539,0.593294627392007\n"
    ),
}

GOLDEN_MULTIHEAD = {
    ("leaky", False): (
        "model=leaky\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.8868590768130864\n"
        "test_mse=1.1217220104685526\n"
        "train_losses=2.632703653802025,1.297415134460557\n"
        "val_losses=1.2724882292752644,0.942861817654174\n"
    ),
    ("leaky", True): (
        "model=leaky\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.8155344127015757\n"
        "test_mse=0.9241338118088157\n"
        "train_losses=1.514767677888108,0.8786096584967219\n"
        "val_losses=0.8881276484016878,0.7981206405026376\n"
    ),
    ("strict", False): (
        "model=strict\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.9190614543722614\n"
        "test_mse=1.2981314383935512\n"
        "train_losses=3.4427543809976284,1.4666918418465986\n"
        "val_losses=1.2729250286666747,1.0503569824867613\n"
    ),
    ("strict", True): (
        "model=strict\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=1.0035250204997197\n"
        "test_mse=1.3101050090116313\n"
        "train_losses=1.8650542337395293,1.1450005707257762\n"
        "val_losses=1.1424232384829816,1.0520686514290118\n"
    ),
    ("pure", False): (
        "model=pure\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.5781737520404864\n"
        "test_mse=0.5265509857299425\n"
        "train_losses=1.361597711833609,0.810678674188803\n"
        "val_losses=0.6568463936825136,0.5303848172912469\n"
    ),
    ("pure", True): (
        "model=pure\n"
        "seed=1\n"
        "best_epoch=2\n"
        "epochs_run=2\n"
        "test_mae=0.7085588965921011\n"
        "test_mse=0.7572735226977939\n"
        "train_losses=1.0239214947549746,0.8539612249877832\n"
        "val_losses=0.700291906256101,0.6667665726414426\n"
    ),
}


def load_data():
    raw = generate_additive(SyntheticConfig(length=600, seed=3))
    prepared, _ = prepare_dataset(raw, SplitPolicy.RATIO_70_20_10, L_CTX, H_PRED)
    return prepared


@pytest.fixture(scope="module")
def data():
    return load_data()


def build(name, encoder=ENCODER):
    if name == "dlinear":
        return DLinearModel(L_CTX, H_PRED, kernel=5, seed=1)
    if name == "mlp":
        return MlpBaseline(L_CTX, H_PRED, n_vars=4, hidden=16, seed=1)
    return CgptModel(CgptConfig(encoder, L_CTX, H_PRED, Variant.from_id(name)), seed=1)


def golden_record(data, name, revin, encoder=ENCODER):
    cfg = TrainConfig(lr=3e-3, batch_size=64, max_epochs=2, patience=2, revin=revin, seed=1)
    return result_record(train(build(name, encoder), data, cfg), {"model": name})


@pytest.mark.parametrize("name,revin", list(GOLDEN))
def test_result_record_matches_golden_text(data, name, revin):
    assert golden_record(data, name, revin) == GOLDEN[name, revin], pinned_paths_note()


@pytest.mark.parametrize("name,revin", list(GOLDEN_MULTIHEAD))
def test_multihead_result_record_matches_golden_text(data, name, revin):
    assert (golden_record(data, name, revin, MULTIHEAD)
            == GOLDEN_MULTIHEAD[name, revin]), pinned_paths_note()


GENERATORS = {"additive": generate_additive, "interactive": generate_interactive}

GENERATOR_SHA256 = {
    ("additive", 0, 6144): "237ef1e515f27e571e877be4eb20e98a69b21b4bcb11c0a3f51419d1a32fe5fc",
    ("additive", 0, 600): "96ebafe132bb5ffc5ae3367e8b5da32fc2bac08957bc1480ee038de08ec33b0a",
    ("additive", 3, 6144): "bcd8feed4e8b4416c01eef86385034dffc8571e00338e388ea711993ce97571e",
    ("additive", 3, 600): "e8f6f1fa6a7484e49ab82f9e8b5382e3aa4eccf9959479afe34d274021255e13",
    ("interactive", 0, 6144): "7153da0b0b50485b6134262d0765bbf0b5a9fbc54cb83f0ea74f492f4d1f0c5d",
    ("interactive", 0, 600): "4646bb104ee5d3cfc3952c1519f801e7ca3babb2f78d4a8845b0563b86cca1a1",
    ("interactive", 3, 6144): "c435cc55e5c52fa7349300e4cbe4e4e2920ed43f75f33eacc639f9f19365a21e",
    ("interactive", 3, 600): "8fdf472692dbdfec11affa59ff6fd02773ce41e14584712a3c470cfa8d08fd3a",
}


@pytest.mark.parametrize("kind,seed,length", list(GENERATOR_SHA256))
def test_generator_values_match_pinned_bytes(kind, seed, length):
    values = GENERATORS[kind](SyntheticConfig(length=length, seed=seed)).values
    assert (hashlib.sha256(values.tobytes()).hexdigest()
            == GENERATOR_SHA256[kind, seed, length]), pinned_paths_note()


def print_golden(title, data, keys, encoder):
    print(f"{title} = {{")
    for name, revin in keys:
        lines = golden_record(data, name, revin, encoder).splitlines(keepends=True)
        print(f"    ({json.dumps(name)}, {revin}): (")
        print("\n".join(f"        {json.dumps(line)}" for line in lines))
        print("    ),")
    print("}")


if __name__ == "__main__":
    prepared = load_data()
    print(f"PINNED_ON = {code_paths()}")
    print_golden("GOLDEN", prepared, GOLDEN, ENCODER)
    print_golden("GOLDEN_MULTIHEAD", prepared, GOLDEN_MULTIHEAD, MULTIHEAD)
