import json
import pathlib

import pytest

from kwslab import config
from kwslab.config import (
    RunConfig,
    config_from_mapping,
    config_hash,
    config_to_flat,
    load_config,
    parse_kv_text,
)
from kwslab.errors import ConfigError


def test_defaults():
    cfg = config_from_mapping({})
    assert cfg.strategy == "finetune"
    assert cfg.seed == 0
    assert cfg.sgd.learning_rate == 0.05
    assert cfg.sgd.momentum == 0.9
    assert cfg.sgd.batch_size == 16
    assert cfg.sgd.epochs == 15
    assert cfg.sgd.pretrain_epochs == 30
    assert cfg.ewc.lam == 100.0
    assert cfg.si.lam == 1.0 and cfg.si.eps == 0.1
    assert cfg.nr.xi == 0.75
    assert cfg.gem.buffer == 128
    assert cfg.pcl.mu == 1.0 and cfg.pcl.fixed is False
    assert cfg.include_pretrain is True


def test_kv_text_parsing():
    text = """
    # comment line
    strategy = pcl
    seed = 3

    sgd.lr = 0.01        # trailing comment
    pcl.mu = 0.5
    pcl.fixed = true
    stream.tasks = 4
    """
    cfg = config_from_mapping(parse_kv_text(text))
    assert cfg.strategy == "pcl"
    assert cfg.seed == 3
    assert cfg.sgd.learning_rate == 0.01
    assert cfg.pcl.mu == 0.5
    assert cfg.pcl.fixed is True
    assert cfg.stream.layout.n_tasks == 4


def test_kv_duplicate_key_reports_line():
    text = "seed = 1\nseed = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_kv_text(text)
    assert "seed" in str(err.value)
    assert "2" in str(err.value)  # line number of the duplicate


def test_kv_malformed_line_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_kv_text("strategy = si\nthis is not a pair\n")
    assert "2" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_mapping({"sgd.learning_rate": 0.1})
    assert "sgd.learning_rate" in str(err.value)


def test_out_of_range_values_name_the_field():
    with pytest.raises(ConfigError) as err:
        config_from_mapping({"nr.xi": 1.5})
    msg = str(err.value)
    assert "nr.xi" in msg
    assert "(0, 1]" in msg
    with pytest.raises(ConfigError) as err:
        config_from_mapping({"synth.keywords": 0})
    assert str(err.value) == "synth.keywords: must be in [1, inf), got 0"

    with pytest.raises(ConfigError):
        config_from_mapping({"sgd.lr": -1.0})
    with pytest.raises(ConfigError):
        config_from_mapping({"stream.train_frac": 1.0})
    with pytest.raises(ConfigError):
        config_from_mapping({"pcl.encoder_lr_scale": 2.0})
    with pytest.raises(ConfigError):
        config_from_mapping({"gem.buffer": 0})


def test_strategy_aliases():
    for alias, canon in [
        ("ft", "finetune"),
        ("fine-tune", "finetune"),
        ("rehearsal", "nr"),
        ("stand-alone", "standalone"),
        ("EWC", "ewc"),
    ]:
        assert config_from_mapping({"strategy": alias}).strategy == canon
    with pytest.raises(ConfigError):
        config_from_mapping({"strategy": "dreamer"})


def test_json_and_kv_agree(tmp_path):
    flat = {"strategy": "gem", "gem.buffer": 64, "seed": 11, "sgd.lr": 0.02}
    kv = "\n".join(f"{k} = {v}" for k, v in flat.items())
    js = json.dumps(flat)

    kv_path = tmp_path / "run.cfg"
    kv_path.write_text(kv)
    js_path = tmp_path / "run.json"
    js_path.write_text(js)

    a = load_config(kv_path)
    b = load_config(js_path)
    assert a == b
    assert config_hash(a) == config_hash(b)


def test_flat_round_trip():
    cfg = config_from_mapping({"strategy": "si", "si.lambda": 2.5, "seed": 4})
    flat = config_to_flat(cfg)
    assert flat["si.lambda"] == 2.5
    again = config_from_mapping(flat)
    assert again == cfg


def test_config_hash_sensitivity():
    base = config_from_mapping({"strategy": "nr"})
    other = config_from_mapping({"strategy": "nr", "nr.xi": 0.5})
    assert config_hash(base) != config_hash(other)
    assert config_hash(base) == config_hash(config_from_mapping({"strategy": "nr"}))
    assert len(config_hash(base)) == 16
    int(config_hash(base), 16)  # hex


def test_hash_ignores_out_dir():
    a = config_from_mapping({"out_dir": "runs/a"})
    b = config_from_mapping({"out_dir": "runs/b"})
    assert config_hash(a) == config_hash(b)


def test_strategy_names_registered():
    assert set(config.STRATEGIES) == {
        "finetune", "ewc", "si", "nr", "gem", "pcl", "standalone",
    }


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.seed = 1


# One rejected value and the accepted value at the edge of every range check,
# written out here rather than read from the key table. An open edge has no
# accepted boundary; its row accepts the nearest representable value instead.
TINY = 5e-324

RANGE_CASES = [
    ("eval_every", -1, 0),
    ("stream.pretrain_keywords", 1, 2),
    ("stream.tasks", 0, 1),
    ("stream.keywords_per_task", 0, 2),
    ("stream.keywords_per_task", 1, 2),  # argmax over one logit always scores 1.0
    ("stream.train_frac", 0.0, TINY),
    ("stream.train_frac", 1.0, 1.0 - 2.0**-53),
    ("synth.keywords", 0, 1),
    ("synth.clips", 1, 2),  # one clip cannot fill both sides of the split
    ("synth.f_lo", 0.0, TINY),
    ("synth.f_hi", 8000.0, 7999.0),
    ("synth.freq_jitter", -0.01, 0.0),
    ("synth.freq_jitter", 0.21, 0.2),
    ("sgd.lr", 0.0, TINY),
    ("sgd.momentum", 1.0, 0.0),
    ("sgd.momentum", -0.1, 0.0),
    ("sgd.weight_decay", -0.1, 0.0),
    ("sgd.batch_size", 0, 1),
    ("sgd.epochs", 0, 1),
    ("sgd.pretrain_epochs", 0, 1),
    ("ewc.lambda", -0.1, 0.0),
    ("ewc.fisher_samples", -1, 0),
    ("si.lambda", -0.1, 0.0),
    ("si.eps", 0.0, TINY),
    ("nr.xi", 0.0, 1.0),
    ("nr.xi", 1.5, 1.0),
    ("gem.buffer", 0, 1),
    ("pcl.mu", 0.0, TINY),
    ("pcl.encoder_lr_scale", -0.1, 0.0),
    ("pcl.encoder_lr_scale", 1.1, 1.0),
    ("stream.source", "wav", "synth"),
    ("strategy", "dreamer", "standalone"),
]


@pytest.mark.parametrize("key, bad, good", RANGE_CASES, ids=str)
def test_range_checks_reject_outside_and_accept_the_edge(key, bad, good):
    with pytest.raises(ConfigError) as err:
        config_from_mapping({key: bad})
    assert err.value.field == key
    assert config_to_flat(config_from_mapping({key: good}))[key] == good


@pytest.mark.parametrize(
    "bad, good, field",
    [
        ({"synth.f_lo": 6000.0}, {"synth.f_lo": 5999.0}, "synth.f_lo"),
        ({"synth.f_lo": 700.0, "synth.f_hi": 600.0},
         {"synth.f_lo": 500.0, "synth.f_hi": 600.0}, "synth.f_lo"),
        ({"stream.source": "dir"}, {"stream.source": "dir", "stream.corpus_dir": "c"},
         "stream.corpus_dir"),
        # a dir stream checks its synth keys too
        ({"stream.source": "dir", "stream.corpus_dir": "c", "synth.clips": 1},
         {"stream.source": "dir", "stream.corpus_dir": "c", "synth.clips": 2}, "synth.clips"),
        # the widest pcl sub-network layer: 48 * mu * keywords_per_task / pretrain_keywords
        ({"pcl.mu": 1e300}, {"pcl.mu": 106.0}, "pcl.mu"),
        ({"pcl.mu": 60.0, "stream.keywords_per_task": 6}, {"pcl.mu": 60.0}, "pcl.mu"),
    ],
)
def test_cross_key_rules(bad, good, field):
    with pytest.raises(ConfigError) as err:
        config_from_mapping(bad)
    assert err.value.field == field
    config_from_mapping(good)


FLOAT_KEYS = [key for key, entry in config._KEY_TABLE.items() if entry[1] is float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("text", [False, True], ids=["json", "kv"])
def test_float_keys_reject_nan_and_inf(key, text):
    def value(x):
        return str(x) if text else x

    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({key: value(bad)})
        assert err.value.field == key
    if key == "synth.snr_db":  # +inf is a noiseless stream
        assert config_from_mapping({key: value(float("inf"))}).stream.synth.snr_db == float("inf")
    else:
        with pytest.raises(ConfigError) as err:
            config_from_mapping({key: value(float("inf"))})
        assert err.value.field == key


@pytest.mark.parametrize(
    "key, raw",
    [("sgd.epochs", 2.7), ("seed", True), ("sgd.lr", True), ("nr.xi", True), ("out_dir", False),
     # a JSON null or list is no text either
     ("stream.corpus_dir", None), ("out_dir", [1])],
)
def test_int_keys_reject_floats_and_bools_in_both_formats(tmp_path, key, raw):
    js = tmp_path / "run.json"
    js.write_text(json.dumps({key: raw}))
    kv = tmp_path / "run.cfg"
    kv.write_text(f"{key} = {json.dumps(raw)}\n")
    # a key = value line reads `false` as the text "false", a valid str value
    paths = (js,) if config._KEY_TABLE[key][1] is str else (js, kv)
    for path in paths:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == key


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_config_rows() -> list[list[str]]:
    """Cells of the README's configuration-key table, backticks stripped."""
    section = README.read_text(encoding="utf-8").split("## Configuration keys", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        if cells[0] == "key" or set(cells[0]) <= {"-"}:
            continue
        rows.append(cells)
    return rows


def render_accepted(accepted) -> str:
    if accepted is None:
        return "any"
    if isinstance(accepted, tuple):
        return ", ".join(accepted)
    return accepted


def test_readme_config_table_matches_the_key_table():
    rows = readme_config_rows()
    assert [row[0] for row in rows] == list(config._KEY_TABLE)
    defaults = config_to_flat(RunConfig())
    for key, default, accepted, _meaning in rows:
        _, kind, table_accepted = config._KEY_TABLE[key]
        if key == "out_dir":
            assert default == "derived"
        elif key == "stream.corpus_dir":
            assert default == "none" and key not in defaults
        else:
            assert config._coerce(key, default, kind) == defaults[key], key
        assert accepted == render_accepted(table_accepted), key
