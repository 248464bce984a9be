import dataclasses
import logging
import re
import typing

import pytest
import yaml
from click.testing import CliRunner

from litrag.cli import main
from litrag.config import PipelineConfig, load_config
from litrag.errors import ConfigError
from litrag.footprint import HardwareProfile
from litrag.retrieval import ChunkingConfig
from conftest import FIXTURES

ENDPOINT = {"name": "Only Model"}


def write(tmp_path, data):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_fixture_config_loads_without_warnings(caplog):
    config = load_config(FIXTURES / "config.yaml")
    assert caplog.records == []
    assert len(config.endpoints) == 5
    assert config.chunking == ChunkingConfig(chunk_size=120, overlap=20)
    assert (config.retrieval_budget, config.parallelism, config.tie_rule) == (260, 4, "no")
    assert config.filter_endpoint == "Llama 3.1 70B"
    assert config.hardware_profile == HardwareProfile(
        name="intel-xeon-platinum-9242", cores=48, power_per_core=7.2917, memory_gb=192
    )


def test_missing_keys_keep_the_dataclass_defaults(tmp_path):
    config = load_config(write(tmp_path, {"endpoints": [ENDPOINT]}))
    expected = PipelineConfig(endpoints=config.endpoints, filter_endpoint="Only Model")
    assert config == expected


def test_filter_endpoint_defaults():
    assert load_config(None).filter_endpoint == "Llama 3.1 70B"


@pytest.mark.parametrize("data", [{}, {"parallelism": 2}])
def test_a_config_that_lists_no_endpoint_loads_like_no_config(tmp_path, data):
    # the default endpoints come with the default filter endpoint, not the first of them
    config = load_config(write(tmp_path, data))
    assert config.filter_endpoint == "Llama 3.1 70B"
    assert config == dataclasses.replace(load_config(None), **data)


MALFORMED = [
    ({"parallelism": "four"}, "parallelism"),
    ({"retrieval_budget": [1]}, "retrieval_budget"),
    ({"backoff_seconds": "soon"}, "backoff_seconds"),
    ({"cq_variable_mapping": {"x": "a"}}, "cq_variable_mapping"),
    ({"cq_variable_mapping": "a"}, "cq_variable_mapping"),
    ({"chunking": {"chunk_size": "big"}}, "chunking.chunk_size"),
    ({"chunking": 5}, "chunking"),
    ({"endpoints": [{"name": "M", "rate_limit_per_min": "many"}]},
     "endpoints[0].rate_limit_per_min"),
    ({"endpoints": [{"model_id": "m"}]}, "endpoints[0].name"),
    ({"endpoints": ["M"]}, "endpoints[0]"),
    ({"hardware_profile": {"cores": 4}}, "hardware_profile.power_per_core"),
    ({"hardware_profile": {"cores": "four", "power_per_core": 1}}, "hardware_profile.cores"),
    ({"endpoints": [{"name": "M"}, {"name": "N", "rate_limit_per_min": -1}]},
     "endpoints[1].rate_limit_per_min"),
    ({"endpoints": [{"name": "M", "rate_limit_per_min": 0}]},
     "endpoints[0].rate_limit_per_min"),
    ({"endpoints": [{"name": "M", "rate_limit_per_min": 2.5}]},
     "endpoints[0].rate_limit_per_min"),
    ({"parallelism": 4.7}, "parallelism"),
    ({"parallelism": True}, "parallelism"),
    ({"retrieval_budget": 1200.5}, "retrieval_budget"),
    ({"max_attempts": 2.5}, "max_attempts"),
    ({"chunking": {"chunk_size": 99.5}}, "chunking.chunk_size"),
    ({"chunking": {"chunk_overlap": 0.5}}, "chunking.chunk_overlap"),
    ({"hardware_profile": {"cores": 4.5, "power_per_core": 1}}, "hardware_profile.cores"),
    ({"filter_endpoint": "Llama 3.1 70b"}, "filter_endpoint"),
    # a value of the wrong kind
    ({"tie_rule": False}, "tie_rule"),
    ({"endpoints": [{"name": ["x"]}]}, "endpoints[0].name"),
    ({"reference_labels": ["a"]}, "reference_labels"),
    ({"backoff_seconds": True}, "backoff_seconds"),
    ({"cq_variable_mapping": {1: True}}, "cq_variable_mapping"),
    # a section that is not a mapping, or endpoints that are not a list
    ({"chunking": 0}, "chunking"),
    ({"chunking": []}, "chunking"),
    ({"hardware_profile": False}, "hardware_profile"),
    ({"hardware_profile": {}}, "hardware_profile.cores"),
    ({"endpoints": 0}, "endpoints"),
    ({"endpoints": {"a": 1}}, "endpoints"),
    # a value out of its range
    ({"tree_month_constant": 0}, "tree_month_constant"),
    ({"tree_month_constant": -0.9302}, "tree_month_constant"),
    ({"location_intensity": -0.3387}, "location_intensity"),
    # a value the section itself refuses
    ({"endpoints": [{"name": "M", "temperature": 0.5}]}, "endpoints[0]"),
    ({"chunking": {"chunk_size": 10, "chunk_overlap": 10}}, "chunking"),
    # two endpoints of one name, which every stored record is keyed by
    ({"endpoints": [{"name": "M"}, {"name": "N"}, {"name": "M"}]}, "endpoints[2].name"),
]


@pytest.mark.parametrize("data,key", MALFORMED)
def test_malformed_value_names_its_key(tmp_path, data, key):
    with pytest.raises(ConfigError) as error:
        load_config(write(tmp_path, data))
    assert re.match(rf"config key {re.escape(key)}[: ]", str(error.value))


def test_an_unquoted_yes_or_no_is_refused_with_a_hint(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("tie_rule: no\n", encoding="utf-8")
    with pytest.raises(ConfigError) as error:
        load_config(path)
    assert str(error.value) == ("config key tie_rule: cannot read False: "
                                "a boolean; quote yes/no to give a string")


# a non-default value for a field of each type but a string, which takes the
# field's name, and for the fields whose range that value falls outside;
# temperature is pinned to its default
SAMPLES = {int: 7, float: 0.5, dict[int, str]: {3: "variable"}}
RANGED = {"overlap": 3, "pue": 1.5, "tie_rule": "yes", "filter_endpoint": "name", "temperature": 0.0}


def sample(cls):
    """A config section that gives each field of ``cls`` a value other than
    its default, under the field's config key, and what it must load as."""
    kinds = typing.get_type_hints(cls)
    spec, values = {}, {}
    for f in dataclasses.fields(cls):
        kind = kinds[f.name]
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        if typing.get_origin(kind) is list:
            item_spec, item = sample(typing.get_args(kind)[0])
            written, value = [item_spec], [item]
        elif dataclasses.is_dataclass(kind):
            written, value = sample(kind)
        else:
            written = value = RANGED.get(f.name, f.name if kind is str else SAMPLES[kind])
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        assert value != default or f.name == "temperature"
        spec["chunk_overlap" if f.name == "overlap" else f.name] = written
        values[f.name] = value
    return spec, cls(**values)


def test_every_field_is_read_under_its_key_and_no_other_key_is(tmp_path, caplog):
    data, expected = sample(PipelineConfig)
    # one more key per section, in chunking the name of the field read as chunk_overlap
    data["extra"] = data["endpoints"][0]["extra"] = data["hardware_profile"]["extra"] = 1
    data["chunking"]["overlap"] = 1
    with caplog.at_level(logging.WARNING, logger="litrag.config"):
        config = load_config(write(tmp_path, data))
    assert config == expected
    assert [r.getMessage() for r in caplog.records] == [
        "unknown config key extra ignored",
        "unknown config key endpoints[0].extra ignored",
        "unknown config key chunking.overlap ignored",
        "unknown config key hardware_profile.extra ignored",
    ]


def test_the_readme_config_example_loads(tmp_path, caplog):
    readme = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Live endpoints\n.*?^```yaml\n(.*?)^```", readme, re.M | re.S)
    path = tmp_path / "config.yaml"
    path.write_text(example.group(1), encoding="utf-8")
    config = load_config(path)
    assert caplog.records == []
    assert [e.rate_limit_per_min for e in config.endpoints] == [30]
    assert config.chunking == ChunkingConfig(chunk_size=1000, overlap=50)
    assert config.retrieval_budget == 1200


@pytest.fixture
def pure_python_yaml(monkeypatch):
    """Hide libyaml's loader, as on a PyYAML built without it."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


def test_pure_python_loader_gives_the_same_config(request):
    with_libyaml = load_config(FIXTURES / "config.yaml")
    request.getfixturevalue("pure_python_yaml")
    assert load_config(FIXTURES / "config.yaml") == with_libyaml


@pytest.mark.parametrize("data,key", MALFORMED)
def test_pure_python_loader_names_the_same_key(tmp_path, request, data, key):
    with pytest.raises(ConfigError) as with_libyaml:
        load_config(write(tmp_path, data))
    request.getfixturevalue("pure_python_yaml")
    with pytest.raises(ConfigError) as pure:
        load_config(write(tmp_path, data))
    assert str(pure.value) == str(with_libyaml.value)
    assert re.match(rf"config key {re.escape(key)}[: ]", str(pure.value))


def test_a_filter_endpoint_that_names_no_endpoint_stops_all_before_any_request(tmp_path):
    data = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))
    path = write(tmp_path, {**data, "filter_endpoint": "Llama 3.1 70b"})
    workspace = tmp_path / "ws"
    result = CliRunner().invoke(main, ["all", "--config", str(path), "--workspace", str(workspace),
                                       "--mock", str(FIXTURES / "mock_responses"),
                                       "--corpus", str(FIXTURES / "mini_corpus")])
    assert result.exit_code == 1
    assert result.output == ("Error: config key filter_endpoint: 'Llama 3.1 70b' "
                             "names no configured endpoint\n")
    assert not (workspace / "answers" / "answers.jsonl").exists()


@pytest.mark.parametrize("key,value", [
    ("max_attempts", 0),
    ("parallelism", 0),
    ("retrieval_budget", -1),
    ("backoff_seconds", -0.5),
    ("tie_rule", "maybe"),
])
def test_out_of_range_value_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, {key: value}))


def test_integral_floats_and_absent_rate_limit_accepted(tmp_path):
    data = {"parallelism": 2.0, "chunking": {"chunk_size": 100.0},
            "endpoints": [{"name": "M", "rate_limit_per_min": 1}, {"name": "N"},
                          {"name": "O", "rate_limit_per_min": None}]}
    config = load_config(write(tmp_path, data))
    assert (config.parallelism, config.chunking.chunk_size) == (2, 100)
    assert [e.rate_limit_per_min for e in config.endpoints] == [1, None, None]


def test_zero_budget_and_backoff_accepted(tmp_path):
    config = load_config(write(tmp_path, {"retrieval_budget": 0, "backoff_seconds": 0}))
    assert (config.retrieval_budget, config.backoff_seconds) == (0, 0.0)


def test_zero_intensity_and_a_small_tree_month_constant_accepted(tmp_path):
    # a grid without emissions is a carbon intensity of 0; a tree-month
    # constant divides, so only 0 and below are refused
    config = load_config(write(tmp_path, {"location_intensity": 0, "tree_month_constant": 1e-9}))
    assert (config.location_intensity, config.tree_month_constant) == (0.0, 1e-9)


def test_unknown_keys_warn_once_each(tmp_path, caplog):
    data = {
        "paralellism": 8,
        "endpoints": [{"name": "M", "max_response_words": 400}],
        # not a key: chunks are always counted in whitespace words
        "chunking": {"overlap": 10, "token_unit": "character"},
        "hardware_profile": {"cores": 2, "power_per_core": 5.0, "watts": 10},
    }
    with caplog.at_level(logging.WARNING, logger="litrag.config"):
        config = load_config(write(tmp_path, data))
    assert [r.getMessage() for r in caplog.records] == [
        "unknown config key paralellism ignored",
        "unknown config key endpoints[0].max_response_words ignored",
        "unknown config key chunking.overlap ignored",
        "unknown config key chunking.token_unit ignored",
        "unknown config key hardware_profile.watts ignored",
    ]
    assert config.parallelism == PipelineConfig.parallelism
    assert config.chunking.overlap == ChunkingConfig.overlap


def test_cli_reports_a_config_error_without_traceback(tmp_path):
    path = write(tmp_path, {"max_attempts": 0})
    result = CliRunner().invoke(main, ["vote", "--config", str(path),
                                       "--workspace", str(tmp_path / "ws")])
    assert result.exit_code == 1
    assert "Error: config key max_attempts must be at least 1, got 0" in result.output


@pytest.mark.parametrize("text,message", [
    ("parallelism: [1\n", "Error: cannot read config {path}: "),
    ("- parallelism: 1\n", "Error: config {path} must be a mapping"),
], ids=["invalid-yaml", "list"])
def test_cli_reports_an_unreadable_config_without_traceback(tmp_path, text, message):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["vote", "--config", str(path),
                                       "--workspace", str(tmp_path / "ws")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(message.format(path=path)), result.output


@pytest.mark.parametrize("data,message", [
    ({"endpoints": [{"name": "M", "rate_limit_per_min": -1}]},
     "config key endpoints[0].rate_limit_per_min must be at least 1, got -1"),
    ({"endpoints": [{"name": "M", "rate_limit_per_min": 0}]},
     "config key endpoints[0].rate_limit_per_min must be at least 1, got 0"),
    ({"parallelism": 4.7}, "config key parallelism: cannot read 4.7: not an integer"),
    ({"tree_month_constant": 0}, "config key tree_month_constant must be positive, got 0.0"),
], ids=["negative-rate-limit", "zero-rate-limit", "fractional-parallelism",
        "zero-tree-month-constant"])
@pytest.mark.parametrize("stage", ["ingest", "ask", "categorize", "vote", "filter",
                                   "evaluate", "footprint", "report", "all"])
def test_every_stage_reports_a_bad_value_without_traceback(tmp_path, data, message, stage):
    needs_corpus = stage in ("ingest", "ask", "filter", "all")
    corpus = ["--corpus", str(FIXTURES / "mini_corpus")] if needs_corpus else []
    result = CliRunner().invoke(main, [stage, "--config", str(write(tmp_path, data)),
                                       "--workspace", str(tmp_path / "ws"),
                                       "--mock", str(FIXTURES / "mock_responses"), *corpus])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output


@pytest.mark.parametrize("stage", ["ingest", "ask", "categorize", "vote", "filter",
                                   "evaluate", "footprint", "report", "all"])
def test_every_stage_refuses_a_repeated_endpoint_name_without_traceback(tmp_path, stage):
    data = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))
    data["endpoints"][4]["name"] = "Mixtral 8x7B"
    workspace = tmp_path / "ws"
    needs_corpus = stage in ("ingest", "ask", "filter", "all")
    corpus = ["--corpus", str(FIXTURES / "mini_corpus")] if needs_corpus else []
    result = CliRunner().invoke(main, [stage, "--config", str(write(tmp_path, data)),
                                       "--workspace", str(workspace),
                                       "--mock", str(FIXTURES / "mock_responses"), *corpus])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("Error: config key endpoints[4].name: 'Mixtral 8x7B' "
                             "is already the name of endpoints[3]\n")
    assert not (workspace / "answers" / "answers.jsonl").exists()


def test_cli_reports_a_config_that_is_not_utf8_without_traceback(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b'tie_rule: "yes"\n# caf\xe9\n')
    result = CliRunner().invoke(main, ["vote", "--config", str(path),
                                       "--workspace", str(tmp_path / "ws")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: cannot read config {path}: "), result.output
