import io

import pytest

from treecast.experiment import ConfigError, load_config


def test_load_config_rejects_scheme_that_does_not_fit_tree():
    text = "tree: {fan_out: 3, levels: 2}\nmapping: {capacity: 100}\nschemes: [symbol]\n"
    with pytest.raises(ConfigError) as info:
        load_config(io.StringIO(text))
    assert any(e.startswith("schemes") for e in info.value.errors)
    config = load_config(io.StringIO(text.replace("symbol", "hbs")))
    assert config.tree.core_count == 9
