import pytest

import spinphase
from spinphase import models


@pytest.mark.parametrize("module", [spinphase, models], ids=["spinphase", "models"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
