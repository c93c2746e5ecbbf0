"""Run configuration validation and hashing."""

import numpy as np
import pytest

import quiverlim as ql


def test_defaults():
    cfg = ql.RunConfig()
    assert cfg.quiver_file == "tstar-p1"
    assert cfg.seed == 0
    assert cfg.r_grid == (0.4, 0.2, 0.1, 0.05)
    assert cfg.hbar_grid == (1.0, 0.5)


def test_validation():
    with pytest.raises(ValueError):
        ql.RunConfig(seed=-1)
    with pytest.raises(ValueError):
        ql.RunConfig(max_len=0)
    with pytest.raises(ValueError):
        ql.RunConfig(r_grid=())
    with pytest.raises(ValueError):
        ql.RunConfig(r_grid=(0.1, 0.2))
    with pytest.raises(ValueError):
        ql.RunConfig(hbar_grid=(1.0, -0.5))
    for bad in ((float("inf"), 0.1), (0.4, float("nan")), (float("nan"),)):
        with pytest.raises(ValueError, match="r_grid entries must be finite"):
            ql.RunConfig(r_grid=bad)
        with pytest.raises(ValueError, match="hbar_grid entries must be finite"):
            ql.RunConfig(hbar_grid=bad)


def test_integral_fields_refuse_other_numbers():
    # a float, even a whole one, or a bool is refused by name instead of
    # being truncated to an integer; numpy integers are integers
    for field in ("seed", "max_len"):
        for bad in (1.5, 2.0, True):
            with pytest.raises(ValueError, match=field):
                ql.RunConfig(**{field: bad})
        with pytest.raises(ValueError, match=field):
            ql.RunConfig.from_dict({field: 2.9})
        cfg = ql.RunConfig(**{field: np.int64(3)})
        assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int


def test_digest_stable_and_destination_free():
    a = ql.RunConfig(quiver_file="a2-star", seed=3, output_dir="/tmp/x")
    b = ql.RunConfig(quiver_file="a2-star", seed=3, output_dir="/tmp/y")
    assert a.digest() == b.digest()
    c = ql.RunConfig(quiver_file="a2-star", seed=4)
    assert a.digest() != c.digest()
    assert len(a.digest()) == 64


def test_round_trip():
    a = ql.RunConfig(quiver_file="a3-star", seed=12, max_len=3)
    b = ql.RunConfig.from_dict(a.to_dict())
    assert a == b


def test_from_dict_rejects_unknown():
    # a config dict that still carries the removed tol is refused by name
    for data, name in (({"seed": 0, "typo_field": 1}, "typo_field"),
                       ({"tol": 1e-10}, "tol")):
        with pytest.raises(ValueError, match=name):
            ql.RunConfig.from_dict(data)
