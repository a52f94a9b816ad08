"""Weight-file format round-trips and corruption handling."""

import numpy as np
import pytest

from febench.serialization import (MAGIC, WeightFormatError, load_tensor_map,
                                   save_tensor_map)


@pytest.fixture
def sample():
    rng = np.random.default_rng(5)
    return {
        "alpha.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "alpha.bias": rng.normal(size=4).astype(np.float32),
        "beta": rng.normal(size=(2, 2, 2)).astype(np.float32),
        "scalarish": np.float32(2.5).reshape(()),
    }


class TestRoundTrip:
    def test_values_and_shapes(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        loaded = load_tensor_map(path)
        assert set(loaded) == set(sample)
        for name in sample:
            np.testing.assert_array_equal(loaded[name], sample[name])
            assert loaded[name].dtype == np.float32

    def test_same_map_same_bytes(self, tmp_path, sample):
        """Name-sorted header order makes serialization order-independent."""
        a, b = tmp_path / "a.feb", tmp_path / "b.feb"
        save_tensor_map(sample, a)
        save_tensor_map(dict(reversed(list(sample.items()))), b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_prefix(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        assert path.read_bytes()[:4] == MAGIC

    def test_empty_map(self, tmp_path):
        path = tmp_path / "w.feb"
        save_tensor_map({}, path)
        assert load_tensor_map(path) == {}


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.feb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(WeightFormatError, match="magic"):
            load_tensor_map(path)

    def test_bad_version(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="version"):
            load_tensor_map(path)

    def test_truncated_payload(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(WeightFormatError, match="shorter than header"):
            load_tensor_map(path)

    def test_truncated_header(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_tensor_map(path)

    def test_trailing_garbage(self, tmp_path, sample):
        path = tmp_path / "w.feb"
        save_tensor_map(sample, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(WeightFormatError, match="trailing"):
            load_tensor_map(path)

    @pytest.mark.parametrize("name, match", [(b"a", "repeated tensor name 'a'"),
                                             (b"\xff", "not UTF-8")])
    def test_bad_second_name(self, tmp_path, name, match):
        """A second entry named like the first, or not in UTF-8, is refused
        rather than overwriting the first payload or escaping as a
        UnicodeDecodeError."""
        path = tmp_path / "w.feb"
        save_tensor_map({"a": np.ones(2, np.float32),
                         "b": np.zeros(2, np.float32)}, path)
        blob = path.read_bytes()
        entry = b"\x01\x00b"  # u16 length 1, then the name
        assert blob.count(entry) == 1
        path.write_bytes(blob.replace(entry, b"\x01\x00" + name))
        with pytest.raises(WeightFormatError, match=match) as info:
            load_tensor_map(path)
        assert str(path) in str(info.value)
