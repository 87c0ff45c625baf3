"""Checkpoint round trips and malformed-file rejection."""

import struct

import numpy as np
import pytest

from blockdec.errors import CheckpointFormatError, ConfigurationError
from blockdec.models.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from blockdec.models.neural import ModelConfig, TinyBlockModel


def model_for_test(eos=11, intensity=False):
    config = ModelConfig(vocab_size=12, d_model=8, d_hidden=8, num_heads=3,
                         num_layers=2, max_context=16, sep_token=10,
                         eos_token=eos, intensity_vocab=intensity)
    return TinyBlockModel(config, seed=5)


class TestRoundTrip:
    def test_params_and_config_survive(self, tmp_path):
        model = model_for_test()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_none_eos_and_intensity_flag(self, tmp_path):
        model = model_for_test(eos=None, intensity=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.eos_token is None
        assert loaded.config.intensity_vocab is True
        assert loaded.intensity_vocab is True

    def test_scores_identical_after_round_trip(self, tmp_path):
        model = model_for_test()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        a = model.score_grid((1, 2), (3,), (4,), 3)
        b = loaded.score_grid((1, 2), (3,), (4,), 3)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_a_float64_model_is_refused(self, tmp_path):
        config = model_for_test().config
        model = TinyBlockModel(config, seed=1, dtype=np.float64)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigurationError, match="this model's are float64"):
            save_checkpoint(model, path)
        assert not path.exists()

    def test_loss_reproduced_exactly_after_reload(self, tmp_path):
        from blockdec.models.neural import TrainBatch, sub_loss, train_step

        model = model_for_test()
        batch = TrainBatch.from_pairs(
            [((1, 2), (3, 4, 11)), ((5,), (6, 7, 11))], model.config)
        for _ in range(5):
            train_step(model, batch, 1, 0.1)
        recorded = sub_loss(model, batch, 2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert sub_loss(load_checkpoint(path), batch, 2) == recorded


class TestMalformedFiles:
    def write_good(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model_for_test(), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_good(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self.write_good(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_everywhere(self, tmp_path):
        path = self.write_good(tmp_path)
        data = path.read_bytes()
        for cut in (0, 2, 4, 6, 30, 50, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_config_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        data = bytearray(path.read_bytes())
        # vocab_size field: make it 0, which no valid config allows
        data[8:12] = struct.pack("<i", 0)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="config"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        data = bytearray(path.read_bytes())
        # drop the declared parameter count by one and strip the last array
        count_off = 4 + 4 + 9 * 4
        (count,) = struct.unpack_from("<I", data, count_off)
        struct.pack_into("<I", data, count_off, count - 1)
        # walking from the end is fiddly; simply keep the header and let the
        # name/shape scan run off the remaining bytes
        path.write_bytes(bytes(data[: len(data) // 2]))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_repeated_parameter_rejected(self, tmp_path):
        """One more entry than the model has, repeating proj.w as zeros: the
        repeat is refused, not loaded over the first entry."""
        path = self.write_good(tmp_path)
        data = bytearray(path.read_bytes())
        count_off = 4 + 4 + 9 * 4
        (count,) = struct.unpack_from("<I", data, count_off)
        struct.pack_into("<I", data, count_off, count + 1)
        shape = model_for_test().params["proj.w"].shape
        data += struct.pack("<H", len(b"proj.w")) + b"proj.w" + struct.pack("<B", len(shape))
        data += struct.pack(f"<{len(shape)}I", *shape) + np.zeros(shape, dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="'proj.w' appears more than once"):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert MAGIC == b"BDKC"
