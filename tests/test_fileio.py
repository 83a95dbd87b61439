"""Files the package writes are whole or absent: a write that fails partway
keeps the previous file and leaves no temporary file."""

import errno
import wave

import numpy as np
import pytest

from conftest import micro_config
from kwslab import dsp, metrics
from kwslab.taskstream import ClipRef
from kwslab.trainer import stream_for


def no_space():
    return OSError(errno.ENOSPC, "No space left on device")


def write_manifest(path, fail, monkeypatch):
    cfg = micro_config()
    stream = stream_for(cfg.seed, cfg.stream)
    if fail:  # the tasks are dumped last, after the rest of the manifest
        stream.tasks[-1].test.append(ClipRef(object(), "unserializable"))
    stream.save_manifest(path)


def write_csv(path, fail, monkeypatch):
    def rows():
        yield [0, 1.0]
        if fail:
            raise no_space()
        yield [1, 0.5]

    metrics._write_csv(path, ["tasks_learned", "acc"], rows())


def write_wav(path, fail, monkeypatch):
    if fail:
        def writeframes(self, data):
            self.writeframesraw(data[: len(data) // 2])
            raise no_space()

        monkeypatch.setattr(wave.Wave_write, "writeframes", writeframes)
    dsp.write_wav(path, np.linspace(-1.0, 1.0, 800))


@pytest.mark.parametrize("name, write, raised", [
    ("stream.json", write_manifest, TypeError),
    ("matrix.csv", write_csv, OSError),
    ("clip.wav", write_wav, OSError),
], ids=["manifest", "csv", "wav"])
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, name, write, raised):
    path = tmp_path / name
    write(path, False, monkeypatch)
    before = path.read_bytes()
    with pytest.raises(raised):
        write(path, True, monkeypatch)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
