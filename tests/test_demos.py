"""Every script in demos/ runs to the end and writes only inside its working directory."""

import builtins
import io
import os
import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_writes_only_in_its_directory(path, tmp_path, monkeypatch, capsys):
    root = tmp_path.resolve()
    real_open = builtins.open
    written = []

    def recording_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and any(c in mode for c in "wax+"):
            written.append(pathlib.Path(os.fsdecode(file)).resolve())
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)  # pathlib opens through io.open
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    monkeypatch.chdir(root)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    assert set(written) <= set(root.rglob("*"))
