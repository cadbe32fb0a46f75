"""Run the synthetic generator into a temporary directory and read its files."""

import tempfile
from pathlib import Path

from periop.synthgen import generate_log


def synth_texts(cfg):
    """(events.csv, cases.csv, ground_truth.json) as written for ``cfg``, decoded exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        generate_log(cfg, Path(tmp))
        return tuple(
            (Path(tmp) / name).read_bytes().decode("utf-8")
            for name in ("events.csv", "cases.csv", "ground_truth.json")
        )
