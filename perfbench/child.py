"""One benchmark run in a fresh process: ``python3 child.py SPEC_JSON``.

The spec names the generated inputs, the output directory and whether to
trace. The run itself is timed from the input files to a complete output
tree; after it, the sample corpus is loaded again several times to time
set-up on its own. Every time is reported in reference seconds (see
hostspeed.py), sampled in this process while it runs; the run's raw wall time
is kept beside them. Results go to the spec's ``result`` path as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socialminer import cli, knn  # noqa: E402
from socialminer.textprep import DEFAULT_STOPWORDS  # noqa: E402

from hostspeed import Calibrator  # noqa: E402
from tracer import Tracer, instrument, layer_metrics  # noqa: E402

REF_DATE = "2015-06-01"
# Set-up is timed at least this many times, and again until SETUP_MIN_S passed,
# so a small corpus that loads in a millisecond still gets hundreds of samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.3


def run_cli(spec: dict, span) -> None:
    out = spec["out"]
    if spec["mode"] == "run":
        steps = (
            ["run", "--input", spec["profiles"], "--corpus", spec["corpus"],
             "--ref-date", REF_DATE, "--out", out],
        )
    else:
        steps = (
            ["ingest", "--input", spec["profiles"], "--out", out],
            ["classify", "--input", f"{out}/accepted.jsonl", "--corpus", spec["corpus"], "--out", out],
            ["bin", "--input", f"{out}/classified.jsonl", "--ref-date", REF_DATE, "--out", out],
            ["arff", "--input", f"{out}/binned.jsonl", "--out", out],
            ["report", "--input", f"{out}/binned.jsonl", "--out", out],
        )
    with span("run"):
        for argv in steps:
            with span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"socialminer {argv[0]} exited with {code}")


def time_setup(corpus: str) -> list[tuple[float, float]]:
    """The wall intervals of repeated corpus loads."""
    intervals: list[tuple[float, float]] = []
    deadline = time.perf_counter() + SETUP_MIN_S
    while len(intervals) < SETUP_REPEATS or time.perf_counter() < deadline:
        start = time.perf_counter()
        knn.load_sample_corpus(corpus, DEFAULT_STOPWORDS)
        intervals.append((start, time.perf_counter()))
    return intervals


def peak_rss_kb() -> int:
    """Peak resident memory of this process image. ru_maxrss is not used on
    Linux: it keeps the high-water mark of the parent that forked us, which
    exec does not reset, so a large parent would hide the run's own peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        instrument(tracer)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    calibrator = Calibrator()
    calibrator.start()
    start = time.perf_counter()
    run_cli(spec, span)
    end = time.perf_counter()
    peak_rss_mb = peak_rss_kb() / 1024.0
    setup = time_setup(spec["corpus"]) if tracer is None else []
    calibrator.stop()

    result = {
        "run_s": calibrator.scale(start, end),
        "run_wall_s": end - start,
        "speed_factor": calibrator.factor,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        result["setup_s"] = [calibrator.scale(a, b) for a, b in setup]
    else:
        result["layers"] = layer_metrics(tracer, calibrator.scale)
        result["self_sum_s"] = sum(tracer.self_times(calibrator.scale))
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
