"""Driving a benchmark end to end through the library API.

Writes a synthetic dataset spec and a two-cell benchmark config to a
temporary directory, runs the grid, and prints the generated report. The
same flow is available from a shell as::

    bench synth keywords.ini -o data
    bench run bench.ini
    bench report <out-dir>
"""

import tempfile
import textwrap
from pathlib import Path

from febench.bench import load_config, load_synth_spec, run_benchmark
from febench.bench.synth import make_synthetic
from febench.text import save_dataset


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        spec_path = root / "keywords.ini"
        spec_path.write_text(textwrap.dedent("""\
            [synthetic]
            classes = 2
            train = 40
            test = 20
            vocab = 20
            doc_len = 10
            seed = 3
            """))
        dataset = make_synthetic(load_synth_spec(spec_path))
        save_dataset(dataset, root / "data")
        print(f"generated {len(dataset.train)}+{len(dataset.test)} documents")

        config_path = root / "bench.ini"
        config_path.write_text(textwrap.dedent(f"""\
            [benchmark]
            dataset = {root / 'data'}
            repeats = 2
            seed = 5
            out = {root / 'out'}
            vocab = 60

            [cell:fe]
            preset = static
            mode = FE
            epochs = 3
            batch = 10
            max_len = 14
            kernels = 2,3
            filters = 8

            [cell:fit]
            preset = static
            mode = FiT
            epochs = 3
            batch = 10
            max_len = 14
            kernels = 2,3
            filters = 8
            """))
        print(f"config hash covers {len(load_config(config_path).cells)} "
              f"cells")
        print()

        records, out_dir = run_benchmark(config_path)
        ok = not any(record["failed"] for record in records)
        print(f"all cells succeeded: {ok}")
        print()
        print((out_dir / "report.txt").read_text())


if __name__ == "__main__":
    main()
