"""Console entry: cli.main, with one BLAS thread unless set (README)."""

import os


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before cli, and so numpy, loads
    from floorsurvey.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
