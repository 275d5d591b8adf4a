"""Child process for structure-cli: does what the quivlat console script does.

usage: python3 perfbench/cli_driver.py SPANS VERB [ARGS...]

With SPANS "-" it only runs quivlat.cli.main.  Otherwise it records spans
for the whole driver, the import of quivlat.cli, cli.main and every traced
library boundary below it, and writes them to SPANS before exiting.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    if spans == "-":
        from quivlat.cli import main as cli_main
        return cli_main(argv)
    import tracing
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    root = tracer.open(tracer.name_id("cli.driver"))
    tracer.start[root] = T0
    imp = tracer.open(tracer.name_id("cli.import"))
    from quivlat.cli import main as cli_main
    tracer.close(imp)
    tracing.install(tracer)
    try:
        return tracer.wrap(cli_main, "cli.main")(argv)
    finally:
        tracer.close(root)
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
