"""``python -m classtower`` and the ``classtower`` script: the command line of ``classtower.cli``.

cli is imported inside the try, so a SIGINT that lands while the command line loads exits 130
with cli's one stderr line, as one that lands in cli.main does."""
import sys


def main() -> int:
    try:
        from .cli import main as cli_main

        return cli_main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # cli.EXIT_INTERRUPTED, which may not be loaded yet


if __name__ == "__main__":
    raise SystemExit(main())
