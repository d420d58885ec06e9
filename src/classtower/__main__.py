"""``python -m classtower``, ``python -m classtower.cli`` and the ``classtower`` script: the
command line of ``classtower.cli``.

cli is imported inside the try, so a SIGINT that lands while the command line loads exits 130
with cli's one stderr line, as one that lands in cli.main does.  Once the exit code is known,
SIGINT is ignored, so an interrupt on the way out (after main returns, or in an atexit
callback) leaves that code and stderr as they are."""
import signal
import sys


def main() -> int:
    try:
        from .cli import main as cli_main

        code = cli_main()
    except KeyboardInterrupt:
        try:  # a closed or failing stderr drops the line, as in cli.main
            sys.stderr.write("interrupted\n")
        except (AttributeError, OSError):
            pass
        code = 130  # cli.EXIT_INTERRUPTED, which may not be loaded yet
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
