"""``python -m ubsc``: the ``ubsc`` command line."""

from . import cli

if __name__ == "__main__":
    raise SystemExit(cli.main())
