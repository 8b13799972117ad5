"""``python3 -m thetawell ...``: the ``thetawell`` command (``thetawell.cli``), runnable from a checkout."""

from thetawell.cli import main

__all__: list[str] = []  # an entry point, not an API

if __name__ == "__main__":
    raise SystemExit(main())
