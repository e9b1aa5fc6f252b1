"""Package-wide :mod:`logging` setup for the ``repro`` logger tree.

Library rule: ``repro`` never configures the root logger and never
prints.  Importing :mod:`repro` attaches a :class:`logging.NullHandler`
to the ``"repro"`` logger (via this module), so library warnings — e.g.
the unavailable-backend fallback in :mod:`repro.ising.kernels` — are
silent unless the *application* opts in.

The CLI opts in through :func:`configure_logging`, driven by its
``-v/--verbose`` and ``-q/--quiet`` flags::

    verbosity <= -1   ERROR
    verbosity ==  0   WARNING   (CLI default)
    verbosity ==  1   INFO
    verbosity >=  2   DEBUG

``configure_logging`` is idempotent: it owns exactly one stream handler
on the ``repro`` logger (tagged, replaced on reconfiguration), so
repeated CLI invocations in one process never stack handlers.
"""

from __future__ import annotations

import logging
from typing import Optional, TextIO

__all__ = [
    "ROOT_LOGGER_NAME",
    "get_logger",
    "configure_logging",
]

ROOT_LOGGER_NAME = "repro"

#: marker attribute identifying the handler this module manages
_HANDLER_TAG = "_repro_cli_handler"

# library default: silence unless the application configures logging
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger in the ``repro`` tree (``repro`` itself when unnamed)."""
    if name is None or name == ROOT_LOGGER_NAME:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-v``/``-q`` count difference to a logging level."""
    if verbosity <= -1:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(
    verbosity: int = 0, stream: Optional[TextIO] = None
) -> logging.Logger:
    """(Re)configure the ``repro`` logger for application/CLI use.

    Installs a single stderr (or ``stream``) handler at the level
    implied by ``verbosity`` and returns the configured logger.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    level = verbosity_to_level(verbosity)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    setattr(handler, _HANDLER_TAG, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger
