"""Test-session settings: no bytecode is written, so a test run leaves no
``__pycache__`` beside the sources (``src/``) that a later benchmark or
import would read in place of them."""

import sys

sys.dont_write_bytecode = True
