"""``randfeeders`` at the path the benchmark's own tests read it from.

``bench/test_feedergen.py`` loads this file by path to check that the
benchmark's frozen generator still builds the suite's feeders.  The suite
itself imports ``randfeeders``: a module named ``feedergen`` imported from
``tests`` would shadow the benchmark's ``feedergen`` in one pytest session
over both directories.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "_randfeeders", Path(__file__).with_name("randfeeders.py")
)
_generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_generator)
random_context = _generator.random_context
random_feeder_doc = _generator.random_feeder_doc
