"""Start-up hook of the processes of a traced round.

A traced round puts this directory first on ``PYTHONPATH`` and names a
recording mode in ``PERFBENCH_TRACE`` (see ``rounds.child_env``).
Python imports this module at start-up in every process of the round,
which then records until it exits (see ``perfbench_recorder.py``).
"""

import os

if os.environ.get("PERFBENCH_TRACE"):
    import perfbench_recorder

    perfbench_recorder.start(os.environ["PERFBENCH_TRACE"],
                             os.environ["PERFBENCH_TRACE_OUT"])
