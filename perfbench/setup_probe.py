"""Set-up work a fresh CLI process pays before its first result.

Reads {"src": path, "configs": [text, ...], "models": [kind, ...]} as JSON
on stdin, imports anosovlab (numpy and scipy with it), parses every config
and builds every model.  `run.py` times this whole process from outside.
The host speed is sampled from the first line on, with the standard-library
kernel only (see `speed.py`); the kernel's mean time and the sampler's own
time are printed as JSON on stdout.
"""

import speed

sampler = speed.Sampler(kernels=("python",))
sampler.start()

import json  # noqa: E402
import sys  # noqa: E402

job = json.load(sys.stdin)
sys.path.insert(0, job["src"])

from anosovlab import expcli, systems  # noqa: E402

specs = [expcli.parse_config(text).system for text in job["configs"]]
specs += [systems.SystemSpec(kind, {}) for kind in job["models"]]
for spec in specs:
    systems.make_system(spec)
sampler.stop()
print(json.dumps({"kernel_s": sampler.means(), "own_s": sampler.own}))
