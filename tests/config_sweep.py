"""Single-field config sweep: each field of each shipped experiment set to
each value of a fixed set, run through in-process `main`.

A field is any path into an experiment of `configs/verify.json`,
`bench/odd-exponent.json` or `configs/falsify-dependence.json` (the configs
are read, never changed): an object key or a list entry, at any depth,
plus one misspelled key in every object.  Each mutated experiment runs
alone, at seed 0, under a 15 s alarm, with its CSVs in a temporary
directory.  A pair fails when `main` raises, runs past the alarm, returns
1 without printing a claim line (exit 1 is a failed claim, not a crash),
or does not exit 2 on a misspelled key or a value beyond every range
(+-1e308, 2^70).  The script prints each failing (config, experiment, field,
value) and the number of failing (kind, field) pairs, and exits 1 if there
is any.

Run from the repository root (it takes about 10 s on a 2-core x86-64 VM):

    PYTHONPATH=src python tests/config_sweep.py

pytest does not collect this file; `tests/test_cli.py` samples the same
cases.
"""

import contextlib
import copy
import io
import json
import signal
import sys
import tempfile
from pathlib import Path

from ddehist.cli import main as ddehist_main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (
    ROOT / "configs" / "verify.json",
    ROOT / "bench" / "odd-exponent.json",
    ROOT / "configs" / "falsify-dependence.json",
)
# Ends of every range, values just outside and far outside them, and each
# JSON type a field could wrongly hold.
VALUES = (0, -1, 0.5, 1, 2, 3, 1e-300, 1e-13, 1e6, 1e308, -1e308, 2**70, True, "1", None, [], {})
BEYOND = (1e308, -1e308, 2**70)  # outside every range: always a config error
ALARM_S = 15
TYPO = "_"  # appended to an object's first key to misspell it


def experiments():
    """(config stem, experiment) for every experiment of CONFIGS."""
    for path in CONFIGS:
        for exp in json.loads(path.read_text(encoding="utf-8"))["experiments"]:
            yield path.stem, exp


def field_paths(node, prefix=()):
    """Every key and list entry under node, outer before inner, and one
    misspelled key per object."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from field_paths(value, prefix + (key,))
        yield prefix + (next(iter(node), "") + TYPO,)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield prefix + (i,)
            yield from field_paths(value, prefix + (i,))


def mutated(exp, path, value):
    """A copy of exp with the field at path set to value."""
    out = copy.deepcopy(exp)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return out


class _Alarm(Exception):
    pass


def _ring(signum, frame):
    raise _Alarm


def run(exp, out_dir):
    """(exit code, stdout) of `ddehist verify` on exp alone, or (None, the
    exception) when it raised or outran the alarm."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"experiments": [exp]}, fh)
    stdout = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = ddehist_main(["verify", "--config", fh.name, "--seed", "0", "--out", out_dir])
    except Exception as exc:  # every escape is a finding
        return None, exc if not isinstance(exc, _Alarm) else f"no exit within {ALARM_S} s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        Path(fh.name).unlink()
    return code, stdout.getvalue()


def refused(exp, path, value):
    """Whether setting path of exp to value must be a config error: the key
    is misspelled, or the value is beyond every range."""
    node = exp
    for key in path[:-1]:
        node = node[key]
    misspelled = isinstance(node, dict) and path[-1] not in node
    return misspelled or any(value == v and type(value) is type(v) for v in BEYOND)


def failure(code, output, must_refuse):
    """Why a run fails the sweep's property, or None."""
    if code is None:
        return f"raised {output!r}"
    if code not in (0, 1, 2) or (must_refuse and code != 2):
        return f"exit {code}"
    if code == 1 and not any(line.startswith(("PASS ", "FAIL ")) for line in output.splitlines()):
        return "exit 1 without a claim line"
    return None


def main() -> int:
    seen, pairs, count = set(), set(), 0
    with tempfile.TemporaryDirectory() as out_dir:
        for stem, exp in experiments():
            for path in field_paths(exp):
                for value in VALUES:
                    case = mutated(exp, path, value)
                    text = json.dumps(case, sort_keys=True)
                    if text in seen:
                        continue
                    seen.add(text)
                    count += 1
                    why = failure(*run(case, out_dir), refused(exp, path, value))
                    if why:
                        field = ".".join(str(key) for key in path)
                        pairs.add((exp["kind"], field))
                        print(f"{stem} {exp['name']} {field} = {value!r}: {why}", flush=True)
    print(f"{count} configs, {len(pairs)} failing (kind, field) pairs")
    return 1 if pairs else 0


if __name__ == "__main__":
    sys.exit(main())
