"""Run every pinned CLI document and check it exactly.

Each row of `PINS` is one `schurkit` job with its exit code, the sha256 of
its stdout, its exact stderr lines and, on some rows, a timeout and a bound
on peak RSS.  Each row runs as its own `python -O` child with
`PYTHONPATH=src` (and no `SCHURKIT_MAX_DIM`), which applies the row's fault,
if any, and calls `cli.run`; its exit status and peak RSS come from
`os.wait4`, and it is killed at its timeout.  One line is printed per row,
and the exit code is 1 if any row fails:  python tools/pins.py
"""

import collections
import hashlib
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN = "import sys\nfrom schurkit import cli\nsys.exit(cli.run(sys.argv[1:]))\n"

FAULTS = {
    # one entry of the natural module's e_1 doubled, applied in the child before cli.run
    "doubled e_1": """
from schurkit import replinalg
real = replinalg.natural_rep
def doubled_entry(lt):
    rep = real(lt)
    e = list(rep.e)
    (i, j, v), *_ = sorted(e[0].iter_entries())
    e[0] = e[0] + replinalg.ExactMatrix.unit(rep.dim, i, j, v)
    rep.e = tuple(e)
    return rep
replinalg.natural_rep = doubled_entry
""",
}

# argv (split at spaces), stdout sha256, exit code, stderr lines, fault, timeout in s, peak-RSS bound in MiB
Pin = collections.namedtuple("Pin", "argv digest code stderr fault timeout rss_mib", defaults=(0, (), None, None, None))

PINS = [
    # both presentations on the rank-4 towers: B4 dim 7381, C4 and D4 dim 4161
    Pin("verify B 4 4 --presentation serre --max-dim 10000",
        "906d86cc1b602531fdfab0394125025ce5efcbb3037badd89ac94987a3f2cdac"),
    Pin("verify B 4 4 --presentation idempotent --max-dim 10000",
        "39491e788ebf4a5d9ad8bb8a7652d17f34ca8aaf897c0387f8095526d7951e42"),
    Pin("verify C 4 4 --presentation serre --max-dim 5000",
        "b59b2c096755d7334b757a2dedc3b60ebc84722520ff9a97f0f74f22e1ba58b7"),
    Pin("verify C 4 4 --presentation idempotent --max-dim 5000",
        "47f62c03ea820a49d09212da858e57cbea88caf9e4c5c3618b6bd3eb0c64f6fa"),
    Pin("verify D 4 4 --presentation serre --max-dim 5000",
        "b12b287c44b176f38d443f006dc0ca0683ebb6a69574414d498242771cd7a535"),
    Pin("verify D 4 4 --presentation idempotent --max-dim 5000",
        "ef4cb3df97014982efe9c9adec3a986125b5e3e1eb7d9ecfacd205e6ebc67da6"),
    # the dim-19608 B3 r=5 tower, where the orbit rows are 792 of 19608
    Pin("verify B 3 5 --presentation idempotent --max-dim 20000",
        "d6ae3e811d54c7b1771171d217143e6924dc7c737c47d4c2b861e36bf3e65d07"),
    Pin("verify B 3 5 --presentation serre --max-dim 20000",
        "2eb5b9ebdb132bbb1af0defcf9b08adcd2ae1e8251444f41dd1c7576ec4f44cc"),
    # the dim-66430 B4 r=5 tower; spawned on x86-64 Linux: 126.7 MiB on 3.10, 130.4 MiB on 3.11
    Pin("verify B 4 5 --presentation serre --max-dim 100000",
        "94fb40975a9d96acce360b599a15121c9cdcc79e874fae6dfb419f1f37b77903", rss_mib=210),
    # the one path where a residual is nonzero: both presentations fail on the B3 r=4 tower (B2, R2)
    Pin("verify B 3 4 --presentation serre", "236f66ad3f659eae8de32343be80cb9ef91a6c15845b390a5ce75242ada5af9d",
        1, ("FAIL: relation B2",), "doubled e_1"),
    Pin("verify B 3 4 --presentation idempotent", "37402e8055c22b79d521def6b545076c2cfc53b1302d60e6476e5ba9b704e2db",
        1, ("FAIL: relation R2",), "doubled e_1"),
    Pin("closure C 2 2", "4e0caafdfbcc66a1026102798272df8d45e77159fc327b731f1e376ace876e47", 1, (
        "FAIL: closure dimension vs squared-dimension sum"
        " (tower: dim 1_mu A 1_mu' = 4 at (mu, mu')=((1, 1), (0, 0)), expected 3)",), "doubled e_1"),
    Pin("classify-b 6 8", "9cf30cae615239c6de2c63eab0f795275f2d3e7605eaf18523a5ad9d7cf9dfdd"),
    Pin("zero-locus B 6 6", "24280b5811fd550a71a9c295a9ed82817d90d4186ea9817970e4ab60686ecb4c", timeout=60),
    Pin("census C 4 6", "e9ac9035965346a43168595a05b87cf22efa379f687762fe1d3441f1a4ee593e"),
    Pin("census B 3 5", "0e9b551b1ea41a83e2cfa88d520a6dce0765b095e76d8aefd1cd504b14d24c4c"),
    Pin("compare D 4 5", "138f5fbfeda8f8316d7b312fe9b4e7c6061233c48b64e79243147b0817da1cdb"),
    Pin("crystal D 4 --lambda 2,1,1,-1", "61be1580f41273f1d30be28e5d55c0052fc7391e2faa58da5b3ef475d5ca77d5"),
    Pin("census D 5 3", "3bfae1db57638b614b3cd130eb268e601f6b50d9893e4cd9d097d09f851f78d8"),
    Pin("closure B 3 3", "c4b8ee2583da16d54737f75a1cd3697eb9f401b639edfd7930fc2c4d49a38ed4"),
    Pin("closure C 3 4", "9eee1eadeb051931332c718f78985cba9192134487bed80ffd50b8fa6fca4ae9", timeout=60),
    Pin("closure B 3 4", "ac32f67178091c50acca469274b881aa551b172946f859bada681bb9673bb69f", timeout=120),
    Pin("closure D 4 4 --max-dim 5000",
        "dd530892110fafb0703adb3fab2e6e101717683a817c710ccf88c21f0ea9b04d", timeout=120),
    # one closure of the dim-7381 tower; spawned on x86-64 Linux: 166.0 MiB on 3.10, 167.8 MiB on 3.11
    Pin("closure B 4 4 --max-dim 10000",
        "c2ab9daf2328dd2a97081bfd65877375231f40e613fe7882b637d01eab672c16", timeout=120, rss_mib=230),
    # the commands and formats the rows above leave out
    Pin("weights C 3 3", "b3abb9b58587a82c10aaa1b85f0dec1fe9d1ce3f65532bc2935e5d57843f0764"),
    Pin("pi0 B 3 4", "618848f5aefeb7a8fb531dd4dafc7fab9390d81aa1cb005646a1ed75b33ef22a"),
    Pin("dims B 3 4", "50756d5b607adede3a11bd41babb47875609b238c385418f6448e3ac43d253c1"),
    Pin("idempotents B 3 4", "78a8edb7b80b4e0069230298d2cc193ec0fa8b486c2774637c5f0f10bacbed13"),
    Pin("closure C 2 3 --format csv", "c374276cb067146713f3761e651651a7c52925e64f8d0b4f000098d9ef7fbc39"),
    Pin("verify C 2 2 --presentation serre --format text",
        "905dacae34854926517486371e255eaa2feaf52b393714ce7bfc5171a4515b15"),
]


def check(pin):
    """(problems, wall seconds, peak RSS in MiB) for one spawned run of a row; no problem means it passed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SCHURKIT_MAX_DIM", None)
    argv = [sys.executable, "-O", "-c", FAULTS.get(pin.fault, "") + RUN, *pin.argv.split()]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        streams = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=streams)
        deadline = start + pin.timeout if pin.timeout is not None else float("inf")
        while not (waited := os.wait4(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.002)
        killed = not waited[0]
        if killed:
            os.kill(pid, signal.SIGKILL)
            waited = os.wait4(pid, 0)
        _, status, usage = waited
        wall = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
        stderr = tuple(err.read().decode().splitlines())
    peak = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    code = os.waitstatus_to_exitcode(status)
    problems = [f"killed at its {pin.timeout} s timeout"] if killed else []
    problems += [f"exit {code}, expected {pin.code}"] if code != pin.code else []
    problems += [f"digest {digest}"] if digest != pin.digest else []
    problems += [f"stderr {stderr}"] if stderr != pin.stderr else []
    problems += [f"peak RSS over {pin.rss_mib} MiB"] if pin.rss_mib is not None and peak > pin.rss_mib else []
    return problems, wall, peak


def main():
    if sys.argv[1:]:
        sys.exit("usage: python tools/pins.py  (no arguments)")
    failed = 0
    for pin in PINS:
        problems, wall, peak = check(pin)
        failed += bool(problems)
        label = pin.argv + (f" [{pin.fault}]" if pin.fault else "")
        details = "".join(f"\n      {problem}" for problem in problems)
        print(f"{'FAIL' if problems else 'ok':4}  {wall:6.2f} s  {peak:6.1f} MiB  {label}{details}", flush=True)
    print(f"{len(PINS) - failed} of {len(PINS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
