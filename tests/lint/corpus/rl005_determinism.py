"""RL005 corpus: ambient time and randomness on a replay path."""

FILES = {
    "corpus/repro/replay/bad.py": '''\
import datetime
import os
import random
import secrets
import time
import uuid


def decide(keys):
    started = time.time()
    jitter = random.random()
    stamp = datetime.datetime.now()
    token = uuid.uuid4()
    salt = os.urandom(4) + secrets.token_bytes(4)
    rng = random.Random()
    out = []
    for key in set(keys):
        out.append(key)
    ordered = [k for k in {1, 2, 3}]
    counts = {k: 1 for k in set(keys)}
    return started, jitter, stamp, token, salt, rng, out, ordered, counts


class Replayer:
    pick = staticmethod(lambda items: random.choice(items))
''',
    "corpus/repro/replay/good.py": '''\
import random
import time


def decide(clock, seed, keys):
    started = time.perf_counter()
    rng = random.Random(seed)
    now = clock()
    for key in sorted(set(keys)):
        rng.shuffle
    return started, now
''',
    "corpus/repro/core/elsewhere.py": '''\
import time


def now():
    return time.time()
''',
}
