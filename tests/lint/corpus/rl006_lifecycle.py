"""RL006 corpus: OS-backed resources created without a release path."""

FILES = {
    "corpus/rl006/owners.py": '''\
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor


class Runner:
    def start(self):
        if self.ready:
            self._procs = ProcessPoolExecutor(max_workers=2)
        self._pool = ThreadPoolExecutor(max_workers=2)

    def restart(self):
        self._pool = ThreadPoolExecutor(max_workers=4)


class ClosingRunner:
    def start(self):
        self._pool = ThreadPoolExecutor(max_workers=2)

    def close(self):
        self._pool.shutdown()


class Factory:
    def build(self):
        class Worker:
            def start(self):
                self._pool = ThreadPoolExecutor(max_workers=1)

        return Worker
''',
    "corpus/rl006/sites.py": '''\
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from multiprocessing.shared_memory import SharedMemory

SEGMENT = SharedMemory(create=True, size=64)


def leak():
    segment = SharedMemory(create=True, size=64)
    return segment.name


def bare():
    ThreadPoolExecutor(max_workers=2)


def managed():
    with ThreadPoolExecutor(max_workers=2) as pool:
        pool.submit(print)


def closed():
    segment = SharedMemory(create=True, size=64)
    try:
        return bytes(segment.buf[:1])
    finally:
        segment.close()


def handed_over(stack):
    segment = SharedMemory(create=True, size=64)
    stack.callback(segment)
    return segment


def tracked(track_resource):
    track_resource(SharedMemory(create=True, size=64))


def wrapped():
    segment = SharedMemory(create=True, size=64)
    with closing(segment):
        pass


def factory():
    segment = SharedMemory(create=True, size=64)
    return segment


def passed(run):
    run(SharedMemory(create=True, size=64))
    run(segment=SharedMemory(create=True, size=64))


def fixture():
    pool = ThreadPoolExecutor(max_workers=1)
    yield pool


def deferred():
    make = lambda: SharedMemory(create=True, size=64)  # noqa: E731

    def inner():
        return ThreadPoolExecutor(max_workers=1).submit(print)

    return make, inner
''',
}
