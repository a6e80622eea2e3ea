"""RL001 corpus: lock-guarded attributes touched without the lock."""

FILES = {
    "corpus/rl001/counter.py": '''\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        with self._lock:
            self.total += 1

    def peek(self):
        return self.total


class LockedCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        with self._lock:
            self.total += 1

    def peek(self):
        with self._lock:
            return self.total
''',
    "corpus/rl001/queue.py": '''\
import threading


class Queue:
    def __init__(self):
        self._mutex = threading.Lock()
        self._deficit = {}

    def admit(self, names):
        with self._mutex:
            self._deficit["x"] = 1
            return sorted(names, key=lambda n: self._deficit.get(n, 0))

    def later(self):
        with self._mutex:
            self._deficit["y"] = 2

            def read():
                return self._deficit["y"]
            return read


class Machine:
    def __init__(self):
        self._lock = threading.Lock()
        self._states = {}
        self._scan()

    def _scan(self):
        self._states["boot"] = 1

    def set(self, key):
        with self._lock:
            self._states[key] = 1
''',
    # The torn counter snapshot RL001 found in the cache telemetry path;
    # one read carries a directive, which the raw findings ignore.
    "corpus/rl001/cache.py": '''\
import threading


class IndexedCache:
    def __init__(self):
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._slots = []

    def get(self, index):
        with self._counter_lock:
            if index < len(self._slots):
                self.hits += 1
            else:
                self.misses += 1
                self._slots.append(index)

    def counters(self):
        return {"hits": self.hits, "misses": self.misses}

    def slot(self, index):
        return self._slots[index]  # repro-lint: disable=RL001 -- disjoint slices


class Outer:
    def build(self):
        class Inner:
            def __init__(self):
                self._lock = threading.RLock()
                self.n = 0

            def bump(self):
                with self._lock:
                    self.n += 1

            def peek(self):
                return self.n

        return Inner
''',
}
