"""RL002 corpus: durable state written without tmp+rename, stray appends."""

FILES = {
    "corpus/rl002/save.py": '''\
import json
import os

with open("status.json", "w") as boot:
    boot.write("{}")


def save(state, root):
    with open(root + "/active.json", "w") as stream:
        json.dump(state, stream)


def save_text(state, path):
    path = path + "/state.json"
    path.write_text(state)


def write_baseline(payload, path):
    with open(path, "w") as stream:
        json.dump(payload, stream)


def save_atomically(state, root):
    path = root + "/active.json"
    tmp = path + ".tmp"
    with open(tmp, "w") as stream:
        json.dump(state, stream)
    os.replace(tmp, path)


def append_audit(record, root):
    fd = os.open(root + "/audit.jsonl", os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, record)
    finally:
        os.close(fd)


def scratch(data, path):
    with open(path + "/scratch.txt", "w") as stream:
        stream.write(data)


def outer(root):
    def inner(state):
        with open(root + "/audit.jsonl", "w") as stream:
            stream.write(state)

    later = lambda: open(root + "/active.json", "w")  # noqa: E731
    return inner, later


class Store:
    marker = open("baseline.json", "w")

    def flush(self, text):
        open(self.root + "/contracts.json", mode="w").write(text)
''',
    # The append-mode opens product code may make only in repro/durable.py.
    "corpus/repro/core/appends.py": '''\
import io
import os


def append_record(record, path):
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, record)
    finally:
        os.close(fd)


def append_text(record, path):
    with open(path, "a") as stream:
        stream.write(record)


def append_file(path):
    return io.FileIO(path, "a")


def append_audit(record, root):
    with open(root + "/audit.jsonl", "a") as stream:
        stream.write(record)
''',
}
