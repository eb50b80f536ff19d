"""Passage corpus: tokenization, JSON-lines loading, and id lookup."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T")
_TOKEN_BYTES = bytes(ord(chr(b).lower()) if chr(b).isascii() and chr(b).isalnum() else ord(" ") for b in range(256))
WHITESPACE = re.compile(r"\s")  # matches exactly the characters str.isspace() accepts


def check_id(value: str, what: str) -> str:
    """``value``; ValueError if it is empty or has whitespace, which would split a run line."""
    if not value:
        raise ValueError(f"{what} must be non-empty")
    if WHITESPACE.search(value):
        raise ValueError(f"{what} {value!r} contains whitespace")
    return value


def check_ids(ids: list[str], what: str) -> None:
    """ValueError naming the first empty, whitespace or repeated id; only a failing test scans id by id."""
    text = "".join(ids)
    if "" in ids or sum(map(len, text.split())) != len(text):  # split() drops exactly what WHITESPACE matches
        bad = next(value for value in ids if not value or WHITESPACE.search(value))
        raise ValueError(f"{what} {bad!r} is empty or contains whitespace")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for value in ids:
            unique(value, seen, what)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase tokens.

    A token is a maximal run of ASCII alphanumeric characters; every other
    character is a separator, non-ASCII ones too: UTF-8 writes them with
    bytes >= 0x80 only, which the table maps to spaces. No stemming or stopwords.
    """
    return text.encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).decode("ascii").split()


@dataclass(frozen=True)
class Passage:
    """One searchable text unit with a whitespace-free unique id."""

    id: str
    text: str

    def __post_init__(self) -> None:
        check_id(self.id, "passage id")


class Corpus:
    """Immutable ordered collection of passages with lookup by id."""

    def __init__(self, passages: Iterable[Passage]):
        self._passages = list(passages)
        self._by_id: dict[str, Passage] = {}
        for p in self._passages:
            if p.id in self._by_id:
                raise ValueError(f"duplicate passage id {p.id!r}")
            self._by_id[p.id] = p

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id

    def __getitem__(self, passage_id: str) -> Passage:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise KeyError(f"unknown passage id {passage_id!r}") from None


def text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(1-based number, text) of each line of a UTF-8 file, decoded one line at a time."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
            yield lineno, line


def read_jsonl(path: str, record: Callable[[dict], T]) -> list[T]:
    """``record(obj)`` for each line of a JSON-lines file, one JSON object per line.

    Invalid UTF-8, bad JSON, a line that is not an object, and any KeyError,
    TypeError, ValueError or OverflowError (an integer too large for a
    float) raised by ``record`` become ``ValueError("<path>:<line>: ...")``.
    """
    out = []
    for lineno, line in text_lines(path):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            out.append(record(obj))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}:{lineno}: {problem}") from None
    return out


def write_jsonl(path: str, objects: Iterable[dict]) -> None:
    """Write one JSON object per line: UTF-8, LF endings, non-ASCII characters as they are."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


def str_fields(obj: dict, *names: str) -> tuple[str, ...]:
    """The values of ``names`` in ``obj``; TypeError unless each is a string."""
    values = tuple(obj[name] for name in names)
    for name, value in zip(names, values):
        if not isinstance(value, str):
            raise TypeError(f"{name!r} must be a string, got {type(value).__name__}")
    return values


def str_lists(obj: dict, *names: str) -> tuple[list[str], ...]:
    """The values of ``names`` in ``obj``; TypeError unless each is a list of strings."""
    for name in names:
        if not isinstance(obj[name], list) or not all(isinstance(v, str) for v in obj[name]):
            raise TypeError(f"{name!r} must be a list of strings")
    return tuple(obj[name] for name in names)


def unique(key: Hashable, seen: set, what: str) -> Hashable:
    """``key``, added to ``seen``; ValueError if it is already there."""
    if key in seen:
        raise ValueError(f"duplicate {what} {key!r}")
    seen.add(key)
    return key


def load_corpus(path: str) -> Corpus:
    """Read a JSON-lines corpus file: one {"id", "text"} object per line.

    Line order is preserved. Malformed lines are reported with their
    1-based line number; duplicate or empty ids are rejected.
    """
    seen: set[str] = set()

    def record(obj: dict) -> Passage:
        pid, text = str_fields(obj, "id", "text")
        return Passage(unique(pid, seen, "passage id"), text)

    return Corpus(read_jsonl(path, record))


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus as UTF-8 JSON-lines with LF endings."""
    write_jsonl(path, ({"id": p.id, "text": p.text} for p in corpus))
