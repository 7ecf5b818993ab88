"""Seeded, offline generator of the benchmark's inputs.

From one integer seed it makes:

- a synthetic Java code base whose identifiers come from a Zipf-distributed
  vocabulary, so term document frequencies vary and IDF weights are not zero;
- a chain of versions, each made from the previous one by a seeded changeset
  of about 1-2% of the files (added, modified, deleted and renamed files);
- bug reports that quote identifiers of their ground-truth file(s);
- one scripted chat replay per bug, in the replay format of the README, that
  mixes the five exploration tools and ends with a planted final answer;
- the ranking that answer must resolve to (exact, basename-Jaccard or
  dropped claims), computed here independently of the program.

Everything depends only on the seed and the size arguments; nothing is
downloaded and no clock is read.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

MAX_ITERATIONS = 10  # the agent's default iteration cap; forced-final replays use all of it
FINAL_LIST_SIZE = 10

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_JAVA_WORDS = {
    "do", "if", "for", "new", "int", "try", "case", "else", "enum", "goto", "long", "null",
    "this", "true", "void", "byte", "char", "final", "float", "short", "super", "throw",
    "while", "break", "catch", "class", "const", "false", "native", "public", "return",
    "static", "switch", "throws", "double", "import", "package", "private", "boolean",
    "default", "extends", "finally", "abstract", "continue", "interface", "protected",
    "transient", "volatile", "strictfp", "assert", "record", "yield", "var",
}
VERBS = (
    "get", "set", "is", "create", "update", "remove", "find", "load", "save", "parse",
    "build", "handle", "compute", "apply", "check", "init", "reset", "open", "close",
    "read", "write", "convert", "resolve", "validate", "process", "render", "register",
    "dispatch", "notify", "merge",
)
SUFFIXES = (
    "Manager", "Handler", "Parser", "Service", "Factory", "Util", "Provider", "Builder",
    "Reader", "Writer", "Cache", "Controller", "Model", "View", "Listener", "Adapter",
    "Config", "Context", "Registry", "Validator",
)
# Names shared by many classes, as getters and Object overrides are in real code.
COMMON_METHODS = ("toString", "hashCode", "equals", "getId", "getName", "size", "isEmpty", "clear")
# Basenames that recur across packages, so some basename lookups are ambiguous.
SHARED_BASENAMES = ("Constants", "Messages", "Utils", "Activator", "Helper")
TYPES = ("int", "long", "boolean", "String", "Object", "double")
SYMPTOMS = (
    "throws NullPointerException", "returns a stale value", "hangs forever",
    "loses the last entry", "reports the wrong size", "fails after a reload",
    "ignores the configured limit", "corrupts the output",
)

TOOL_NAMES = (
    "search_file", "search_method", "get_candidate_filenames",
    "get_method_signatures_of_a_file", "get_method_body",
)


def camel_split(word: str) -> list[str]:
    return re.findall(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+", word)


def path_tokens(path: str) -> set[str]:
    """Lowercased camelCase parts of every '/'- or '.'-separated path segment."""
    return {part.lower() for seg in path.replace(".", "/").split("/") for part in camel_split(seg)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def expected_resolution(claims: list[str], files: set[str]) -> list[str]:
    """The ranked list the documented resolution rules give for `claims`:
    an existing path is kept; otherwise the same-basename file with the
    highest path-token Jaccard similarity wins (ascending path on ties);
    a claim with no same-basename file is dropped. Duplicates collapse to
    their first rank and the list is cut at FINAL_LIST_SIZE."""
    by_base: dict[str, list[str]] = {}
    for path in sorted(files):
        by_base.setdefault(path.rsplit("/", 1)[-1], []).append(path)
    out: list[str] = []
    for claim in claims:
        if claim in files:
            resolved = claim
        else:
            candidates = by_base.get(claim.rsplit("/", 1)[-1])
            if not candidates:
                continue
            tokens = path_tokens(claim)
            best = max(jaccard(tokens, path_tokens(p)) for p in candidates)
            resolved = next(p for p in candidates if jaccard(tokens, path_tokens(p)) == best)
        if resolved not in out and len(out) < FINAL_LIST_SIZE:
            out.append(resolved)
    return out


class Zipf:
    """Draws items with probability proportional to 1 / rank**exponent."""

    def __init__(self, items: list[str], exponent: float = 1.05):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r ** exponent) for r in range(1, len(items) + 1)))

    def draw(self, rng: random.Random, k: int = 1) -> list[str]:
        return rng.choices(self.items, cum_weights=self.cum, k=k)


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.choice((2, 2, 3)))
        )
        if word not in seen and word not in _JAVA_WORDS:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class JavaMethod:
    name: str
    returns: str
    params: tuple[tuple[str, str], ...]
    statements: tuple[str, ...]

    def render(self) -> str:
        params = ", ".join(f"{t} {n}" for t, n in self.params)
        body = "\n".join(f"        {s}" for s in self.statements)
        return f"    public {self.returns} {self.name}({params}) {{\n{body}\n    }}"


@dataclass
class JavaFile:
    package: str  # dotted
    class_name: str
    methods: list[JavaMethod]
    topic: tuple[str, ...]  # words this class uses far more often than others do
    path: str = ""  # where the file lives; a moved file keeps its package line

    def __post_init__(self):
        if not self.path:
            self.path = self.package.replace(".", "/") + f"/{self.class_name}.java"

    def render(self) -> str:
        methods = "\n\n".join(m.render() for m in self.methods)
        return (
            f"package {self.package};\n\nimport java.util.List;\n\n"
            f"public class {self.class_name} {{\n    private int state;\n\n{methods}\n}}\n"
        )


@dataclass
class Dataset:
    """Everything generated for one seed. `trees[i]` maps path -> source of
    version `versions[i]`; `changesets[i]` turns version i into i + 1."""

    versions: list[str]
    trees: list[dict[str, str]]
    changesets: list[dict]
    bugs: list[dict]
    replays: dict[str, dict]
    expected: dict[str, list[str]]  # bug_id -> ranking the planted answer resolves to
    plan: dict[str, dict] = field(default_factory=dict)  # bug_id -> how its replay was planted


class _CorpusMaker:
    def __init__(self, seed: int, n_files: int):
        self.rng = random.Random(seed)
        rng = self.rng
        vocab = make_vocabulary(rng, max(1200, 6 * n_files))
        self.words = Zipf(vocab)
        self.nouns = Zipf([w.capitalize() for w in vocab[: max(100, n_files // 5)]], exponent=1.0)
        self.verbs = Zipf(list(VERBS), exponent=0.8)
        self.project = vocab[-1]
        self.packages = [
            f"org.{self.project}.{a}.{b}"
            for a, b in zip(rng.sample(vocab[20:], n_files // 12 + 1),
                            rng.sample(vocab[20:], n_files // 12 + 1))
        ]
        self.topic_words = vocab[200:]
        self.class_names: set[str] = set()
        self.method_pool: list[str] = []

    def class_name(self, topic: tuple[str, ...]) -> str:
        while True:
            parts = [topic[0].capitalize()] + self.nouns.draw(self.rng, self.rng.choice((0, 1)))
            name = "".join(parts) + self.rng.choice(SUFFIXES)
            if name not in self.class_names:
                self.class_names.add(name)
                return name

    def method_name(self, topic: tuple[str, ...]) -> str:
        verb = self.verbs.draw(self.rng)[0]
        nouns = self.nouns.draw(self.rng, self.rng.choice((1, 1, 2)))
        if self.rng.random() < 0.15:
            nouns[-1] = self.rng.choice(topic).capitalize()
        return verb + "".join(nouns)

    def word(self, topic: tuple[str, ...], k: int) -> list[str]:
        """Zipf words, about a third of them replaced by the file's topic words."""
        return [self.rng.choice(topic) if self.rng.random() < 0.45 else w
                for w in self.words.draw(self.rng, k)]

    def statement(self, topic: tuple[str, ...]) -> str:
        rng = self.rng
        a, b, c = self.word(topic, 3)
        call = rng.choice(self.method_pool) if self.method_pool else self.method_name(topic)
        kind = rng.randrange(4)
        if kind == 0:
            return f"int {a} = {call}({b}, {rng.randrange(100)});"
        if kind == 1:
            return f"if ({a} > {rng.randrange(10)}) {{ {call}({b}); }}"
        if kind == 2:
            return f'String {a} = "{" ".join(self.word(topic, 4))}";'
        return f"{a}.{call}({b}, {c});"

    def method(self, name: str, topic: tuple[str, ...]) -> JavaMethod:
        rng = self.rng
        returns = rng.choice(("void",) + TYPES)
        params = tuple((rng.choice(TYPES), w) for w in dict.fromkeys(self.word(topic, rng.randrange(3))))
        statements = [self.statement(topic) for _ in range(rng.randint(3, 8))]
        if returns != "void":
            statements.append(f"return {self.word(topic, 1)[0]};")
        return JavaMethod(name, returns, params, tuple(statements))

    def java_file(self, package: str, class_name: str | None = None) -> JavaFile:
        rng = self.rng
        topic = tuple(rng.sample(self.topic_words, 3))
        names = [self.method_name(topic) for _ in range(rng.randint(4, 12))]
        names += [m for m in COMMON_METHODS if rng.random() < 0.15]
        if rng.random() < 0.3:
            names.append(rng.choice(names))  # an overload
        methods = [self.method(n, topic) for n in names]
        self.method_pool.extend(names)
        return JavaFile(package, class_name or self.class_name(topic), methods, topic)


def _changeset(b: _CorpusMaker, files: dict[str, JavaFile], share: float) -> tuple[dict[str, JavaFile], dict]:
    """One seeded changeset touching about `share` of the files."""
    rng = b.rng
    n = len(files)
    counts = {
        "modified": max(1, round(n * share * 0.5)),
        "added": max(1, round(n * share * 0.2)),
        "deleted": max(1, round(n * share * 0.15)),
        "renamed": max(1, round(n * share * 0.15)),
    }
    new = dict(files)
    paths = rng.sample(sorted(files), counts["modified"] + counts["deleted"] + counts["renamed"])
    modified = paths[: counts["modified"]]
    deleted = paths[counts["modified"] : counts["modified"] + counts["deleted"]]
    renamed_from = paths[counts["modified"] + counts["deleted"] :]
    for path in modified:
        jf = files[path]
        methods = list(jf.methods)
        for i in rng.sample(range(len(methods)), max(1, len(methods) // 3)):
            methods[i] = b.method(methods[i].name, jf.topic)
        new[path] = JavaFile(jf.package, jf.class_name, methods, jf.topic, path)
    for path in deleted:
        del new[path]
    renamed = []
    for path in renamed_from:
        jf = new.pop(path)
        while True:
            target = rng.choice(b.packages).replace(".", "/") + f"/{jf.class_name}.java"
            if target not in new and target != path:
                break
        # A move without an edit keeps the text, so a content diff sees a rename.
        new[target] = JavaFile(jf.package, jf.class_name, jf.methods, jf.topic, target)
        renamed.append([path, target])
    added = []
    for _ in range(counts["added"]):
        jf = b.java_file(rng.choice(b.packages))
        new[jf.path] = jf
        added.append(jf.path)
    change = {
        "added": sorted(added),
        "modified": sorted(modified),
        "deleted": sorted(deleted),
        "renamed": sorted(renamed),
    }
    return new, change


def _misspell(rng: random.Random, name: str, known: set[str]) -> str:
    """One adjacent transposition or substitution inside the name (never the
    first letter), so the misspelling stays within the fuzzy distance cap and
    names no existing method."""
    while True:
        chars = list(name)
        i = rng.randrange(1, len(chars) - 1)
        if rng.random() < 0.5 and chars[i] != chars[i + 1]:
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        else:
            chars[i] = rng.choice([c for c in "aeiouxyz" if c != chars[i]])
        out = "".join(chars)
        if out != name and out not in known:
            return out


def _stratified(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly round(share * n) of each label (remainder to the first), shuffled."""
    labels: list[str] = []
    for label, share in list(shares.items())[1:]:
        labels += [label] * round(share * n)
    labels = [next(iter(shares))] * (n - len(labels)) + labels
    rng.shuffle(labels)
    return labels


class _BugPlanter:
    def __init__(self, b: _CorpusMaker):
        self.b = b
        self.rng = b.rng

    def _rare_methods(self, jf: JavaFile, name_df: dict[str, int], k: int) -> list[str]:
        names = sorted({m.name for m in jf.methods}, key=lambda n: (name_df[n], n))
        return names[:k]

    def report(self, truths: list[JavaFile], decoy: JavaFile, specific: bool,
               name_df: dict[str, int]) -> tuple[str, str]:
        rng = self.rng
        symptom = rng.choice(SYMPTOMS)
        if not specific:
            # A vague report describes another file, so retrieval is expected to miss.
            filler = " ".join(self.b.words.draw(rng, 6))
            return (f"{decoy.class_name} {symptom}",
                    f"Seen with {' '.join(decoy.topic)} and {filler}; {symptom}.")
        head = truths[0]
        methods = self._rare_methods(head, name_df, 2)
        sentences = []
        for jf in truths:
            t = jf.topic
            sentences.append(
                f"When {' and '.join(self._rare_methods(jf, name_df, 2))} handle {t[0]} "
                f"{t[1]} {t[2]}, the {t[0]} {t[1]} {t[2]} state {symptom}. Every {t[0]} "
                f"{t[1]} {t[2]} and {t[2]} {t[1]} {t[0]} is affected."
            )
        return f"{head.class_name}.{methods[0]} {symptom}", " ".join(sentences)

    def _near(self, path: str) -> str:
        """The same basename with the last package segment replaced."""
        parts = path.split("/")
        while True:
            segment = self.rng.choice(self.b.packages).rsplit(".", 1)[1]
            if segment != parts[-2]:
                return "/".join(parts[:-2] + [segment, parts[-1]])

    def replay(self, truths: list[JavaFile], files: dict[str, JavaFile], forced: bool,
               misspell: bool, truth_rank: str, near_miss_truth: bool,
               shared_paths: list[str], known_names: set[str]) -> tuple[dict, list[str], dict]:
        rng = self.rng
        head = truths[0]
        head_path = head.path
        names = sorted({m.name for m in head.methods})
        if misspell:
            # Fuzzy matching costs grow with the query's length; a fixed
            # target length keeps that cost alike across seeds.
            method = min(names, key=lambda n: (abs(len(n) - 12), n))
        else:
            method = rng.choice(names)
        near_path = self._near(head_path)
        calls = [
            {"name": "get_candidate_filenames", "arguments": {}},
            {"name": "search_file", "arguments": {"name": rng.choice(
                (f"{head.class_name}.java", f"{head.class_name.lower()}.java", head.class_name))}},
            {"name": "get_method_signatures_of_a_file", "arguments": {
                "fq_path": rng.choice((head_path, near_path))}},
            {"name": "search_method", "arguments": {"name": method}},
            {"name": "get_method_body", "arguments": {"method": method, "fq_path": head_path}},
        ]
        plain = calls[:3]
        if misspell:
            # Misspelled method names send search_method and get_method_body
            # through fuzzy matching: twice over every method name, once over
            # one file's.
            wrong, other = (_misspell(rng, method, known_names) for _ in range(2))
            calls[3] = {"name": "search_method", "arguments": {"name": wrong}}
            calls[4] = {"name": "get_method_body", "arguments": {"method": wrong, "fq_path": head_path}}
            calls.append({"name": "get_method_body", "arguments": {"method": other}})
        rng.shuffle(calls)
        if forced:
            calls += [rng.choice(plain) for _ in range(MAX_ITERATIONS - 1 - len(calls))]

        # Final answer: distractors around the truth claim at its planted rank.
        all_paths = sorted(files)
        truth_paths = {jf.path for jf in truths}
        others = [p for p in all_paths if p not in truth_paths]
        picked = rng.sample(others, 9)
        # Distractors: existing paths, near misses (right basename, one
        # package segment wrong), and a claim that must be dropped. A near
        # miss of a file whose basename recurs needs the Jaccard tie-break.
        claims = picked[:5] + [self._near(p) for p in picked[5:7]]
        claims.append(self._near(rng.choice(shared_paths)) if shared_paths else picked[7])
        claims.append(f"org/{self.b.project}/gone/Missing{rng.randrange(10**6)}Thing.java")
        rng.shuffle(claims)
        if rng.random() < 0.3:
            # A near miss of the first claim's file collapses into its rank.
            claims[rng.randrange(1, 9)] = self._near(claims[0])
        truth_claims = [near_path if near_miss_truth else head_path] + [
            jf.path for jf in truths[1:]
        ]
        position = {"top1": 0, "top5": rng.randint(1, 4), "top10": rng.randint(5, 8), "miss": None}[truth_rank]
        if position is not None:
            claims[position:position] = truth_claims
        claims = list(dict.fromkeys(claims))[:FINAL_LIST_SIZE]
        lines = "\n".join(f"{i}. {c} - {' '.join(self.b.words.draw(rng, 3))}" for i, c in enumerate(claims, 1))
        final = f"Ranking after exploring the code base:\n```\n{lines}\n```"
        responses = [{"tool_call": c} for c in calls] + [{"final": final}]
        replay = {"schema_version": 1, "repeat_last": False, "responses": responses}
        plan = {"forced": forced, "misspelled": misspell}
        return replay, claims, plan


def generate(seed: int, n_files: int, n_bugs: int, n_versions: int = 1,
             bug_versions: int | None = None, change_share: float = 0.016) -> Dataset:
    """Make the code base, `n_versions` versions, and `n_bugs` bugs spread
    evenly over the first `bug_versions` versions (all by default)."""
    bug_versions = n_versions if bug_versions is None else bug_versions
    if n_files < 24 or n_bugs < 1 or not 1 <= bug_versions <= n_versions:
        raise ValueError("need at least 24 files, 1 bug and 1 to n_versions bug versions")
    b = _CorpusMaker(seed, n_files)
    rng = b.rng
    files: dict[str, JavaFile] = {}
    shared = iter(SHARED_BASENAMES * (n_files // 100 + 1))
    while len(files) < n_files:
        package = rng.choice(b.packages)
        name = next(shared) if rng.random() < 0.02 else None
        jf = b.java_file(package, name)
        if jf.path not in files:
            files[jf.path] = jf
    versions = [f"v{i}" for i in range(n_versions)]
    states = [files]
    changesets = []
    for _ in range(1, n_versions):
        nxt, change = _changeset(b, states[-1], change_share)
        states.append(nxt)
        changesets.append(change)

    planter = _BugPlanter(b)
    kinds = _stratified(rng, n_bugs, {"specific": 0.75, "vague": 0.25})
    ranks = _stratified(rng, n_bugs, {"top1": 0.4, "top5": 0.25, "top10": 0.15, "miss": 0.2})
    forced = _stratified(rng, n_bugs, {"no": 0.85, "yes": 0.15})
    misspelled = _stratified(rng, n_bugs, {"no": 0.75, "yes": 0.25})
    near = _stratified(rng, n_bugs, {"no": 0.75, "yes": 0.25})
    multi = _stratified(rng, n_bugs, {"no": 0.8, "yes": 0.2})
    bugs: list[dict] = []
    replays: dict[str, dict] = {}
    expected: dict[str, list[str]] = {}
    plans: dict[str, dict] = {}
    stats_cache: dict[int, tuple] = {}
    for i in range(n_bugs):
        v = i * bug_versions // n_bugs
        tree = states[v]
        if v not in stats_cache:
            name_df: dict[str, int] = {}
            for jf in tree.values():
                for n in {m.name for m in jf.methods}:
                    name_df[n] = name_df.get(n, 0) + 1
            paths = sorted(tree)
            by_base: dict[str, list[str]] = {}
            for p in paths:
                by_base.setdefault(p.rsplit("/", 1)[-1], []).append(p)
            shared_paths = sorted(p for ps in by_base.values() if len(ps) > 1 for p in ps)
            stats_cache[v] = (name_df, set(name_df), paths, shared_paths)
        name_df, known_names, paths, shared_paths = stats_cache[v]
        candidates = [p for p in paths if tree[p].class_name not in SHARED_BASENAMES]
        head = rng.choice(candidates)
        truths = [tree[head]]
        if multi[i] == "yes":
            same_pkg = [p for p in candidates if p != head and tree[p].package == tree[head].package]
            truths.append(tree[rng.choice(same_pkg or [p for p in candidates if p != head])])
        decoy = tree[rng.choice([p for p in candidates if p not in {t.path for t in truths}])]
        summary, description = planter.report(truths, decoy, kinds[i] == "specific", name_df)
        bug_id = f"B{seed % 1000:03d}-{i:04d}"
        replay, claims, plan = planter.replay(
            truths, tree, forced[i] == "yes", misspelled[i] == "yes", ranks[i],
            near[i] == "yes", shared_paths, known_names,
        )
        plan["report"] = kinds[i]
        bugs.append({
            "bug_id": bug_id,
            "summary": summary,
            "description": description,
            "version_id": versions[v],
            "ground_truth": sorted(t.path for t in truths),
            "report_time": 1_500_000_000 + 3600 * i,
        })
        replays[bug_id] = replay
        expected[bug_id] = expected_resolution(claims, set(tree))
        plans[bug_id] = plan
    trees = [{p: jf.render() for p, jf in state.items()} for state in states]
    return Dataset(versions, trees, changesets, bugs, replays, expected, plans)


def write_dataset(ds: Dataset, root: str | Path) -> dict[str, Path]:
    """Write the program-visible files: a versions root (one subdirectory per
    version; unchanged files are hard links to the previous version's copy),
    the dataset as JSON lines, and one replay file per bug."""
    root = Path(root)
    repo = root / "repo"
    previous: Path | None = None
    for vid, tree, prev_tree in zip(ds.versions, ds.trees, [None] + ds.trees[:-1]):
        vdir = repo / vid
        for rel, text in tree.items():
            target = vdir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            if previous is not None and prev_tree.get(rel) == text:
                try:
                    os.link(previous / rel, target)
                    continue
                except OSError:
                    pass
            target.write_text(text, encoding="utf-8")
        previous = vdir
    dataset = root / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(bug, sort_keys=True) + "\n" for bug in ds.bugs), encoding="utf-8")
    replay_dir = root / "replays"
    replay_dir.mkdir(parents=True, exist_ok=True)
    for bug_id, replay in ds.replays.items():
        (replay_dir / f"{bug_id}.json").write_text(json.dumps(replay, indent=1), encoding="utf-8")
    return {"repo": repo, "dataset": dataset, "replays": replay_dir}
