#!/usr/bin/env python3
"""Project-invariant linter for mvstore. Stdlib only; CI runs it on every PR.

Six invariants the type system cannot express:

1. epoch-guard  — a raw `Version*` may only be dereferenced lexically inside
   an `EpochGuard` scope (epoch-based reclamation is what keeps the pointer
   alive), in an allowlisted file whose protocol is documented, or on a line
   carrying an `// epoch-safe:` justification.

2. failpoints   — `MVSTORE_FAILPOINT("site")` strings and the site catalog
   in docs/RELIABILITY.md must match bidirectionally (a site in code but
   not the docs is an undocumented chaos hook; a site in the docs but not
   the code is a stale runbook). Every `repl.*` site must additionally be
   mentioned in docs/REPLICATION.md, which narrates the failover drills.

3. ownership    — hot-path types with dedicated owners (Version: per-table
   slabs; Transaction: the engine's object pool) must not be created or
   destroyed with bare new/delete outside the allowlisted owner files, or
   the pool/slab accounting silently diverges from reality.

4. tsa-optout   — every use of NO_THREAD_SAFETY_ANALYSIS (the escape hatch
   from clang's thread-safety analysis) must carry an adjacent
   `NO_THREAD_SAFETY_ANALYSIS: <protocol>` comment explaining the locking
   protocol the function actually follows and why the analysis cannot
   express it. An unexplained opt-out is an unreviewed hole in the
   compile-time lock discipline.

5. metric-catalog — two name sets must each match docs/OBSERVABILITY.md
   bidirectionally: the histogram names in obs::HistName()
   (src/obs/histogram.h) against the latency-histogram table, and the
   literal `AppendPromGauge(&out, "mvstore_...")` names anywhere in src/
   against the backticked names in the Gauges table. Metric names are a
   stable scrape contract, so a series in code but not the catalog is
   undocumented and a catalog row without code is a stale dashboard
   promise.

6. thread-local — per-thread state that must be handed back when its
   thread exits comes from util/tls_slots.h, the only module that declares
   `thread_local` freely. Every other `thread_local` in src/ must be on an
   allowlist with the reason it needs no release on exit (plain values,
   scratch buffers); a new per-thread cache that strands its contents on
   thread exit fails the check.

`--self-test` seeds a temporary tree with known-bad inputs and asserts each
check still catches them — deleting a check (or breaking its regex) fails CI
even when the real tree is clean.
"""

import argparse
import os
import re
import sys
import tempfile

# --- allowlists -------------------------------------------------------------

# Files whose Version* handling is safe without a lexically visible
# EpochGuard. Every entry needs a reason; new entries are a review event.
EPOCH_ALLOWLIST = {
    "src/cc/mv_engine.cc": "every public operation opens an EpochGuard at "
    "entry; private helpers run inside the caller's guard",
    "src/cc/visibility.cc": "visibility checks run under the engine's guard",
    "src/storage/ordered_index.cc": "skip-list walked under the caller's "
    "guard; unpublished nodes during insert",
    "src/sv/sv_engine.cc": "1V engine: single-version slots live as long as "
    "the table, no reclamation race",
}

# Inline justification marker for one-off sites in non-allowlisted files.
EPOCH_INLINE_MARKER = "// epoch-safe:"

# Files allowed to new/delete the pooled hot-path types.
OWNERSHIP_ALLOWLIST = {
    "src/storage/table.h": "slab owner (raw-storage heap fallback when slabs "
    "are off)",
    "src/mem/object_pool.h": "the pool itself owns construction/destruction",
}

HOT_TYPES = ("Version", "Transaction")

# The per-thread slot registry: the one module that keeps per-thread state
# it must hand back on thread exit.
TLS_SLOTS_MODULE = ("src/util/tls_slots.h", "src/util/tls_slots.cc")

# (file, variable) -> why this thread_local needs no release on exit.
THREAD_LOCAL_ALLOWLIST = {
    ("src/obs/histogram.h", "counter"): "commit-sampling counter: a POD "
    "value, nothing to hand back",
    ("src/log/logger.cc", "tl_last_group_wait_ticks"): "last group-commit "
    "wait of this thread: a POD value",
    ("src/storage/ordered_index.cc", "state"): "skip-list height RNG state: "
    "a POD value",
    ("src/core/substrate.cc", "buffer"): "commit-record encode buffer: "
    "scratch, cleared before every use and owned by nothing else",
}

FAILPOINT_RE = re.compile(r'MVSTORE_FAILPOINT\("([^"]+)"\)')
CATALOG_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")
BACKTICK_SITE_RE = re.compile(r"`(repl\.[a-z_.]+)`")


def _iter_source(root, exts=(".cc", ".h")):
    src = os.path.join(root, "src")
    for dirpath, _dirs, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(exts):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, root).replace(os.sep, "/"), path


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines and
    column positions so offsets keep mapping to the original text."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


# --- check 1: EpochGuard ----------------------------------------------------

VERSION_DECL_RE = re.compile(r"\bVersion\s*\*\s*(?:const\s+)?(\w+)\b")
GUARD_RE = re.compile(r"\bEpochGuard\b")


def _guard_regions(code):
    """[(start, end)] character ranges protected by an EpochGuard: from the
    guard's position to the close of its enclosing brace block."""
    regions = []
    for m in GUARD_RE.finditer(code):
        depth = 0
        end = len(code)
        for i in range(m.start(), len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth < 0:
                    end = i
                    break
        regions.append((m.start(), end))
    return regions


def check_epoch_guard(root):
    violations = []
    for rel, path in _iter_source(root, exts=(".cc",)):
        if rel in EPOCH_ALLOWLIST:
            continue
        text = _read(path)
        code = _strip_comments_and_strings(text)
        names = set(VERSION_DECL_RE.findall(code))
        names.discard("")
        if not names:
            continue
        lines = text.splitlines()
        regions = _guard_regions(code)
        deref_re = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(names)) + r")\s*->"
        )
        for m in deref_re.finditer(code):
            pos = m.start()
            if any(s <= pos < e for s, e in regions):
                continue
            lineno = code.count("\n", 0, pos) + 1
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            if EPOCH_INLINE_MARKER in line:
                continue
            violations.append(
                f"{rel}:{lineno}: Version* '{m.group(1)}' dereferenced outside "
                f"any EpochGuard scope (allowlist the file in "
                f"scripts/check_invariants.py with a reason, or justify the "
                f"line with '{EPOCH_INLINE_MARKER} <why>')"
            )
    return violations


# --- check 2: failpoint catalog --------------------------------------------


def _code_failpoints(root):
    sites = {}
    for rel, path in _iter_source(root):
        for m in FAILPOINT_RE.finditer(_read(path)):
            sites.setdefault(m.group(1), rel)
    return sites


def _catalog_failpoints(reliability_md):
    sites = set()
    in_catalog = False
    for line in reliability_md.splitlines():
        if line.startswith("### Site catalog"):
            in_catalog = True
            continue
        if in_catalog and line.startswith(("## ", "### ")):
            break
        if in_catalog:
            m = CATALOG_ROW_RE.match(line)
            if m and m.group(1) != "Site":
                sites.add(m.group(1))
    return sites


def check_failpoints(root):
    violations = []
    code_sites = _code_failpoints(root)
    rel_path = os.path.join(root, "docs", "RELIABILITY.md")
    repl_path = os.path.join(root, "docs", "REPLICATION.md")
    if not os.path.exists(rel_path):
        return [f"docs/RELIABILITY.md missing (failpoint catalog lives there)"]
    catalog = _catalog_failpoints(_read(rel_path))
    for site in sorted(set(code_sites) - catalog):
        violations.append(
            f"failpoint '{site}' ({code_sites[site]}) is not in the "
            f"docs/RELIABILITY.md site catalog"
        )
    for site in sorted(catalog - set(code_sites)):
        violations.append(
            f"failpoint '{site}' is in the docs/RELIABILITY.md site catalog "
            f"but no MVSTORE_FAILPOINT(\"{site}\") exists in src/"
        )
    # repl.* sites must also appear in the replication doc's drill narrative.
    repl_doc = _read(repl_path) if os.path.exists(repl_path) else ""
    repl_mentions = set(BACKTICK_SITE_RE.findall(repl_doc))
    for site in sorted(s for s in code_sites if s.startswith("repl.")):
        if site not in repl_mentions:
            violations.append(
                f"repl failpoint '{site}' is not mentioned in "
                f"docs/REPLICATION.md"
            )
    for site in sorted(repl_mentions - set(code_sites)):
        violations.append(
            f"docs/REPLICATION.md mentions failpoint '{site}' but no "
            f"MVSTORE_FAILPOINT(\"{site}\") exists in src/"
        )
    return violations


# --- check 3: ownership -----------------------------------------------------

NEW_HOT_RE = re.compile(r"\bnew\s+(" + "|".join(HOT_TYPES) + r")\b")
DELETE_CAST_RE = re.compile(
    r"\bdelete\s+(?:static_cast|reinterpret_cast)\s*<\s*("
    + "|".join(HOT_TYPES)
    + r")\s*\*\s*>"
)


def check_ownership(root):
    violations = []
    for rel, path in _iter_source(root):
        if rel in OWNERSHIP_ALLOWLIST:
            continue
        text = _read(path)
        code = _strip_comments_and_strings(text)
        # Bare delete of a pointer whose declared type in this file is a hot
        # type: deletes through a Version*/Transaction* variable.
        hot_ptrs = set()
        for t in HOT_TYPES:
            hot_ptrs.update(
                re.findall(r"\b" + t + r"\s*\*\s*(?:const\s+)?(\w+)\b", code)
            )
        patterns = [NEW_HOT_RE, DELETE_CAST_RE]
        if hot_ptrs:
            patterns.append(
                re.compile(
                    r"\bdelete\s+("
                    + "|".join(re.escape(n) for n in sorted(hot_ptrs))
                    + r")\b"
                )
            )
        for pat in patterns:
            for m in pat.finditer(code):
                lineno = code.count("\n", 0, m.start()) + 1
                violations.append(
                    f"{rel}:{lineno}: bare new/delete of a pooled hot-path "
                    f"type ('{m.group(0).strip()}') — Versions go through the "
                    f"table slab, Transactions through the object pool; if "
                    f"this file is a legitimate owner, allowlist it with a "
                    f"reason in scripts/check_invariants.py"
                )
    return violations


# --- check 4: NO_THREAD_SAFETY_ANALYSIS protocol comments -------------------

TSA_OPTOUT = "NO_THREAD_SAFETY_ANALYSIS"
TSA_OPTOUT_COMMENT = TSA_OPTOUT + ":"
# How far above the opt-out the protocol comment may sit (the attribute
# often lands on the second line of a multi-line signature).
TSA_COMMENT_LOOKBACK = 10


def check_tsa_optout(root):
    violations = []
    for rel, path in _iter_source(root):
        if rel == "src/common/thread_annotations.h":
            continue  # defines the macro
        text = _read(path)
        code = _strip_comments_and_strings(text)
        if TSA_OPTOUT not in code:
            continue
        lines = text.splitlines()
        for m in re.finditer(r"\b" + TSA_OPTOUT + r"\b", code):
            lineno = code.count("\n", 0, m.start()) + 1
            window = lines[max(0, lineno - 1 - TSA_COMMENT_LOOKBACK) : lineno]
            if not any(TSA_OPTOUT_COMMENT in ln for ln in window):
                violations.append(
                    f"{rel}:{lineno}: {TSA_OPTOUT} without an adjacent "
                    f"'{TSA_OPTOUT_COMMENT} <protocol>' comment — state the "
                    f"locking protocol the function follows and why the "
                    f"analysis cannot express it (within "
                    f"{TSA_COMMENT_LOOKBACK} lines above)"
                )
    return violations


# --- check 5: metric catalog (histograms and gauges) -----------------------

HIST_NAMES_BLOCK_RE = re.compile(
    r"static\s+const\s+char\*\s+kNames\[\]\s*=\s*\{(.*?)\};", re.S
)
HIST_NAME_RE = re.compile(r'"([a-z_]+)"')


def _code_hist_names(histogram_h):
    m = HIST_NAMES_BLOCK_RE.search(histogram_h)
    return set(HIST_NAME_RE.findall(m.group(1))) if m else set()


def _catalog_section(observability_md, heading):
    """The lines of the section that starts at `heading`, up to the next
    heading."""
    lines = []
    in_section = False
    for line in observability_md.splitlines():
        if line.startswith(heading):
            in_section = True
            continue
        if in_section and line.startswith(("## ", "### ")):
            break
        if in_section:
            lines.append(line)
    return lines


def _catalog_hist_names(observability_md):
    names = set()
    for line in _catalog_section(observability_md,
                                 "### Latency histogram families"):
        m = CATALOG_ROW_RE.match(line)
        if m:
            names.add(m.group(1))
    return names


GAUGE_CALL_RE = re.compile(
    r'\bAppendPromGauge\(\s*&?\w+\s*,\s*"(mvstore_[a-z0-9_]+)"')
GAUGE_NAME_RE = re.compile(r"`(mvstore_[a-z0-9_]+)`")


def _code_gauge_names(root):
    names = {}
    for rel, path in _iter_source(root):
        for m in GAUGE_CALL_RE.finditer(_read(path)):
            names.setdefault(m.group(1), rel)
    return names


def _catalog_gauge_names(observability_md):
    """Backticked names in the first column of the Gauges table; a row may
    name several (`a` / `b`)."""
    names = set()
    for line in _catalog_section(observability_md, "### Gauges"):
        cells = line.split("|")
        if line.startswith("|") and len(cells) > 2:
            names.update(GAUGE_NAME_RE.findall(cells[1]))
    return names


def check_hist_catalog(root):
    hist_path = os.path.join(root, "src", "obs", "histogram.h")
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.exists(hist_path):
        return []  # nothing to cross-check (self-test trees without obs/)
    if not os.path.exists(doc_path):
        return ["docs/OBSERVABILITY.md missing (the metric catalog lives there)"]
    code_names = _code_hist_names(_read(hist_path))
    if not code_names:
        return ["src/obs/histogram.h: could not parse the HistName() kNames "
                "array (check 5 regex needs updating)"]
    catalog = _catalog_hist_names(_read(doc_path))
    violations = []
    for name in sorted(code_names - catalog):
        violations.append(
            f"histogram '{name}' (obs::HistName) is not in the "
            f"docs/OBSERVABILITY.md metric catalog"
        )
    for name in sorted(catalog - code_names):
        violations.append(
            f"docs/OBSERVABILITY.md catalogs histogram '{name}' but "
            f"obs::HistName() has no such name"
        )
    return violations


def check_gauge_catalog(root):
    code_gauges = _code_gauge_names(root)
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.exists(doc_path):
        if code_gauges:
            return ["docs/OBSERVABILITY.md missing (the Gauges table lives "
                    "there)"]
        return []
    catalog = _catalog_gauge_names(_read(doc_path))
    violations = []
    for name in sorted(set(code_gauges) - catalog):
        violations.append(
            f"gauge '{name}' ({code_gauges[name]}) is not in the "
            f"docs/OBSERVABILITY.md Gauges table"
        )
    for name in sorted(catalog - set(code_gauges)):
        violations.append(
            f"docs/OBSERVABILITY.md lists gauge '{name}' but no "
            f"AppendPromGauge(&out, \"{name}\", ...) exists in src/"
        )
    return violations


# --- check 6: thread_local outside the slot registry -----------------------

THREAD_LOCAL_RE = re.compile(r"\bthread_local\b[^;=]*?\b(\w+)\s*(?:=|;|\{)")


def check_thread_local(root):
    violations = []
    for rel, path in _iter_source(root):
        if rel in TLS_SLOTS_MODULE:
            continue
        code = _strip_comments_and_strings(_read(path))
        for m in THREAD_LOCAL_RE.finditer(code):
            if (rel, m.group(1)) in THREAD_LOCAL_ALLOWLIST:
                continue
            lineno = code.count("\n", 0, m.start()) + 1
            violations.append(
                f"{rel}:{lineno}: thread_local '{m.group(1)}' outside "
                f"util/tls_slots.h — per-thread state that must be handed "
                f"back on thread exit takes a TlsSlots slot; if it needs no "
                f"release, allowlist it with the reason in "
                f"scripts/check_invariants.py"
            )
    return violations


# --- self-test --------------------------------------------------------------


def _write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def self_test():
    """Seed a temp tree with one violation per check plus clean counterparts;
    every check must flag exactly the bad input."""
    failures = []
    with tempfile.TemporaryDirectory() as root:
        _write(
            root,
            "src/bad/deref.cc",
            "#include \"storage/version.h\"\n"
            "int f(mvstore::Version* v) { return v->payload_size; }\n",
        )
        _write(
            root,
            "src/good/deref.cc",
            "#include \"util/epoch.h\"\n"
            "int g(mvstore::EpochManager& em, mvstore::Version* v) {\n"
            "  mvstore::EpochGuard guard(em);\n"
            "  return v->payload_size;\n"
            "}\n",
        )
        _write(
            root,
            "src/good/justified.cc",
            "int h(mvstore::Version* v) {\n"
            "  return v->payload_size;  // epoch-safe: unpublished version\n"
            "}\n",
        )
        _write(
            root,
            "src/bad/hooks.cc",
            'bool a() { return MVSTORE_FAILPOINT("undocumented.site"); }\n'
            'bool b() { return MVSTORE_FAILPOINT("repl.unnarrated"); }\n'
            'bool c() { return MVSTORE_FAILPOINT("documented.site"); }\n',
        )
        _write(
            root,
            "docs/RELIABILITY.md",
            "### Site catalog\n\n"
            "| Site | Where it fires | Armed effect |\n"
            "|------|----------------|--------------|\n"
            "| `documented.site` | somewhere | something |\n"
            "| `repl.unnarrated` | somewhere | something |\n"
            "| `stale.site` | nowhere | removed long ago |\n\n"
            "## Next section\n",
        )
        _write(root, "docs/REPLICATION.md", "No sites narrated here.\n")
        _write(
            root,
            "src/bad/owner.cc",
            "void f() { Version* v = new Version(); delete v; }\n",
        )

        epoch = check_epoch_guard(root)
        if not any("src/bad/deref.cc" in v for v in epoch):
            failures.append("epoch-guard check missed the unguarded deref")
        if any("src/good/" in v for v in epoch):
            failures.append("epoch-guard check flagged a guarded/justified deref")

        fps = check_failpoints(root)
        if not any("undocumented.site" in v for v in fps):
            failures.append("failpoint check missed the undocumented site")
        if not any("stale.site" in v for v in fps):
            failures.append("failpoint check missed the stale catalog row")
        if not any("repl.unnarrated" in v and "REPLICATION" in v for v in fps):
            failures.append("failpoint check missed the unnarrated repl site")
        if any("'documented.site'" in v for v in fps):
            failures.append("failpoint check flagged a correctly documented site")

        own = check_ownership(root)
        if not any("new Version" in v for v in own):
            failures.append("ownership check missed `new Version`")
        if not any("delete v" in v for v in own):
            failures.append("ownership check missed `delete v`")

        _write(
            root,
            "src/bad/optout.h",
            "void Drain() NO_THREAD_SAFETY_ANALYSIS;\n",
        )
        _write(
            root,
            "src/good/optout.h",
            "/// NO_THREAD_SAFETY_ANALYSIS: drains after all workers joined,\n"
            "/// so the guarded queue has no concurrent accessors.\n"
            "void Drain() NO_THREAD_SAFETY_ANALYSIS;\n",
        )
        tsa = check_tsa_optout(root)
        if not any("src/bad/optout.h" in v for v in tsa):
            failures.append("tsa-optout check missed the unexplained opt-out")
        if any("src/good/optout.h" in v for v in tsa):
            failures.append("tsa-optout check flagged a documented opt-out")

        _write(
            root,
            "src/obs/histogram.h",
            "inline const char* HistName(Hist hist) {\n"
            "  static const char* kNames[] = {\n"
            '      "commit_total", "undocumented_hist",\n'
            "  };\n"
            "  return kNames[static_cast<uint32_t>(hist)];\n"
            "}\n",
        )
        _write(
            root,
            "docs/OBSERVABILITY.md",
            "### Latency histogram families\n\n"
            "| Family | Span | Sampled? |\n"
            "|--------|------|----------|\n"
            "| `commit_total` | whole commit | 1-in-32 |\n"
            "| `stale_hist` | removed long ago | no |\n\n"
            "### Gauges\n\n"
            "| Gauge | Meaning |\n"
            "|-------|---------|\n"
            "| `mvstore_documented_gauge` / `mvstore_paired_gauge` | x |\n"
            "| `mvstore_stale_gauge` | removed long ago |\n\n"
            "### Counters\n",
        )
        hist = check_hist_catalog(root)
        if not any("undocumented_hist" in v for v in hist):
            failures.append("hist-catalog check missed the undocumented histogram")
        if not any("stale_hist" in v for v in hist):
            failures.append("hist-catalog check missed the stale catalog row")
        if any("'commit_total'" in v for v in hist):
            failures.append("hist-catalog check flagged a documented histogram")

        _write(
            root,
            "src/server/gauges.cc",
            "void F(std::string& out) {\n"
            '  obs::AppendPromGauge(&out, "mvstore_documented_gauge", 1);\n'
            '  obs::AppendPromGauge(&out, "mvstore_paired_gauge", 1);\n'
            "  obs::AppendPromGauge(\n"
            '      &out, "mvstore_undocumented_gauge", 2);\n'
            "}\n",
        )
        gauges = check_gauge_catalog(root)
        if not any("'mvstore_undocumented_gauge'" in v for v in gauges):
            failures.append("gauge-catalog check missed the undocumented gauge")
        if not any("'mvstore_stale_gauge'" in v for v in gauges):
            failures.append("gauge-catalog check missed the stale table row")
        if any("'mvstore_documented_gauge'" in v or
               "'mvstore_paired_gauge'" in v for v in gauges):
            failures.append("gauge-catalog check flagged a documented gauge")

        _write(
            root,
            "src/bad/tls.cc",
            "void f() {\n"
            "  thread_local std::vector<void*> cache;\n"
            "  cache.push_back(nullptr);\n"
            "}\n",
        )
        _write(
            root,
            "src/util/tls_slots.h",
            "inline thread_local void* tl_entries = nullptr;\n",
        )
        tls = check_thread_local(root)
        if not any("src/bad/tls.cc" in v and "'cache'" in v for v in tls):
            failures.append("thread-local check missed the unlisted cache")
        if any("src/util/tls_slots.h" in v for v in tls):
            failures.append("thread-local check flagged the slot registry")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("self-test passed: all seeded violations were caught")
    return 0


# --- main -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None, help="repo root (default: script's parent)")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the checks catch seeded violations, then exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    violations = []
    violations += check_epoch_guard(root)
    violations += check_failpoints(root)
    violations += check_ownership(root)
    violations += check_tsa_optout(root)
    violations += check_hist_catalog(root)
    violations += check_gauge_catalog(root)
    violations += check_thread_local(root)
    if violations:
        print(f"{len(violations)} invariant violation(s):", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print("invariants ok: epoch-guard, failpoint catalog, ownership, "
          "tsa-optout, metric-catalog, thread-local")
    return 0


if __name__ == "__main__":
    sys.exit(main())
