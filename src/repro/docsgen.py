"""Documentation-site generator (the engine behind ``repro-docs``).

Builds a static HTML site from the markdown sources under ``docs/`` plus an
**API reference generated from live docstrings** — no third-party
dependency, so the docs build everywhere the code builds; this builder is
the one CI gates on.

The build is *strict by default* — warnings are errors — and checks:

* every public symbol reachable from the API-reference targets (the
  ``repro.api`` surface, ``repro.connect``, ``HermesEngine``, ``MODFrame``,
  ``ReTraTree``, the ingestion and session layers, the parameter objects)
  has a docstring;
* the SQL dialect page documents **every** statement form the parser
  accepts, every registered table function, both parameter-binding forms
  and every error class;
* internal markdown links point at pages that exist.

Usage::

    python -m repro.docsgen               # build docs/_site from docs/
    python -m repro.docsgen --out site    # build elsewhere
    python -m repro.docsgen --no-strict   # report warnings, exit 0
    make docs                             # the strict build (docs-draft: lenient)

Installed, the same entry point is the ``repro-docs`` console script.
"""

from __future__ import annotations

import argparse
import html
import inspect
import re
import sys
from pathlib import Path

__all__ = ["build_site", "main", "API_TARGETS", "SQL_COVERAGE_TERMS"]

# -- what the API reference documents -----------------------------------------
# (module, symbols) pairs; ``None`` documents the module's ``__all__``.
API_TARGETS: tuple[tuple[str, tuple[str, ...] | None], ...] = (
    ("repro", ("connect",)),
    ("repro.api", None),
    ("repro.core.engine", ("HermesEngine",)),
    ("repro.core.ingest", None),
    ("repro.core.parallel", ("WorkerPool", "partitioned_s2t")),
    ("repro.core.session", ("ProgressiveSession", "SessionStep")),
    ("repro.hermes.distances", (
        "spatiotemporal_distance_matrix", "spatiotemporal_distance_batch", "hausdorff_distance_batch",
    )),
    ("repro.hermes.frame", ("MODFrame",)),
    ("repro.hermes.mod", ("MOD",)),
    ("repro.hermes.shm", None),
    ("repro.qut.retratree", None),
    ("repro.qut.params", ("QuTParams",)),
    ("repro.s2t.params", ("S2TParams",)),
    ("repro.datagen.profiles", None),
    ("repro.eval.quality", None),
    ("repro.analysis", ("Checker", "Finding", "SourceModule", "lint_paths", "select_checkers")),
    ("repro.sql.errors", None),
    ("repro.storage.durable", None),
    ("repro.storage.errors", None),
    ("repro.storage.faults", None),
    ("repro.storage.fsck", None),
)

# Markdown pages, in navigation order, with their nav titles.
NAV: tuple[tuple[str, str], ...] = (
    ("index.md", "Overview"),
    ("architecture.md", "Architecture"),
    ("ingestion.md", "Incremental ingestion"),
    ("persistence.md", "Persistence & recovery"),
    ("sql-dialect.md", "SQL dialect"),
    ("quality-harness.md", "Quality harness"),
    ("static-analysis.md", "Static analysis"),
)

_STYLE = """
:root { --ink: #1c2430; --dim: #5b6377; --line: #e3e7ee; --accent: #1a5fb4; }
* { box-sizing: border-box; }
body { margin: 0; font: 16px/1.6 system-ui, sans-serif; color: #1c2430; }
nav { position: fixed; top: 0; left: 0; bottom: 0; width: 230px; padding: 24px 18px;
      border-right: 1px solid #e3e7ee; background: #f8f9fb; overflow-y: auto; }
nav h1 { font-size: 16px; margin: 0 0 12px; }
nav a { display: block; padding: 4px 6px; color: #1a5fb4; text-decoration: none;
        border-radius: 4px; }
nav a:hover { background: #e9eef7; }
nav .section { margin-top: 14px; font-weight: 600; color: #5b6377; font-size: 13px;
               text-transform: uppercase; letter-spacing: .04em; }
main { margin-left: 230px; padding: 32px 48px; max-width: 880px; }
code { background: #f2f4f8; padding: 1px 4px; border-radius: 3px;
       font: 13.5px/1.5 ui-monospace, monospace; }
pre { background: #f6f8fa; border: 1px solid #e3e7ee; border-radius: 6px;
      padding: 12px 14px; overflow-x: auto; }
pre code { background: none; padding: 0; }
table { border-collapse: collapse; margin: 12px 0; }
th, td { border: 1px solid #e3e7ee; padding: 6px 10px; text-align: left; }
th { background: #f2f4f8; }
h1, h2, h3 { line-height: 1.25; }
h2 { border-bottom: 1px solid #e3e7ee; padding-bottom: 4px; margin-top: 36px; }
.symbol { border: 1px solid #e3e7ee; border-radius: 6px; padding: 14px 18px;
          margin: 18px 0; }
.symbol > .sig { font: 14px/1.5 ui-monospace, monospace; font-weight: 600; }
.symbol .doc { margin: 8px 0 0; white-space: pre-wrap;
               font: 13.5px/1.55 ui-monospace, monospace; color: #39414e;
               background: none; border: none; padding: 0; }
.member { margin: 12px 0 12px 18px; padding-left: 14px; border-left: 3px solid #e3e7ee; }
"""


# -- tiny markdown renderer ----------------------------------------------------

_INLINE_PATTERNS = (
    (re.compile(r"`([^`]+)`"), lambda m: f"<code>{m.group(1)}</code>"),
    (re.compile(r"\*\*([^*]+)\*\*"), lambda m: f"<strong>{m.group(1)}</strong>"),
    (re.compile(r"(?<!\*)\*([^*\s][^*]*)\*(?!\*)"), lambda m: f"<em>{m.group(1)}</em>"),
    (
        re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)"),
        lambda m: f'<a href="{m.group(2)}">{m.group(1)}</a>',
    ),
)


def _inline(text: str) -> str:
    """Render inline markdown (code, bold, italic, links) on escaped text."""
    out = html.escape(text, quote=False)
    for pattern, sub in _INLINE_PATTERNS:
        out = pattern.sub(sub, out)
    return out


def md_to_html(markdown: str) -> str:
    """Convert a markdown page to an HTML fragment.

    Supports the subset the docs sources use: ATX headings, fenced code
    blocks, tables, unordered/ordered lists, blockquotes, horizontal rules
    and the inline forms of :func:`_inline`.  Link targets ending in
    ``.md`` are rewritten to ``.html`` so the rendered site is
    self-contained.
    """
    lines = markdown.replace("\r\n", "\n").split("\n")
    out: list[str] = []
    i = 0
    in_list: str | None = None
    paragraph: list[str] = []

    def flush_paragraph() -> None:
        if paragraph:
            out.append(f"<p>{_inline(' '.join(paragraph))}</p>")
            paragraph.clear()

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            out.append(f"</{in_list}>")
            in_list = None

    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if stripped.startswith("```"):
            flush_paragraph()
            close_list()
            language = stripped[3:].strip()
            block: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                block.append(lines[i])
                i += 1
            cls = f' class="language-{language}"' if language else ""
            out.append(
                f"<pre><code{cls}>" + html.escape("\n".join(block)) + "</code></pre>"
            )
            i += 1
            continue
        if not stripped:
            flush_paragraph()
            close_list()
            i += 1
            continue
        heading = re.match(r"^(#{1,5})\s+(.*)$", stripped)
        if heading:
            flush_paragraph()
            close_list()
            level = len(heading.group(1))
            text = heading.group(2)
            anchor = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
            out.append(f'<h{level} id="{anchor}">{_inline(text)}</h{level}>')
            i += 1
            continue
        if re.match(r"^-{3,}$", stripped):
            flush_paragraph()
            close_list()
            out.append("<hr/>")
            i += 1
            continue
        if stripped.startswith("|"):
            flush_paragraph()
            close_list()
            rows: list[str] = []
            while i < len(lines) and lines[i].strip().startswith("|"):
                rows.append(lines[i].strip())
                i += 1
            out.append(_render_table(rows))
            continue
        if stripped.startswith(">"):
            flush_paragraph()
            close_list()
            quote: list[str] = []
            while i < len(lines) and lines[i].strip().startswith(">"):
                quote.append(lines[i].strip().lstrip(">").strip())
                i += 1
            out.append(f"<blockquote><p>{_inline(' '.join(quote))}</p></blockquote>")
            continue
        bullet = re.match(r"^[-*]\s+(.*)$", stripped)
        ordered = re.match(r"^\d+\.\s+(.*)$", stripped)
        if bullet or ordered:
            flush_paragraph()
            tag = "ul" if bullet else "ol"
            if in_list != tag:
                close_list()
                out.append(f"<{tag}>")
                in_list = tag
            item = (bullet or ordered).group(1)  # type: ignore[union-attr]
            out.append(f"<li>{_inline(item)}</li>")
            i += 1
            continue
        paragraph.append(stripped)
        i += 1
    flush_paragraph()
    close_list()
    return re.sub(r'href="([^"#]+)\.md(#[^"]*)?"', r'href="\1.html\2"', "\n".join(out))


def _render_table(rows: list[str]) -> str:
    def cells(row: str) -> list[str]:
        return [c.strip() for c in row.strip("|").split("|")]

    body = [r for r in rows if not re.match(r"^\|[\s:|-]+\|$", r)]
    if not body:
        return ""
    parts = ["<table>"]
    header = body[0]
    parts.append(
        "<tr>" + "".join(f"<th>{_inline(c)}</th>" for c in cells(header)) + "</tr>"
    )
    for row in body[1:]:
        parts.append(
            "<tr>" + "".join(f"<td>{_inline(c)}</td>" for c in cells(row)) + "</tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


# -- API reference generation --------------------------------------------------


def _signature_of(obj: object, name: str) -> str:
    try:
        return f"{name}{inspect.signature(obj)}"  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return name


def _doc_of(obj: object) -> str | None:
    doc = inspect.getdoc(obj)
    return doc.strip() if doc else None


def _public_members(cls: type) -> list[tuple[str, object]]:
    """A class's public methods/properties, in source order where possible."""
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(member, (property, classmethod, staticmethod)):
            members.append((name, member))
    return members


def _render_symbol(
    module_name: str, name: str, obj: object, warnings: list[str]
) -> str:
    """One documented symbol (class with members, or function) as HTML."""
    qualname = f"{module_name}.{name}"
    parts: list[str] = ['<div class="symbol">']
    doc = _doc_of(obj)
    if doc is None:
        warnings.append(f"missing docstring: {qualname}")
        doc = "(undocumented)"
    if inspect.isclass(obj):
        parts.append(f'<div class="sig" id="{name}">class {qualname}</div>')
        parts.append(f'<pre class="doc">{html.escape(doc)}</pre>')
        for member_name, raw in _public_members(obj):
            member = getattr(obj, member_name)
            member_doc = _doc_of(member)
            if member_doc is None:
                warnings.append(f"missing docstring: {qualname}.{member_name}")
                member_doc = "(undocumented)"
            if isinstance(raw, property):
                sig = f"{member_name}  [property]"
            else:
                sig = _signature_of(member, member_name)
            parts.append(
                '<div class="member">'
                f'<div class="sig">{html.escape(sig)}</div>'
                f'<pre class="doc">{html.escape(member_doc)}</pre>'
                "</div>"
            )
    else:
        sig = _signature_of(obj, name)
        parts.append(f'<div class="sig" id="{name}">{html.escape(f"{module_name}.{sig}")}</div>')
        parts.append(f'<pre class="doc">{html.escape(doc)}</pre>')
    parts.append("</div>")
    return "\n".join(parts)


def _api_pages(warnings: list[str]) -> dict[str, tuple[str, str]]:
    """Generate the API reference: ``{filename: (title, html_fragment)}``."""
    import importlib

    pages: dict[str, tuple[str, str]] = {}
    for module_name, symbols in API_TARGETS:
        module = importlib.import_module(module_name)
        names = list(symbols) if symbols is not None else list(
            getattr(module, "__all__", [])
        )
        if not names:
            warnings.append(f"API target {module_name} exports nothing to document")
            continue
        fragment: list[str] = [f"<h1>{html.escape(module_name)}</h1>"]
        module_doc = _doc_of(module)
        if module_doc is None:
            warnings.append(f"missing docstring: module {module_name}")
        else:
            summary = module_doc.split("\n\n")[0]
            fragment.append(f'<pre class="doc">{html.escape(summary)}</pre>')
        for name in names:
            if not hasattr(module, name):
                warnings.append(f"API target {module_name}.{name} does not exist")
                continue
            obj = getattr(module, name)
            if isinstance(obj, str):  # e.g. __version__ strings
                continue
            fragment.append(_render_symbol(module_name, name, obj, warnings))
        filename = "api-" + module_name.replace(".", "-") + ".html"
        pages[filename] = (module_name, "\n".join(fragment))
    return pages


# -- SQL-dialect coverage ------------------------------------------------------


def _sql_coverage_terms() -> list[str]:
    """Every term the SQL dialect page must mention.

    Statements come from the parser's grammar, functions from the live
    registry (:data:`repro.sql.functions.FUNCTIONS`) so a newly registered
    function fails the docs build until documented, binding forms and
    error classes from their modules.
    """
    from repro.sql.errors import __all__ as error_names
    from repro.sql.functions import FUNCTIONS

    statements = [
        "SHOW DATASETS",
        "CREATE DATASET",
        "DROP DATASET",
        "LOAD DATASET",
        "INSERT INTO",
        "SELECT COUNT(*)",
        "SELECT",
        "ORDER BY",
        "LIMIT",
        "WHERE",
        "EXPLAIN",
    ]
    bindings = [":name", "?"]
    errors = [name for name in error_names if not name.startswith("format")]
    return statements + sorted(FUNCTIONS) + bindings + errors


SQL_COVERAGE_TERMS = _sql_coverage_terms


# -- site assembly -------------------------------------------------------------


def _page_shell(title: str, nav_html: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'/>"
        f"<title>{html.escape(title)} — repro-s2t</title>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'/>"
        "<link rel='stylesheet' href='style.css'/></head>"
        f"<body><nav>{nav_html}</nav><main>{body}</main></body></html>\n"
    )


def build_site(source: Path, out: Path) -> list[str]:
    """Build the site from ``source`` into ``out``; returns the warnings.

    The build always completes (every page is written even when warnings
    accumulate) so the rendered output can be inspected; strictness is the
    caller's policy (:func:`main` exits non-zero on warnings unless
    ``--no-strict``).
    """
    warnings: list[str] = []
    out.mkdir(parents=True, exist_ok=True)
    (out / "style.css").write_text(_STYLE)

    api_pages = _api_pages(warnings)

    nav_parts = ["<h1>repro-s2t</h1>"]
    for filename, title in NAV:
        nav_parts.append(f'<a href="{filename[:-3]}.html">{html.escape(title)}</a>')
    nav_parts.append('<div class="section">API reference</div>')
    for filename, (module_name, _) in sorted(api_pages.items()):
        nav_parts.append(f'<a href="{filename}">{html.escape(module_name)}</a>')
    nav_html = "\n".join(nav_parts)

    page_names = {filename for filename, _ in NAV}
    for filename, title in NAV:
        path = source / filename
        if not path.exists():
            warnings.append(f"missing docs page: {filename}")
            continue
        text = path.read_text()
        for match in re.finditer(r"\]\(([^)#\s]+\.md)(#[^)]*)?\)", text):
            target = match.group(1)
            if not target.startswith(("http:", "https:")) and target not in page_names:
                if not (source / target).exists():
                    warnings.append(f"{filename}: broken link to {target}")
        if filename == "sql-dialect.md":
            for term in _sql_coverage_terms():
                if term not in text:
                    warnings.append(f"sql-dialect.md does not document {term!r}")
        (out / f"{filename[:-3]}.html").write_text(
            _page_shell(title, nav_html, md_to_html(text))
        )

    for filename, (module_name, fragment) in api_pages.items():
        (out / filename).write_text(_page_shell(module_name, nav_html, fragment))
    return warnings


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``repro-docs`` (and ``python -m repro.docsgen``)."""
    parser = argparse.ArgumentParser(
        prog="repro-docs",
        description="Build the documentation site (stdlib-only, strict by default).",
    )
    parser.add_argument(
        "--source", default="docs", help="directory holding the markdown sources"
    )
    parser.add_argument(
        "--out", default=None, help="output directory (default: <source>/_site)"
    )
    parser.add_argument(
        "--no-strict",
        action="store_true",
        help="report warnings without failing the build",
    )
    args = parser.parse_args(argv)
    source = Path(args.source)
    if not source.exists():
        print(f"docs source directory {source} does not exist", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else source / "_site"
    warnings = build_site(source, out)
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    print(f"site written to {out} ({len(warnings)} warning(s))")
    if warnings and not args.no_strict:
        print("strict mode: warnings are errors", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - direct execution helper
    sys.exit(main())
