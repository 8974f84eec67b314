//! The workspace model: which files are scanned, which crate each belongs
//! to, and which tokens sit inside `#[cfg(test)]` items.

use crate::lexer::{lex, LineComment, Tok, Token};
use crate::parse::FileItems;
use crate::resolve::UseMap;
use crate::suppress::Allow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The pseudo-crate name for the workspace-root package's own sources
/// (`src/`, `tests/`, `examples/`).
pub const ROOT_PKG: &str = "object-oriented-consensus";

/// Crates whose runs must be a pure function of the seed. The simulator,
/// the framework, and every protocol implementation live here; the
/// campaign/bench/lint tooling that *measures* those runs does not.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "ooc-core",
    "ooc-simnet",
    "ooc-sharedmem",
    "ooc-ben-or",
    "ooc-phase-king",
    "ooc-raft",
    ROOT_PKG,
];

/// Individual modules inside tooling crates that are nevertheless bound
/// by the determinism contract. The parallel campaign executor promises
/// byte-identical output for every `--jobs` value, which makes it
/// deterministic code living in a measurement crate. The stable-storage
/// model, the timing-wheel scheduler, the network model and the
/// reliable-delivery layer are listed explicitly too: all four are
/// already covered via [`DETERMINISTIC_CRATES`] (`ooc-simnet`), but
/// pinning the paths keeps crash-recovery semantics, the engine's
/// `(at, seq)` pop order, the routing RNG's per-message draw order and
/// the retransmission backoff/jitter derivation chain in scope even if
/// the crate list changes.
pub const DETERMINISTIC_MODULES: &[&str] = &[
    "crates/ooc-campaign/src/degradation.rs",
    "crates/ooc-campaign/src/parallel.rs",
    "crates/ooc-simnet/src/network.rs",
    "crates/ooc-simnet/src/queue.rs",
    "crates/ooc-simnet/src/reliable.rs",
    "crates/ooc-simnet/src/storage.rs",
];

/// One scanned source file, fully lexed and annotated.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// The crate the file belongs to (directory name under `crates/`, or
    /// [`ROOT_PKG`]).
    pub crate_name: String,
    /// Source lines, for snippet extraction.
    pub lines: Vec<String>,
    /// Lexed code tokens.
    pub tokens: Vec<Token>,
    /// Per-token flag: `true` when the token is *outside* every
    /// `#[cfg(test)]` / `#[test]` item.
    pub non_test: Vec<bool>,
    /// All `//` comments.
    pub comments: Vec<LineComment>,
    /// Parsed suppression annotations.
    pub allows: Vec<Allow>,
    /// The file's `use` declarations.
    pub uses: UseMap,
    /// Item-level structure (fns, structs, enums) parsed from the tokens.
    pub items: FileItems,
    /// Whether the file lives under a `tests/` or `benches/` directory
    /// (integration tests and benchmarks, not shipped code).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Builds a file model from source text (the unit tests feed snippets
    /// through this directly).
    pub fn from_source(path: &str, crate_name: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let non_test = mask_cfg_test(&lexed.tokens);
        let uses = UseMap::parse(&lexed.tokens);
        let is_test_file = path.contains("/tests/") || path.contains("/benches/")
            || path.starts_with("tests/") || path.starts_with("benches/");
        let mut file = SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            lines: text.lines().map(String::from).collect(),
            tokens: lexed.tokens,
            non_test,
            comments: lexed.comments,
            allows: Vec::new(),
            uses,
            items: FileItems::default(),
            is_test_file,
        };
        file.allows = crate::suppress::parse_allows(&file);
        file.items = crate::parse::parse_items(&file);
        file
    }

    /// Whether this file is bound by the determinism contract: it belongs
    /// to a determinism-contract crate, or is one of the individually
    /// listed [`DETERMINISTIC_MODULES`].
    pub fn deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_name.as_str())
            || DETERMINISTIC_MODULES.contains(&self.path.as_str())
    }

    /// The trimmed source line `line` (1-based), for findings.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// The smallest token line strictly greater than `line`, used to
    /// attach standalone suppression comments to the code they precede.
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        self.tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > line)
            .min()
    }
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute root directory.
    pub root: PathBuf,
    /// Every scanned file, in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace model from in-memory files (fixture tests).
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files,
        }
    }

    /// Scans the real workspace at `root`: the root package's `src/`,
    /// `tests/` and `examples/`, plus every `crates/*/{src,tests,benches,examples}`.
    /// Nothing else, `target/` included, is scanned.
    pub fn scan(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let mut paths: Vec<(PathBuf, String)> = Vec::new();
        for dir in ["src", "tests", "examples"] {
            collect_rs(&root.join(dir), &mut |p| {
                paths.push((p, ROOT_PKG.to_string()));
            })?;
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            entries.sort();
            for krate in entries {
                let name = krate
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                for dir in ["src", "tests", "benches", "examples"] {
                    collect_rs(&krate.join(dir), &mut |p| {
                        paths.push((p, name.clone()));
                    })?;
                }
            }
        }
        paths.sort();
        for (path, crate_name) in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::from_source(&rel, &crate_name, &text));
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Walks up from `start` to the directory whose `Cargo.toml` declares
    /// `[workspace]`.
    pub fn find_root(start: &Path) -> Option<PathBuf> {
        let mut dir = start.to_path_buf();
        loop {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                if let Ok(text) = fs::read_to_string(&manifest) {
                    if text.contains("[workspace]") {
                        return Some(dir);
                    }
                }
            }
            if !dir.pop() {
                return None;
            }
        }
    }
}

/// Recursively collects `.rs` files under `dir` (silently skips a missing
/// dir — not every crate has `benches/`).
fn collect_rs(dir: &Path, push: &mut impl FnMut(PathBuf)) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, push)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            push(path);
        }
    }
    Ok(())
}

/// Computes, per token, whether it sits outside every `#[cfg(test)]` /
/// `#[test]`-gated item. Attribute matching is deliberately loose — any
/// `cfg(...)` attribute mentioning `test` gates the following item — which
/// errs on the side of *not* linting test-only code.
fn mask_cfg_test(tokens: &[Token]) -> Vec<bool> {
    let mut non_test = vec![true; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some((attr_end, gates_test)) = parse_attr(tokens, i) {
            if gates_test {
                // Skip any further attributes on the same item.
                let mut j = attr_end;
                while let Some((next_end, _)) = parse_attr(tokens, j) {
                    j = next_end;
                }
                let item_end = skip_item(tokens, j);
                for flag in non_test.iter_mut().take(item_end).skip(i) {
                    *flag = false;
                }
                i = item_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    non_test
}

/// If `i` starts an attribute (`#[...]` or `#![...]`), returns the index
/// past its closing `]` and whether it is test-gating.
fn parse_attr(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !tokens.get(i)?.is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.is_punct('!') {
        j += 1;
    }
    if !tokens.get(j)?.is_punct('[') {
        return None;
    }
    let mut depth = 1;
    let mut idents = Vec::new();
    j += 1;
    while j < tokens.len() && depth > 0 {
        match &tokens[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            Tok::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
        j += 1;
    }
    let gates = match idents.first() {
        Some(&"cfg") => idents.contains(&"test"),
        Some(&"test") => true,
        _ => false,
    };
    Some((j, gates))
}

/// Skips one item starting at `i`: to its matching close brace if a `{`
/// opens before any top-level `;`, else to the `;`.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') => {
                let mut depth = 1;
                j += 1;
                while j < tokens.len() && depth > 0 {
                    match &tokens[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            Tok::Punct(';') => return j + 1,
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "fn live() { a(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { hidden(); }\n}\n\
                   fn live2() { b(); }";
        let f = SourceFile::from_source("src/x.rs", "ooc-core", src);
        let visible: Vec<&str> = f
            .tokens
            .iter()
            .zip(&f.non_test)
            .filter(|(_, &nt)| nt)
            .filter_map(|(t, _)| t.ident())
            .collect();
        assert!(visible.contains(&"a"));
        assert!(visible.contains(&"b"));
        assert!(!visible.contains(&"hidden"));
    }

    #[test]
    fn test_attr_masks_single_fn() {
        let src = "#[test]\nfn t() { hidden(); }\nfn live() { a(); }";
        let f = SourceFile::from_source("src/x.rs", "ooc-core", src);
        let visible: Vec<&str> = f
            .tokens
            .iter()
            .zip(&f.non_test)
            .filter(|(_, &nt)| nt)
            .filter_map(|(t, _)| t.ident())
            .collect();
        assert!(!visible.contains(&"hidden"));
        assert!(visible.contains(&"a"));
    }

    #[test]
    fn non_gating_attrs_do_not_mask() {
        let src = "#[derive(Debug)]\nstruct S { x: u64 }\nfn live() {}";
        let f = SourceFile::from_source("src/x.rs", "ooc-core", src);
        assert!(f.non_test.iter().all(|&b| b));
    }
}
