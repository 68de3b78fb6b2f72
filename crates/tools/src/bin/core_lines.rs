//! `core_lines` — counts the lines of the file system's own code: every
//! `.rs` file under `crates/core/src`, leaving out `*_tests.rs` files and
//! `#[cfg(test)] mod … { … }` blocks. Prints two figures: all lines, and
//! code lines only (neither blank nor a `//` comment line).
//!
//! Usage: `core_lines [dir]` (default `crates/core/src`, run from the
//! repository root).

use std::path::{Path, PathBuf};

/// All lines and code lines of one source text, test modules left out.
fn count(src: &str) -> (usize, usize) {
    let (mut all, mut code) = (0, 0);
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        let t = line.trim();
        if t == "#[cfg(test)]" && lines.peek().is_some_and(|l| is_mod_block(l.trim())) {
            // Skip to the brace that closes the module.
            let mut depth = 0i64;
            for l in lines.by_ref() {
                depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                if depth <= 0 {
                    break;
                }
            }
            continue;
        }
        all += 1;
        if !t.is_empty() && !t.starts_with("//") {
            code += 1;
        }
    }
    (all, code)
}

fn is_mod_block(line: &str) -> bool {
    let line = line.strip_prefix("pub(crate) ").unwrap_or(line);
    line.starts_with("mod ") && line.ends_with('{')
}

/// Every `.rs` file under `dir` but the `*_tests.rs` ones, sorted.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs")
            && !path.to_string_lossy().ends_with("_tests.rs")
        {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

fn main() -> std::process::ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "crates/core/src".into());
    let mut files = Vec::new();
    if let Err(e) = sources(Path::new(&dir), &mut files) {
        eprintln!("core_lines: {dir}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    let (mut all, mut code) = (0, 0);
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(src) => {
                let (a, c) = count(&src);
                all += a;
                code += c;
            }
            Err(e) => {
                eprintln!("core_lines: {}: {e}", f.display());
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{dir}: {all} lines, {code} code lines ({} files)",
        files.len()
    );
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::count;

    #[test]
    fn test_modules_comments_and_blank_lines_are_left_out() {
        let src = "//! Doc.\nfn a() {}\n\n/// b\nfn b() {\n    // c\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn z() {}\n";
        // All: 8 lines outside the test module; code: `fn a`, `fn b {`,
        // `}` and `fn z`.
        assert_eq!(count(src), (8, 4));
    }
}
