//! Execution of the cache-admin verbs: `clear_cache`, `cache_limits`,
//! `save_cache`, `load_cache`.
//!
//! These run **on the connection thread**, never on the worker pool, for
//! the same reason `stats` does: an operator managing an overloaded server
//! (shrinking the cache, persisting it before a restart) must not queue
//! behind the very decisions that are overloading it.  All four verbs are
//! cheap relative to a decision — `save_cache`/`load_cache` do file I/O,
//! but only on the one connection issuing them.
//!
//! Snapshot files use the versioned format of
//! [`nonrec_equivalence::snapshot`].  Persistence is **opt-in and
//! confined**: without `--cache-file`, `save_cache`/`load_cache` are
//! refused outright; with it, a path-less request uses the configured
//! file, and a request-supplied `path` must be a bare file name, resolved
//! **next to** the configured file.  A socket client therefore can only
//! ever touch snapshot files inside the directory the operator designated
//! — never arbitrary filesystem paths (the wire protocol would otherwise
//! be a file-write/read primitive running as the server user).

use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nonrec_equivalence::cache::{CacheLimits, CacheSizes, DecisionCache};

use crate::json::{obj, Value};
use crate::protocol::WireError;

fn sizes_json(sizes: CacheSizes) -> Value {
    obj(vec![
        ("entries", Value::num(sizes.total() as f64)),
        ("decisions", Value::num(sizes.decisions as f64)),
        ("cq_pairs", Value::num(sizes.cq_pairs as f64)),
        ("cq_in_program", Value::num(sizes.cq_in_program as f64)),
    ])
}

/// Resolve the target of a `save_cache`/`load_cache` request against the
/// server's `--cache-file` (`None`: persistence is disabled).  A
/// request-supplied `path` must be a bare file name (one normal component
/// — no directories, no `..`, not absolute) and resolves into the
/// configured file's directory.
fn resolve_path(
    requested: &Option<String>,
    cache_file: Option<&Path>,
) -> Result<PathBuf, WireError> {
    let default = cache_file.ok_or_else(|| {
        WireError::bad_request(
            "snapshot persistence is disabled: the server was started without --cache-file",
        )
    })?;
    match requested {
        None => Ok(default.to_path_buf()),
        Some(name) => {
            let mut components = Path::new(name).components();
            let bare = matches!(
                (components.next(), components.next()),
                (Some(Component::Normal(_)), None)
            );
            if !bare {
                return Err(WireError::bad_request(format!(
                    "`path` must be a bare file name (resolved next to the configured \
                     --cache-file), not `{name}`"
                )));
            }
            Ok(default.parent().unwrap_or(Path::new(".")).join(name))
        }
    }
}

/// `clear_cache`: drop every cache layer, reporting what each held.
pub(crate) fn clear_cache(cache: &DecisionCache) -> Value {
    // "Forget everything" covers the text-level memos too: a repeated
    // request after a clear must recompute, not replay.
    let memoised = crate::memo::ResponseMemo::global().len();
    crate::memo::ResponseMemo::global().clear();
    let lines = crate::memo::LineMemo::global().len();
    crate::memo::LineMemo::global().clear();
    let dropped = cache.clear();
    obj(vec![
        ("dropped", sizes_json(dropped)),
        ("dropped_memo", Value::num(memoised as f64)),
        ("dropped_memo_lines", Value::num(lines as f64)),
    ])
}

/// `cache_limits`: install `set` (when given), then report the limits in
/// force, the segment sizes and the eviction count.
pub(crate) fn cache_limits(cache: &DecisionCache, set: Option<CacheLimits>) -> Value {
    if let Some(limits) = set {
        cache.set_limits(limits);
    }
    obj(vec![
        ("limits", crate::protocol::cache_limits_json(cache.limits())),
        ("sizes", sizes_json(cache.sizes())),
        ("evictions", Value::num(cache.stats().evictions() as f64)),
    ])
}

/// `save_cache`: persist `cache` to the requested snapshot file (see
/// the module docs for where it may live).
pub(crate) fn save_cache(
    cache: &DecisionCache,
    requested: &Option<String>,
    cache_file: Option<&Path>,
) -> Result<Value, WireError> {
    let path = resolve_path(requested, cache_file)?;
    let (bytes, saved) = cache.snapshot();
    // Write-then-rename so a crash mid-write cannot leave a half snapshot
    // under the real name (the checksum would catch it, but a warm start
    // should not be lost to a torn write either).  The temporary name is
    // unique per process *and* per call: concurrent saves to the same
    // target must not interleave writes into one shared `.tmp` file, or
    // the rename would publish exactly the torn snapshot the scheme
    // exists to prevent (last complete rename wins instead).
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        "{}.{}.{}.tmp",
        path.file_name().unwrap_or_default().to_string_lossy(),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, &bytes)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| WireError::new("io_error", format!("writing {}: {e}", path.display())))?;
    Ok(obj(vec![
        ("path", Value::str(path.display().to_string())),
        ("bytes", Value::num(bytes.len() as f64)),
        // The counts of what the snapshot *contains* — on a live cache,
        // `cache.sizes()` could already disagree with the written file.
        ("saved", sizes_json(saved)),
    ]))
}

/// `load_cache`: merge the requested snapshot file into `cache`.
pub(crate) fn load_cache(
    cache: &DecisionCache,
    requested: &Option<String>,
    cache_file: Option<&Path>,
) -> Result<Value, WireError> {
    let path = resolve_path(requested, cache_file)?;
    let bytes = std::fs::read(&path)
        .map_err(|e| WireError::new("io_error", format!("reading {}: {e}", path.display())))?;
    let added = cache
        .load_snapshot_bytes(&bytes)
        .map_err(|e| WireError::new(e.code(), format!("loading {}: {e}", path.display())))?;
    Ok(obj(vec![
        ("path", Value::str(path.display().to_string())),
        ("loaded", sizes_json(added)),
        ("entries", Value::num(cache.len() as f64)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nonrec-admin-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn persistence_without_cache_file_is_refused() {
        let cache = DecisionCache::global();
        for err in [
            save_cache(cache, &None, None).unwrap_err(),
            save_cache(cache, &Some("snap.nrdc".into()), None).unwrap_err(),
            load_cache(cache, &None, None).unwrap_err(),
        ] {
            assert_eq!(err.code, "bad_request");
            assert!(err.message.contains("--cache-file"));
        }
    }

    #[test]
    fn request_paths_are_confined_to_the_cache_file_directory() {
        let cache = DecisionCache::global();
        let cache_file = tmp_path("confined.nrdc");
        for escape in ["../escape.nrdc", "/etc/passwd", "a/b.nrdc", ".."] {
            let err = save_cache(cache, &Some(escape.to_string()), Some(&cache_file)).unwrap_err();
            assert_eq!(err.code, "bad_request", "for {escape}");
            assert!(err.message.contains("bare file name"), "for {escape}");
        }
        // A bare name lands next to the configured file.
        let name = format!("confined-sibling-{}.nrdc", std::process::id());
        let sibling = std::env::temp_dir().join(&name);
        let _ = std::fs::remove_file(&sibling);
        let result = save_cache(cache, &Some(name.clone()), Some(&cache_file)).unwrap();
        assert_eq!(
            result.get("path").unwrap().as_str(),
            Some(sibling.display().to_string().as_str())
        );
        assert!(sibling.exists());
        let _ = std::fs::remove_file(&sibling);
    }

    #[test]
    fn load_failures_carry_stable_codes() {
        let cache = DecisionCache::global();
        let missing = tmp_path("missing.nrdc");
        let _ = std::fs::remove_file(&missing);
        let err = load_cache(cache, &None, Some(&missing)).unwrap_err();
        assert_eq!(err.code, "io_error");

        let garbage = tmp_path("garbage.nrdc");
        std::fs::write(&garbage, b"not a snapshot").unwrap();
        let err = load_cache(cache, &None, Some(&garbage)).unwrap_err();
        assert_eq!(err.code, "snapshot_error");
        let _ = std::fs::remove_file(&garbage);
    }

    #[test]
    fn save_uses_the_configured_default_path() {
        let cache = DecisionCache::global();
        let path = tmp_path("default.nrdc");
        let result = save_cache(cache, &None, Some(&path)).unwrap();
        assert_eq!(
            result.get("path").unwrap().as_str(),
            Some(path.display().to_string().as_str())
        );
        assert!(path.exists());
        // And loads back through the same default.
        let loaded = load_cache(cache, &None, Some(&path)).unwrap();
        assert!(loaded.get("loaded").is_some());
        let _ = std::fs::remove_file(&path);
    }
}
