# Sourced by tools/rows_vs_parent.sh and tools/perf_vs_parent.sh from
# the repository root: export a reference revision next to this
# checkout and build both.
#
# parent_tree <rev> <name> [<target>...] makes $work, a new directory
# under $TMPDIR that is removed on exit, and exports <rev> into
# $work/ref with `git archive` (no worktree bookkeeping is left in
# .git). With targets, it builds them in $work/ref/build
# (RelWithDebInfo) and in this checkout's build/ (the default preset,
# so uncommitted edits are included).
parent_tree() {
  rev="$1"
  name="$2"
  shift 2
  if ! git rev-parse --verify -q "$rev^{commit}" >/dev/null; then
    echo "$name: unknown revision $rev" >&2
    exit 2
  fi
  jobs="$(nproc 2>/dev/null || echo 4)"
  work="$(mktemp -d "${TMPDIR:-/tmp}/$name.XXXXXX")"
  trap 'rm -rf "$work"' EXIT INT TERM
  mkdir -p "$work/ref"
  echo "== exporting reference $rev ($(git rev-parse --short "$rev")) =="
  git archive --format=tar "$rev" | tar -x -C "$work/ref"
  [ "$#" -gt 0 ] || return 0
  echo "== building $* in the reference and in this checkout =="
  cmake -S "$work/ref" -B "$work/ref/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$work/ref/build" -j "$jobs" --target "$@" >/dev/null
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target "$@" >/dev/null
}
